"""Tests for the equivalence checkers: BDD CEC edge cases, exhaustive
simulation, the unified verify runner, and adder proof scaling."""

import math

import pytest

import repro.verify.cec as cec
from repro.bds import bds_optimize
from repro.circuits import build_circuit
from repro.network import Network, parse_blif
from repro.sop.cube import lit
from repro.verify import (
    EXHAUSTIVE_LIMIT,
    VerifyError,
    check_equivalence,
    require_equivalent,
    simulate_equivalence,
    verify_networks,
)


def _corrupted_add4():
    """add4 with the first sum node's XOR cover flipped to XNOR."""
    net = build_circuit("add4")
    bad = net.copy()
    bad.nodes["fa0_s"].cover = [frozenset({lit(0), lit(1)}),
                                frozenset({lit(0, False), lit(1, False)})]
    return net, bad


class TestCheckEquivalence:
    def test_counterexample_actually_distinguishes(self):
        net, bad = _corrupted_add4()
        res = check_equivalence(net, bad)
        assert not res.equivalent
        assert res.failing_output is not None
        cex = res.counterexample
        assert set(cex) == set(net.inputs)
        got_a = net.eval(cex)
        got_b = bad.eval(cex)
        assert got_a[res.failing_output] != got_b[res.failing_output]

    def test_mismatched_inputs_raise(self):
        a = parse_blif(".model a\n.inputs x\n.outputs y\n"
                       ".names x y\n1 1\n.end")
        b = parse_blif(".model b\n.inputs z\n.outputs y\n"
                       ".names z y\n1 1\n.end")
        with pytest.raises(ValueError, match="input sets differ"):
            check_equivalence(a, b)

    def test_mismatched_outputs_raise(self):
        a = parse_blif(".model a\n.inputs x\n.outputs y\n"
                       ".names x y\n1 1\n.end")
        b = parse_blif(".model b\n.inputs x\n.outputs w\n"
                       ".names x w\n1 1\n.end")
        with pytest.raises(ValueError, match="output sets differ"):
            check_equivalence(a, b)

    def test_size_cap_reports_unknown_not_pass(self):
        net = build_circuit("add4")
        res = check_equivalence(net, net.copy(), size_cap=1)
        assert not res.equivalent           # unknown is not a pass
        assert res.counterexample is None
        assert res.unknown_outputs
        assert set(res.unknown_outputs) | set(res.checked_outputs) \
            == set(net.outputs)

    def test_identical_networks_prove_all_outputs(self):
        net = build_circuit("parity8")
        res = check_equivalence(net, net.copy())
        assert res.equivalent
        assert sorted(res.checked_outputs) == sorted(net.outputs)
        assert not res.unknown_outputs


class TestSimulateEquivalence:
    def test_exhaustive_catches_single_minterm_bug(self):
        # AND of 12 inputs vs constant 0: they differ on exactly one of
        # the 4096 assignments -- random patterns would almost surely
        # miss it, the exhaustive path cannot.
        n = EXHAUSTIVE_LIMIT
        names = ["i%d" % k for k in range(n)]
        a = Network("wide_and")
        b = Network("const0")
        for net in (a, b):
            for name in names:
                net.add_input(name)
            net.add_output("y")
        a.add_node("y", names,
                   [frozenset(lit(k) for k in range(n))])
        b.add_const("y", False)
        agree, cex = simulate_equivalence(a, b)
        assert not agree
        assert cex == {name: True for name in names}

    def test_exhaustive_agreement_is_a_proof(self):
        net = build_circuit("add4")
        assert len(net.inputs) <= EXHAUSTIVE_LIMIT
        agree, cex = simulate_equivalence(net, net.copy())
        assert agree and cex is None

    def test_seeded_random_fallback_reproduces(self):
        net = build_circuit("bshift32")   # > EXHAUSTIVE_LIMIT inputs
        assert len(net.inputs) > EXHAUSTIVE_LIMIT
        bad = net.copy()
        out = bad.outputs[0]
        node = bad.nodes[out]
        node.cover = [frozenset()]                 # stuck-at-1 miscompile
        first = simulate_equivalence(net, bad, seed=7)
        second = simulate_equivalence(net, bad, seed=7)
        assert first == second
        assert not first[0]


class TestVerifyRunner:
    def test_modes_agree_on_equivalent(self):
        net = build_circuit("add4")
        for mode in ("sim", "cec", "full"):
            outcome = verify_networks(net, net.copy(), mode=mode)
            assert outcome.equivalent, mode
            assert outcome.outputs_checked > 0

    def test_full_mode_exhaustive_crosscheck_is_a_proof(self):
        net = build_circuit("add4")        # <= EXHAUSTIVE_LIMIT inputs
        outcome = verify_networks(net, net.copy(), mode="full", size_cap=1)
        assert outcome.equivalent
        assert outcome.proven              # full truth table = proof
        assert not outcome.unknown_outputs

    def test_full_mode_random_crosscheck_stays_unproven(self):
        net = build_circuit("bshift32")    # > EXHAUSTIVE_LIMIT inputs
        outcome = verify_networks(net, net.copy(), mode="full", size_cap=1)
        assert outcome.equivalent          # simulation vouches for them
        assert not outcome.proven          # ... but it is not a proof
        assert outcome.unknown_outputs

    def test_require_equivalent_raises_with_counterexample(self):
        net, bad = _corrupted_add4()
        with pytest.raises(VerifyError) as info:
            require_equivalent(net, bad, mode="full")
        err = info.value
        assert err.mode == "full"
        assert err.failing_output is not None
        assert set(err.counterexample) == set(net.inputs)

    def test_unknowns_do_not_raise(self):
        net = build_circuit("add16")       # > EXHAUSTIVE_LIMIT inputs
        outcome = require_equivalent(net, net.copy(), mode="cec",
                                     size_cap=1)
        assert outcome.unknown_outputs

    def test_bad_mode_rejected(self):
        net = build_circuit("add4")
        with pytest.raises(ValueError):
            verify_networks(net, net.copy(), mode="nope")


class TestAdderScaling:
    """BDD verification of adders is polynomial (Drechsler, arXiv
    2104.03024): the checker must prove every output of an optimized
    adder, with work growing about linearly in the width."""

    @staticmethod
    def _checker_ite_calls(monkeypatch, name):
        spec = build_circuit(name)
        impl = bds_optimize(spec).network
        managers = []
        make = cec.BDD

        def keep_manager():
            mgr = make()
            managers.append(mgr)
            return mgr

        with monkeypatch.context() as m:
            m.setattr(cec, "BDD", keep_manager)
            result = check_equivalence(spec, impl)
        assert result.equivalent, name
        assert not result.unknown_outputs, name
        assert result.checked_outputs == list(spec.outputs)
        [mgr] = managers
        return mgr.perf.ite_calls

    @staticmethod
    def _exponent(widths, calls):
        """Least-squares slope of log(calls) against log(width)."""
        xs = [math.log(w) for w in widths]
        ys = [math.log(c) for c in calls]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))

    @pytest.mark.parametrize("family, widths", [
        ("add", (32, 64, 128, 256)),     # ripple carry
        ("cla", (32, 64, 128)),          # carry lookahead
    ])
    def test_proof_work_grows_linearly(self, monkeypatch, family, widths):
        calls = [self._checker_ite_calls(monkeypatch, "%s%d" % (family, w))
                 for w in widths]
        assert self._exponent(widths, calls) <= 1.3, calls
