"""Both proof paths of ``repro.verify.verify_networks``.

Up to ``EXHAUSTIVE_LIMIT`` inputs every mode compares full truth tables
and builds no BDD; above it ``cec`` and ``full`` build global BDDs
through ``repro.verify.cec.BDD``.  A fault planted in a BDS result must
be caught on either path, in every mode, with a counterexample that
really distinguishes the two networks at ``failing_output``.
"""

import functools
import random
import time

import pytest

import repro.verify.cec as cec
from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.sop.cube import lit
from repro.verify import EXHAUSTIVE_LIMIT, verify_networks

EXHAUSTIVE = ["C880", "C5315", "C6288", "vda", "m6x6", "m8x8"]
BDD_PATH = ["C499", "add32"]
MODES = ["sim", "cec", "full"]


@functools.lru_cache(maxsize=None)
def _spec_and_result(name):
    spec = build_circuit(name)
    return spec, bds_optimize(spec).network


def _complement_output(net):
    """``net`` with its middle gate-driven output complemented, and the
    output's name."""
    driven = [o for o in net.outputs if o in net.nodes]
    out = driven[len(driven) // 2]
    bad = net.copy()
    node = bad.nodes[out]
    inner = bad.fresh_name(out + "_pre")
    bad.add_node(inner, list(node.fanins), list(node.cover))
    node.fanins = [inner]
    node.cover = [frozenset({lit(0, False)})]
    return bad, out


def _forbid_bdds(monkeypatch):
    def no_manager():
        raise AssertionError("the exhaustive path built a BDD manager")

    monkeypatch.setattr(cec, "BDD", no_manager)


def _count_bdds(monkeypatch):
    made = []
    make = cec.BDD

    def counted():
        made.append(1)
        return make()

    monkeypatch.setattr(cec, "BDD", counted)
    return made


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", EXHAUSTIVE + BDD_PATH)
def test_planted_fault_is_caught_with_a_counterexample(name, mode,
                                                       monkeypatch):
    spec, result = _spec_and_result(name)
    bad, out = _complement_output(result)
    # Simulation confirms the fault changes the output on every pattern.
    rng = random.Random(7)
    words = {i: rng.getrandbits(64) for i in spec.inputs}
    flipped = (result.eval_words(words)[out] ^ bad.eval_words(words)[out])
    assert flipped == (1 << 64) - 1
    exhaustive = len(spec.inputs) <= EXHAUSTIVE_LIMIT
    assert exhaustive == (name in EXHAUSTIVE)
    if exhaustive:
        _forbid_bdds(monkeypatch)
    else:
        made = _count_bdds(monkeypatch)
    outcome = verify_networks(spec, bad, mode=mode)
    assert not outcome.equivalent and not outcome.proven
    cex = outcome.counterexample
    assert set(cex) == set(spec.inputs)
    failing = outcome.failing_output
    assert spec.eval(cex)[failing] != bad.eval(cex)[failing]
    if not exhaustive:
        assert len(made) == (0 if mode == "sim" else 1)


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_exhaustive_path_proves_without_a_bdd(name, monkeypatch):
    spec, result = _spec_and_result(name)
    _forbid_bdds(monkeypatch)
    for mode in MODES:
        outcome = verify_networks(spec, result, mode=mode)
        assert outcome.equivalent and outcome.proven, mode
        assert outcome.outputs_checked == len(spec.outputs)
        assert not outcome.unknown_outputs


@pytest.mark.parametrize("size_cap", [0, 1, 100])
def test_small_circuit_is_proven_whatever_its_budget(size_cap):
    # Neither the work cap nor a deadline already past bounds a proof at
    # or below the limit: its verdict does not depend on the host.
    spec, result = _spec_and_result("m8x8")
    for mode in ("cec", "full"):
        outcome = verify_networks(spec, result, mode=mode, size_cap=size_cap,
                                  deadline=time.monotonic() - 1.0)
        assert outcome.equivalent and outcome.proven, mode
        assert not outcome.unknown_outputs


@pytest.mark.parametrize("name", ["C6288", "m8x8", "m10x10"])
def test_flow_proves_every_multiplier_output(name, monkeypatch):
    # With the default budget; the BDD checker is never called.
    _forbid_bdds(monkeypatch)
    net = build_circuit(name)
    assert len(net.inputs) <= EXHAUSTIVE_LIMIT
    result = bds_optimize(net, BDSOptions(verify="cec"))
    assert result.verify_unknown_outputs == []
    assert result.perf["verify_outputs_checked"] == len(net.outputs)
    assert result.perf["verify_unknown"] == 0
