"""Integration tests: the full BDS flow on small circuits + verification."""

import gc
import random
import weakref

import pytest

from repro.bdd import BDD
from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.decomp.engine import DecompOptions
from repro.network import Network
from repro.verify import check_equivalence, simulate_equivalence


def _random_network(rng, n_inputs=6, n_nodes=14, n_outputs=3):
    net = Network("rand")
    signals = [net.add_input("i%d" % i) for i in range(n_inputs)]
    for j in range(n_nodes):
        k = rng.choice([2, 2, 3])
        fanins = rng.sample(signals, min(k, len(signals)))
        kind = rng.choice(["and", "or", "xor", "and", "or"])
        name = "g%d" % j
        getattr(net, "add_" + kind)(name, fanins)
        signals.append(name)
    for j in range(n_outputs):
        net.add_output("g%d" % (n_nodes - 1 - j))
    net.remove_dangling()
    return net


def parity_circuit(n=8):
    net = Network("parity")
    names = [net.add_input("x%d" % i) for i in range(n)]
    prev = names[0]
    for i in range(1, n):
        cur = "p%d" % i if i < n - 1 else "parity"
        net.add_xor(cur, [prev, names[i]])
        prev = cur
    net.add_output("parity")
    return net


def adder_circuit(bits=4):
    net = Network("adder")
    a = [net.add_input("a%d" % i) for i in range(bits)]
    b = [net.add_input("b%d" % i) for i in range(bits)]
    carry = None
    for i in range(bits):
        s = "s%d" % i
        if carry is None:
            net.add_xor(s, [a[i], b[i]])
            net.add_and("c0", [a[i], b[i]])
            carry = "c0"
        else:
            net.add_xor("t%d" % i, [a[i], b[i]])
            net.add_xor(s, ["t%d" % i, carry])
            net.add_and("u%d" % i, ["t%d" % i, carry])
            net.add_and("v%d" % i, [a[i], b[i]])
            net.add_or("c%d" % i, ["u%d" % i, "v%d" % i])
            carry = "c%d" % i
        net.add_output(s)
    net.add_output(carry)
    return net


class TestBdsFlow:
    def test_parity_preserved_and_compact(self):
        net = parity_circuit(8)
        result = bds_optimize(net)
        check = check_equivalence(net, result.network)
        assert check.equivalent, check
        # XOR structure must be recognized: a chain of 2-input XOR gates
        # (4 SOP literals each), not the exponential flat cover.
        assert result.network.node_count() <= 8
        assert result.network.literal_count() <= 4 * 8

    def test_adder_preserved(self):
        net = adder_circuit(4)
        result = bds_optimize(net)
        check = check_equivalence(net, result.network)
        assert check.equivalent, (check.failing_output, check.counterexample)

    def test_random_networks_equivalent(self):
        rng = random.Random(7)
        for trial in range(6):
            net = _random_network(rng)
            result = bds_optimize(net)
            check = check_equivalence(net, result.network)
            assert check.equivalent, (
                trial, check.failing_output, check.counterexample)

    def test_decomp_disabled_fallback(self):
        rng = random.Random(13)
        net = _random_network(rng)
        opts = BDSOptions(decomp=DecompOptions(
            enable_simple=False, enable_mux=False,
            enable_generalized=False, enable_bool_xnor=False))
        result = bds_optimize(net, opts)
        assert check_equivalence(net, result.network).equivalent
        assert result.decomp_stats.total() == result.decomp_stats.shannon

    def test_timings_and_summary(self):
        net = parity_circuit(6)
        result = bds_optimize(net)
        assert set(result.timings) == {"sweep", "eliminate", "sdc",
                                       "decompose", "balance", "sharing",
                                       "lower"}
        # Untraced runs still record spans; timings is a view over them.
        assert result.trace is not None and result.trace.name == "flow"
        for span in result.trace.children:
            assert result.timings[span.name[len("flow."):]] == span.duration
        assert "literals" in str(result.network.stats())
        assert "supernodes" in result.summary()

    def test_output_driven_by_input(self):
        net = Network("thru")
        net.add_input("a")
        net.add_input("b")
        net.add_output("a")
        net.add_output("y")
        net.add_and("y", ["a", "b"])
        result = bds_optimize(net)
        assert check_equivalence(net, result.network).equivalent

    def test_constant_output(self):
        net = Network("const")
        net.add_input("a")
        net.add_output("k")
        net.add_xor("k", ["a", "a2"])
        net.add_buf("a2", "a")  # k == a xor a == 0
        result = bds_optimize(net)
        assert result.network.eval({"a": True})["k"] is False
        assert result.network.eval({"a": False})["k"] is False


class TestManagerLifetime:
    @pytest.mark.parametrize("circuit, options", [
        ("C499", BDSOptions(verify="cec")),
        ("C432", BDSOptions(use_sdc=True)),
    ])
    def test_no_manager_outlives_the_flow(self, monkeypatch, circuit,
                                          options):
        # Every manager a phase makes dies with its phase, by reference
        # counting alone: no cycle may hold one for the cyclic GC.
        made = []
        init = BDD.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(BDD, "__init__", tracked_init)
        net = build_circuit(circuit)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            bds_optimize(net, options)
            alive = [ref for ref in made if ref() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert len(made) > 10
        assert not alive, "%d of %d managers alive" % (len(alive), len(made))

    def test_flow_leaves_no_cyclic_garbage(self):
        # Reference counting frees everything a flow run makes: with the
        # cyclic GC off, a collection afterwards finds nothing to free.
        net = build_circuit("C499")
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            bds_optimize(net, BDSOptions(verify="cec"))
            found = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert found == 0, "%d objects only the cyclic GC frees" % found


class TestVerify:
    def test_detects_inequivalence(self):
        net1 = parity_circuit(4)
        net2 = net1.copy()
        # Corrupt one gate: turn final xor into xnor.
        node = net2.nodes["parity"]
        from repro.sop.cube import lit
        node.cover = [frozenset({lit(0), lit(1)}),
                      frozenset({lit(0, False), lit(1, False)})]
        res = check_equivalence(net1, net2)
        assert not res.equivalent
        assert res.failing_output == "parity"
        # The counterexample really distinguishes them.
        assert net1.eval(res.counterexample) != net2.eval(res.counterexample)

    def test_simulation_agrees_with_cec(self):
        rng = random.Random(17)
        net = _random_network(rng)
        result = bds_optimize(net)
        ok, cex = simulate_equivalence(net, result.network)
        assert ok and cex is None

    def test_simulation_detects_difference(self):
        net1 = parity_circuit(4)
        net2 = net1.copy()
        from repro.sop.cube import lit
        net2.nodes["parity"].cover = [frozenset({lit(0), lit(1)}),
                                      frozenset({lit(0, False), lit(1, False)})]
        ok, cex = simulate_equivalence(net1, net2)
        assert not ok
        assert net1.eval(cex) != net2.eval(cex)

    def test_interface_mismatch_raises(self):
        net1 = parity_circuit(4)
        net2 = parity_circuit(5)
        with pytest.raises(ValueError):
            check_equivalence(net1, net2)
