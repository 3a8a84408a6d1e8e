"""Tests for sweep and eliminate (both cube- and BDD-domain variants)."""

import gc
import hashlib
import importlib
import itertools
import random
import weakref

import pytest

from repro.bds import bds_optimize, flow
from repro.circuits import build_circuit, random_logic
from repro.network import Network, eliminate_literal, sweep
from repro.network.blif import write_blif
from repro.network.eliminate import PartitionedNetwork, collapse_node_into
from repro.network.sweep import substitute_fanin
from repro.sop.cube import lit

sweep_module = importlib.import_module("repro.network.sweep")


def _equivalent(a: Network, b: Network, seed=1, rounds=64) -> bool:
    rng = random.Random(seed)
    assert set(a.inputs) == set(b.inputs)
    assert list(a.outputs) == list(b.outputs)
    for _ in range(rounds):
        assignment = {i: rng.random() < 0.5 for i in a.inputs}
        if a.eval(assignment) != b.eval(assignment):
            return False
    return True


def _exhaustive_equivalent(a: Network, b: Network) -> bool:
    for bits in itertools.product([False, True], repeat=len(a.inputs)):
        assignment = dict(zip(a.inputs, bits))
        if a.eval(assignment) != b.eval(assignment):
            return False
    return True


def small_circuit() -> Network:
    net = Network("c")
    for n in "abcd":
        net.add_input(n)
    net.add_output("y")
    net.add_output("z")
    net.add_and("p", ["a", "b"])
    net.add_and("q", ["a", "b"])       # structural duplicate of p
    net.add_buf("pb", "p")             # buffer
    net.add_not("pn", "p")             # inverter
    net.add_or("y", ["pb", "c"])
    net.add_and("z", ["pn", "q", "d"])
    return net


class TestSweep:
    def test_preserves_function(self):
        net = small_circuit()
        ref = net.copy()
        sweep(net)
        assert _exhaustive_equivalent(ref, net)

    def test_removes_buffers_and_duplicates(self):
        net = small_circuit()
        sweep(net)
        assert "pb" not in net.nodes
        # p and q merged into one.
        assert not ("p" in net.nodes and "q" in net.nodes)

    def test_constant_propagation(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_const("one", True)
        net.add_and("y", ["a", "one"])
        sweep(net)
        assert _exhaustive_equivalent_single(net, lambda a: a)
        assert "one" not in net.nodes

    def test_constant_zero_and(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_const("zero", False)
        net.add_and("y", ["a", "zero"])
        sweep(net)
        assert net.eval({"a": True})["y"] is False
        assert net.eval({"a": False})["y"] is False

    def test_functional_merge(self):
        # Two structurally different but equivalent nodes: a&b vs ~(~a|~b).
        net = Network()
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_and("u", ["a", "b"])
        net.add_node("v", ["a", "b"],
                     [frozenset({lit(0), lit(1)})])
        # Build v differently: ~( ~a + ~b ) as a two-node chain.
        net.add_node("w1", ["a", "b"],
                     [frozenset({lit(0, False)}), frozenset({lit(1, False)})])
        net.add_not("w", "w1")
        net.add_node("y", ["u", "v", "w"],
                     [frozenset({lit(0), lit(1), lit(2)})])
        ref = net.copy()
        sweep(net)
        assert _exhaustive_equivalent(ref, net)
        # u, v, w all compute a&b; only one should survive feeding y.
        survivors = [n for n in ("u", "v", "w", "w1") if n in net.nodes]
        assert len(survivors) <= 1

    def test_functional_merge_output_is_pinned(self):
        # The per-node BDD cap fires on this netlist, so the output pins
        # the global-BDD walk's order: a walk that builds every fanin of a
        # node before it looks for a capped one leaves 275 nodes and 893
        # literals instead.
        net = random_logic(64, 400, 32, seed=652768597)
        sweep(net)
        assert (net.node_count(), net.literal_count()) == (274, 891)
        assert (hashlib.sha256(write_blif(net).encode()).hexdigest()
                == "f281bdc560ab790e52e2b5f4c2b4a16b"
                   "51e4ccc959d0e8f6efad7fe0f565cca5")

    def test_global_bdd_manager_dies_with_the_sweep(self, monkeypatch):
        # No cycle keeps the functional merge's manager (and its global
        # BDDs) alive past sweep: it must go without a cyclic collection.
        import repro.bdd

        made = []

        class Tracked(repro.bdd.BDD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(repro.bdd, "BDD", Tracked)
        net = build_circuit("C432")
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sweep(net)
            assert made, "the functional merge built no manager"
            assert all(ref() is None for ref in made)
        finally:
            if was_enabled:
                gc.enable()

    def test_output_names_preserved(self):
        net = small_circuit()
        sweep(net)
        assert net.outputs == ["y", "z"]
        net.check()

    def test_inverter_chain(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_not("i1", "a")
        net.add_not("i2", "i1")
        net.add_not("i3", "i2")
        net.add_buf("y", "i3")
        ref = net.copy()
        sweep(net)
        assert _exhaustive_equivalent(ref, net)
        assert net.node_count() <= 1


def _sweep_passes(net, merge_equivalent=True):
    """Sweep ``net``; return how many structural passes that took."""
    passes = []
    real = sweep_module._merge_structural

    def counting(*args):
        passes.append(1)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep_module, "_merge_structural", counting)
        sweep(net, merge_equivalent=merge_equivalent)
    return len(passes)


def _state(net):
    return {name: (node.fanins, node.cover)
            for name, node in net.nodes.items()}


class TestSweepConverges:
    """Duplicate outputs settle as output aliases instead of alternating
    between two forms until the pass cap stops the sweep."""

    def test_equal_constant_outputs(self):
        # Both outputs fold to 0; the later one becomes a buffer of the
        # earlier one and constant folding leaves that buffer alone.
        net = Network()
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_output("z")
        net.add_const("zero", False)
        net.add_and("y", ["a", "zero"])
        net.add_and("z", ["b", "zero"])
        for merge_equivalent in (True, False):
            work = net.copy()
            assert _sweep_passes(work, merge_equivalent) <= 2
            assert work.outputs == ["y", "z"]
            assert _state(work) == {"y": ([], []),
                                    "z": (["y"], [frozenset({lit(0)})])}

    def test_output_buffer_of_output_inverter(self):
        # Squeezing the inverter into z would recreate the duplicate of y
        # that the structural merge turns straight back into this buffer.
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_output("z")
        net.add_not("y", "a")
        net.add_buf("z", "y")
        for merge_equivalent in (True, False):
            work = net.copy()
            assert _sweep_passes(work, merge_equivalent) <= 2
            assert _state(work) == {
                "y": (["a"], [frozenset({lit(0, False)})]),
                "z": (["y"], [frozenset({lit(0)})])}

    def test_buffer_of_later_output_is_squeezed(self):
        # Not an alias (its source comes later): the merge keeps the
        # earlier output, so y takes the logic and z becomes its alias.
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_output("z")
        net.add_buf("y", "z")
        net.add_not("z", "a")
        assert _sweep_passes(net) <= 2
        assert _state(net) == {"y": (["a"], [frozenset({lit(0, False)})]),
                               "z": (["y"], [frozenset({lit(0)})])}

    @pytest.mark.parametrize("seed", range(20))
    def test_service_shape_never_reaches_the_cap(self, seed, monkeypatch):
        # The raw netlist, and the lowered BDS network before its final
        # sweep: the second is where duplicate outputs are common.  The
        # flow's second sweep call receives the lowered network.
        net = random_logic(24, 64, 24, seed=seed)
        received = []

        def recording(work, *args, **kwargs):
            received.append(work.copy())
            return sweep(work, *args, **kwargs)

        monkeypatch.setattr(flow, "sweep", recording)
        bds_optimize(net)
        _swept, lowered = received
        for subject in (net, lowered):
            for merge_equivalent in (True, False):
                work = subject.copy()
                passes = _sweep_passes(work, merge_equivalent)
                assert passes < sweep_module.MAX_PASSES
                assert _equivalent(subject, work)


def _exhaustive_equivalent_single(net, fn):
    for bits in itertools.product([False, True], repeat=len(net.inputs)):
        assignment = dict(zip(net.inputs, bits))
        if net.eval(assignment)[net.outputs[0]] != fn(*bits):
            return False
    return True


class TestSubstituteFanin:
    def test_rename(self):
        node = NetworkNodeHelper()
        n = node.make(["x", "y"], [frozenset({lit(0), lit(1, False)})])
        substitute_fanin(n, 0, "z", False)
        assert n.fanins == ["z", "y"]

    def test_invert(self):
        n = NetworkNodeHelper().make(["x"], [frozenset({lit(0)})])
        substitute_fanin(n, 0, "x", True)
        assert n.cover == [frozenset({lit(0, False)})]

    def test_merge_duplicate_fanin(self):
        # f = x & y; substitute y -> x gives f = x.
        n = NetworkNodeHelper().make(["x", "y"], [frozenset({lit(0), lit(1)})])
        substitute_fanin(n, 1, "x", False)
        assert n.fanins == ["x"]
        assert n.cover == [frozenset({lit(0)})]

    def test_contradiction_drops_cube(self):
        # f = x & y; substitute y -> ~x gives empty cover.
        n = NetworkNodeHelper().make(["x", "y"], [frozenset({lit(0), lit(1)})])
        substitute_fanin(n, 1, "x", True)
        assert n.cover == []


class NetworkNodeHelper:
    def make(self, fanins, cover):
        from repro.network.network import Node
        return Node("t", fanins, cover)


class TestEliminateLiteral:
    def test_preserves_function(self):
        net = small_circuit()
        ref = net.copy()
        eliminate_literal(net, threshold=5)
        assert _exhaustive_equivalent(ref, net)

    def test_collapses_single_use_nodes(self):
        net = Network()
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        net.add_and("t", ["a", "b"])
        net.add_or("y", ["t", "c"])
        eliminate_literal(net, threshold=0)
        assert "t" not in net.nodes
        assert _exhaustive_equivalent_single(net, lambda a, b, c: (a and b) or c)

    def test_threshold_respected(self):
        # A multi-literal node used by two output nodes has positive value
        # ((2-1)*(6-1)-1 = 4) and must survive threshold 0.
        net = Network()
        for n in "abcd":
            net.add_input(n)
        net.add_output("y1")
        net.add_output("y2")
        net.add_node("big", ["a", "b", "c"],
                     [frozenset({lit(0), lit(1)}), frozenset({lit(1), lit(2)}),
                      frozenset({lit(0), lit(2)})])
        net.add_and("y1", ["big", "d"])
        net.add_or("y2", ["big", "d"])
        ref = net.copy()
        eliminate_literal(net, threshold=0)
        assert "big" in net.nodes
        assert _exhaustive_equivalent(ref, net)
        # With a generous threshold it does collapse.
        eliminate_literal(net, threshold=10)
        assert "big" not in net.nodes
        assert _exhaustive_equivalent(ref, net)

    def test_collapse_node_into_negative_literal(self):
        from repro.network.network import Node
        consumer = Node("c", ["n", "x"], [frozenset({lit(0, False), lit(1)})])
        node = Node("n", ["a", "b"], [frozenset({lit(0), lit(1)})])
        assert collapse_node_into(consumer, node)
        # c = ~(a&b) & x = (~a + ~b) x.
        assert "n" not in consumer.fanins
        vals = {}
        for a, b, x in itertools.product([False, True], repeat=3):
            pos = {s: i for i, s in enumerate(consumer.fanins)}
            assignment = {}
            for s, v in (("a", a), ("b", b), ("x", x)):
                if s in pos:
                    assignment[pos[s]] = v
            got = consumer.eval([assignment[i] for i in range(len(consumer.fanins))])
            assert got == ((not (a and b)) and x)


class TestEliminateBdd:
    def test_roundtrip_no_eliminate(self):
        net = small_circuit()
        sweep(net)
        part = PartitionedNetwork.from_network(net)
        back = part.to_network()
        assert _exhaustive_equivalent(net, back)

    def test_eliminate_preserves_function(self):
        net = small_circuit()
        ref = net.copy()
        sweep(net)
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=0, size_cap=100)
        back = part.to_network()
        assert _exhaustive_equivalent(ref, back)

    def test_eliminate_collapses(self):
        net = Network()
        for n in "abcd":
            net.add_input(n)
        net.add_output("y")
        net.add_and("t1", ["a", "b"])
        net.add_and("t2", ["c", "d"])
        net.add_or("y", ["t1", "t2"])
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=0, size_cap=100)
        # Everything should collapse into the single output supernode.
        assert set(part.refs) == {"y"}

    def test_size_cap_prevents_collapse(self):
        # XOR chain: collapsing all into one is fine for BDDs, so use a
        # tiny cap to force survival of intermediates.
        net = Network()
        names = ["x%d" % i for i in range(8)]
        for n in names:
            net.add_input(n)
        net.add_output("y")
        prev = names[0]
        for i, n in enumerate(names[1:], 1):
            cur = "t%d" % i if i < 7 else "y"
            net.add_xor(cur, [prev, n])
            prev = cur
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=0, size_cap=3)
        assert len(part.refs) > 1

    def test_mapping_compacts_variables(self):
        net = Network()
        for n in "abcdef":
            net.add_input(n)
        net.add_output("y")
        net.add_and("t1", ["a", "b"])
        net.add_and("t2", ["t1", "c"])
        net.add_and("t3", ["t2", "d"])
        net.add_and("t4", ["t3", "e"])
        net.add_and("y", ["t4", "f"])
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=0, size_cap=1000, use_mapping=True)
        assert part.mapping_count >= 1
        # After full collapse only PI variables remain.
        assert part.mgr.num_vars <= len(net.inputs) + len(part.refs)

    def test_word_level_equivalence_random(self):
        rng = random.Random(99)
        net = _random_network(rng, n_inputs=6, n_nodes=15)
        ref = net.copy()
        part = PartitionedNetwork.from_network(net)
        part.eliminate(threshold=2, size_cap=50)
        back = part.to_network()
        assert _exhaustive_equivalent(ref, back)


def _random_network(rng, n_inputs=6, n_nodes=12):
    net = Network("rand")
    signals = []
    for i in range(n_inputs):
        signals.append(net.add_input("i%d" % i))
    for j in range(n_nodes):
        k = rng.choice([2, 2, 3])
        fanins = rng.sample(signals, min(k, len(signals)))
        kind = rng.choice(["and", "or", "xor"])
        name = "g%d" % j
        getattr(net, "add_" + kind)(name, fanins)
        signals.append(name)
    net.add_output("g%d" % (n_nodes - 1))
    net.add_output("g%d" % (n_nodes - 2))
    net.remove_dangling()
    return net
