"""Tests for cone analysis, global BDDs and full collapsing."""

import itertools
import sys

import pytest

from repro.bdd import BDD, force_order
from repro.bdd.traverse import node_count
from repro.circuits import (TABLE1_CIRCUITS, build_circuit, parity_tree,
                            ripple_adder)
from repro.circuits.randlogic import random_logic
from repro.network import Network, sweep
from repro.network.cones import (
    collapse_to_two_level,
    extract_cone,
    global_bdd,
    initial_order,
    mffc,
    transitive_fanin,
    transitive_fanout,
)
from repro.sop.cube import lit
from repro.verify import check_equivalence


def diamond() -> Network:
    """a,b -> shared t -> two outputs with private logic."""
    net = Network("diamond")
    for n in "abc":
        net.add_input(n)
    net.add_output("y1")
    net.add_output("y2")
    net.add_and("t", ["a", "b"])
    net.add_or("u1", ["t", "c"])
    net.add_not("y1", "u1")
    net.add_xor("y2", ["t", "c"])
    return net


class TestCones:
    def test_transitive_fanin(self):
        net = diamond()
        cone = transitive_fanin(net, "y1")
        assert cone == {"y1", "u1", "t", "a", "b", "c"}

    def test_transitive_fanout(self):
        net = diamond()
        fan = transitive_fanout(net, "t")
        assert fan == {"u1", "y1", "y2"}
        assert transitive_fanout(net, "y1") == set()

    def test_mffc_shared_node_excluded(self):
        net = diamond()
        # u1 is exclusively y1's; t is shared with y2 so not in y1's MFFC.
        cone = mffc(net, "y1")
        assert "u1" in cone
        assert "t" not in cone

    def test_mffc_of_whole_private_cone(self):
        net = Network("chain")
        net.add_input("a")
        net.add_input("b")
        net.add_output("y")
        net.add_and("t1", ["a", "b"])
        net.add_not("t2", "t1")
        net.add_buf("y", "t2")
        assert mffc(net, "y") == {"y", "t2", "t1"}

    def test_extract_cone_standalone(self):
        net = diamond()
        cone = extract_cone(net, ["y2"])
        assert set(cone.outputs) == {"y2"}
        for bits in itertools.product([False, True], repeat=3):
            env = dict(zip("abc", bits))
            assert cone.eval(env)["y2"] == net.eval(env)["y2"]

    def test_extract_cone_drops_unused_inputs(self):
        net = Network("partial")
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        net.add_and("y", ["a", "b"])
        cone = extract_cone(net, ["y"])
        assert "c" not in cone.inputs


class TestCollapse:
    def test_collapse_preserves_function(self):
        net = ripple_adder(3)
        flat = collapse_to_two_level(net)
        assert flat is not None
        assert check_equivalence(net, flat).equivalent
        # Every node reads only PIs.
        for node in flat.nodes.values():
            for f in node.fanins:
                assert f in flat.inputs

    def test_collapse_parity_blows_up_gracefully(self):
        net = parity_tree(12)
        flat = collapse_to_two_level(net, max_cubes=100)
        assert flat is None  # 2^11 minterms needed

    def test_collapse_output_is_input(self):
        net = Network("thru")
        net.add_input("a")
        net.add_output("a")
        flat = collapse_to_two_level(net)
        assert flat is not None
        assert flat.eval({"a": True})["a"] is True


def capped_reader() -> Network:
    """``reader`` reads a 5-input parity ``big`` (5 BDD nodes), then
    ``small`` = a AND b (2 nodes)."""
    net = Network("capped")
    for n in "abcde":
        net.add_input(n)
    net.add_xor("big", list("abcde"))
    net.add_and("small", ["a", "b"])
    net.add_and("reader", ["big", "small"])
    net.add_output("reader")
    return net


def deep_chain(levels: int, window: int = 2) -> Network:
    """A chain of ``2 * levels`` two-input XORs ending in two equivalent
    outputs, ``y1`` = c AND x0 and ``y2`` = c x0 + c x0 x1.

    Each level XORs in one new input and cancels the oldest one, so every
    chain node is the parity of its own window of ``window`` or
    ``window + 1`` inputs: no two are equivalent and each global BDD stays
    tiny, while the outputs sit ``2 * levels`` nodes deep.  (Building
    ``y1`` with ``levels=1500`` allocates about 16,500 nodes, inside
    sweep's work cap.)
    """
    net = Network("deep_chain")
    xs = [net.add_input("x%d" % i) for i in range(levels + window)]
    prev = net.add_xor("c0", xs[:window])
    for i in range(1, levels):
        t = net.add_xor("t%d" % i, [prev, xs[i + window - 1]])
        prev = net.add_xor("c%d" % i, [t, xs[i - 1]])
    net.add_and("y1", [prev, "x0"])
    net.add_node("y2", [prev, "x0", "x1"],
                 [frozenset({lit(0), lit(1)}),
                  frozenset({lit(0), lit(1), lit(2)})])
    net.add_output("y1")
    net.add_output("y2")
    return net


@pytest.fixture
def recursion_limit_1000():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestGlobalBdd:
    @staticmethod
    def _manager(net):
        mgr = BDD()
        var_of = {name: mgr.new_var(name) for name in net.inputs}
        return mgr, var_of

    def test_node_cap_caches_none_for_node_and_readers(self):
        net = capped_reader()
        mgr, var_of = self._manager(net)
        cache = {}
        assert global_bdd(mgr, net, "reader", var_of, cache, 10_000,
                          node_cap=3) is None
        # ``big`` is over the cap and ``reader`` reads it; the walk stops
        # at that first None fanin, so ``small`` is not built yet.
        assert cache == {"big": None, "reader": None}
        small = global_bdd(mgr, net, "small", var_of, cache, 10_000,
                           node_cap=3)
        assert small is not None and node_count(mgr, small) == 2
        # Cached Nones are answers, not misses.
        assert global_bdd(mgr, net, "reader", var_of, cache, 10_000,
                          node_cap=3) is None
        assert cache["small"] == small

    def test_without_node_cap_equals_uncapped_build(self):
        net = capped_reader()
        mgr, var_of = self._manager(net)
        x = {n: mgr.var_ref(v) for n, v in var_of.items()}
        want = mgr.and_(mgr.xor_many([x[n] for n in "abcde"]),
                        mgr.and_(x["a"], x["b"]))
        cache = {}
        assert global_bdd(mgr, net, "reader", var_of, cache, 10_000) == want
        assert None not in cache.values()
        assert global_bdd(mgr, net, "reader", var_of, {}, 10_000,
                          node_cap=100) == want

    def test_cycle_raises(self):
        net = Network("loop")
        net.add_input("a")
        net.add_and("p", ["a", "q"])
        net.add_and("q", ["a", "p"])
        mgr, var_of = self._manager(net)
        with pytest.raises(ValueError, match="combinational cycle"):
            global_bdd(mgr, net, "p", var_of, {}, 10_000)


class TestDeepNetlists:
    """The global-BDD walk keeps no Python frame per netlist level."""

    def test_check_equivalence_on_a_3000_deep_chain(self,
                                                    recursion_limit_1000):
        net = deep_chain(1500)
        assert net.depth() >= 3000
        result = check_equivalence(net, net.copy())
        assert result.equivalent
        assert sorted(result.checked_outputs) == ["y1", "y2"]

    def test_sweep_proves_a_duplicate_3000_deep(self, recursion_limit_1000):
        net = deep_chain(1500)
        assert net.depth() >= 3000
        nodes = net.node_count()
        sweep(net)
        # The functional merge proved y2 == y1: y2 is now y1's output alias.
        assert net.nodes["y2"].fanins == ["y1"]
        assert net.node_count() == nodes
        assert net.depth() >= 3000


def initial_order_by_sets(net: Network):
    """``initial_order`` as it was with one input-support set per node:
    the reference the bitmask version must reproduce."""
    names = list(net.inputs)
    index = {n: i for i, n in enumerate(names)}
    topo = net.topological()
    pi_support = {i: {i} for i in net.inputs}
    first_use = {}
    for pos, node in enumerate(topo):
        supp = set()
        for f in node.fanins:
            supp |= pi_support.get(f, set())
            if f in index:
                first_use.setdefault(f, pos)
        pi_support[node.name] = supp
    groups = [[index[s] for s in pi_support[out]] for out in net.outputs
              if pi_support.get(out)]
    order = [names[i] for i in force_order(groups, len(names))]
    half = len(order) // 2
    top = sum(first_use.get(n, len(topo)) for n in order[:half])
    bottom = sum(first_use.get(n, len(topo))
                 for n in order[len(order) - half:])
    if top < bottom:
        order.reverse()
    return order


class TestInitialOrder:
    """Bitmask supports give the order the per-node support sets gave."""

    @pytest.mark.parametrize("name", TABLE1_CIRCUITS)
    def test_table1(self, name):
        net = build_circuit(name)
        assert initial_order(net) == initial_order_by_sets(net)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_logic(self, seed):
        net = random_logic(24, 120, 16, seed=seed)
        assert initial_order(net) == initial_order_by_sets(net)

    def test_deep_chain(self):
        net = deep_chain(1500)
        assert initial_order(net) == initial_order_by_sets(net)

    def test_outputs_that_are_inputs_or_constants(self):
        net = Network("edge")
        for n in "abc":
            net.add_input(n)
        net.add_and("y", ["c", "a"])
        net.add_const("k", True)
        for out in ("b", "y", "k"):
            net.add_output(out)
        assert initial_order(net) == initial_order_by_sets(net)
