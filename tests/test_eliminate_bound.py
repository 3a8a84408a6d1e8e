"""Eliminate's early stop is exact, and so is the kernel walk it rests on.

``PartitionedNetwork.eliminate`` stops a trial collapse as soon as the
acceptance rule is sure to fail: each consumer's ITE runs under a
fresh-node bound (``BDD.compose(..., bound=)``) equal to the slack left.
The reference below is the loop without that bound -- it composes every
consumer in full and checks the rule on the finished sizes -- and must
make the same decisions, leaving the same nodes with the same functions.
"""

import sys

import pytest

from repro.bdd import BDD, BddBudgetExceeded, ONE, ZERO, transfer
from repro.bdd.traverse import node_count, support
from repro.check import sanitize_bdd
from repro.circuits import build_circuit, random_logic
from repro.network import Network
from repro.network.eliminate import PartitionedNetwork
from repro.sop.cube import lit

THRESHOLDS = (-2, 0, 3, 10)
SIZE_CAPS = (6, 40, 1000)


def reference_eliminate(part, threshold, size_cap, use_mapping=True,
                        mapping_trigger=0.5, max_passes=20):
    """Eliminate with every trial composed in full; returns the counts of
    trials, collapses and rejections."""
    counts = {"trials": 0, "collapsed": 0, "rejected": 0}
    mgr = part.mgr
    for _ in range(max_passes):
        changed = False
        for name in list(part.refs):
            if name in part.outputs or name not in part.refs:
                continue
            consumers = list(part._fanouts.get(name, ()))
            if not consumers:
                part._drop(name)
                changed = True
                continue
            counts["trials"] += 1
            var = part.sig_var[name]
            node_ref = part.refs[name]
            delta = -node_count(mgr, node_ref)
            new_refs = {}
            too_big = False
            for c in consumers:
                merged = mgr.compose(part.refs[c], var, node_ref)
                msize = node_count(mgr, merged)
                if msize > size_cap:
                    too_big = True
                    break
                delta += msize - node_count(mgr, part.refs[c])
                new_refs[c] = merged
            if too_big or delta > threshold:
                counts["rejected"] += 1
                mgr.maybe_collect(part.refs.values())
                continue
            counts["collapsed"] += 1
            for c, merged in new_refs.items():
                part.set_ref(c, merged)
            part._drop(name)
            changed = True
            mgr.maybe_collect(part.refs.values())
            if use_mapping and part._pollution() > mapping_trigger:
                part.compact()
                mgr = part.mgr
        if not changed:
            break
    part.remove_dangling()
    if use_mapping:
        part.compact()
    return counts


def _functions(part, common):
    """Each surviving node's function, moved into one shared manager."""
    return {name: transfer(part.mgr, common, ref)
            for name, ref in part.refs.items()}


def _netlists():
    nets = [random_logic(24, 64, 24, seed=seed) for seed in range(60)]
    return nets + [build_circuit("C432"), build_circuit("C499")]


@pytest.fixture(scope="module")
def netlists():
    return _netlists()


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("size_cap", SIZE_CAPS)
def test_eliminate_matches_the_full_composition_reference(
        netlists, threshold, size_cap):
    stopped = 0
    for net in netlists:
        fast = PartitionedNetwork.from_network(net)
        slow = PartitionedNetwork.from_network(net)
        counts = fast.eliminate(threshold=threshold, size_cap=size_cap)
        want = reference_eliminate(slow, threshold, size_cap)
        assert list(fast.refs) == list(slow.refs), net.name
        assert fast.mapping_count == slow.mapping_count, net.name
        common = BDD()
        assert _functions(fast, common) == _functions(slow, common), net.name
        stopped += counts.pop("stopped_early")
        assert counts == want, net.name
    # The bound is not idle: some trials end inside their ITE.
    assert stopped > 0


@pytest.mark.parametrize("limits", [{"threshold": -3}, {"size_cap": 1}])
def test_a_collapse_that_exactly_fills_its_bound_is_accepted(limits):
    """n = a ^ u, read by y = n xnor u: the collapse makes y the one-node
    BDD of ~a, which the trial ITE allocates fresh once no live BDD holds
    a's literal.  Under either limit that node is exactly the bound."""
    net = Network("tight")
    net.add_input("a")
    net.add_input("u")
    net.add_xor("n", ["a", "u"])
    net.add_node("y", ["n", "u"], [frozenset({lit(0), lit(1)}),
                                   frozenset({lit(0, False), lit(1, False)})])
    net.add_output("y")
    part = PartitionedNetwork.from_network(net)
    part.mgr.collect_garbage(list(part.refs.values()))
    counts = part.eliminate(use_mapping=False, **limits)
    assert counts["collapsed"] == 1
    assert list(part.refs) == ["y"]
    assert part.refs["y"] == part.mgr.var_ref(part.sig_var["a"]) ^ 1


# ----------------------------------------------------------------------
# The kernel: BDD.cofactors and the bounded compose
# ----------------------------------------------------------------------


def _compose_case():
    """A manager, f, x and g, with f's cofactors by x already built, so
    that a compose allocates fresh nodes only in its ITE."""
    mgr = BDD()
    xs = [mgr.new_var("x%d" % i) for i in range(8)]
    lits = [mgr.var_ref(x) for x in xs]
    f = mgr.and_(mgr.xor_many(lits[:6]), mgr.or_(lits[2], lits[7]))
    g = mgr.or_(mgr.and_(lits[6], lits[7]), lits[0])
    mgr.cofactors(f, xs[3])
    return mgr, f, xs[3], g


def _fresh_nodes_of_compose():
    mgr, f, x, g = _compose_case()
    before = mgr.perf.nodes_allocated
    result = mgr.compose(f, x, g)
    fresh = mgr.perf.nodes_allocated - before
    return fresh, node_count(mgr, result)


def test_bounded_compose_stops_exactly_past_the_bound():
    fresh, size = _fresh_nodes_of_compose()
    # Every fresh node of the ITE is reachable from its result.
    assert 0 < fresh <= size
    mgr, f, x, g = _compose_case()
    result = mgr.compose(f, x, g, bound=fresh)
    assert result == mgr.vector_compose(f, {x: g})
    mgr, f, x, g = _compose_case()
    assert mgr.compose(f, x, g, bound=fresh - 1) is None


def test_stopped_compose_leaves_a_sound_manager():
    fresh, _ = _fresh_nodes_of_compose()
    mgr, f, x, g = _compose_case()
    assert mgr.compose(f, x, g, bound=fresh // 2) is None
    sanitize_bdd(mgr, level="full")
    # A retry without the bound gives the unbounded result.
    assert mgr.compose(f, x, g) == mgr.vector_compose(f, {x: g})
    sanitize_bdd(mgr, level="full")


def test_bounded_compose_keeps_the_callers_allocation_limit():
    # A tighter limit of the caller's raises as usual, and stays armed.
    mgr, f, x, g = _compose_case()
    mgr.set_alloc_limit(mgr.perf.nodes_allocated)
    with pytest.raises(BddBudgetExceeded):
        mgr.compose(f, x, g, bound=1000)
    with pytest.raises(BddBudgetExceeded):
        mgr.compose(f, x, g)
    # A looser one is back in force once the bounded call gives up.
    mgr, f, x, g = _compose_case()
    mgr.set_alloc_limit(mgr.perf.nodes_allocated + 50)
    assert mgr.compose(f, x, g, bound=0) is None
    extra = [mgr.new_var() for _ in range(60)]
    with pytest.raises(BddBudgetExceeded):
        for v in extra:
            mgr.var_ref(v)


def test_cofactors_walk_a_deep_bdd_without_recursion():
    mgr = BDD()
    xs = [mgr.new_var() for _ in range(3000)]
    f = mgr.var_ref(xs[-1])
    for x in reversed(xs[:-1]):
        f = mgr.and_(mgr.var_ref(x), f)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        f0, f1 = mgr.cofactors(f, xs[-1])
        merged = mgr.compose(f, xs[-1], ONE)
    finally:
        sys.setrecursionlimit(limit)
    assert f0 == ZERO
    assert node_count(mgr, f1) == 2999
    assert support(mgr, f1) == set(xs[:-1])
    assert merged == f1
