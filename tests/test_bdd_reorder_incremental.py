"""Differential tests of the incremental reordering engine.

The tentpole claim of the engine is that the manager's per-slot reference
counts and per-variable node counters stay *exact* through arbitrary
interleavings of ``mk``, adjacent swaps, sifting, variable moves and
garbage collection -- exact enough that sifting's inner loop never has to
re-traverse from the roots to measure size.  These tests pin that claim
differentially (Hypothesis interleavings audited against ground truth
recomputed via ``live_nodes``), plus the engine's work-saving layer:
lower-bound pruning changes the work done, never the resulting order or
size.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO, transfer_many
from repro.bdd.manager import DEAD
from repro.bdd.reorder import (
    move_var_to_level,
    random_order,
    sift,
    swap_adjacent,
)
from repro.bdd.traverse import evaluate, live_nodes
from repro.check import sanitize_bdd


def _random_function(mgr, variables, rng, n_ops=30):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs


def _truth_table(mgr, ref, variables):
    return tuple(
        evaluate(mgr, ref, dict(zip(variables, bits)))
        for bits in itertools.product([False, True], repeat=len(variables))
    )


def _assert_bookkeeping_exact(mgr):
    """Stored _ref/_var_counts must equal a from-scratch recount."""
    var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
    n = len(var_arr)
    assert len(mgr._ref) == n
    truth_ref = [0] * n
    truth_counts = [0] * mgr.num_vars
    for idx in range(1, n):
        var = var_arr[idx]
        if var == DEAD:
            continue
        truth_counts[var] += 1
        truth_ref[lo_arr[idx] >> 1] += 1
        truth_ref[hi_arr[idx] >> 1] += 1
    for root, count in mgr._roots.items():
        truth_ref[root >> 1] += count
    assert mgr._ref == truth_ref, "per-slot refcount drift"
    assert mgr._var_counts == truth_counts, "per-variable count drift"


def _assert_counts_match_live(mgr, roots):
    """At GC safe points the counters must agree with a live traversal."""
    live = live_nodes(mgr, roots)
    assert sum(mgr._var_counts) == len(live) - 1
    by_var = {}
    for idx in live:
        if idx:
            by_var[mgr._var[idx]] = by_var.get(mgr._var[idx], 0) + 1
    for var in range(mgr.num_vars):
        assert mgr._var_counts[var] == by_var.get(var, 0)


class TestDifferentialBookkeeping:
    """Satellite: counters/refcounts equal ground truth after arbitrary
    mk/swap/sift/GC interleavings (Hypothesis + the sanitizer invariant)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_interleavings(self, data):
        nvars = 5
        mgr = BDD()
        variables = [mgr.new_var() for _ in range(nvars)]
        rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
        refs = _random_function(mgr, variables, rng, n_ops=12)
        ops = data.draw(st.lists(
            st.sampled_from(["mk", "swap", "sift", "move", "gc"]),
            min_size=1, max_size=8), label="ops")
        for op in ops:
            if op == "mk":
                f, g = rng.choice(refs), rng.choice(refs)
                refs.append(mgr.and_(f ^ (rng.random() < 0.5), g))
            elif op == "swap":
                swap_adjacent(mgr, rng.randrange(nvars - 1))
            elif op == "sift":
                sift(mgr, refs)
            elif op == "move":
                var = rng.randrange(nvars)
                move_var_to_level(mgr, var, rng.randrange(nvars), roots=refs)
            else:
                mgr.collect_garbage(extra_roots=refs)
            _assert_bookkeeping_exact(mgr)
            if op in ("sift", "move", "gc"):
                # Safe points: everything allocated is reachable again.
                _assert_counts_match_live(mgr, refs)
        # The sanitizer's full level runs the same audits (plus the rest
        # of the canonicity battery) -- check_level="full" flows see this.
        sanitize_bdd(mgr, level="full")

    def test_truth_preserved_through_interleaving(self):
        rng = random.Random(7)
        mgr = BDD()
        variables = [mgr.new_var() for _ in range(5)]
        refs = _random_function(mgr, variables, rng, n_ops=25)
        tracked = rng.sample(refs, 6)
        tables = [_truth_table(mgr, r, variables) for r in tracked]
        sift(mgr, tracked)
        move_var_to_level(mgr, variables[0], 4, roots=tracked)
        sift(mgr, tracked)
        assert [_truth_table(mgr, r, variables) for r in tracked] == tables


class TestNoTraversalInSiftLoop:
    """Acceptance: zero full ``live_nodes`` traversals inside the sifting
    engine -- size comes from the incremental counters alone."""

    def test_sift_never_traverses(self):
        rng = random.Random(11)
        mgr = BDD()
        variables = [mgr.new_var() for _ in range(8)]
        refs = _random_function(mgr, variables, rng, n_ops=60)
        roots = refs[-4:]
        before = mgr.perf.live_traversals
        sift(mgr, roots)
        assert mgr.perf.reorder_swaps > 0
        assert mgr.perf.live_traversals == before, (
            "sift fell back to a full live-node traversal")

    def test_window_and_move_never_traverse(self):
        rng = random.Random(13)
        mgr = BDD()
        variables = [mgr.new_var() for _ in range(6)]
        refs = _random_function(mgr, variables, rng, n_ops=40)
        roots = refs[-3:]
        before = mgr.perf.live_traversals
        move_var_to_level(mgr, variables[2], 0, roots=roots)
        move_var_to_level(mgr, variables[2], 5, roots=roots)
        assert mgr.perf.live_traversals == before


def _two_group_manager():
    """Vars from two disjoint supports, interleaved in the order.

    Roots: ``a0 a2 + a1 a3`` over the a-group, whose pairs the order
    keeps apart (9 nodes where sifting finds 7), and a conjunction over
    the b-group; no root depends on variables of both groups.
    """
    mgr = BDD()
    a = [mgr.new_var("a%d" % i) for i in range(4)]
    b = [mgr.new_var("b%d" % i) for i in range(3)]
    # Interleave the groups in the level order: a0 b0 a1 b1 a2 b2 a3.
    for i, var in enumerate([a[0], b[0], a[1], b[1], a[2], b[2], a[3]]):
        move_var_to_level(mgr, var, i)
    pairs = mgr.or_(mgr.and_(mgr.var_ref(a[0]), mgr.var_ref(a[2])),
                    mgr.and_(mgr.var_ref(a[1]), mgr.var_ref(a[3])))
    conj = mgr.var_ref(b[0])
    for v in b[1:]:
        conj = mgr.and_(conj, mgr.var_ref(v))
    return mgr, a + b, [pairs, conj]


class TestInteractionMatrix:
    """Multi-rooted sifting over disjoint supports.  Sifting once had an
    interaction matrix that turned swaps of independent variables into
    level-map flips; without it every swap runs, and the sift still ends
    at the order it ended at with the matrix."""

    def test_skips_on_disjoint_supports(self):
        mgr, variables, roots = _two_group_manager()
        tables = [_truth_table(mgr, r, variables) for r in roots]
        size = sift(mgr, roots)
        assert [_truth_table(mgr, r, variables) for r in roots] == tables
        assert size == mgr.num_nodes_live == 7
        # a0 b0 b1 a2 a1 b2 a3: the order sifting with the matrix left.
        assert mgr._level2var == [0, 4, 5, 2, 1, 6, 3]


class TestLowerBoundPruning:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_prune_parity(self, seed):
        rng = random.Random(seed)
        orders, sizes, swaps = [], [], []
        for prune in (True, False):
            mgr = BDD()
            variables = [mgr.new_var() for _ in range(6)]
            refs = _random_function(mgr, variables, random.Random(seed),
                                    n_ops=30)
            sizes.append(sift(mgr, refs[-4:], prune=prune))
            orders.append(list(mgr._level2var))
            swaps.append(mgr.perf.reorder_swaps)
        assert sizes[0] == sizes[1]
        assert orders[0] == orders[1]
        assert swaps[0] <= swaps[1], "pruning may only reduce swaps"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 16), st.booleans())
    def test_prune_parity_on_minimal_bdds(self, seed, direct):
        """A read-once chain along the order has one node per variable,
        the fewest any order can give: pruned sifting makes no swap and
        ends where unpruned sifting ends."""
        orders, sizes, swaps, sweeps = [], [], [], []
        for prune in (True, False):
            rng = random.Random(seed)
            mgr = BDD()
            for _ in range(6):
                mgr.new_var()
            random_order(mgr, rng)
            root = _read_once_chain(mgr, rng, direct)
            before = mgr.perf.reorder_swaps
            sizes.append(sift(mgr, [root], prune=prune))
            orders.append(list(mgr._level2var))
            swaps.append(mgr.perf.reorder_swaps - before)
            sweeps.append(mgr.perf.gc_sweeps)
        assert sizes[0] == sizes[1] == 6
        assert orders[0] == orders[1]
        assert swaps[0] == 0
        # One node per allocated variable: no session, so no sweep.
        assert sweeps == [0 if direct else 1, 1]


def _read_once_chain(mgr, rng, direct):
    """``l0 op (l1 op (... l5))`` with literals taken down the level
    order, random operators and random polarities.  ``direct`` builds
    each node with ``mk``, so every variable labels exactly one allocated
    node; otherwise the operators leave the literal nodes as garbage."""
    order = mgr.current_order()
    f = mgr.var_ref(order[-1]) ^ rng.getrandbits(1)
    for var in reversed(order[:-1]):
        op = rng.choice(["and", "or", "xor"])
        negative = rng.getrandbits(1)
        if direct:
            lo, hi = {"and": (ZERO, f), "or": (f, ONE),
                      "xor": (f, f ^ 1)}[op]
            f = mgr.mk(var, hi, lo) if negative else mgr.mk(var, lo, hi)
        else:
            literal = mgr.var_ref(var) ^ negative
            f = getattr(mgr, op + "_")(literal, f)
    return f


class TestRandomOrderRoundTrip:
    """Satellite: ``random_order`` keeps every function and both
    var<->level maps intact for any permutation it lands on."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def test_round_trip(self, fn_seed, order_seed):
        mgr = BDD()
        variables = [mgr.new_var() for _ in range(5)]
        refs = _random_function(mgr, variables, random.Random(fn_seed),
                                n_ops=20)
        roots = refs[-4:]
        tables = [_truth_table(mgr, r, variables) for r in roots]
        random_order(mgr, random.Random(order_seed))
        # var2level and level2var must still be inverse permutations.
        for var, lvl in enumerate(mgr._var2level):
            assert mgr._level2var[lvl] == var
        assert [_truth_table(mgr, r, variables) for r in roots] == tables
        _assert_bookkeeping_exact(mgr)
        sanitize_bdd(mgr, level="full")
        # And the shuffled manager still sifts back down.
        shuffled = mgr.num_nodes_live
        assert sift(mgr, roots) <= shuffled


class TestSessionReclamation:
    """In-session swaps reclaim dead nodes eagerly; sizes read from the
    counters equal a post-hoc traversal at every safe point."""

    def test_transfer_then_sift_matches_traversal(self):
        rng = random.Random(21)
        src = BDD()
        variables = [src.new_var() for _ in range(7)]
        refs = _random_function(src, variables, rng, n_ops=50)
        result = transfer_many(src, [refs[-1]])
        mgr, root = result.manager, result.refs[0]
        final = sift(mgr, [root])
        assert final == len(live_nodes(mgr, [root])) - 1
        _assert_bookkeeping_exact(mgr)

    def test_standalone_swap_keeps_unreachable_nodes(self):
        # Outside a session nothing may be reclaimed: callers can hold
        # refs the manager does not know about.
        mgr = BDD()
        a, b = mgr.new_var(), mgr.new_var()
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        allocated = mgr.num_nodes_live
        swap_adjacent(mgr, 0)
        swap_adjacent(mgr, 0)
        assert mgr.num_nodes_live >= allocated
        assert _truth_table(mgr, f, [a, b]) == (False, False, False, True)
