"""Tests for in-place reordering (swap/sift) and inter-manager transfer.

The in-place adjacent swap is the most delicate piece of the BDD substrate:
these tests verify function preservation, canonicity invariants and size
behaviour under randomized reordering.
"""

import itertools
import random
import sys

from repro.bdd import BDD, ONE, ZERO, structure_key, transfer, transfer_many
from repro.bdd.reorder import (
    force_order,
    move_var_to_level,
    random_order,
    sift,
    swap_adjacent,
)
from repro.bdd.traverse import evaluate, live_nodes, node_count, support


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


def _check_canonical(mgr, roots):
    """Unique-table consistency + canonicity invariants on live nodes."""
    for idx in live_nodes(mgr, roots):
        if idx == 0:
            continue
        var, lo, hi = mgr._var[idx], mgr._lo[idx], mgr._hi[idx]
        assert not (hi & 1), "complemented then-edge"
        assert lo != hi, "redundant node"
        assert mgr._unique.get((var, lo, hi)) == idx, "unique table desync"
        for child in (lo >> 1, hi >> 1):
            if child:
                assert mgr.level_of_var(mgr._var[child]) > mgr.level_of_var(var)


class TestSwapAdjacent:
    def test_preserves_functions(self):
        rng = random.Random(61)
        for trial in range(15):
            mgr = BDD()
            vs = [mgr.new_var() for _ in range(5)]
            refs = _random_function(mgr, vs, rng)
            tables = [_truth_table(mgr, r, vs) for r in refs]
            for _ in range(10):
                swap_adjacent(mgr, rng.randrange(4))
                _check_canonical(mgr, refs)
            for r, table in zip(refs, tables):
                assert _truth_table(mgr, r, vs) == table

    def test_swap_is_involution(self):
        rng = random.Random(67)
        mgr = BDD()
        vs = [mgr.new_var() for _ in range(4)]
        refs = _random_function(mgr, vs, rng)
        order_before = mgr.current_order()
        size_before = len(live_nodes(mgr, refs))
        swap_adjacent(mgr, 1)
        swap_adjacent(mgr, 1)
        assert mgr.current_order() == order_before
        assert len(live_nodes(mgr, refs)) == size_before

    def test_swap_known_size_change(self):
        # f = a&b | c&d: order (a,c,b,d) is larger than (a,b,c,d).
        mgr = BDD()
        a, c, b, d = (mgr.new_var(n) for n in "acbd")
        f = mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(b)),
                    mgr.and_(mgr.var_ref(c), mgr.var_ref(d)))
        bad_size = node_count(mgr, f)
        # Move b up next to a: order a,b,c,d.
        move_var_to_level(mgr, b, 1)
        good_size = node_count(mgr, f)
        assert good_size < bad_size
        assert good_size == 4


class TestSift:
    def test_sift_never_increases_size(self):
        rng = random.Random(71)
        for trial in range(8):
            mgr = BDD()
            vs = [mgr.new_var() for _ in range(7)]
            refs = _random_function(mgr, vs, rng, n_ops=40)
            roots = refs[-3:]
            before = len(live_nodes(mgr, roots)) - 1
            after = sift(mgr, roots)
            assert after <= before
            _check_canonical(mgr, roots)

    def test_sift_preserves_semantics(self):
        rng = random.Random(73)
        mgr = BDD()
        vs = [mgr.new_var() for _ in range(6)]
        refs = _random_function(mgr, vs, rng, n_ops=30)
        roots = refs[-2:]
        tables = [_truth_table(mgr, r, vs) for r in roots]
        sift(mgr, roots)
        for r, table in zip(roots, tables):
            assert _truth_table(mgr, r, vs) == table

    def test_sift_finds_good_order_for_interleaved_and(self):
        # f = a1&b1 | a2&b2 | a3&b3 with order a1,a2,a3,b1,b2,b3 is
        # exponential; sifting should recover near the linear optimum.
        mgr = BDD()
        a = [mgr.new_var("a%d" % i) for i in range(3)]
        b = [mgr.new_var("b%d" % i) for i in range(3)]
        f = ZERO
        for ai, bi in zip(a, b):
            f = mgr.or_(f, mgr.and_(mgr.var_ref(ai), mgr.var_ref(bi)))
        bad = node_count(mgr, f)
        good = sift(mgr, [f])
        assert good <= 6
        assert good < bad


class TestRandomOrder:
    def test_random_reorder_preserves_semantics(self):
        rng = random.Random(79)
        mgr = BDD()
        vs = [mgr.new_var() for _ in range(5)]
        refs = _random_function(mgr, vs, rng)
        tables = [_truth_table(mgr, r, vs) for r in refs[-4:]]
        for _ in range(5):
            random_order(mgr, rng)
            _check_canonical(mgr, refs[-4:])
        for r, table in zip(refs[-4:], tables):
            assert _truth_table(mgr, r, vs) == table


class TestTransfer:
    def test_roundtrip(self):
        rng = random.Random(83)
        src = BDD()
        vs = [src.new_var("x%d" % i) for i in range(5)]
        refs = _random_function(src, vs, rng)
        f = refs[-1]
        dst = BDD()
        g = transfer(src, dst, f)
        # Same truth table through name-matched variables (only support
        # variables exist in dst).
        for bits in itertools.product([False, True], repeat=5):
            a_src = dict(zip(vs, bits))
            a_dst = {dst.var_by_name(src.var_name(v)): bit
                     for v, bit in a_src.items() if v in support(src, f)}
            assert evaluate(src, f, a_src) == evaluate(dst, g, a_dst)

    def test_transfer_many_compacts_variables(self):
        src = BDD()
        vs = [src.new_var("x%d" % i) for i in range(10)]
        # Function uses only 3 of 10 variables.
        f = src.and_many([src.var_ref(vs[1]), src.var_ref(vs[5]), src.var_ref(vs[9])])
        result = transfer_many(src, [f])
        assert result.manager.num_vars == 3
        assert node_count(result.manager, result.refs[0]) == 3

    def test_transfer_with_different_order(self):
        src = BDD()
        a, b, c = (src.new_var(n) for n in "abc")
        f = src.or_(src.and_(src.var_ref(a), src.var_ref(b)), src.var_ref(c))
        result = transfer_many(src, [f], order=[c, b, a])
        dst = result.manager
        assert dst.current_order() == [dst.var_by_name("c"), dst.var_by_name("b"), dst.var_by_name("a")]
        for bits in itertools.product([False, True], repeat=3):
            a_src = dict(zip((a, b, c), bits))
            a_dst = {dst.var_by_name(n): v for n, v in zip("abc", bits)}
            assert evaluate(src, f, a_src) == evaluate(dst, result.refs[0], a_dst)

    def test_transfer_shares_structure(self):
        src = BDD()
        vs = [src.new_var("v%d" % i) for i in range(4)]
        f = src.xor_many([src.var_ref(v) for v in vs])
        g = src.not_(f)
        result = transfer_many(src, [f, g])
        assert result.refs[0] == result.refs[1] ^ 1

    def test_deep_bdd_transfers_without_recursion(self):
        # "The number of true inputs is a multiple of 3" over 3,000
        # variables: up to three nodes per level, each with two distinct
        # non-constant children, so the copy's allocation order shows
        # which child it visits first.  The mk path must allocate in
        # structure_key's order; the ite path re-orders.
        src = BDD()
        vs = [src.new_var("x%d" % i) for i in range(3000)]
        below = [ONE, ZERO, ZERO]        # residue r -> (r + rest) % 3 == 0
        for v in reversed(vs):
            below = [src.mk(v, below[r], below[(r + 1) % 3])
                     for r in range(3)]
        f = below[0]
        swapped = vs[:-2] + [vs[-1], vs[-2]]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            key, _order = structure_key(src, f)
            same = transfer_many(src, [f])
            reordered = transfer_many(src, [f], order=swapped)
        finally:
            sys.setrecursionlimit(limit)
        dst = same.manager
        arrays = []
        for idx in range(1, dst.num_nodes_allocated):
            arrays += dst.node(idx << 1)
        assert key == (same.refs[0],) + tuple(arrays)
        rng = random.Random(3000)
        for _ in range(20):
            bits = {v: rng.random() < 0.5 for v in vs}
            assert evaluate(src, f, bits) == (sum(bits.values()) % 3 == 0)
            for moved in (same, reordered):
                got = evaluate(moved.manager, moved.refs[0],
                               {moved.var_map[v]: b for v, b in bits.items()})
                assert got == (sum(bits.values()) % 3 == 0)
        assert node_count(reordered.manager, reordered.refs[0]) == \
            node_count(src, f)


class TestForceOrder:
    def test_groups_cluster(self):
        # Two independent clusters {0,1,2} and {3,4,5} must not interleave.
        order = force_order([[0, 1, 2], [3, 4, 5], [0, 2], [3, 5]], 6)
        pos = {v: i for i, v in enumerate(order)}
        cluster1 = sorted(pos[v] for v in (0, 1, 2))
        cluster2 = sorted(pos[v] for v in (3, 4, 5))
        assert cluster1[-1] < cluster2[0] or cluster2[-1] < cluster1[0]

    def test_all_vars_present(self):
        order = force_order([[1, 3]], 5)
        assert sorted(order) == [0, 1, 2, 3, 4]

    @staticmethod
    def _reference_order(var_groups, num_vars, iterations=20):
        """FORCE with every one of its ``iterations`` rounds run."""
        groups = [list(g) for g in var_groups if g]
        position = {v: float(v) for v in range(num_vars)}
        for _ in range(iterations):
            centers = [sum(position[v] for v in g) / len(g) for g in groups]
            pull = {}
            for g, c in zip(groups, centers):
                for v in g:
                    pull.setdefault(v, []).append(c)
            new_pos = {v: sum(pull[v]) / len(pull[v]) if v in pull
                       else position[v] for v in range(num_vars)}
            ranked = sorted(range(num_vars), key=lambda v: new_pos[v])
            position = {v: float(i) for i, v in enumerate(ranked)}
        return sorted(range(num_vars), key=lambda v: position[v])

    def test_fixed_point_stop_matches_all_iterations(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(1, 24)
            groups = [rng.sample(range(n), rng.randint(1, min(n, 6)))
                      for _ in range(rng.randint(0, 12))]
            iterations = rng.choice([0, 1, 2, 5, 20])
            assert (force_order(groups, n, iterations)
                    == self._reference_order(groups, n, iterations))

    def test_initial_orders_of_real_circuits_unchanged(self, monkeypatch):
        from repro.circuits import build_circuit
        import repro.network.cones as cones

        for name in ("C432", "C880", "rot", "add16", "bshift8"):
            net = build_circuit(name)
            fast = cones.initial_order(net)
            with monkeypatch.context() as patch:
                patch.setattr(cones, "force_order", self._reference_order)
                assert cones.initial_order(net) == fast, name
