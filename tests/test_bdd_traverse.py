"""Tests for traversal utilities: paths, leaf-edge stats."""

import random

import pytest

from repro.bdd import BDD, ONE, ZERO
from repro.bdd.traverse import (
    count_paths_from_root,
    count_paths_to_terminals,
    evaluate,
    iter_paths,
    leaf_edge_stats,
    live_nodes,
    node_count,
    phased_vertices,
    pick_assignment,
    shared_node_count,
    support_many,
)


@pytest.fixture
def mgr():
    return BDD()


class TestPickAssignment:
    def test_unsat_raises(self, mgr):
        with pytest.raises(ValueError):
            pick_assignment(mgr, ZERO)

    def test_satisfies(self, mgr):
        rng = random.Random(9)
        vs = [mgr.new_var() for _ in range(5)]
        refs = [mgr.var_ref(v) for v in vs]
        for _ in range(20):
            f, g = rng.choice(refs), rng.choice(refs)
            refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f ^ (rng.random() < .5), g))
        for f in refs:
            if f == ZERO:
                continue
            partial = pick_assignment(mgr, f)
            full = {v: partial.get(v, False) for v in vs}
            assert evaluate(mgr, f, full)


class TestPaths:
    def test_path_enumeration_partitions_space(self, mgr):
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.or_(
            mgr.and_(mgr.var_ref(vs[0]), mgr.var_ref(vs[1])),
            mgr.and_(mgr.var_ref(vs[2]), mgr.var_ref(vs[3])),
        )
        total = 0
        for cube, value in iter_paths(mgr, f):
            total += 1 << (4 - len(cube))
        assert total == 16

    def test_path_counts_match_enumeration(self, mgr):
        rng = random.Random(13)
        vs = [mgr.new_var() for _ in range(5)]
        refs = [mgr.var_ref(v) for v in vs]
        for _ in range(25):
            f, g = rng.choice(refs), rng.choice(refs)
            refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
        f = refs[-1]
        one, zero = count_paths_to_terminals(mgr, f)
        n_one = sum(1 for _, v in iter_paths(mgr, f) if v)
        n_zero = sum(1 for _, v in iter_paths(mgr, f) if not v)
        assert one[f] == n_one
        assert zero[f] == n_zero

    def test_paths_from_root(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        incoming = count_paths_from_root(mgr, f)
        assert incoming[f] == 1
        # b node reachable one way (a=1); ZERO reachable two ways.
        rb = mgr.var_ref(b)
        assert incoming[rb] == 1
        assert incoming[ZERO] == 2
        assert incoming[ONE] == 1

    def test_total_path_flow_conservation(self, mgr):
        rng = random.Random(17)
        vs = [mgr.new_var() for _ in range(6)]
        refs = [mgr.var_ref(v) for v in vs]
        for _ in range(40):
            f, g = rng.choice(refs), rng.choice(refs)
            refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f ^ (rng.random() < .4), g))
        f = refs[-1]
        if mgr.is_const(f):
            return
        one, zero = count_paths_to_terminals(mgr, f)
        incoming = count_paths_from_root(mgr, f)
        # Total 1-paths equals the sum over terminal-incoming weight.
        assert incoming.get(ONE, 0) == one[f]
        assert incoming.get(ZERO, 0) == zero[f]

    def test_phased_vertices_topological(self, mgr):
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        order = phased_vertices(mgr, f)
        position = {r: i for i, r in enumerate(order)}
        for r in order:
            if mgr.is_const(r):
                continue
            lo, hi = mgr.children(r)
            assert position[lo] < position[r]
            assert position[hi] < position[r]


class TestLeafEdgeStats:
    def test_and_function_has_zero_edges(self, mgr):
        # AND-intensive functions expose many leaf edges to 0.
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.and_many([mgr.var_ref(v) for v in vs])
        to_one, to_zero, comp = leaf_edge_stats(mgr, f)
        assert to_zero >= 4 - 1  # every level can fall off to 0
        assert to_one == 1

    def test_xor_function_has_complement_edges(self, mgr):
        vs = [mgr.new_var() for _ in range(5)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        _, _, comp = leaf_edge_stats(mgr, f)
        assert comp >= 1


class TestSharedCount:
    def test_shared_less_than_sum(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        g = mgr.and_(mgr.var_ref(b), mgr.var_ref(c))
        h = mgr.or_(f, mgr.var_ref(c))
        assert shared_node_count(mgr, [f, g, h]) <= (
            node_count(mgr, f) + node_count(mgr, g) + node_count(mgr, h))
        assert shared_node_count(mgr, [f, f]) == node_count(mgr, f)

    def test_live_nodes_includes_terminal(self, mgr):
        a = mgr.new_var("a")
        live = live_nodes(mgr, [mgr.var_ref(a)])
        assert 0 in live
        assert len(live) == 2

    def test_support_many(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.var_ref(a)
        g = mgr.and_(mgr.var_ref(b), mgr.var_ref(c))
        assert support_many(mgr, [f, g]) == {a, b, c}
