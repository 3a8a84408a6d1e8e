"""Tests for traversal utilities: assignments, phased vertices, sizes."""

import random

import pytest

from repro.bdd import BDD, ZERO
from repro.bdd.traverse import (
    evaluate,
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
