"""DOT export well-formedness and serialize round-trips after reordering.

The DOT graphs must be structurally closed (every edge endpoint declared)
even in the presence of complement edges, and serialization must survive
the variable permutations sifting leaves behind.
"""

import itertools
import random
import re

from repro.bdd import BDD
from repro.bdd.dot import to_dot
from repro.bdd.reorder import sift
from repro.bdd.serialize import dumps, loads
from repro.bdd.traverse import evaluate

_NODE_DEF = re.compile(r"^\s*n(\d+)\s*\[")
_EDGE = re.compile(r"^\s*(\"[^\"]+\"|n\d+)\s*->\s*n(\d+)\s*\[style=(\w+)\]")


def _parse_dot(text):
    lines = text.splitlines()
    assert lines[0].startswith("digraph")
    assert lines[-1] == "}"
    defined, edges = set(), []
    for line in lines:
        m = _NODE_DEF.match(line)
        if m:
            defined.add(int(m.group(1)))
        m = _EDGE.match(line)
        if m:
            edges.append((m.group(1), int(m.group(2)), m.group(3)))
    return defined, edges


def _xor_chain(mgr, n):
    refs = [mgr.var_ref(mgr.new_var("x%d" % i)) for i in range(n)]
    f = refs[0]
    for r in refs[1:]:
        f = mgr.xor_(f, r)
    return f


class TestDot:
    def test_closed_graph_with_complement_edges(self):
        mgr = BDD()
        f = _xor_chain(mgr, 4)          # XOR chains are complement-heavy
        text = to_dot(mgr, [f, f ^ 1], names=["f", "fbar"])
        defined, edges = _parse_dot(text)
        assert 0 in defined              # the single terminal
        assert edges, "no edges rendered"
        for src, dst, style in edges:
            assert dst in defined, "edge to undeclared node n%d" % dst
            if src.startswith("n"):
                assert int(src[1:]) in defined
            assert style in ("solid", "dashed", "dotted")
        # The complemented root must be drawn with a dotted edge.
        root_styles = {src: style for src, dst, style in edges
                       if src.startswith('"')}
        assert root_styles['"fbar"'] != root_styles['"f"']

    def test_every_internal_node_has_two_out_edges(self):
        mgr = BDD()
        rng = random.Random(11)
        refs = [mgr.var_ref(mgr.new_var()) for _ in range(5)]
        for _ in range(20):
            a, b = rng.choice(refs), rng.choice(refs)
            refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(a, b))
        text = to_dot(mgr, [refs[-1]])
        defined, edges = _parse_dot(text)
        out_degree = {}
        for src, _dst, _style in edges:
            if src.startswith("n"):
                out_degree[int(src[1:])] = out_degree.get(int(src[1:]), 0) + 1
        for idx in defined - {0}:
            assert out_degree.get(idx) == 2, "node n%d out-degree" % idx


class TestSerializeAfterReorder:
    def _truth(self, mgr, ref, names):
        # Key assignments by variable *name*: a reloaded manager only
        # holds the roots' support variables, and functions are invariant
        # in the missing ones.
        var_of = {}
        for name in names:
            try:
                var_of[name] = mgr.var_by_name(name)
            except KeyError:
                pass
        return tuple(
            evaluate(mgr, ref, {var_of[n]: b for n, b in zip(names, bits)
                                if n in var_of})
            for bits in itertools.product([False, True], repeat=len(names)))

    def _random_refs(self, mgr, rng, n_vars=6, n_ops=30):
        variables = [mgr.new_var("v%d" % i) for i in range(n_vars)]
        refs = [mgr.var_ref(v) for v in variables]
        for _ in range(n_ops):
            a, b = rng.choice(refs), rng.choice(refs)
            if rng.random() < 0.3:
                a ^= 1
            refs.append(getattr(mgr,
                                rng.choice(["and_", "or_", "xor_"]))(a, b))
        return variables, refs[-3:]

    def test_roundtrip_after_sift(self):
        rng = random.Random(19)
        mgr = BDD()
        variables, roots = self._random_refs(mgr, rng)
        names = [mgr.var_name(v) for v in variables]
        sift(mgr, roots)
        before = [self._truth(mgr, r, names) for r in roots]
        mgr2, roots2 = loads(dumps(mgr, roots))
        after = [self._truth(mgr2, r, names) for r in roots2]
        assert after == before

    def test_roundtrip_after_window3(self):
        # Window reordering is gone; its case, a larger function than
        # the one above, is kept and sifted instead.
        rng = random.Random(23)
        mgr = BDD()
        variables, roots = self._random_refs(mgr, rng, n_vars=7, n_ops=40)
        names = [mgr.var_name(v) for v in variables]
        sift(mgr, roots)
        before = [self._truth(mgr, r, names) for r in roots]
        mgr2, roots2 = loads(dumps(mgr, roots))
        after = [self._truth(mgr2, r, names) for r in roots2]
        assert after == before
