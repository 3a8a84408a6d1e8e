"""Tests for factoring trees, cuts, dominators, and the decomposition engine."""

import itertools
import random

import pytest

from repro.bdd import BDD, ONE, ZERO
from repro.bdd.traverse import node_count
from repro.decomp import DecompOptions, decompose
from repro.decomp.cuts import cut_signatures, enumerate_cuts, rebuild_above_cut
from repro.decomp.dominators import find_simple_decompositions, verify_simple
from repro.decomp.engine import DecompStats
from repro.decomp.ftree import (
    CONST0,
    CONST1,
    FTree,
    mux,
    negate,
    op2,
    var_leaf,
)
from repro.decomp.generalized import conjunctive_candidates, disjunctive_candidates
from repro.decomp.xordec import boolean_xnor_candidates, generalized_x_dominators


@pytest.fixture
def mgr():
    return BDD()


def _random_function(mgr, variables, rng, n_ops=25):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs[-1]


class TestFTree:
    def test_leaves(self):
        t = var_leaf(3)
        assert t.op == "var" and t.var == 3
        assert t.literal_count() == 1
        assert t.gate_count() == 0
        assert CONST0.evaluate({}) is False
        assert CONST1.evaluate({}) is True

    def test_negate_simplifications(self):
        t = var_leaf(0)
        assert negate(negate(t)) == t
        assert negate(CONST0) == CONST1
        x = op2("xor", var_leaf(0), var_leaf(1))
        assert negate(x).op == "xnor"

    def test_op2_folding(self):
        a = var_leaf(0)
        assert op2("and", a, CONST1) == a
        assert op2("and", a, CONST0) == CONST0
        assert op2("or", a, CONST0) == a
        assert op2("xor", a, CONST0) == a
        assert op2("xor", a, CONST1) == negate(a)
        assert op2("and", a, a) == a
        assert op2("xor", a, a) == CONST0
        assert op2("xnor", a, a) == CONST1

    def test_mux_folding(self):
        s, a, b = var_leaf(0), var_leaf(1), var_leaf(2)
        assert mux(CONST1, a, b) == a
        assert mux(CONST0, a, b) == b
        assert mux(s, a, a) == a
        assert mux(s, CONST1, CONST0) == s
        assert mux(s, CONST0, CONST1) == negate(s)
        assert mux(s, a, CONST0) == op2("and", s, a)
        assert mux(s, CONST1, b) == op2("or", s, b)
        assert mux(s, a, negate(a)).op == "xnor"
        assert mux(s, s, b) == op2("or", s, b)
        assert mux(s, a, s) == op2("and", s, a)

    def test_to_bdd_and_evaluate_agree(self, mgr):
        vs = [mgr.new_var() for _ in range(3)]
        t = mux(var_leaf(vs[0]),
                op2("xor", var_leaf(vs[1]), var_leaf(vs[2])),
                op2("and", var_leaf(vs[1]), negate(var_leaf(vs[2]))))
        ref = t.to_bdd(mgr)
        from repro.bdd.traverse import evaluate
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip(vs, bits))
            assert t.evaluate(assignment) == evaluate(mgr, ref, assignment)

    def test_map_vars(self):
        t = op2("and", var_leaf(0), var_leaf(1))
        m = t.map_vars(lambda v: "s%d" % v)
        assert m.support() == {"s0", "s1"}

    def test_expr_rendering(self):
        t = op2("or", op2("and", var_leaf(0), var_leaf(1)), negate(var_leaf(2)))
        s = t.to_expr(lambda v: "abc"[v])
        assert s == "(a & b) + ~c"

    def test_depth(self):
        t = op2("and", op2("or", var_leaf(0), var_leaf(1)), var_leaf(2))
        assert t.depth() == 2
        assert negate(t).depth() == 2  # NOT is free

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            FTree("nand", children=(var_leaf(0), var_leaf(1)))
        with pytest.raises(ValueError):
            FTree("and", children=(var_leaf(0),))


class TestCuts:
    def test_enumerate_basic(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_many([mgr.var_ref(v) for v in (a, b, c)])
        cuts = enumerate_cuts(mgr, f)
        # 3 used levels -> 3 cut positions (below a, below b, below c).
        assert len(cuts) == 3
        # Every cut of the AND chain is valid (leaf edge to 0 everywhere).
        assert all(cut.is_valid for cut in cuts)

    def test_constant_has_no_cuts(self, mgr):
        assert enumerate_cuts(mgr, ONE) == []

    def test_cut_targets_and_chain(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        cuts = enumerate_cuts(mgr, f)
        top = cuts[0]
        # Crossing the cut below a: edges to ZERO (a=0) and to node b.
        assert ZERO in top.targets
        assert any(t > 1 for t in top.targets)

    def test_equivalence_classes(self, mgr):
        # Fig. 6-style: cuts with the same zero-edge set are 0-equivalent.
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.and_many([mgr.var_ref(v) for v in vs])
        cuts = enumerate_cuts(mgr, f)
        zero_classes, one_classes = cut_signatures(cuts)
        # The AND chain has a distinct zero-edge set per cut.
        assert len(zero_classes) == len(cuts)
        # All cuts except the bottom share the same (empty until last) set
        # of one-edges... the last cut has the single edge to ONE.
        assert len(one_classes) == 2

    def test_rebuild_identity(self, mgr):
        rng = random.Random(5)
        vs = [mgr.new_var() for _ in range(5)]
        f = _random_function(mgr, vs, rng)
        if mgr.is_const(f):
            return
        for cut in enumerate_cuts(mgr, f):
            # Substituting every target by itself rebuilds f exactly.
            subst = {t: t for t in cut.targets}
            assert rebuild_above_cut(mgr, f, cut.level, subst) == f

    def test_rebuild_missing_substitution_raises(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        cuts = enumerate_cuts(mgr, f)
        with pytest.raises(ValueError):
            rebuild_above_cut(mgr, f, cuts[0].level, {})


class TestSimpleDominators:
    def test_and_chain_one_dominator(self, mgr):
        # F = a b c: node b is a 1-dominator -> F = a & (b c).
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_many([mgr.var_ref(v) for v in (a, b, c)])
        decomps = find_simple_decompositions(mgr, f)
        ands = [d for d in decomps if d.kind == "and"]
        assert ands, "AND chain must expose 1-dominators"
        for d in ands:
            assert verify_simple(mgr, f, d)

    def test_or_chain_zero_dominator(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.or_many([mgr.var_ref(v) for v in (a, b, c)])
        decomps = find_simple_decompositions(mgr, f)
        ors = [d for d in decomps if d.kind == "or"]
        assert ors
        for d in ors:
            assert verify_simple(mgr, f, d)

    def test_xor_chain_x_dominator(self, mgr):
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        decomps = find_simple_decompositions(mgr, f)
        xnors = [d for d in decomps if d.kind == "xnor"]
        assert xnors, "XOR chain must expose x-dominators"
        for d in xnors:
            assert verify_simple(mgr, f, d)

    def test_karplus_fig2_conjunctive(self, mgr):
        # Fig. 2(a): F = (a+b)(c+d) -- the (c+d) node is a 1-dominator.
        a, b, c, d = (mgr.new_var(n) for n in "abcd")
        f = mgr.and_(mgr.or_(mgr.var_ref(a), mgr.var_ref(b)),
                     mgr.or_(mgr.var_ref(c), mgr.var_ref(d)))
        decomps = find_simple_decompositions(mgr, f)
        ands = [d_ for d_ in decomps if d_.kind == "and"]
        assert len(ands) >= 1
        d_ = ands[0]
        assert d_.upper == mgr.or_(mgr.var_ref(a), mgr.var_ref(b))
        assert d_.parts[0] == mgr.or_(mgr.var_ref(c), mgr.var_ref(d))

    def test_karplus_fig2_disjunctive(self, mgr):
        # Fig. 2(b): F = ab + b~c + ad ... use F = ab + cd: below the cut
        # after level b, the cd node is a 0-dominator.
        a, b, c, d = (mgr.new_var(n) for n in "abcd")
        f = mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(b)),
                    mgr.and_(mgr.var_ref(c), mgr.var_ref(d)))
        decomps = find_simple_decompositions(mgr, f)
        ors = [x for x in decomps if x.kind == "or"]
        assert ors
        x = ors[0]
        assert x.upper == mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        assert x.parts[0] == mgr.and_(mgr.var_ref(c), mgr.var_ref(d))

    def test_functional_mux_pair(self, mgr):
        # Fig. 11: F = g z + ~g y with g = xw + ~x~w (over vars x,w,z,y).
        x, w, z, y = (mgr.new_var(n) for n in "xwzy")
        g = mgr.xnor_(mgr.var_ref(x), mgr.var_ref(w))
        f = mgr.ite(g, mgr.var_ref(z), mgr.var_ref(y))
        decomps = find_simple_decompositions(mgr, f)
        muxes = [d for d in decomps if d.kind == "mux"]
        assert muxes
        for d in muxes:
            assert verify_simple(mgr, f, d)
        # Some cut exposes the functional select g (or its complement).
        assert any(d.upper in (g, g ^ 1) for d in muxes)

    def test_no_false_positives_random(self, mgr):
        rng = random.Random(19)
        vs = [mgr.new_var() for _ in range(6)]
        for _ in range(15):
            f = _random_function(mgr, vs, rng)
            if mgr.is_const(f):
                continue
            for d in find_simple_decompositions(mgr, f):
                assert verify_simple(mgr, f, d)


class TestGeneralizedDominators:
    def test_paper_fig4_and4(self, mgr):
        # Example 3: F with best decomposition (af+b+c)(ag+d+e), 8 literals.
        # Build F = (~a f + ~b + c)(~a g + d + e) directly; the engine must
        # find a conjunctive Boolean decomposition of comparable quality.
        a, b, c, d, e, f_, g_ = (mgr.new_var(n) for n in "abcdefg")
        ra = mgr.var_ref(a)
        d1 = mgr.or_many([mgr.and_(ra ^ 1, mgr.var_ref(f_)), mgr.var_ref(b) ^ 1,
                          mgr.var_ref(c)])
        d2 = mgr.or_many([mgr.and_(ra ^ 1, mgr.var_ref(g_)), mgr.var_ref(d),
                          mgr.var_ref(e)])
        func = mgr.and_(d1, d2)
        candidates = conjunctive_candidates(mgr, func)
        assert candidates
        for cand in candidates:
            assert mgr.and_(cand.divisor, cand.quotient) == func
        # At least one candidate reproduces (a divisor equal to d1 or d2
        # up to the don't-care interval) -- check that some divisor covers
        # func and is covered by one of the intended factors' interval.
        assert any(node_count(mgr, c.divisor) <= node_count(mgr, d1) + 2
                   for c in candidates)

    def test_fig3_conjunctive(self, mgr):
        # Example 2: F = ~e + ~b d with order (e, d, b); the cut below d
        # gives divisor D = ~e + d and quotient Q = ~e + ~b.
        e, d, b = (mgr.new_var(n) for n in "edb")
        func = mgr.or_(mgr.var_ref(e) ^ 1,
                       mgr.and_(mgr.var_ref(b) ^ 1, mgr.var_ref(d)))
        candidates = conjunctive_candidates(mgr, func)
        divisors = {c.divisor for c in candidates}
        expected_d = mgr.or_(mgr.var_ref(e) ^ 1, mgr.var_ref(d))
        assert expected_d in divisors
        for c in candidates:
            if c.divisor == expected_d:
                assert mgr.and_(c.divisor, c.quotient) == func

    def test_fig5_disjunctive(self, mgr):
        # Example 4: F = ~a~b + b~c; G = ~a~b; H in [F~G, F]; H may be b~c.
        a, b, c = (mgr.new_var(n) for n in "abc")
        func = mgr.or_(mgr.and_(mgr.var_ref(a) ^ 1, mgr.var_ref(b) ^ 1),
                       mgr.and_(mgr.var_ref(b), mgr.var_ref(c) ^ 1))
        candidates = disjunctive_candidates(mgr, func)
        assert candidates
        for cand in candidates:
            assert mgr.or_(cand.divisor, cand.quotient) == func

    def test_random_soundness(self, mgr):
        rng = random.Random(23)
        vs = [mgr.new_var() for _ in range(6)]
        for _ in range(10):
            f = _random_function(mgr, vs, rng)
            if mgr.is_const(f):
                continue
            for c in conjunctive_candidates(mgr, f):
                assert mgr.and_(c.divisor, c.quotient) == f
            for c in disjunctive_candidates(mgr, f):
                assert mgr.or_(c.divisor, c.quotient) == f


class TestBooleanXnor:
    def test_generalized_x_dominator_detection(self, mgr):
        # a xor b: the b node is reached by a regular then-edge and a
        # complemented path (via the negated else edge of a).
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        doms = generalized_x_dominators(mgr, f)
        assert doms, "xor must expose a generalized x-dominator"

    def test_candidates_sound(self, mgr):
        rng = random.Random(29)
        vs = [mgr.new_var() for _ in range(6)]
        for _ in range(15):
            f = _random_function(mgr, vs, rng)
            if mgr.is_const(f):
                continue
            for c in boolean_xnor_candidates(mgr, f):
                assert mgr.xnor_(c.g, c.h) == f

    def test_fig9_rnd4_1(self, mgr):
        # Example 6: F = (x1 xnor ~x4) xnor (x2 (x5 + x1 x4)).
        x1, x2, x4, x5 = (mgr.new_var(n) for n in ("x1", "x2", "x4", "x5"))
        g = mgr.xnor_(mgr.var_ref(x1), mgr.var_ref(x4) ^ 1)
        h = mgr.and_(mgr.var_ref(x2),
                     mgr.or_(mgr.var_ref(x5),
                             mgr.and_(mgr.var_ref(x1), mgr.var_ref(x4))))
        f = mgr.xnor_(g, h)
        candidates = boolean_xnor_candidates(mgr, f)
        assert candidates
        # Some candidate must reproduce a compact split; the paper's own
        # split (G = x1 xnor ~x4, H = x2(x5 + x1 x4)) costs |F| + 1 nodes
        # but H then decomposes algebraically.
        fsize = node_count(mgr, f)
        assert any(node_count(mgr, c.g) + node_count(mgr, c.h) <= fsize + 1
                   for c in candidates)
        # The whole engine keeps the XNOR structure: at most 8 literals.
        tree = decompose(mgr, f)
        assert tree.to_bdd(mgr) == f
        assert tree.literal_count() <= 8


class TestEngine:
    def test_decompose_preserves_function_random(self, mgr):
        rng = random.Random(31)
        vs = [mgr.new_var() for _ in range(7)]
        for _ in range(10):
            f = _random_function(mgr, vs, rng, n_ops=40)
            tree = decompose(mgr, f)
            assert tree.to_bdd(mgr) == f

    def test_decompose_constants_and_literals(self, mgr):
        a = mgr.new_var("a")
        assert decompose(mgr, ONE) == CONST1
        assert decompose(mgr, ZERO) == CONST0
        assert decompose(mgr, mgr.var_ref(a)) == var_leaf(a)
        assert decompose(mgr, mgr.var_ref(a) ^ 1) == negate(var_leaf(a))

    def test_and_or_intensive(self, mgr):
        # (a+b)(c+d)(e+f): pure algebraic AND decomposition; no XOR gates.
        vs = [mgr.new_var() for _ in range(6)]
        f = mgr.and_many([
            mgr.or_(mgr.var_ref(vs[0]), mgr.var_ref(vs[1])),
            mgr.or_(mgr.var_ref(vs[2]), mgr.var_ref(vs[3])),
            mgr.or_(mgr.var_ref(vs[4]), mgr.var_ref(vs[5])),
        ])
        stats = DecompStats()
        tree = decompose(mgr, f, stats=stats)
        assert tree.to_bdd(mgr) == f
        assert stats.simple_and >= 2
        assert tree.literal_count() == 6

    def test_xor_intensive(self, mgr):
        vs = [mgr.new_var() for _ in range(8)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        stats = DecompStats()
        tree = decompose(mgr, f, stats=stats)
        assert tree.to_bdd(mgr) == f
        assert stats.simple_xnor + stats.boolean_xnor >= 1
        # Parity of 8 variables should stay linear-size, not 2^7 minterms.
        assert tree.literal_count() <= 16

    def test_engine_options_disable(self, mgr):
        vs = [mgr.new_var() for _ in range(5)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        opts = DecompOptions(enable_simple=False, enable_mux=False,
                             enable_generalized=False, enable_bool_xnor=False)
        stats = DecompStats()
        tree = decompose(mgr, f, options=opts, stats=stats)
        assert tree.to_bdd(mgr) == f
        assert stats.total() == stats.shannon  # only Shannon steps

    def test_memoization_shares_subtrees(self, mgr):
        # f = (a&b) | ((a&b) ^ c): the a&b subfunction appears twice.
        a, b, c = (mgr.new_var(n) for n in "abc")
        ab = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        f = mgr.or_(ab, mgr.xor_(ab, mgr.var_ref(c)))
        tree = decompose(mgr, f)
        assert tree.to_bdd(mgr) == f

    def test_stats_totals(self, mgr):
        rng = random.Random(37)
        vs = [mgr.new_var() for _ in range(6)]
        f = _random_function(mgr, vs, rng, n_ops=30)
        stats = DecompStats()
        decompose(mgr, f, stats=stats)
        assert stats.total() >= 0
        assert isinstance(stats.as_dict(), dict)

    @pytest.mark.parametrize("wrong", ["mux", "op2"])
    def test_wrong_tree_construction_still_raises(self, mgr, monkeypatch,
                                                   wrong):
        # Each level rebuilds only its own operators on its children's
        # checked refs; a wrong operator below the top still fails there.
        from repro.decomp import engine

        if wrong == "mux":
            monkeypatch.setattr(engine, "mux",
                                lambda sel, hi, lo: mux(sel, lo, hi))
        else:
            swapped = {"and": "or", "or": "and"}
            monkeypatch.setattr(engine, "op2", lambda op, a, b: op2(
                swapped.get(op, op), a, b))
        a, b, c, d = (mgr.var_ref(mgr.new_var(n)) for n in "abcd")
        # d AND a multiplexer: the multiplexer is a level below the top.
        f = mgr.and_(d, mgr.ite(a, b, c))
        with pytest.raises(AssertionError,
                           match="decomposition verification failed"):
            decompose(mgr, f)

    def test_paper_example_quasi_algebraic(self, mgr):
        # Section III-B closing example: F = (ab + c)(ad + c) is found even
        # with the interleaved optimal order a, b, c?, d.
        a, b, c, d = (mgr.new_var(n) for n in "abcd")
        f = mgr.and_(
            mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(b)), mgr.var_ref(c)),
            mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(d)), mgr.var_ref(c)),
        )
        tree = decompose(mgr, f)
        assert tree.to_bdd(mgr) == f
        # The Boolean decomposition keeps the factored form compact
        # (the flat SOP has 8+ literals; factored needs at most 8).
        assert tree.literal_count() <= 8
