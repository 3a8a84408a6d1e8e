"""Property-based tests (hypothesis) on the core data structures.

Random Boolean expressions are generated as ASTs, evaluated both through
the data structure under test and through a reference truth-table
interpreter; key invariants of the BDD package, the cube algebra, the
decomposition engine and the reorderer are checked on every example.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO
from repro.bdd.isop import cover_to_bdd, isop
from repro.bdd.restrict import constrain, minimize_with_dc, restrict
from repro.bdd.reorder import random_order, sift
from repro.bdd.traverse import evaluate, node_count, support
from repro.decomp import decompose
from repro.sop.cover import complement as sop_complement
from repro.sop.cover import cover_eval, is_tautology, remove_contained
from repro.sop.cube import lit

NVARS = 5

# --- expression AST strategy ---------------------------------------------

_expr = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=NVARS - 1).map(lambda v: ("var", v)),
    st.just(("const", False)),
    st.just(("const", True)),
    st.tuples(st.just("not"), _expr),
    st.tuples(st.sampled_from(["and", "or", "xor"]), _expr, _expr),
))


def expr_strategy():
    return _expr


def build_bdd(mgr, variables, e):
    tag = e[0]
    if tag == "var":
        return mgr.var_ref(variables[e[1]])
    if tag == "const":
        return ONE if e[1] else ZERO
    if tag == "not":
        return build_bdd(mgr, variables, e[1]) ^ 1
    a = build_bdd(mgr, variables, e[1])
    b = build_bdd(mgr, variables, e[2])
    return getattr(mgr, e[0] + "_")(a, b)


def eval_expr(e, bits):
    tag = e[0]
    if tag == "var":
        return bits[e[1]]
    if tag == "const":
        return e[1]
    if tag == "not":
        return not eval_expr(e[1], bits)
    a, b = eval_expr(e[1], bits), eval_expr(e[2], bits)
    return {"and": a and b, "or": a or b, "xor": a != b}[tag]


def _fresh():
    mgr = BDD()
    variables = [mgr.new_var("x%d" % i) for i in range(NVARS)]
    return mgr, variables


def _truth(mgr, variables, ref):
    return tuple(evaluate(mgr, ref, dict(zip(variables, bits)))
                 for bits in itertools.product([False, True], repeat=NVARS))


# --- BDD semantics ---------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(expr_strategy())
def test_bdd_matches_reference_semantics(e):
    mgr, variables = _fresh()
    ref = build_bdd(mgr, variables, e)
    for bits in itertools.product([False, True], repeat=NVARS):
        assert evaluate(mgr, ref, dict(zip(variables, bits))) == \
            eval_expr(e, bits)


@settings(max_examples=100, deadline=None)
@given(expr_strategy(), expr_strategy())
def test_bdd_canonicity(e1, e2):
    """Semantically equal functions get identical refs."""
    mgr, variables = _fresh()
    r1 = build_bdd(mgr, variables, e1)
    r2 = build_bdd(mgr, variables, e2)
    t1 = tuple(eval_expr(e1, bits)
               for bits in itertools.product([False, True], repeat=NVARS))
    t2 = tuple(eval_expr(e2, bits)
               for bits in itertools.product([False, True], repeat=NVARS))
    assert (r1 == r2) == (t1 == t2)


@settings(max_examples=100, deadline=None)
@given(expr_strategy())
def test_shannon_reconstruction(e):
    mgr, variables = _fresh()
    ref = build_bdd(mgr, variables, e)
    for v in variables:
        f0 = mgr.cofactor(ref, v, False)
        f1 = mgr.cofactor(ref, v, True)
        assert mgr.ite(mgr.var_ref(v), f1, f0) == ref
        assert v not in support(mgr, f0)
        assert v not in support(mgr, f1)


@settings(max_examples=100, deadline=None)
@given(expr_strategy(), st.integers(0, NVARS - 1),
       st.randoms(use_true_random=False))
def test_cofactors_equal_the_single_cofactors(e, x, rnd):
    """One walk gives both cofactors: each equals the single cofactor and
    the constant put in for x, under any variable order."""
    mgr, variables = _fresh()
    f = build_bdd(mgr, variables, e)
    random_order(mgr, rnd)
    v = variables[x]
    f0, f1 = mgr.cofactors(f, v)
    assert (f0, f1) == (mgr.cofactor(f, v, False), mgr.cofactor(f, v, True))
    assert f0 == mgr.vector_compose(f, {v: ZERO})
    assert f1 == mgr.vector_compose(f, {v: ONE})


@settings(max_examples=100, deadline=None)
@given(expr_strategy(), expr_strategy(), st.integers(0, NVARS - 1),
       st.randoms(use_true_random=False))
# g reads x itself and x0, a variable above x.
@example(("xor", ("var", 2), ("var", 4)), ("or", ("var", 2), ("var", 0)),
         2, None)
def test_compose_matches_vector_compose_and_truth_table(e_f, e_g, x, rnd):
    """compose(f, x, g) is f with g put in for x, on every input and
    under any variable order."""
    mgr, variables = _fresh()
    f = build_bdd(mgr, variables, e_f)
    g = build_bdd(mgr, variables, e_g)
    if rnd is not None:
        random_order(mgr, rnd)
    h = mgr.compose(f, variables[x], g)
    assert h == mgr.vector_compose(f, {variables[x]: g})
    for bits in itertools.product([False, True], repeat=NVARS):
        substituted = list(bits)
        substituted[x] = eval_expr(e_g, bits)
        assert evaluate(mgr, h, dict(zip(variables, bits))) == \
            eval_expr(e_f, substituted)


@settings(max_examples=80, deadline=None)
@given(expr_strategy(), expr_strategy())
def test_restrict_and_constrain_agree_on_care(e1, e2):
    mgr, variables = _fresh()
    f = build_bdd(mgr, variables, e1)
    c = build_bdd(mgr, variables, e2)
    if c == ZERO:
        return
    for op in (restrict, constrain):
        r = op(mgr, f, c)
        assert mgr.and_(r, c) == mgr.and_(f, c)


@settings(max_examples=80, deadline=None)
@given(expr_strategy(), expr_strategy())
def test_minimize_with_dc_respects_interval(e1, e2):
    mgr, variables = _fresh()
    f = build_bdd(mgr, variables, e1)
    dc = build_bdd(mgr, variables, e2)
    onset = mgr.and_(f, dc ^ 1)
    g = minimize_with_dc(mgr, onset, dc)
    assert mgr.leq(onset, g)
    assert mgr.leq(g, mgr.or_(onset, dc))


@settings(max_examples=80, deadline=None)
@given(expr_strategy())
def test_isop_roundtrip(e):
    mgr, variables = _fresh()
    ref = build_bdd(mgr, variables, e)
    assert cover_to_bdd(mgr, isop(mgr, ref)) == ref


# --- reordering -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(expr_strategy(), st.randoms(use_true_random=False))
def test_reordering_preserves_semantics(e, rnd):
    mgr, variables = _fresh()
    ref = build_bdd(mgr, variables, e)
    before = _truth(mgr, variables, ref)
    random_order(mgr, rnd)
    assert _truth(mgr, variables, ref) == before
    size_before = node_count(mgr, ref)
    after = sift(mgr, [ref])
    assert _truth(mgr, variables, ref) == before
    assert after <= max(size_before, 1)


# --- decomposition engine ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(expr_strategy())
def test_decompose_identity(e):
    mgr, variables = _fresh()
    ref = build_bdd(mgr, variables, e)
    tree = decompose(mgr, ref)
    assert tree.to_bdd(mgr) == ref
    # The factoring tree never mentions variables outside the support.
    assert tree.support() <= support(mgr, ref)


# --- cube algebra --------------------------------------------------------------


def _cover_strategy():
    cube = st.lists(
        st.tuples(st.integers(0, NVARS - 1), st.booleans()), max_size=3
    ).map(lambda pairs: frozenset(lit(v, p) for v, p in dict(pairs).items()))
    return st.lists(cube, max_size=5)


@settings(max_examples=100, deadline=None)
@given(_cover_strategy())
def test_sop_complement_is_complement(cover):
    comp = sop_complement(cover)
    for bits in itertools.product([False, True], repeat=NVARS):
        env = dict(enumerate(bits))
        assert cover_eval(cover, env) != cover_eval(comp, env)


@settings(max_examples=100, deadline=None)
@given(_cover_strategy())
def test_sop_tautology_decision(cover):
    expected = all(cover_eval(cover, dict(enumerate(bits)))
                   for bits in itertools.product([False, True], repeat=NVARS))
    assert is_tautology(cover) == expected


@settings(max_examples=100, deadline=None)
@given(_cover_strategy())
def test_remove_contained_preserves_function(cover):
    reduced = remove_contained(cover)
    for bits in itertools.product([False, True], repeat=NVARS):
        env = dict(enumerate(bits))
        assert cover_eval(cover, env) == cover_eval(reduced, env)
    assert len(reduced) <= len(cover)


# --- cross-representation agreement ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_cover_strategy())
def test_cover_to_bdd_to_isop_fixpoint(cover):
    mgr, variables = _fresh()
    ref = ZERO
    for cube in cover:
        term = ONE
        for l in cube:
            term = mgr.and_(term, mgr.literal(variables[l >> 1], not (l & 1)))
        ref = mgr.or_(ref, term)
    back = isop(mgr, ref)
    assert cover_to_bdd(mgr, back) == ref
