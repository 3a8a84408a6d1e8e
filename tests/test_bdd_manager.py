"""Unit tests for the BDD manager: construction, ITE, derived operators."""

import itertools

import pytest

from repro.bdd import BDD, ONE, ZERO
from repro.bdd.traverse import evaluate, node_count, support


@pytest.fixture
def mgr():
    return BDD()


def brute_force_check(mgr, ref, variables, fn):
    """Compare a BDD against a Python lambda over all assignments."""
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        assert evaluate(mgr, ref, assignment) == fn(*bits), (
            "mismatch at %s" % (bits,))


class TestBasics:
    def test_constants(self, mgr):
        assert ONE == 0
        assert ZERO == 1
        assert mgr.is_const(ONE)
        assert mgr.is_const(ZERO)
        assert mgr.not_(ONE) == ZERO

    def test_variable_creation(self, mgr):
        a = mgr.new_var("a")
        b = mgr.new_var("b")
        assert mgr.var_name(a) == "a"
        assert mgr.var_by_name("b") == b
        assert mgr.level_of_var(a) == 0
        assert mgr.level_of_var(b) == 1

    def test_duplicate_name_rejected(self, mgr):
        mgr.new_var("a")
        with pytest.raises(ValueError):
            mgr.new_var("a")

    def test_literal(self, mgr):
        a = mgr.new_var("a")
        pos = mgr.literal(a, True)
        neg = mgr.literal(a, False)
        assert pos == mgr.var_ref(a)
        assert neg == pos ^ 1
        assert evaluate(mgr, pos, {a: True})
        assert not evaluate(mgr, pos, {a: False})
        assert evaluate(mgr, neg, {a: False})

    def test_canonicity_hash_consing(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f1 = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        f2 = mgr.and_(mgr.var_ref(b), mgr.var_ref(a))
        assert f1 == f2

    def test_reduction_rule(self, mgr):
        a = mgr.new_var("a")
        assert mgr.mk(a, ONE, ONE) == ONE
        assert mgr.mk(a, ZERO, ZERO) == ZERO

    def test_then_edge_never_complemented(self, mgr):
        vs = [mgr.new_var() for _ in range(4)]
        import random
        rng = random.Random(7)
        refs = [mgr.var_ref(v) for v in vs]
        for _ in range(200):
            op = rng.choice(["and", "or", "xor", "not"])
            if op == "not":
                refs.append(mgr.not_(rng.choice(refs)))
            else:
                f, g = rng.choice(refs), rng.choice(refs)
                refs.append(getattr(mgr, op + "_")(f, g))
        for idx in range(1, mgr.num_nodes_allocated):
            assert not (mgr._hi[idx] & 1)


class TestOperators:
    def test_and(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        brute_force_check(mgr, f, [a, b], lambda x, y: x and y)

    def test_or(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.or_(mgr.var_ref(a), mgr.var_ref(b))
        brute_force_check(mgr, f, [a, b], lambda x, y: x or y)

    def test_xor(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        brute_force_check(mgr, f, [a, b], lambda x, y: x != y)

    def test_xnor(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.xnor_(mgr.var_ref(a), mgr.var_ref(b))
        brute_force_check(mgr, f, [a, b], lambda x, y: x == y)

    def test_ite_general(self, mgr):
        a, b, c = mgr.new_var("a"), mgr.new_var("b"), mgr.new_var("c")
        f = mgr.ite(mgr.var_ref(a), mgr.var_ref(b), mgr.var_ref(c))
        brute_force_check(mgr, f, [a, b, c], lambda x, y, z: y if x else z)

    def test_variadic(self, mgr):
        vs = [mgr.new_var() for _ in range(4)]
        lits = [mgr.var_ref(v) for v in vs]
        f = mgr.and_many(lits)
        brute_force_check(mgr, f, vs, lambda *b: all(b))
        g = mgr.or_many(lits)
        brute_force_check(mgr, g, vs, lambda *b: any(b))
        h = mgr.xor_many(lits)
        brute_force_check(mgr, h, vs, lambda *b: sum(b) % 2 == 1)

    def test_demorgan(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        ra, rb = mgr.var_ref(a), mgr.var_ref(b)
        assert mgr.not_(mgr.and_(ra, rb)) == mgr.or_(mgr.not_(ra), mgr.not_(rb))

    def test_leq(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        ra, rb = mgr.var_ref(a), mgr.var_ref(b)
        ab = mgr.and_(ra, rb)
        assert mgr.leq(ab, ra)
        assert mgr.leq(ab, mgr.or_(ra, rb))
        assert not mgr.leq(ra, ab)
        assert mgr.leq(ZERO, ab)
        assert mgr.leq(ab, ONE)


class TestCofactorsComposition:
    def test_cofactor(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(b)), mgr.var_ref(c))
        f_a1 = mgr.cofactor(f, a, True)
        brute_force_check(mgr, f_a1, [b, c], lambda y, z: y or z)
        f_a0 = mgr.cofactor(f, a, False)
        brute_force_check(mgr, f_a0, [b, c], lambda y, z: z)

    def test_cofactor_of_lower_var(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        f_b0 = mgr.cofactor(f, b, False)
        assert f_b0 == mgr.var_ref(a)
        f_b1 = mgr.cofactor(f, b, True)
        assert f_b1 == mgr.not_(mgr.var_ref(a))

    def test_shannon_expansion(self, mgr):
        import random
        rng = random.Random(3)
        vs = [mgr.new_var() for _ in range(5)]
        f = _random_function(mgr, vs, rng, depth=6)
        for v in vs:
            f0 = mgr.cofactor(f, v, False)
            f1 = mgr.cofactor(f, v, True)
            rebuilt = mgr.ite(mgr.var_ref(v), f1, f0)
            assert rebuilt == f

    def test_compose(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        g = mgr.or_(mgr.var_ref(b), mgr.var_ref(c))
        h = mgr.compose(f, a, g)
        brute_force_check(mgr, h, [a, b, c], lambda x, y, z: (y or z) and y)

    def test_vector_compose(self, mgr):
        a, b, c, d = (mgr.new_var(n) for n in "abcd")
        f = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        subst = {a: mgr.and_(mgr.var_ref(c), mgr.var_ref(d)),
                 b: mgr.or_(mgr.var_ref(c), mgr.var_ref(d))}
        h = mgr.vector_compose(f, subst)
        brute_force_check(mgr, h, [c, d], lambda z, w: (z and w) != (z or w))

    def test_vector_compose_simultaneous(self, mgr):
        # Swap a and b simultaneously; sequential compose would differ.
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.not_(mgr.var_ref(b)))
        h = mgr.vector_compose(f, {a: mgr.var_ref(b), b: mgr.var_ref(a)})
        brute_force_check(mgr, h, [a, b], lambda x, y: y and not x)

    def test_exists(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_(mgr.var_ref(a), mgr.xor_(mgr.var_ref(b), mgr.var_ref(c)))
        g = mgr.exists(f, [b])
        brute_force_check(mgr, g, [a, c], lambda x, z: x)

    def test_quantification_duality(self, mgr):
        import random
        rng = random.Random(11)
        vs = [mgr.new_var() for _ in range(5)]
        f = _random_function(mgr, vs, rng, depth=6)
        for v in vs:
            ex = mgr.exists(f, [v])
            assert ex == mgr.or_(mgr.cofactor(f, v, False), mgr.cofactor(f, v, True))


class TestStructure:
    def test_support(self, mgr):
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(c))
        assert support(mgr, f) == {a, c}
        assert support(mgr, ONE) == set()

    def test_node_count(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.and_(mgr.var_ref(a), mgr.var_ref(b))
        assert node_count(mgr, f) == 2
        assert node_count(mgr, ONE) == 0
        g = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        assert node_count(mgr, g) == 2  # complement edges share the b node

    def test_complement_edge_sharing(self, mgr):
        # f and ~f must share every node.
        vs = [mgr.new_var() for _ in range(4)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        before = mgr.num_nodes_allocated
        g = mgr.not_(f)
        assert mgr.num_nodes_allocated == before
        assert g == (f ^ 1)


def _random_function(mgr, variables, rng, depth=6):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(depth * len(variables)):
        op = rng.choice(["and", "or", "xor"])
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, op + "_")(f, g))
    return refs[-1]
