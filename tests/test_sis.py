"""Tests for the SIS-like algebraic baseline: division, kernels, factoring,
fast-extract, resubstitution and the rugged script."""

import itertools
import random


from repro.network import Network
from repro.sis import (
    algebraic_divide,
    all_kernels,
    factor_cover,
    factored_literal_count,
    fast_extract,
    resubstitute_all,
    script_rugged,
)
from repro.sis.division import cube_free, largest_common_cube, make_cube_free
from repro.sop.cover import cover_eval, literal_count
from repro.sop.cube import lit
from repro.verify import check_equivalence


def C(*pairs_list):
    """Cover literal helper: C((0,True),(1,False)) builds one cube."""
    return frozenset(lit(v, p) for v, p in pairs_list)


class TestDivision:
    def test_textbook_example(self):
        # f = abc + abd + e; d = c + d  =>  q = ab, r = e.
        f = [C((0, True), (1, True), (2, True)),
             C((0, True), (1, True), (3, True)),
             C((4, True))]
        d = [C((2, True)), C((3, True))]
        q, r = algebraic_divide(f, d)
        assert q == [C((0, True), (1, True))]
        assert r == [C((4, True))]

    def test_no_quotient(self):
        f = [C((0, True))]
        d = [C((1, True)), C((2, True))]
        q, r = algebraic_divide(f, d)
        assert q == [] and r == f

    def test_division_by_one(self):
        f = [C((0, True)), C((1, True))]
        q, r = algebraic_divide(f, [frozenset()])
        assert q == f and r == []

    def test_identity_f_eq_qd_plus_r(self):
        rng = random.Random(3)
        for _ in range(30):
            nvars = 5
            f = [frozenset(lit(v, rng.random() < .5)
                           for v in rng.sample(range(nvars), rng.randint(1, 3)))
                 for _ in range(5)]
            d = [frozenset(lit(v, rng.random() < .5)
                           for v in rng.sample(range(nvars), rng.randint(1, 2)))
                 for _ in range(2)]
            try:
                q, r = algebraic_divide(f, d)
            except ValueError:
                continue
            # Rebuild q*d + r and compare as sets of cubes against f
            # (algebraic identity, not just Boolean).
            rebuilt = set(r)
            for qc in q:
                for dc in d:
                    rebuilt.add(frozenset(qc | dc))
            assert set(f) <= rebuilt

    def test_cube_free(self):
        assert cube_free([C((0, True)), C((1, True))])
        assert not cube_free([C((0, True), (1, True)), C((0, True))])
        assert largest_common_cube(
            [C((0, True), (1, True)), C((0, True), (2, True))]) == C((0, True))
        assert make_cube_free(
            [C((0, True), (1, True)), C((0, True))]) == [C((1, True)), frozenset()]


class TestKernels:
    def test_textbook(self):
        # f = adf + aef + bdf + bef + cdf + cef + g
        #   = (a+b+c)(d+e)f + g: kernels include (d+e) and (a+b+c).
        f = []
        for x in (0, 1, 2):
            for y in (3, 4):
                f.append(C((x, True), (y, True), (5, True)))
        f.append(C((6, True)))
        kernels = [frozenset(k) for _, k in all_kernels(f)]
        assert frozenset([C((3, True)), C((4, True))]) in kernels
        assert frozenset([C((0, True)), C((1, True)), C((2, True))]) in kernels

    def test_kernel_of_cube_is_empty(self):
        f = [C((0, True), (1, True))]
        assert all_kernels(f) == []

    def test_kernels_are_cube_free(self):
        rng = random.Random(11)
        for _ in range(20):
            f = [frozenset(lit(v, rng.random() < .5)
                           for v in rng.sample(range(5), rng.randint(1, 3)))
                 for _ in range(5)]
            for _, k in all_kernels(f):
                assert cube_free(k), k


class TestFactor:
    def test_factored_smaller_than_flat(self):
        # (a+b)(c+d) flat = 8 literals, factored = 4.
        f = []
        for x in (0, 1):
            for y in (2, 3):
                f.append(C((x, True), (y, True)))
        assert literal_count(f) == 8
        assert factored_literal_count(f) <= 4

    def test_factor_preserves_function(self):
        rng = random.Random(17)
        for _ in range(25):
            f = [frozenset(lit(v, rng.random() < .5)
                           for v in rng.sample(range(4), rng.randint(1, 3)))
                 for _ in range(4)]
            tree = factor_cover(f)
            for bits in itertools.product([False, True], repeat=4):
                env = dict(enumerate(bits))
                assert tree.evaluate(env) == cover_eval(f, env)

    def test_constants(self):
        assert factor_cover([]).op == "const0"
        assert factor_cover([frozenset()]).op == "const1"

    def test_single_cube(self):
        t = factor_cover([C((0, True), (1, False))])
        assert t.literal_count() == 2


class TestFx:
    def _shared_network(self):
        net = Network("fx")
        for n in "abcde":
            net.add_input(n)
        net.add_output("y1")
        net.add_output("y2")
        # y1 = ab + ac + d; y2 = eb + ec: divisor (b+c) shared.
        net.add_node("y1", ["a", "b", "c", "d"],
                     [C((0, True), (1, True)), C((0, True), (2, True)),
                      C((3, True))])
        net.add_node("y2", ["e", "b", "c"],
                     [C((0, True), (1, True)), C((0, True), (2, True))])
        return net

    def test_extracts_shared_divisor(self):
        net = self._shared_network()
        ref = net.copy()
        created = fast_extract(net)
        assert created >= 1
        assert check_equivalence(ref, net).equivalent
        # Some new node computes b + c.
        found = False
        for node in net.nodes.values():
            if node.name in ("y1", "y2"):
                continue
            covers = sorted(map(sorted, node.cover))
            if sorted(node.fanins) == ["b", "c"] and covers == [[0], [2]]:
                found = True
        assert found, "fx must extract the shared (b + c) divisor"

    def test_no_divisor_no_change(self):
        net = Network("plain")
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_and("y", ["a", "b"])
        assert fast_extract(net) == 0


class TestResub:
    def test_resubstitutes_existing_node(self):
        net = Network("rs")
        for n in "abcd":
            net.add_input(n)
        net.add_output("y")
        net.add_output("g")
        # g = b + c exists; y = ab + ac + d should become a*g + d.
        net.add_node("g", ["b", "c"], [C((0, True)), C((1, True))])
        net.add_node("y", ["a", "b", "c", "d"],
                     [C((0, True), (1, True)), C((0, True), (2, True)),
                      C((3, True))])
        ref = net.copy()
        made = resubstitute_all(net)
        assert made >= 1
        assert "g" in net.nodes["y"].fanins
        assert check_equivalence(ref, net).equivalent

    def test_never_creates_cycle(self):
        net = Network("rs2")
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_node("u", ["a", "b"], [C((0, True)), C((1, True))])
        net.add_node("y", ["u", "a"], [C((0, True), (1, True))])
        resubstitute_all(net)
        net.check()  # would raise on a cycle


class TestRugged:
    def test_preserves_function_random(self):
        rng = random.Random(23)
        for trial in range(4):
            net = _random_network(rng)
            ref = net.copy()
            result = script_rugged(net)
            chk = check_equivalence(ref, result.network)
            assert chk.equivalent, (trial, chk.failing_output)

    def test_reduces_literals_on_redundant_logic(self):
        net = Network("red")
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        # y = ab + ab~c + abc: simplifies to ab.
        net.add_node("y", ["a", "b", "c"],
                     [C((0, True), (1, True)),
                      C((0, True), (1, True), (2, False)),
                      C((0, True), (1, True), (2, True))])
        result = script_rugged(net)
        assert result.network.literal_count() <= 2

    def test_timings_reported(self):
        rng = random.Random(29)
        net = _random_network(rng)
        result = script_rugged(net)
        for phase in ("sweep", "eliminate", "simplify", "fx", "resub"):
            assert phase in result.timings
        assert "literals" in result.summary()


def _random_network(rng, n_inputs=6, n_nodes=12):
    net = Network("rand")
    signals = [net.add_input("i%d" % i) for i in range(n_inputs)]
    for j in range(n_nodes):
        fanins = rng.sample(signals, min(rng.choice([2, 2, 3]), len(signals)))
        getattr(net, "add_" + rng.choice(["and", "or", "xor", "and", "or"]))(
            "g%d" % j, fanins)
        signals.append("g%d" % j)
    net.add_output("g%d" % (n_nodes - 1))
    net.add_output("g%d" % (n_nodes - 2))
    net.remove_dangling()
    return net

