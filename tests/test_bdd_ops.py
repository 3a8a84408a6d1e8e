"""Tests for the higher-order BDD operators and the delay-mode mapper."""

import random

import pytest

from repro.bdd import BDD, ONE, ZERO, and_exists
from repro.mapping import map_network


@pytest.fixture
def mgr():
    return BDD()


def _random_function(mgr, variables, rng, n_ops=20):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs[-1]


class TestAndExists:
    def test_matches_naive(self, mgr):
        rng = random.Random(3)
        vs = [mgr.new_var() for _ in range(6)]
        for _ in range(30):
            f = _random_function(mgr, vs, rng)
            g = _random_function(mgr, vs, rng)
            quantified = rng.sample(vs, rng.randint(0, 4))
            fused = and_exists(mgr, f, g, quantified)
            naive = mgr.exists(mgr.and_(f, g), quantified)
            assert fused == naive

    def test_terminal_cases(self, mgr):
        a = mgr.new_var("a")
        ra = mgr.var_ref(a)
        assert and_exists(mgr, ZERO, ra, [a]) == ZERO
        assert and_exists(mgr, ra, ra ^ 1, [a]) == ZERO
        assert and_exists(mgr, ra, ONE, [a]) == ONE

    def test_no_variables(self, mgr):
        a, b = mgr.new_var("a"), mgr.new_var("b")
        ra, rb = mgr.var_ref(a), mgr.var_ref(b)
        assert and_exists(mgr, ra, rb, []) == mgr.and_(ra, rb)


class TestDelayModeMapping:
    def _chain_network(self):
        from repro.network import Network
        net = Network("chain")
        names = [net.add_input("x%d" % i) for i in range(8)]
        prev = names[0]
        for i in range(1, 8):
            cur = "t%d" % i if i < 7 else "y"
            net.add_and(cur, [prev, names[i]])
            prev = cur
        net.add_output("y")
        return net

    def test_modes_verified_and_delay_ordering(self):
        from repro.verify import check_equivalence
        net = self._chain_network()
        area_map = map_network(net, mode="area")
        delay_map = map_network(net, mode="delay")
        assert check_equivalence(net, area_map.network).equivalent
        assert check_equivalence(net, delay_map.network).equivalent
        assert delay_map.delay <= area_map.delay
        assert area_map.area <= delay_map.area

    def test_invalid_mode(self):
        net = self._chain_network()
        with pytest.raises(ValueError):
            map_network(net, mode="power")
