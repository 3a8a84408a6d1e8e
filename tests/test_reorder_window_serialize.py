"""Tests for BDD serialization."""

import itertools
import random

import pytest

from repro.bdd import BDD, ONE, ZERO
from repro.bdd.serialize import dumps, loads
from repro.bdd.traverse import evaluate


def _random_function(mgr, variables, rng, n_ops=30):
    refs = [mgr.var_ref(v) for v in variables]
    for _ in range(n_ops):
        f, g = rng.choice(refs), rng.choice(refs)
        if rng.random() < 0.3:
            f ^= 1
        refs.append(getattr(mgr, rng.choice(["and_", "or_", "xor_"]))(f, g))
    return refs[-1]


def _truth(mgr, ref, variables):
    return tuple(evaluate(mgr, ref, dict(zip(variables, bits)))
                 for bits in itertools.product([False, True],
                                               repeat=len(variables)))


class TestSerialize:
    def test_roundtrip_fresh_manager(self):
        rng = random.Random(53)
        mgr = BDD()
        vs = [mgr.new_var("x%d" % i) for i in range(5)]
        f = _random_function(mgr, vs, rng)
        g = _random_function(mgr, vs, rng)
        text = dumps(mgr, [f, g])
        mgr2, roots = loads(text)
        for orig, loaded in zip((f, g), roots):
            for bits in itertools.product([False, True], repeat=5):
                env1 = dict(zip(vs, bits))
                env2 = {}
                for v, bit in env1.items():
                    name = mgr.var_name(v)
                    try:
                        env2[mgr2.var_by_name(name)] = bit
                    except KeyError:
                        pass
                assert evaluate(mgr, orig, env1) == evaluate(mgr2, loaded, env2)

    def test_roundtrip_into_existing_manager_other_order(self):
        mgr = BDD()
        a, b, c = (mgr.new_var(n) for n in "abc")
        f = mgr.or_(mgr.and_(mgr.var_ref(a), mgr.var_ref(b)), mgr.var_ref(c))
        text = dumps(mgr, [f])
        target = BDD()
        # Reverse order in the target manager.
        c2, b2, a2 = (target.new_var(n) for n in "cba")
        _, roots = loads(text, target)
        expected = target.or_(target.and_(target.var_ref(a2),
                                          target.var_ref(b2)),
                              target.var_ref(c2))
        assert roots[0] == expected

    def test_constants(self):
        mgr = BDD()
        mgr.new_var("a")
        text = dumps(mgr, [ONE, ZERO])
        _, roots = loads(text)
        assert roots == [ONE, ZERO]

    def test_complement_shared(self):
        mgr = BDD()
        vs = [mgr.new_var("v%d" % i) for i in range(4)]
        f = mgr.xor_many([mgr.var_ref(v) for v in vs])
        text = dumps(mgr, [f, f ^ 1])
        mgr2, roots = loads(text)
        assert roots[0] == roots[1] ^ 1

    def test_bad_input(self):
        with pytest.raises(ValueError):
            loads("garbage")
        with pytest.raises(ValueError):
            loads(".bdd 1\n.vars a\n.nodes\n1 0 99 98\n.roots 2\n")
