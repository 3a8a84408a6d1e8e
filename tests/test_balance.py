"""Tests for factoring-tree balancing (Section VI item 3 extension)."""

import hashlib
import itertools
import random

import pytest

from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.decomp.balance import balance_forest, balance_tree
from repro.decomp.ftree import mux, negate, op2, var_leaf
from repro.network import Network, write_blif
from repro.verify import check_equivalence

#: sha256 of each Table I circuit's optimized BLIF with
#: ``balance_trees=True``.  Huffman ties follow the order in which a
#: chain's operands are flattened, so these fix that order too.
BALANCED_TABLE1_SHA256 = {
    "C432": "e2baf0ec34ce1033a0f6a606e2c9e06f878ffbb485ba350077ba43d371ebc7f5",
    "C499": "d0ec0bfbe88a36b68926d22a3ea6a7027b815ffff11bbd0c0318c50c604bb907",
    "C880": "cd8dbe79c380a4716b4e802c6d7c0bb812ac9da0ed34eef8f332270a14101e9a",
    "C1355": "b72fe6c9b7ddeedadee95efc6b65419cb3fea0d7e85830f4319ba106bfff88fa",
    "C1908": "6f099c86205768167e094a6d5a188586a01f350646307ed40b8637d90c23420f",
    "C3540": "1c63aeaea3ce5e0f7e245c7546d25d6174499d67761997ec74867161c07f0d10",
    "C5315": "41a889cf8b7a8f3e507d0a960c5b1c00dc0573ee82806a3c547178acdf77a548",
    "C6288": "447d6375c6966fe8f55f9eb28d3fa29f3b31503bd119c2061a00f422275f66ad",
    "C7552": "c90222d1ade1b8e9af512bc2653c31af4c8314df45da1850267fed94039de723",
    "pair": "de0f8e7f0fa881bb9c9227487ebe97350191cdceb6da1a7b75b3243221d658ee",
    "rot": "b4d64810bc85d83b7f8b213304dfa873cc18001d775c99788520fa33a644ca46",
    "dalu": "639f56781248f8c5faa524d516f13e2c75167f3b31d9449b3d7006de1a7705f8",
    "vda": "fb0799b70c0c64ce1f243cba952cbffed84f5ccd0d546628f42a2552d3fc06f5",
}


def chain(op, names):
    t = var_leaf(names[0])
    for n in names[1:]:
        t = op2(op, t, var_leaf(n))
    return t


def _equiv(t1, t2, names):
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if t1.evaluate(env) != t2.evaluate(env):
            return False
    return True


class TestBalanceTree:
    @pytest.mark.parametrize("op", ["and", "or", "xor", "xnor"])
    def test_chain_becomes_logarithmic(self, op):
        names = list("abcdefgh")
        t = chain(op, names)
        assert t.depth() == 7
        b = balance_tree(t)
        assert b.depth() <= 3 + (1 if op == "xnor" else 0)
        assert _equiv(t, b, names)

    def test_preserves_semantics_random(self):
        rng = random.Random(5)
        names = list("abcde")
        for _ in range(40):
            t = _random_tree(rng, names, depth=5)
            b = balance_tree(t)
            assert _equiv(t, b, names), t.to_expr()
            assert b.depth() <= t.depth() + 1  # xnor polarity may add a NOT

    def test_uneven_operand_depths(self):
        # A deep operand should be combined last (Huffman property).
        deep = chain("and", list("abcd"))      # depth 3
        t = op2("or", op2("or", deep, var_leaf("x")), var_leaf("y"))
        b = balance_tree(t)
        # depth stays 4: the OR chain adds only 1 level over the deep AND.
        assert b.depth() <= 4
        assert _equiv(t, b, list("abcdxy"))

    def test_xnor_parity_polarity(self):
        names = list("abc")
        t = chain("xnor", names)   # a xnor b xnor c == parity(a,b,c)... check
        b = balance_tree(t)
        assert _equiv(t, b, names)

    def test_mux_children_balanced(self):
        t = mux(var_leaf("s"), chain("and", list("abcd")),
                chain("or", list("wxyz")))
        b = balance_tree(t)
        assert b.op == "mux"
        assert b.depth() <= 3
        assert _equiv(t, b, list("sabcdwxyz"))

    def test_forest(self):
        trees = {"f": chain("xor", list("abcdefgh")),
                 "g": chain("and", list("abcd"))}
        balanced = balance_forest(trees)
        assert set(balanced) == {"f", "g"}
        assert balanced["f"].depth() <= 4


class TestBalanceInFlow:
    def test_flow_with_balancing_equivalent_and_shallower(self):
        # A parity chain (deliberately linear, not the balanced tree).
        net = Network("chain")
        names = [net.add_input("x%d" % i) for i in range(12)]
        prev = names[0]
        for i in range(1, 12):
            cur = "p%d" % i if i < 11 else "out"
            net.add_xor(cur, [prev, names[i]])
            prev = cur
        net.add_output("out")
        plain = bds_optimize(net, BDSOptions(balance_trees=False))
        balanced = bds_optimize(net, BDSOptions(balance_trees=True))
        assert check_equivalence(net, plain.network).equivalent
        assert check_equivalence(net, balanced.network).equivalent
        assert balanced.network.depth() <= plain.network.depth()

    @pytest.mark.parametrize("circuit", sorted(BALANCED_TABLE1_SHA256))
    def test_balanced_table1_bytes_are_pinned(self, circuit):
        result = bds_optimize(build_circuit(circuit),
                              BDSOptions(balance_trees=True))
        text = write_blif(result.network)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            BALANCED_TABLE1_SHA256[circuit]


def _random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        t = var_leaf(rng.choice(names))
        return negate(t) if rng.random() < 0.3 else t
    op = rng.choice(["and", "or", "xor", "xnor", "mux"])
    if op == "mux":
        return mux(_random_tree(rng, names, depth - 1),
                   _random_tree(rng, names, depth - 1),
                   _random_tree(rng, names, depth - 1))
    return op2(op, _random_tree(rng, names, depth - 1),
               _random_tree(rng, names, depth - 1))
