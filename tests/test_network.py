"""Tests for the Boolean network core and BLIF I/O."""

import itertools
import re

import pytest

from repro.network import Network, parse_blif, write_blif
from repro.sop.cube import lit


def full_adder() -> Network:
    net = Network("fa")
    for n in ("a", "b", "cin"):
        net.add_input(n)
    net.add_output("sum")
    net.add_output("cout")
    net.add_xor("t", ["a", "b"])
    net.add_xor("sum", ["t", "cin"])
    net.add_and("ab", ["a", "b"])
    net.add_and("tc", ["t", "cin"])
    net.add_or("cout", ["ab", "tc"])
    return net


class TestConstruction:
    def test_gate_helpers(self):
        net = full_adder()
        net.check()
        assert net.node_count() == 5
        assert set(net.inputs) == {"a", "b", "cin"}

    def test_duplicate_rejected(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")
        with pytest.raises(ValueError):
            net.add_node("a", [], [])

    def test_fresh_name(self):
        net = Network()
        net.add_input("n0")
        name = net.fresh_name()
        assert name not in net.nodes and name != "n0"

    def test_undriven_fanin_detected(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_and("y", ["a", "ghost"])
        with pytest.raises(ValueError):
            net.check()

    def test_cycle_detected(self):
        net = Network()
        net.add_input("a")
        net.add_output("x")
        net.add_and("x", ["a", "y"])
        net.add_and("y", ["a", "x"])
        with pytest.raises(ValueError):
            net.topological()


class TestEvaluation:
    def test_full_adder_truth(self):
        net = full_adder()
        for a, b, c in itertools.product([False, True], repeat=3):
            out = net.eval({"a": a, "b": b, "cin": c})
            total = int(a) + int(b) + int(c)
            assert out["sum"] == bool(total & 1)
            assert out["cout"] == bool(total >> 1)

    def test_word_simulation_matches_scalar(self):
        net = full_adder()
        # All 8 input combinations packed in one 8-bit word each.
        words = {"a": 0, "b": 0, "cin": 0}
        for i, (a, b, c) in enumerate(itertools.product([0, 1], repeat=3)):
            words["a"] |= a << i
            words["b"] |= b << i
            words["cin"] |= c << i
        result = net.eval_words(words, width=8)
        for i, (a, b, c) in enumerate(itertools.product([0, 1], repeat=3)):
            out = net.eval({"a": bool(a), "b": bool(b), "cin": bool(c)})
            assert bool((result["sum"] >> i) & 1) == out["sum"]
            assert bool((result["cout"] >> i) & 1) == out["cout"]

    def test_mux_helper(self):
        net = Network()
        for n in ("s", "a", "b"):
            net.add_input(n)
        net.add_output("y")
        net.add_mux("y", "s", "a", "b")
        assert net.eval({"s": True, "a": True, "b": False})["y"]
        assert not net.eval({"s": False, "a": True, "b": False})["y"]

    def test_output_can_be_input(self):
        net = Network()
        net.add_input("a")
        net.add_output("a")
        assert net.eval({"a": True})["a"] is True


class TestStructure:
    def test_depth(self):
        net = full_adder()
        # sum is 2 levels deep; cout = or(ab, and(t, cin)) is 3.
        assert net.depth() == 3

    def test_fanouts(self):
        net = full_adder()
        f = net.fanouts()
        assert sorted(f["t"]) == ["sum", "tc"]
        assert sorted(f["a"]) == ["ab", "t"]

    def test_remove_dangling(self):
        net = full_adder()
        net.add_and("orphan", ["a", "b"])
        assert net.remove_dangling() == 1
        assert "orphan" not in net.nodes

    def test_copy_independent(self):
        net = full_adder()
        cp = net.copy()
        cp.nodes["t"].fanins[0] = "cin"
        assert net.nodes["t"].fanins[0] == "a"

    def test_normalize_drops_unused_fanin(self):
        net = Network()
        for n in ("a", "b"):
            net.add_input(n)
        net.add_output("y")
        node = net.add_node("y", ["a", "b"], [frozenset({lit(0)})])
        node.normalize()
        assert node.fanins == ["a"]


class TestBlif:
    def test_roundtrip(self):
        net = full_adder()
        text = write_blif(net)
        back = parse_blif(text)
        assert back.inputs == net.inputs
        assert back.outputs == net.outputs
        for bits in itertools.product([False, True], repeat=3):
            assignment = dict(zip(["a", "b", "cin"], bits))
            assert back.eval(assignment) == net.eval(assignment)

    def test_parse_basic(self):
        text = """
# a comment
.model test
.inputs a b
.outputs y
.names a b y
11 1
0- 1
.end
"""
        net = parse_blif(text)
        assert net.name == "test"
        assert net.eval({"a": True, "b": True})["y"]
        assert net.eval({"a": False, "b": False})["y"]
        assert not net.eval({"a": True, "b": False})["y"]

    def test_parse_constants(self):
        text = """
.model c
.inputs a
.outputs k1 k0
.names k1
1
.names k0
.end
"""
        net = parse_blif(text)
        out = net.eval({"a": False})
        assert out["k1"] is True
        assert out["k0"] is False

    def test_continuation_lines(self):
        text = ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
        net = parse_blif(text)
        assert net.inputs == ["a", "b"]

    def test_unsupported_construct(self):
        with pytest.raises(ValueError):
            parse_blif(".model t\n.latch a b\n.end\n")

    # Each malformed cover row is refused by name.  Trusted, a row
    # without its output bit raises IndexError, a short plane reads as
    # don't-cares (a different function), and any output bit other than
    # 0 reads as 1.
    @pytest.mark.parametrize("names, row, message", [
        ("a b y", "01", "cover row '01' of y"),            # no output bit
        ("a b y", "0 1", "cover row '0 1' of y"),          # short plane
        ("a b y", "011 1", "cover row '011 1' of y"),      # long plane
        ("a b y", "01 1 1", "cover row '01 1 1' of y"),    # extra column
        ("a b y", "01 x", "output bit must be 1"),         # bad output bit
        ("a b y", "01 0", "offset"),                       # offset cover
        ("y", "1 1", "cover row '1 1' of y"),              # constant + plane
        ("y", "x", "output bit must be 1"),                # constant bit
    ])
    def test_malformed_cover_row_is_refused(self, names, row, message):
        inputs = " ".join(names.split()[:-1])
        text = ".model t\n.inputs %s\n.outputs y\n.names %s\n%s\n.end\n" \
            % (inputs, names, row)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_blif(text)

    def test_write_constant_zero(self):
        net = Network()
        net.add_input("a")
        net.add_output("z")
        net.add_const("z", False)
        text = write_blif(net)
        back = parse_blif(text)
        assert back.eval({"a": True})["z"] is False
