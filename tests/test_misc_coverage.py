"""Edge-case and failure-injection tests across smaller modules: DOT
export, verifier caps and mismatches, eliminate corner cases, and
transfer error handling."""

import itertools

import pytest

from repro.bdd import BDD, ONE, ZERO, to_dot, transfer_many
from repro.network import Network, parse_blif, write_blif
from repro.network.eliminate import PartitionedNetwork, collapse_node_into
from repro.sop.cube import lit
from repro.verify import check_equivalence
from repro.verify.cec import EquivalenceResult


class TestDot:
    def test_renders_all_nodes(self):
        mgr = BDD()
        a, b = mgr.new_var("a"), mgr.new_var("b")
        f = mgr.xor_(mgr.var_ref(a), mgr.var_ref(b))
        dot = to_dot(mgr, [f], ["F"])
        assert "digraph" in dot
        assert 'label="a"' in dot and 'label="b"' in dot
        # XOR uses a complement edge: the dotted style must appear.
        assert "dotted" in dot

    def test_multiple_roots(self):
        mgr = BDD()
        a = mgr.new_var("a")
        dot = to_dot(mgr, [mgr.var_ref(a), mgr.var_ref(a) ^ 1])
        assert dot.count('shape=plaintext') == 2


class TestVerifierEdges:
    def test_size_cap_yields_unknown(self):
        # A multiplier-ish function with a tiny cap -> unknown outputs.
        from repro.circuits import array_multiplier
        net = array_multiplier(4)
        res = check_equivalence(net, net.copy(), size_cap=3)
        assert not res.equivalent
        assert res.unknown_outputs
        assert res.counterexample is None

    def test_counterexample_is_minimal_interface(self):
        net1 = Network("a")
        net1.add_input("x")
        net1.add_input("y")
        net1.add_output("o")
        net1.add_and("o", ["x", "y"])
        net2 = net1.copy()
        net2.nodes["o"].cover = [frozenset({lit(0)})]  # o = x
        res = check_equivalence(net1, net2)
        assert not res.equivalent
        assert set(res.counterexample) == {"x", "y"}

    def test_result_is_namedtuple(self):
        assert EquivalenceResult._fields == (
            "equivalent", "checked_outputs", "unknown_outputs",
            "counterexample", "failing_output")


class TestEliminateEdges:
    def test_collapse_refuses_blowup(self):
        from repro.network.network import Node
        # A divisor whose complement explodes: 12-var xor as SOP.
        n = 10
        cover = []
        for bits in itertools.product([0, 1], repeat=n):
            if sum(bits) % 2:
                cover.append(frozenset(lit(i, bool(b))
                                       for i, b in enumerate(bits)))
        node = Node("x", ["i%d" % i for i in range(n)], cover)
        consumer = Node("c", ["x", "w"],
                        [frozenset({lit(0, False), lit(1)})])
        assert collapse_node_into(consumer, node, max_cubes=50) is False
        assert consumer.fanins == ["x", "w"]  # untouched

    def test_partitioned_network_dangling_removal(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_buf("y", "a")
        net.add_and("orphan", ["a", "a2"])
        net.add_buf("a2", "a")
        part = PartitionedNetwork.from_network(net)
        removed = part.remove_dangling()
        assert removed >= 1
        assert "y" in part.refs


class TestTransferEdges:
    def test_explicit_var_map_requires_prepared_manager(self):
        src = BDD()
        a = src.new_var("a")
        with pytest.raises(ValueError):
            transfer_many(src, [src.var_ref(a)], var_map={a: 5})

    def test_constant_transfer(self):
        src = BDD()
        src.new_var("a")
        result = transfer_many(src, [ONE, ZERO])
        assert result.refs == [ONE, ZERO]
        assert result.manager.num_vars == 0


class TestBlifEdges:
    def test_empty_model(self):
        net = parse_blif(".model empty\n.inputs a\n.outputs a\n.end\n")
        assert net.eval({"a": True})["a"] is True
        parse_blif(write_blif(net))

    def test_bad_cover_char(self):
        with pytest.raises(ValueError):
            parse_blif(".model t\n.inputs a\n.outputs y\n.names a y\n2 1\n.end")

    def test_cover_row_outside_names(self):
        with pytest.raises(ValueError):
            parse_blif(".model t\n.inputs a\n.outputs y\n11 1\n.end")

    def test_offset_rows_rejected(self):
        with pytest.raises(ValueError):
            parse_blif(".model t\n.inputs a b\n.outputs y\n"
                       ".names a b y\n11 0\n.end")
