"""Tests for the technology mapper: subject graphs, matching, area/delay."""

import itertools
import random
from collections import Counter

import pytest

from repro.bds import bds_optimize
from repro.circuits import build_circuit
from repro.mapping import map_network, mcnc_library
from repro.mapping.subject import SubjectGraph, build_subject
from repro.network import Network
from repro.sop.cube import lit
from repro.verify import check_equivalence


class TestLibrary:
    def test_has_inverter_and_xor(self):
        lib = mcnc_library()
        assert lib.inverter.name == "inv1"
        names = {c.name for c in lib}
        assert {"nand2", "nor2", "xor2", "xnor2", "mux21", "aoi21"} <= names

    def test_cell_covers_match_semantics(self):
        # Each cell's cover must agree with its pattern semantics.
        lib = mcnc_library()
        from repro.sop.cover import cover_eval

        def eval_pattern(p, env):
            if isinstance(p, str):
                return env[p]
            if p[0] == "inv":
                return not eval_pattern(p[1], env)
            return not (eval_pattern(p[1], env) and eval_pattern(p[2], env))

        for cell in lib:
            pins = cell.inputs
            for bits in itertools.product([False, True], repeat=len(pins)):
                env = dict(zip(pins, bits))
                got = cover_eval(cell.cover, dict(enumerate(bits)))
                assert got == eval_pattern(cell.pattern, env), cell.name


class TestSubjectGraph:
    def test_hash_consing(self):
        sg = SubjectGraph()
        a, b = sg.leaf("a"), sg.leaf("b")
        n1 = sg.nand(a, b)
        n2 = sg.nand(b, a)
        assert n1 == n2
        assert sg.inv(sg.inv(n1)) == n1

    def test_single_fanout_inlined(self):
        net = Network()
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        net.add_and("t", ["a", "b"])    # single consumer -> inlined
        net.add_and("y", ["t", "c"])
        sg = build_subject(net)
        assert "t" not in sg.roots
        assert "y" in sg.roots

    def test_multi_fanout_materialized(self):
        net = Network()
        for n in "ab":
            net.add_input(n)
        net.add_output("y1")
        net.add_output("y2")
        net.add_and("t", ["a", "b"])
        net.add_not("y1", "t")
        net.add_buf("y2", "t")
        sg = build_subject(net)
        assert "t" in sg.roots


class TestMapping:
    def _check(self, net):
        result = map_network(net)
        chk = check_equivalence(net, result.network)
        assert chk.equivalent, (chk.failing_output, chk.counterexample)
        return result

    def test_inverter(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_not("y", "a")
        result = self._check(net)
        assert result.gate_count == 1
        assert result.gates[0].cell.name == "inv1"

    def test_and_chain_uses_wide_nands(self):
        net = Network()
        for n in "abcd":
            net.add_input(n)
        net.add_output("y")
        net.add_and("y", ["a", "b", "c", "d"])
        result = self._check(net)
        # AND4 = nand4 + inv (5 units) beats 3x and2 (9 units).
        assert result.area <= 6 * 464.0

    def test_xor_preserved(self):
        net = Network()
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_xor("y", ["a", "b"])
        result = self._check(net)
        assert result.cell_histogram.get("xor2") == 1
        assert result.gate_count == 1

    def test_mux_preserved(self):
        net = Network()
        for n in "sab":
            net.add_input(n)
        net.add_output("y")
        net.add_mux("y", "s", "a", "b")
        result = self._check(net)
        assert result.cell_histogram.get("mux21") == 1

    def test_aoi_found(self):
        # y = ~(a b + c).
        net = Network()
        for n in "abc":
            net.add_input(n)
        net.add_output("y")
        net.add_node("y", ["a", "b", "c"],
                     [frozenset({lit(0, False), lit(2, False)}),
                      frozenset({lit(1, False), lit(2, False)})])
        result = self._check(net)
        assert "aoi21" in result.cell_histogram or result.area <= 4 * 464.0

    def test_random_networks_verified(self):
        rng = random.Random(41)
        for _ in range(5):
            net = _random_network(rng)
            self._check(net)

    def test_delay_positive_and_bounded(self):
        net = Network()
        names = [net.add_input("x%d" % i) for i in range(8)]
        prev = names[0]
        for i in range(1, 8):
            cur = "t%d" % i if i < 7 else "y"
            net.add_xor(cur, [prev, names[i]])
            prev = cur
        net.add_output("y")
        result = self._check(net)
        assert 0 < result.delay <= 7 * 2.0 + 1e-9

    def test_constant_output(self):
        net = Network()
        net.add_input("a")
        net.add_output("k")
        net.add_const("k", True)
        result = map_network(net)
        assert result.network.eval({"a": False})["k"] is True

    def test_output_alias_of_input(self):
        net = Network()
        net.add_input("a")
        net.add_output("y")
        net.add_buf("y", "a")
        result = self._check(net)
        assert result.network.eval({"a": True})["y"] is True


class TestMappedQuality:
    @pytest.mark.parametrize("circuit, area, delay, cells", [
        # C432 maps onto AOI/OAI and MUX cells, C499 onto XNOR/XOR cells.
        ("C432", 166112.0, 27.3,
         {"and2": 19, "aoi21": 5, "aoi22": 2, "inv1": 47, "mux21": 2,
          "nand2": 46, "nand3": 12, "nand4": 3, "nor2": 3, "nor3": 6,
          "oai21": 17, "or2": 2}),
        ("C499", 386976.0, 20.4,
         {"and2": 16, "inv1": 65, "nand2": 24, "nand3": 21, "nand4": 1,
          "nor2": 14, "or2": 1, "xnor2": 113, "xor2": 2}),
    ])
    def test_bds_output_maps_to_pinned_area_and_delay(self, circuit, area,
                                                      delay, cells):
        # The library's areas and delays, and the mapper over them, are
        # what the bench's bds_area/bds_delay sums measure.
        net = build_circuit(circuit)
        optimized = bds_optimize(net).network
        mapped = map_network(optimized, mcnc_library())
        assert mapped.area == area
        assert mapped.delay == pytest.approx(delay, abs=1e-9)
        assert Counter(gate.cell.name for gate in mapped.gates) == cells
        assert check_equivalence(optimized, mapped.network).equivalent


def _random_network(rng, n_inputs=5, n_nodes=10):
    net = Network("rand")
    signals = [net.add_input("i%d" % i) for i in range(n_inputs)]
    for j in range(n_nodes):
        fanins = rng.sample(signals, min(rng.choice([2, 2, 3]), len(signals)))
        getattr(net, "add_" + rng.choice(["and", "or", "xor"]))("g%d" % j, fanins)
        signals.append("g%d" % j)
    net.add_output("g%d" % (n_nodes - 1))
    net.add_output("g%d" % (n_nodes - 2))
    net.remove_dangling()
    return net
