"""Tests for satisfiability don't-care minimization (Section VI item 1)."""

import random


from repro.bdd.traverse import node_count, support
from repro.bds import BDSOptions, bds_optimize
from repro.bds.dontcare import minimize_with_sdc
from repro.circuits import build_circuit
from repro.network import Network, sweep
from repro.network.eliminate import PartitionedNetwork
from repro.sop.cube import lit
from repro.verify import check_equivalence


def _unreachable_pattern_network():
    """y1 = a&b and y2 = a|b feed z; the pattern (y1=1, y2=0) never occurs.

    z is chosen so that it simplifies dramatically once that pattern is
    declared don't-care: z = y1 | (~y1 & y2 & c) -- on the reachable space
    y1 implies y2, so z == y2 & (y1 | c).
    """
    net = Network("sdc")
    for n in "abc":
        net.add_input(n)
    net.add_output("z")
    net.add_and("y1", ["a", "b"])
    net.add_or("y2", ["a", "b"])
    net.add_node("z", ["y1", "y2", "c"],
                 [frozenset({lit(0)}),
                  frozenset({lit(0, False), lit(1), lit(2)})])
    return net


class TestMinimizeWithSdc:
    def test_shrinks_node_with_unreachable_input_pattern(self):
        net = _unreachable_pattern_network()
        part = PartitionedNetwork.from_network(net)
        before = node_count(part.mgr, part.refs["z"])
        changed = minimize_with_sdc(part)
        after = node_count(part.mgr, part.refs["z"])
        assert changed >= 1
        assert after <= before
        back = part.to_network()
        assert check_equivalence(net, back).equivalent

    def test_preserves_function_random(self):
        rng = random.Random(55)
        for trial in range(5):
            net = _random_network(rng)
            ref = net.copy()
            part = PartitionedNetwork.from_network(net)
            minimize_with_sdc(part)
            back = part.to_network()
            chk = check_equivalence(ref, back)
            assert chk.equivalent, (trial, chk.failing_output)

    def test_pi_only_nodes_untouched(self):
        net = Network("plain")
        for n in "ab":
            net.add_input(n)
        net.add_output("y")
        net.add_and("y", ["a", "b"])
        part = PartitionedNetwork.from_network(net)
        ref_before = part.refs["y"]
        assert minimize_with_sdc(part) == 0
        assert part.refs["y"] == ref_before

    def test_direct_pi_correlation_used(self):
        # z reads PI a directly AND s = a&b: pattern (a=0, s=1) never
        # occurs, so z = s | (~a & s & c) collapses to s.
        net = Network("corr")
        for n in "abc":
            net.add_input(n)
        net.add_output("z")
        net.add_and("s", ["a", "b"])
        net.add_node("z", ["s", "a", "c"],
                     [frozenset({lit(0), lit(1)}),
                      frozenset({lit(0), lit(1, False), lit(2)})])
        ref = net.copy()
        part = PartitionedNetwork.from_network(net)
        minimize_with_sdc(part)
        back = part.to_network()
        assert check_equivalence(ref, back).equivalent
        # z should have been reduced to just s (support of one signal).
        assert len(support(part.mgr, part.refs["z"])) == 1

    def test_signal_graph_current_after_eliminate(self):
        # Without BDD mapping nothing rebuilds the partition's support
        # cache between eliminate and SDC, so SDC's rewrites must keep it
        # (and the fanout index) current themselves.
        net = sweep(build_circuit("C880"))
        part = PartitionedNetwork.from_network(net)
        part.eliminate(use_mapping=False)
        assert minimize_with_sdc(part) > 0
        fresh = {}
        for name, ref in part.refs.items():
            fanins = sorted(part.mgr.var_name(v)
                            for v in support(part.mgr, ref))
            assert part.fanin_signals(name) == fanins, name
            for sig in fanins:
                fresh.setdefault(sig, []).append(name)
        assert part.fanouts() == fresh

    def test_flow_option(self):
        net = _unreachable_pattern_network()
        plain = bds_optimize(net, BDSOptions(use_sdc=False))
        sdc = bds_optimize(net, BDSOptions(use_sdc=True))
        assert check_equivalence(net, plain.network).equivalent
        assert check_equivalence(net, sdc.network).equivalent
        assert sdc.network.literal_count() <= plain.network.literal_count()


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
