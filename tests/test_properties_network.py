"""Property-based tests at the network level: random networks through
BLIF roundtrips, sweep, eliminate, both synthesis flows and both mappers,
checked for functional equivalence throughout."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bds import bds_optimize
from repro.mapping import map_network
from repro.mapping.lut import map_luts
from repro.network import (
    Network,
    eliminate_literal,
    parse_blif,
    sweep,
    write_blif,
)
from repro.network.eliminate import PartitionedNetwork
from repro.sis import script_rugged
from repro.sop.cube import lit

N_INPUTS = 4


@st.composite
def networks(draw, max_nodes=8):
    """A random acyclic single/multi-output network over 4 inputs."""
    net = Network("prop")
    signals = [net.add_input("i%d" % i) for i in range(N_INPUTS)]
    n_nodes = draw(st.integers(1, max_nodes))
    for j in range(n_nodes):
        arity = draw(st.integers(1, min(3, len(signals))))
        fanins = draw(st.permutations(signals)).copy()[:arity]
        kind = draw(st.sampled_from(["and", "or", "xor", "sop", "not"]))
        name = "g%d" % j
        if kind == "not":
            net.add_not(name, fanins[0])
        elif kind == "sop":
            n_cubes = draw(st.integers(0, 3))
            cubes = set()
            for _ in range(n_cubes):
                cube = []
                for pos in range(arity):
                    pol = draw(st.sampled_from(["pos", "neg", "skip"]))
                    if pol != "skip":
                        cube.append(lit(pos, pol == "pos"))
                cubes.add(frozenset(cube))
            net.add_node(name, fanins, list(cubes))
            net.nodes[name].normalize()
        elif kind == "xor" and arity > 2:
            net.add_xor(name, fanins[:2])
        else:
            getattr(net, "add_" + kind)(name, fanins)
        signals.append(name)
    n_outputs = draw(st.integers(1, min(3, n_nodes)))
    for j in range(n_outputs):
        net.add_output("g%d" % (n_nodes - 1 - j))
    net.remove_dangling()
    net.check()
    return net


def _truth(net):
    out = []
    for bits in itertools.product([False, True], repeat=N_INPUTS):
        assignment = dict(zip(net.inputs, bits))
        result = net.eval(assignment)
        out.append(tuple(result[o] for o in net.outputs))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_blif_roundtrip(net):
    back = parse_blif(write_blif(net))
    assert back.inputs == net.inputs
    assert back.outputs == net.outputs
    assert _truth(back) == _truth(net)


@settings(max_examples=30, deadline=None)
@given(networks())
def test_sweep_preserves_function(net):
    before = _truth(net)
    sweep(net)
    assert _truth(net) == before
    net.check()


@settings(max_examples=25, deadline=None)
@given(networks(), st.integers(-1, 6))
def test_eliminate_literal_preserves_function(net, threshold):
    before = _truth(net)
    eliminate_literal(net, threshold=threshold)
    assert _truth(net) == before


@settings(max_examples=20, deadline=None)
@given(networks(), st.integers(2, 40))
def test_eliminate_bdd_preserves_function(net, size_cap):
    before = _truth(net)
    part = PartitionedNetwork.from_network(net)
    part.eliminate(threshold=0, size_cap=size_cap)
    back = part.to_network()
    # Outputs may now be driven through different node sets; compare by
    # name on the original interface.
    assert back.outputs == net.outputs
    assert _truth(back) == before


@settings(max_examples=15, deadline=None)
@given(networks())
def test_bds_flow_preserves_function(net):
    result = bds_optimize(net)
    assert _truth(result.network) == _truth(net)


@settings(max_examples=10, deadline=None)
@given(networks())
def test_sis_flow_preserves_function(net):
    result = script_rugged(net)
    assert _truth(result.network) == _truth(net)


@settings(max_examples=10, deadline=None)
@given(networks())
def test_cell_mapping_preserves_function(net):
    mapped = map_network(net)
    assert _truth(mapped.network) == _truth(net)


@settings(max_examples=10, deadline=None)
@given(networks(), st.integers(2, 6))
def test_lut_mapping_preserves_function(net, k):
    mapped = map_luts(net, k=k)
    assert _truth(mapped.network) == _truth(net)
    for node in mapped.network.nodes.values():
        assert len(node.fanins) <= k
