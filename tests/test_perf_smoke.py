"""Kernel performance smoke tests (opt-in: ``pytest -m perf``).

Not part of the tier-1 suite -- these assert *perf-shaped* properties
(cache effectiveness, GC pressure, wall-clock ceilings) that are
environment-sensitive, with thresholds loose enough to only catch gross
regressions (an accidentally unbounded cache, GC never firing, a
quadratic hot path).
"""

import time

import pytest

from repro.bds import BDSOptions, bds_optimize
from repro.circuits import build_circuit

pytestmark = pytest.mark.perf


def test_flow_kernel_health_on_c880():
    net = build_circuit("C880")
    t0 = time.perf_counter()
    result = bds_optimize(net, BDSOptions())
    elapsed = time.perf_counter() - t0
    perf = result.perf

    # The computed table must be doing real work on a circuit this size.
    assert perf["ite_calls"] > 1000
    assert perf["cache_hit_rate"] > 0.10, (
        "cache hit rate collapsed: %.3f" % perf["cache_hit_rate"])
    # Bounded table: slot count can never exceed the configured maximum.
    assert perf["cache_slots"] <= 1 << 16

    # GC keeps the live set a bounded fraction of everything ever built.
    assert perf["peak_live_nodes"] > 0
    assert perf["peak_live_nodes"] <= perf["peak_allocated_nodes"]

    # Gross wall-clock ceiling only (C880 runs in well under a second on
    # any machine this repo targets; 30s means something is quadratic).
    assert elapsed < 30.0


def test_reorder_swap_budget_on_c1355():
    """C1355's supernode BDDs already have one node per variable, the
    fewest any order can give, so every sift stops before its first
    swap (5,700 swaps before the stop).  Counters, not wall-clock."""
    net = build_circuit("C1355")
    result = bds_optimize(net, BDSOptions())
    perf = result.perf
    assert perf["reorder_passes"] > 0
    assert perf["reorder_swaps"] == 0


@pytest.mark.parametrize("circuit, budget", [("C7552", 1000), ("pair", 250)])
def test_reorder_swap_budget(circuit, budget):
    """Counter-based (deterministic) budget on the sifting engine.

    The flow's per-supernode sifts take 690 adjacent swaps on C7552 and
    159 on pair with lower-bound pruning in place; without it they take
    3,666 and 1,015.  Counters, not wall-clock, so the budget is
    machine-independent.
    """
    net = build_circuit(circuit)
    result = bds_optimize(net, BDSOptions())
    perf = result.perf
    assert perf["reorder_passes"] > 0
    assert 0 < perf["reorder_swaps"] <= budget, (
        "sifting swap budget blown: %d swaps (pruning regression?)"
        % perf["reorder_swaps"])
    # The incremental engine never re-traverses from the roots to measure
    # size: the only full traversals are the decompose entry counts, at
    # most one per supernode -- nowhere near one per swap.
    assert perf["live_traversals"] <= result.supernodes


def test_gc_reclaims_during_eliminate():
    net = build_circuit("C1355")
    result = bds_optimize(net, BDSOptions())
    perf = result.perf
    assert perf["gc_sweeps"] >= 1, "auto-GC never fired on C1355"
    assert perf["gc_reclaimed"] > 0
    # Reclaimed slots must actually be recycled by later allocations.
    assert perf["nodes_reused"] > 0
