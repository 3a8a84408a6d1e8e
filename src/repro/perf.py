"""Kernel performance counters.

Every :class:`repro.bdd.manager.BDD` owns a :class:`PerfCounters` instance
(``mgr.perf``) updated by the hot paths: the bounded computed table counts
hits/misses/evictions, ``mk`` counts allocations and free-list reuse, and
the mark-and-sweep collector counts sweeps and reclaimed nodes.  Flows
aggregate per-manager snapshots with :func:`merge_snapshots` so a benchmark
can report kernel health (cache hit rate, peak live nodes, GC pressure)
alongside CPU and memory.

The service layer folds its own counters into the same snapshots: the
content-addressed artifact cache (:mod:`repro.service.cache`) reports
``artifact_cache_hits`` / ``artifact_cache_misses`` /
``artifact_cache_stores`` / ``artifact_cache_evictions`` /
``artifact_cache_corrupt``.  These are plain counts (summed on merge) and
are distinct from the kernel's computed-table ``cache_hits`` /
``cache_misses``: the former count whole reused optimization *results*,
the latter memoized ITE subproblems.

See ``docs/PERFORMANCE.md`` and ``docs/SERVICE.md`` for how to read the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable


@dataclass
class PerfCounters:
    """Raw counters maintained by one BDD manager."""

    ite_calls: int = 0            # top-level + expanded ITE subproblems
    nodes_allocated: int = 0      # mk() allocations (fresh slots)
    nodes_reused: int = 0        # mk() allocations served from the free list
    gc_sweeps: int = 0            # mark-and-sweep passes
    gc_reclaimed: int = 0         # nodes tombstoned across all sweeps
    peak_live_nodes: int = 0      # max live count observed (at GC/snapshot)
    peak_allocated_nodes: int = 0  # max node-array length observed
    checks_run: int = 0           # sanitizer audits of this manager
    check_violations: int = 0     # invariant violations those audits found
    # Reordering engine (see repro.bdd.reorder and docs/PERFORMANCE.md).
    reorder_swaps: int = 0        # adjacent swaps actually performed
    reorder_passes: int = 0       # sift invocations
    reorder_size_before: int = 0  # cumulative live size entering each pass
    reorder_size_after: int = 0   # cumulative live size leaving each pass
    live_traversals: int = 0      # full live_nodes() mark traversals

    def observe_live(self, live: int) -> None:
        if live > self.peak_live_nodes:
            self.peak_live_nodes = live

    def observe_allocated(self, allocated: int) -> None:
        if allocated > self.peak_allocated_nodes:
            self.peak_allocated_nodes = allocated


#: Takes a finished manager's ``BDD.perf_snapshot()``: how code that
#: makes a short-lived manager (sweep's functional merge, sharing
#: extraction, the equivalence checker) hands its counters to a flow.
PerfSink = Callable[[Dict[str, float]], None]

#: Snapshot keys that are high-water marks (merged with ``max``); every
#: other numeric key is a count and merges with ``+``.
PEAK_KEYS = frozenset({"peak_live_nodes", "peak_allocated_nodes"})

#: Derived keys recomputed after merging rather than summed.
DERIVED_KEYS = frozenset({"cache_hit_rate", "unique_live_ratio"})


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    """Count-key increments between two snapshots of one counter source.

    Only count-type keys appear: peaks (max-merged) and derived ratios do
    not telescope, so attributing their "delta" to a time window would be
    meaningless.  Because counts merge with ``+`` and never decrease,
    consecutive deltas over a partition of a timeline sum to the totals
    -- the invariant ``repro.obs.trace`` spans rely on.  Zero deltas are
    dropped; keys are emitted in sorted order for stable serialization.
    """
    delta: Dict[str, float] = {}
    for key in sorted(after):
        if key in PEAK_KEYS or key in DERIVED_KEYS:
            continue
        diff = after[key] - before.get(key, 0)
        if diff:
            delta[key] = diff
    return delta


def merge_snapshots(snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Aggregate per-manager snapshots (``BDD.perf_snapshot()`` dicts).

    Counts are summed, peaks are maxed, and the derived ratios
    (``cache_hit_rate``, ``unique_live_ratio``) are recomputed from the
    aggregated counts so they stay meaningful.
    """
    out: Dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in DERIVED_KEYS:
                continue
            if key in PEAK_KEYS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    lookups = out.get("cache_hits", 0) + out.get("cache_misses", 0)
    out["cache_hit_rate"] = (out.get("cache_hits", 0) / lookups) if lookups else 0.0
    allocated = out.get("peak_allocated_nodes", 0)
    out["unique_live_ratio"] = (
        out.get("peak_live_nodes", 0) / allocated if allocated else 0.0)
    return out
