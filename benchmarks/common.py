"""Benchmark runner utilities: synthesize with both systems, map, verify,
and collect the metrics the paper's tables report (gates, area, delay,
CPU time, peak memory) plus the kernel-health counters (cache hit rate,
GC sweeps, peak live nodes) that ``BENCH_kernel.json`` tracks across PRs."""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bds import BDSOptions, bds_optimize
from repro.mapping import map_network, mcnc_library
from repro.network.network import Network
from repro.sis import script_rugged
from repro.verify import simulate_equivalence

_LIBRARY = mcnc_library()

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@dataclass
class RunMetrics:
    """Everything one table row needs about one (circuit, system) run."""

    system: str
    literals: int
    nodes: int
    gates: int
    area: float
    delay: float
    cpu: float
    mem_mb: float
    verified: bool
    # Kernel perf counters (BDS only; empty for SIS, which is cube-based).
    kernel: Dict[str, float] = field(default_factory=dict)

    def row(self) -> str:
        return ("%7d %8.0f %7.2f %8.3f %7.2f  %s"
                % (self.gates, self.area, self.delay, self.cpu, self.mem_mb,
                   "ok" if self.verified else "MISMATCH"))


def run_system(net: Network, system: str, verify: bool = True,
               bds_options: Optional[BDSOptions] = None) -> RunMetrics:
    """Optimize ``net`` with one system, map it, verify, return metrics.

    CPU time covers optimization only (like the paper's CPU column, which
    times synthesis; both systems share the same mapper here).  Peak
    memory is the tracemalloc high-water mark during optimization.
    """
    kernel: Dict[str, float] = {}

    def optimize():
        if system == "bds":
            result = bds_optimize(net, bds_options)
            kernel.clear()
            kernel.update(result.perf)
            return result.network
        if system == "sis":
            return script_rugged(net).network
        raise ValueError(system)

    # Clean CPU timing first; tracemalloc's instrumentation would bias
    # allocation-heavy code, so memory is measured in a second run.
    t0 = time.perf_counter()
    optimized = optimize()
    cpu = time.perf_counter() - t0
    tracemalloc.start()
    optimize()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    mapped = map_network(optimized, _LIBRARY)
    verified = True
    if verify:
        ok, _ = simulate_equivalence(net, mapped.network)
        verified = ok
    return RunMetrics(
        system=system,
        literals=optimized.literal_count(),
        nodes=optimized.node_count(),
        gates=mapped.gate_count,
        area=mapped.area,
        delay=mapped.delay,
        cpu=cpu,
        mem_mb=peak / (1024.0 * 1024.0),
        verified=verified,
        kernel=dict(kernel),
    )


def write_bench_json(payload: Dict, filename: str) -> str:
    """Write machine-readable bench metrics next to the text tables.

    Future PRs diff these files to track the perf trajectory.  Every
    ``BENCH_*.json`` baseline has one location, the results dir.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def format_table(title: str, header: str, rows: list, footer: str = "") -> str:
    lines = [title, "-" * len(header), header, "-" * len(header)]
    lines.extend(rows)
    lines.append("-" * len(header))
    if footer:
        lines.append(footer)
    return "\n".join(lines)
