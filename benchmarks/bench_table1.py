"""Table I: BDS vs SIS on the large circuit set.

Regenerates the paper's Table I rows -- per circuit: area, delay, CPU and
memory for both systems, plus the totals row.  The paper's headline shape:

* BDS area slightly larger (~+11% on this set),
* BDS delay slightly smaller (~-6%),
* BDS CPU much smaller (>8x on the paper's set, growing with size),
* BDS memory much smaller (~-82%).

Absolute numbers differ (functional-equivalent circuits, Python runtime,
different mapper); the assertions check the *shape*.
"""

import pytest

from common import format_table, run_system, write_bench_json
from conftest import register_table
from repro.circuits import TABLE1_CIRCUITS, build_circuit
from repro.perf import merge_snapshots

# Paper's Table I values (area lambda^2, delay ns, CPU s, mem MB).
PAPER_TABLE1 = {
    "C1355": ((689, 39.40, 6.6, 3.3), (711, 45.60, 0.4, 1.0)),
    "C1908": ((695, 68.60, 8.1, 3.1), (730, 65.00, 0.8, 1.0)),
    "C3540": ((1695, 81.40, 16.1, 15.1), (1713, 81.20, 3.6, 1.9)),
    "C432": ((290, 75.90, 46.1, 6.4), (357, 78.40, 0.2, 0.5)),
    "C499": ((689, 39.40, 6.8, 3.5), (708, 43.60, 0.6, 0.5)),
    "C5315": ((2286, 68.60, 10.2, 5.6), (2402, 70.50, 5.3, 3.0)),
    "C6288": ((4631, 237.8, 21.8, 14.8), (4677, 178.3, 3.8, 1.1)),
    "C7552": ((3038, 115.70, 54.2, 45.2), (3112, 83.30, 4.2, 4.8)),
    "C880": ((567, 56.10, 1.9, 2.2), (563, 43.20, 0.7, 0.8)),
    "pair": ((2274, 74.30, 16.1, 6.8), (2466, 52.60, 2.1, 2.0)),
    "rot": ((965, 51.60, 4.5, 2.7), (1025, 51.90, 1.0, 0.9)),
    "dalu": ((1306, 61.0, 70.5, 4.8), (2604, 117.2, 7.2, 2.6)),
    "vda": ((837, 39.8, 19.7, 3.3), (1054, 47.8, 7.1, 1.4)),
}

_results = {}


@pytest.mark.parametrize("name", TABLE1_CIRCUITS)
def test_table1_circuit(benchmark, name):
    net = build_circuit(name)
    sis = run_system(net, "sis")

    def bds_run():
        return run_system(net, "bds")

    bds = benchmark.pedantic(bds_run, rounds=1, iterations=1)
    assert sis.verified, "SIS result failed verification on %s" % name
    assert bds.verified, "BDS result failed verification on %s" % name
    benchmark.extra_info["bds_area"] = bds.area
    benchmark.extra_info["sis_cpu"] = sis.cpu
    benchmark.extra_info["bds_cpu"] = bds.cpu
    _results[name] = (sis, bds)
    if len(_results) == len(TABLE1_CIRCUITS):
        _emit()


def _emit():
    header = ("%-8s | %7s %8s %7s %8s %7s %4s | %7s %8s %7s %8s %7s %4s"
              % ("circuit", "gates", "areaL2", "delay", "CPU[s]", "MemMB", "ok",
                 "gates", "areaL2", "delay", "CPU[s]", "MemMB", "ok"))
    rows = []
    tot = {"sis": [0.0] * 4, "bds": [0.0] * 4}
    for name in TABLE1_CIRCUITS:
        sis, bds = _results[name]
        rows.append("%-8s | %s | %s" % (name, sis.row(), bds.row()))
        for key, m in (("sis", sis), ("bds", bds)):
            tot[key][0] += m.area
            tot[key][1] += m.delay
            tot[key][2] += m.cpu
            tot[key][3] += m.mem_mb
    s, b = tot["sis"], tot["bds"]
    footer = [
        "TOTAL     SIS: area=%.0f delay=%.1f cpu=%.2fs mem=%.1fMB"
        % tuple(s),
        "          BDS: area=%.0f delay=%.1f cpu=%.2fs mem=%.1fMB"
        % tuple(b),
        "SHAPE     area ratio BDS/SIS=%.2f (paper 1.11), "
        "delay ratio=%.2f (paper 0.95)," % (b[0] / s[0], b[1] / s[1]),
        "          CPU speedup SIS/BDS=%.1fx (paper 7.6x), "
        "mem ratio=%.2f (paper 0.18)" % (s[2] / b[2], b[3] / s[3]),
        "",
        "paper Table I (SIS | BDS) for reference:",
    ]
    for name in TABLE1_CIRCUITS:
        if name in PAPER_TABLE1:
            ps, pb = PAPER_TABLE1[name]
            footer.append("  %-8s %6d L2 %6.1f ns %6.1f s %5.1f MB | "
                          "%6d L2 %6.1f ns %6.1f s %5.1f MB"
                          % ((name,) + ps + pb))
    register_table("table1", format_table(
        "Table I -- large circuits, SIS (left) vs BDS (right)",
        header, rows, "\n".join(footer)))
    _emit_kernel_json(tot)


def _emit_kernel_json(tot):
    """Machine-readable kernel metrics: per-circuit and aggregated BDS
    counters plus the table CPU/mem totals, for cross-PR tracking."""
    per_circuit = {}
    snaps = []
    for name in TABLE1_CIRCUITS:
        _, bds = _results[name]
        k = bds.kernel
        snaps.append(k)
        per_circuit[name] = {
            "cpu_s": round(bds.cpu, 4),
            "mem_mb": round(bds.mem_mb, 3),
            "ite_calls": k.get("ite_calls", 0),
            "cache_hit_rate": round(k.get("cache_hit_rate", 0.0), 4),
            "peak_live_nodes": k.get("peak_live_nodes", 0),
            "gc_sweeps": k.get("gc_sweeps", 0),
            "gc_reclaimed": k.get("gc_reclaimed", 0),
        }
    agg = merge_snapshots(snaps)
    bds_cpu = tot["bds"][2]
    payload = {
        "kernel": {
            "ite_calls": agg.get("ite_calls", 0),
            "ite_ops_per_sec": round(agg.get("ite_calls", 0) / bds_cpu)
            if bds_cpu else 0,
            "cache_hit_rate": round(agg.get("cache_hit_rate", 0.0), 4),
            "cache_evictions": agg.get("cache_evictions", 0),
            "peak_live_nodes": agg.get("peak_live_nodes", 0),
            "peak_allocated_nodes": agg.get("peak_allocated_nodes", 0),
            "gc_sweeps": agg.get("gc_sweeps", 0),
            "gc_reclaimed": agg.get("gc_reclaimed", 0),
            "nodes_allocated": agg.get("nodes_allocated", 0),
            "nodes_reused": agg.get("nodes_reused", 0),
        },
        "table1_totals": {
            "sis_cpu_s": round(tot["sis"][2], 3),
            "sis_mem_mb": round(tot["sis"][3], 2),
            "bds_cpu_s": round(bds_cpu, 3),
            "bds_mem_mb": round(tot["bds"][3], 2),
            "mem_ratio_bds_over_sis":
                round(tot["bds"][3] / tot["sis"][3], 3),
            "cpu_speedup_sis_over_bds":
                round(tot["sis"][2] / bds_cpu, 2) if bds_cpu else 0,
        },
        "per_circuit": per_circuit,
    }
    write_bench_json(payload, "BENCH_kernel.json")
