"""Benchmark of the BDS reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 bdsbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

``--workload`` is ``table1``, ``arith_verify`` or ``service_mix`` (see
``bdsbench/README.md`` for what each runs and why).  The command prints
every metric it measured, one per line with its unit, and then, as the
last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
:data:`END_TO_END`, taken from untraced passes.  With ``--trace 1`` they
are the :data:`PER_LAYER` ones, from a separate traced run.  Every
output of the program is checked by :mod:`blifcheck`, which shares no
code with it; ``correct`` is false when any operation failed.
"""

from __future__ import annotations

import time

_T0 = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from benchlib import ROOT, WORK, ProgramMissing, require_program  # noqa: E402

WORKLOADS = ("table1", "arith_verify", "service_mix")

#: (name, unit) of the end-to-end metrics: measured on every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("bds_cpu_s", "s"),
    ("latency_p90_ms", "ms"),
    ("bds_literals", "count"),
    ("bds_area", "lambda2"),
    ("bds_delay", "libdelay"),
]

#: (name, unit) of the per-layer metrics, plus the end-to-end metrics
#: that only some workloads have.  Layers a workload does not run read 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("bds_peak_mem_mb", "MiB"),
    ("verify_proven_share", "ratio"),
    ("miss_latency_p50_ms", "ms"),
    ("miss_latency_p75_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("hit_latency_p95_ms", "ms"),
    ("service_cpu_s", "s"),
    ("failed_share", "ratio"),
    ("network.sweep_s", "s"),
    ("network.partition_s", "s"),
    ("network.eliminate_s", "s"),
    ("network.sweep_peak_mb", "MiB"),
    ("network.eliminate_peak_mb", "MiB"),
    ("network.supernodes", "count"),
    ("network.bdd_mappings", "count"),
    ("bdd.transfer_s", "s"),
    ("bdd.sift_s", "s"),
    ("bdd.ite_calls", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.gc_sweeps", "count"),
    ("bdd.reorder_swaps", "count"),
    ("bdd.reorder_swaps_skipped", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("decomp.decompose_s", "s"),
    ("decomp.decompose_peak_mb", "MiB"),
    ("decomp.sharing_s", "s"),
    ("decomp.lower_s", "s"),
    ("decomp.generalized_s", "s"),
    ("decomp.generalized_calls", "count"),
    ("decomp.generalized_accept_rate", "ratio"),
    ("decomp.simple_and", "count"),
    ("decomp.simple_or", "count"),
    ("decomp.simple_xnor", "count"),
    ("decomp.functional_mux", "count"),
    ("decomp.boolean_and", "count"),
    ("decomp.boolean_or", "count"),
    ("decomp.boolean_xnor", "count"),
    ("decomp.shannon", "count"),
    ("bds.other_s", "s"),
    ("verify.check_s", "s"),
    ("verify.outputs_checked", "count"),
    ("verify.outputs_unknown", "count"),
    ("verify.ite_calls", "count"),
    ("verify.peak_live_nodes", "count"),
    ("mapping.gates", "count"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_stores", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.job_s", "s"),
    ("service.miss_wait_ms_p50", "ms"),
    ("service.backpressure_retries", "count"),
    ("service.jobs_failed", "count"),
    ("obs.trace_overhead_share", "ratio"),
]

_SERVICE = [name for name, _unit in PER_LAYER
            if name.startswith(("service", "miss_", "hit_"))]
_PEAKS = ["bds_peak_mem_mb", "network.sweep_peak_mb",
          "network.eliminate_peak_mb", "decomp.decompose_peak_mb"]
#: ``service_mix`` runs the flow only inside the server's job workers,
#: where the benchmark records its CPU but no spans.
_FLOW_LAYERS = [name for name, _unit in PER_LAYER
                if name.split(".")[0] in ("network", "bdd", "decomp", "bds",
                                          "verify")]

#: Per-layer metrics a workload does not measure, because it does not
#: run that layer (or, for ``arith_verify``'s memory, because a
#: tracemalloc pass would take about 45 s).  They read 0.
NOT_MEASURED = {
    "table1": _SERVICE,
    "arith_verify": _SERVICE + _PEAKS,
    "service_mix": _FLOW_LAYERS + ["bds_peak_mem_mb", "verify_proven_share"],
}

#: Set-ups per run: this process's own plus fresh-process repeats.
SETUPS = 5


def _setup(workload: str, seed: int, seconds: float,
           injections: Tuple[Tuple[str, float], ...] = ()) -> Any:
    if workload == "service_mix":
        import serviceload

        return serviceload.setup(seed, seconds, injections)
    import flowload

    return flowload.setup(workload, seed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 injections: Tuple[Tuple[str, float], ...] = (),
                 memory: bool = True, min_passes: int = 3,
                 trace_path: str = "") -> Dict[str, Any]:
    """Set up and measure one workload in this process.

    Returns ``{"metrics", "attempted", "failed", "failures", "info",
    "setup_done"}``, the last being the ``time.monotonic()`` at which
    the workload was ready to time.  Metrics of layers the workload does
    not run read 0 (:data:`NOT_MEASURED`).
    """
    st = _setup(workload, seed, seconds, injections)
    setup_done = time.monotonic()
    if workload == "service_mix":
        import serviceload

        try:
            result = serviceload.measure(st, trace, trace_path or None)
        finally:
            serviceload.teardown(st)
    else:
        import flowload

        result = flowload.measure(st, seconds, trace, min_passes=min_passes,
                                  memory=memory, injections=injections,
                                  trace_path=trace_path or None)
    for name in NOT_MEASURED[workload]:
        result["metrics"].setdefault(name, 0.0)
    result["setup_done"] = setup_done
    return result


def setup_seconds(workload: str, seed: int, seconds: float,
                  repeats: int) -> List[float]:
    """Set-up times of ``repeats`` fresh processes."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed), "--seconds", repr(seconds)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up repeat failed: %s" % proc.stderr[-2000:])
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _format(value: float) -> str:
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        require_program()
    except ProgramMissing as exc:
        print("bdsbench: %s" % exc, file=sys.stderr)
        return 2

    if args.setup_only:
        st = _setup(args.workload, args.seed, args.seconds)
        setup_s = time.monotonic() - _T0
        if args.workload == "service_mix":
            import serviceload

            serviceload.teardown(st)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    WORK.mkdir(exist_ok=True)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_path = str(trace_dir / ("%s-seed%d.json" % (args.workload,
                                                      args.seed))) \
        if args.trace else ""
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), trace_path=trace_path)
    setups = [result["setup_done"] - _T0]
    setups += setup_seconds(args.workload, args.seed, args.seconds,
                            SETUPS - 1)
    metrics = result["metrics"]
    metrics["setup_s"] = median(setups)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name, _unit in wanted if name not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    units = dict(END_TO_END + PER_LAYER)
    print("# %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed,
                                                 args.seconds, args.trace))
    for key, value in sorted(result["info"].items()):
        print("# %s: %s" % (key, value))
    print("# set-ups (s): %s" % ", ".join("%.3f" % s for s in setups))
    for failure in result["failures"][:20]:
        print("FAILED %s" % failure)
    for name in sorted(metrics):
        print("%-34s %14s %s" % (name, _format(metrics[name]),
                                 units.get(name, "")))
    print("attempted %d failed %d" % (result["attempted"], result["failed"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
