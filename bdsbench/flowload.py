"""In-process flow workloads: ``table1`` and ``arith_verify``.

Both call ``repro.bds.bds_optimize`` on a fixed circuit set, one circuit
at a time, the way the paper's Table I CPU column times it.  The seed
only orders the circuits within each pass and seeds the independent
check's random patterns; the circuits themselves are fixed, so the
quality metrics repeat exactly.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from benchlib import check_and_score, cpu_now, inject, percentile
from spans import Recorder, traced

_MB = 1024.0 * 1024.0

ARITH_CIRCUITS = ["add32", "add64", "add128", "cla32", "cla64", "m6x6"]

#: Layers that must record calls on each workload's traced run; a
#: refactor that stops calling through a wrapped name fails the run.
MUST_FIRE = {
    "table1": ["bds_optimize", "sweep", "partition", "eliminate",
               "transfer_many", "sift", "decompose", "generalized",
               "sharing", "lower"],
    "arith_verify": ["bds_optimize", "sweep", "partition", "eliminate",
                     "transfer_many", "sift", "decompose", "generalized",
                     "sharing", "lower", "require_equivalent"],
}

#: Kernel counters of ``BDSResult.perf`` reported per layer (summed over
#: circuits; the hit rate is recomputed from the summed hits and misses).
PERF_KEYS = ["ite_calls", "nodes_allocated", "gc_sweeps", "reorder_swaps",
             "reorder_swaps_skipped", "peak_live_nodes"]

DECOMP_KINDS = ["simple_and", "simple_or", "simple_xnor", "functional_mux",
                "boolean_and", "boolean_or", "boolean_xnor", "shannon"]


@dataclass
class FlowSetup:
    workload: str
    seed: int
    names: List[str]
    blif: Dict[str, str]
    nets: Dict[str, Any]
    options: Any
    memory_pass: bool


@dataclass
class Outputs:
    """What the passes produced, kept small so the heap does not grow
    from pass to pass: the first result per circuit, and how often each
    distinct BLIF text came out."""

    first: Dict[str, Any] = field(default_factory=dict)
    texts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add(self, name: str, result: Any) -> None:
        from repro.network.blif import write_blif

        self.first.setdefault(name, result)
        seen = self.texts.setdefault(name, {})
        text = write_blif(result.network)
        seen[text] = seen.get(text, 0) + 1

    def merge(self, other: "Outputs") -> None:
        for name, result in other.first.items():
            self.first.setdefault(name, result)
        for name, seen in other.texts.items():
            mine = self.texts.setdefault(name, {})
            for text, count in seen.items():
                mine[text] = mine.get(text, 0) + count


@dataclass
class PassData:
    """Per-circuit CPU and wall seconds of one set of passes."""

    cpu: Dict[str, List[float]] = field(default_factory=dict)
    wall: Dict[str, List[float]] = field(default_factory=dict)
    passes: int = 0

    def cpu_s(self) -> float:
        """Sum over circuits of each circuit's median CPU over the passes."""
        return sum(median(v) for v in self.cpu.values() if v)


def setup(workload: str, seed: int) -> FlowSetup:
    """Build the circuits and their BLIF text, then warm up the flow."""
    from repro.bds import BDSOptions, bds_optimize
    from repro.circuits import TABLE1_CIRCUITS, build_circuit
    from repro.network.blif import parse_blif, write_blif

    if workload == "table1":
        names = list(TABLE1_CIRCUITS)
        options = BDSOptions()
        warmup = "rot"
    elif workload == "arith_verify":
        names = list(ARITH_CIRCUITS)
        options = BDSOptions(verify="full", verify_budget=float("inf"))
        warmup = "add32"
    else:
        raise ValueError("not a flow workload: %r" % workload)
    blif = {name: write_blif(build_circuit(name)) for name in names}
    # The flow sees exactly the netlist the independent check reads.
    nets = {name: parse_blif(text) for name, text in blif.items()}
    bds_optimize(nets[warmup], options)
    return FlowSetup(workload, seed, names, blif, nets, options,
                     memory_pass=workload == "table1")


def _run_passes(st: FlowSetup, seconds: float, min_passes: int,
                rng: random.Random, outputs: Outputs,
                failures: List[str],
                recorder: Optional[Recorder] = None) -> Tuple[PassData, int]:
    """Whole passes over the circuits until ``seconds`` have elapsed."""
    from repro.bds import bds_optimize

    data = PassData({n: [] for n in st.names}, {n: [] for n in st.names})
    attempted = 0
    start = time.monotonic()
    while data.passes < min_passes or time.monotonic() - start < seconds:
        order = list(st.names)
        rng.shuffle(order)
        if recorder is not None:
            recorder.group = data.passes
        for name in order:
            attempted += 1
            w0 = time.perf_counter()
            c0 = cpu_now()
            try:
                if recorder is None:
                    result = bds_optimize(st.nets[name], st.options)
                else:
                    recorder.key = name
                    result = recorder.call("bds_optimize", bds_optimize,
                                           st.nets[name], st.options)
            except Exception as exc:  # a failed operation, counted below
                failures.append("%s: %s: %s" % (name, type(exc).__name__,
                                                exc))
                continue
            data.cpu[name].append(cpu_now() - c0)
            data.wall[name].append(time.perf_counter() - w0)
            outputs.add(name, result)
        data.passes += 1
    return data, attempted


def _memory_pass(st: FlowSetup, recorder: Optional[Recorder] = None
                 ) -> float:
    """Sum over circuits of the tracemalloc peak inside ``bds_optimize``."""
    from repro.bds import bds_optimize

    total = 0.0
    for name in st.names:
        tracemalloc.start()
        try:
            if recorder is None:
                bds_optimize(st.nets[name], st.options)
            else:
                recorder.key = name
                recorder.call("bds_optimize", bds_optimize, st.nets[name],
                              st.options)
            total += tracemalloc.get_traced_memory()[1] / _MB
        finally:
            tracemalloc.stop()
    return total


def _check_outputs(st: FlowSetup, outputs: Outputs,
                   failures: List[str]) -> Dict[str, Any]:
    """Independent check of every optimized and mapped netlist, plus the
    quality metrics of the (deterministic) optimized networks."""
    from repro.mapping import mcnc_library

    library = mcnc_library()
    quality = {"bds_literals": 0, "bds_area": 0.0, "bds_delay": 0.0,
               "mapping.gates": 0, "outputs": 0, "proven": 0}
    for name in st.names:
        if name not in outputs.first:
            continue
        texts = outputs.texts[name]
        if len(texts) > 1:
            failures.append("%s: %d different outputs across passes"
                            % (name, len(texts)))
        # Every distinct output is checked; the first pass's is scored.
        for number, (text, count) in enumerate(texts.items()):
            verdicts, score = check_and_score(st.blif[name], text, library,
                                              st.seed)
            for verdict in verdicts:
                failures.extend(["%s: %s" % (name, verdict)] * count)
            if number == 0:
                for key, value in score.items():
                    quality[key] += value
        quality["outputs"] += len(st.nets[name].outputs)
        quality["proven"] += int(outputs.first[name].perf.get(
            "verify_outputs_checked", 0))
    return quality


def _counts(st: FlowSetup, outputs: Outputs,
            recorder: Recorder) -> Dict[str, float]:
    """Exact per-layer counts from the flow results and the trace."""
    out: Dict[str, float] = {}
    perf: Dict[str, float] = {}
    decomp = {kind: 0 for kind in DECOMP_KINDS}
    supernodes = mappings = 0
    for name in st.names:
        result = outputs.first[name]
        supernodes += result.supernodes
        mappings += result.mapping_count
        for key in PERF_KEYS + ["cache_hits", "cache_misses"]:
            perf[key] = perf.get(key, 0.0) + float(result.perf.get(key, 0))
        for kind, value in result.decomp_stats.as_dict().items():
            decomp[kind] += value
    out["network.supernodes"] = supernodes
    out["network.bdd_mappings"] = mappings
    for key in PERF_KEYS:
        out["bdd." + key] = perf[key]
    lookups = perf["cache_hits"] + perf["cache_misses"]
    out["bdd.cache_hit_rate"] = perf["cache_hits"] / lookups if lookups else 0.0
    for kind in DECOMP_KINDS:
        out["decomp." + kind] = decomp[kind]
    # One generalized-dominator search is one conjunctive plus one
    # disjunctive candidate call; count searches.
    generalized = recorder.counts(group=0).get("generalized", 0) // 2
    out["decomp.generalized_calls"] = generalized
    accepted = decomp["boolean_and"] + decomp["boolean_or"]
    out["decomp.generalized_accept_rate"] = \
        accepted / generalized if generalized else 0.0
    checked = unknown = 0.0
    for name in st.names:
        perf_c = outputs.first[name].perf
        checked += perf_c.get("verify_outputs_checked", 0.0)
        unknown += perf_c.get("verify_unknown", 0.0)
    out["verify.outputs_checked"] = checked
    out["verify.outputs_unknown"] = unknown
    cec = [snap for group, snap in recorder.cec_perf if group == 0]
    out["verify.ite_calls"] = sum(p.get("ite_calls", 0.0) for p in cec)
    out["verify.peak_live_nodes"] = \
        sum(p.get("peak_live_nodes", 0.0) for p in cec)
    return out


def measure(st: FlowSetup, seconds: float, trace: bool,
            min_passes: int = 3, memory: bool = True,
            injections: Tuple[Tuple[str, float], ...] = (),
            trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Run the workload; returns every metric it measured.

    Untraced passes over ``seconds`` (at least ``min_passes``) give the
    end-to-end numbers.  With ``trace`` a second, traced set of passes
    over ``seconds / 2`` gives the per-layer numbers, and (for
    ``table1``, unless ``memory`` is off) an untraced and a traced
    tracemalloc pass give the memory peaks.  ``injections`` are the
    self-test's fixed costs (see ``benchlib.inject``).
    """
    undos = [inject(point, cost) for point, cost in injections]
    try:
        return _measure(st, seconds, trace, min_passes, memory, trace_path)
    finally:
        for undo in reversed(undos):
            undo()


def _measure(st: FlowSetup, seconds: float, trace: bool, min_passes: int,
             memory: bool, trace_path: Optional[str]) -> Dict[str, Any]:
    rng = random.Random(st.seed)
    failures: List[str] = []
    outputs = Outputs()
    plain, attempted = _run_passes(st, seconds, min_passes, rng, outputs,
                                   failures)
    waits_ms = [w * 1000.0 for v in plain.wall.values() for w in v] or [0.0]
    metrics: Dict[str, float] = {
        "bds_cpu_s": plain.cpu_s(),
        "latency_p90_ms": percentile(waits_ms, 90),
    }
    info: Dict[str, Any] = {"passes": plain.passes}
    if trace:
        recorder = Recorder()
        traced_outputs = Outputs()
        with traced(recorder):
            tdata, tattempted = _run_passes(
                st, seconds / 2, max(1, min_passes - 1), rng, traced_outputs,
                failures, recorder)
        attempted += tattempted
        missing = [name for name in MUST_FIRE[st.workload]
                   if recorder.counts().get(name, 0) == 0]
        if missing:
            raise RuntimeError(
                "traced run of %s recorded no calls into: %s -- the flow "
                "no longer calls through the wrapped names; fix the "
                "benchmark's call sites before trusting its numbers"
                % (st.workload, ", ".join(missing)))
        outputs.merge(traced_outputs)
        layer = _layer_metrics(st, recorder, traced_outputs)
        traced_cpu = tdata.cpu_s()
        layer["obs.trace_overhead_share"] = traced_cpu / metrics["bds_cpu_s"] - 1
        info["traced_passes"] = tdata.passes
        info["layer_share"] = layer.pop("layer_share")
        info["calls_per_pass"] = recorder.counts(group=0)
        metrics.update(layer)
        if memory and st.memory_pass:
            metrics["bds_peak_mem_mb"] = _memory_pass(st)
            twin = Recorder(memory=True)
            with traced(twin):
                _memory_pass(st, twin)
            metrics.update(twin.peaks_mb())
        if trace_path:
            recorder.dump(trace_path, {"workload": st.workload,
                                       "seed": st.seed})
    quality = _check_outputs(st, outputs, failures)
    metrics["bds_literals"] = quality["bds_literals"]
    metrics["bds_area"] = quality["bds_area"]
    metrics["bds_delay"] = round(quality["bds_delay"], 6)
    metrics["mapping.gates"] = quality["mapping.gates"]
    metrics["verify_proven_share"] = (quality["proven"] / quality["outputs"]
                                      if quality["outputs"] else 0.0)
    failed = len(failures)
    metrics["failed_share"] = failed / attempted if attempted else 1.0
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "info": info}


def _layer_metrics(st: FlowSetup, recorder: Recorder,
                   outputs: Outputs) -> Dict[str, float]:
    """Per-layer self times (median over traced passes) and counts."""
    out: Dict[str, float] = {}
    for metric, per_pass in recorder.self_times().items():
        out[metric] = median(per_pass)
    named = sum(v for k, v in out.items() if k != "bds.other_s")
    flow = named + out["bds.other_s"]
    out["layer_share"] = named / flow if flow else 0.0
    out.update(_counts(st, outputs, recorder))
    return out
