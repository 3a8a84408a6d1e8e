"""Perf/quality regression harness behind ``repro bench --compare``.

Turns the ``BENCH_*.json`` trajectory from advisory JSON into an
enforced contract: a fresh run of the standard circuit set is diffed
against a committed baseline with per-metric tolerances, and the exit
code says whether the contract held.

Tolerance policy (docs/OBSERVABILITY.md):

* ``cpu_s`` -- ratio tolerance, default +/-25% (machines differ; pass a
  wider ``cpu_tol`` on shared CI runners).  Slower than baseline by more
  than the tolerance is a **regression**; faster is reported as an
  improvement and passes (refresh the baseline to lock it in).  Both
  sides are clamped to an absolute floor (``CPU_FLOOR_S``) before the
  ratio: a sub-millisecond baseline (tiny circuit, fast machine) would
  otherwise blow any relative tolerance on scheduler noise alone -- or
  divide by zero outright.  Only a *negative* baseline is incomparable.
* ``nodes`` / ``literals`` -- **exact**.  The flow is deterministic, so
  *any* drift in result quality, in either direction, demands a
  deliberate baseline update, never a silent one.
* counter monotonicity -- internal-consistency rules over the kernel
  counters of the *fresh* run (non-negative, free-list reuse implies a
  reclamation source, ``peak_live_nodes <= peak_allocated_nodes``, hit
  rate in [0, 1]).  A violation means the telemetry itself is broken,
  which poisons every other comparison: exit 2.

Exit codes: 0 = within tolerances; 1 = regression; 2 = not comparable
(schema mismatch, circuits missing from either side, or inconsistent
counters).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Payload schema tag (bump on incompatible layout changes).
SCHEMA = "repro-bench-flow/1"

#: The standard bench set: Table I circuits small enough that the whole
#: sweep stays under a few seconds, plus two arithmetic/control shapes.
DEFAULT_BENCH_CIRCUITS: Tuple[str, ...] = (
    "C432", "C499", "C880", "C1908", "add8", "rl_mux")

#: Exact result-quality metrics (determinism contract: no tolerance).
EXACT_METRICS: Tuple[str, ...] = ("nodes", "literals")

#: Absolute floor for the CPU ratio comparison: timings below this are
#: measurement noise, so both sides are clamped to it before dividing.
#: A 0.0 s baseline thus compares as ``floor`` rather than raising
#: ZeroDivisionError or failing the gate on an 0.4 ms -> 0.9 ms "2.2x".
CPU_FLOOR_S = 0.05

#: ``(description, predicate)`` consistency rules over one circuit's
#: fresh counter snapshot; a False verdict poisons the comparison.
MONOTONICITY_RULES: Tuple[Tuple[str, Callable[[Dict[str, float]], bool]], ...] = (
    ("all counters non-negative",
     lambda c: all(v >= 0 for v in c.values())),
    ("no free-list reuse without a reclamation source (GC sweep or "
     "reorder-session swap)",
     lambda c: c.get("nodes_reused", 0) == 0
     or c.get("gc_reclaimed", 0) + c.get("reorder_swaps", 0) > 0),
    ("peak_live_nodes <= peak_allocated_nodes",
     lambda c: c.get("peak_live_nodes", 0) <= c.get("peak_allocated_nodes", 0)),
    ("cache_hit_rate within [0, 1]",
     lambda c: 0.0 <= c.get("cache_hit_rate", 0.0) <= 1.0),
    ("gc_reclaimed consistent with sweeps (no reclaim without a sweep)",
     lambda c: c.get("gc_sweeps", 0) > 0 or c.get("gc_reclaimed", 0) == 0),
)


@dataclass
class Diff:
    """One compared metric on one circuit."""

    circuit: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    status: str          # "ok" | "improved" | "regressed" | "incomparable"
    note: str = ""

    def render(self) -> str:
        return ("%-10s %-12s baseline=%-12s current=%-12s %s%s"
                % (self.circuit, self.metric,
                   _fmt(self.baseline), _fmt(self.current),
                   self.status.upper(),
                   " (%s)" % self.note if self.note else ""))


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return "%d" % int(value)
    return "%.4f" % value


@dataclass
class RegressionReport:
    """Outcome of one baseline comparison."""

    diffs: List[Diff] = field(default_factory=list)

    @property
    def regressions(self) -> List[Diff]:
        return [d for d in self.diffs if d.status == "regressed"]

    @property
    def incomparable(self) -> List[Diff]:
        return [d for d in self.diffs if d.status == "incomparable"]

    def exit_code(self) -> int:
        if self.incomparable:
            return 2
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [d.render() for d in self.diffs
                 if d.status != "ok"] or ["all metrics within tolerance"]
        lines.append("bench compare: %d metric(s), %d regressed, "
                     "%d incomparable -> exit %d"
                     % (len(self.diffs), len(self.regressions),
                        len(self.incomparable), self.exit_code()))
        return "\n".join(lines)


#: Flow calls per circuit; the payload's ``cpu_s`` is their minimum, the
#: least disturbed by whatever else the host runs.
CALLS_PER_CIRCUIT = 3


def collect_flow_payload(circuits: Optional[Tuple[str, ...]] = None,
                         options: Optional[Any] = None) -> Dict[str, Any]:
    """Run the BDS flow over ``circuits`` and collect the bench payload.

    CPU is measured with a monotonic timer around the optimization only
    (mirrors the paper's CPU column), as the minimum over
    :data:`CALLS_PER_CIRCUIT` calls; node/literal counts come from the
    optimized network; counters are the flow's ``BDSResult.perf``.  The
    calls must agree on all of these but the CPU time, every counter
    exactly; a disagreement raises ``RuntimeError``.
    """
    from repro.bds.flow import BDSOptions, bds_optimize
    from repro.circuits import build_circuit

    per_circuit: Dict[str, Dict[str, Any]] = {}
    for name in sorted(circuits or DEFAULT_BENCH_CIRCUITS):
        net = build_circuit(name)
        runs: List[Dict[str, Any]] = []
        for _ in range(CALLS_PER_CIRCUIT):
            t0 = time.perf_counter()
            result = bds_optimize(net, options or BDSOptions())
            cpu = time.perf_counter() - t0
            stats = result.network.stats()
            runs.append({
                "cpu_s": round(cpu, 6),
                "nodes": stats["nodes"],
                "literals": stats["literals"],
                "counters": {k: result.perf[k] for k in sorted(result.perf)},
            })
        if any(_work(run) != _work(runs[0]) for run in runs[1:]):
            raise RuntimeError(
                "%s: %d identical flow calls disagree on their work"
                % (name, CALLS_PER_CIRCUIT))
        per_circuit[name] = dict(runs[0], cpu_s=min(
            run["cpu_s"] for run in runs))
    return {"schema": SCHEMA, "circuits": per_circuit}


def _work(run: Dict[str, Any]) -> Dict[str, Any]:
    """A payload entry without its CPU time: what must repeat exactly."""
    return {k: v for k, v in run.items() if k != "cpu_s"}


def load_baseline(path: str) -> Dict[str, Any]:
    """Load a baseline payload (``BENCH_flow.json``'s format) from a
    bench JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or not isinstance(obj.get("circuits"), dict):
        raise ValueError("%s: no 'circuits' payload found "
                         "(not a bench baseline?)" % path)
    return obj


def compare_payloads(baseline: Dict[str, Any], current: Dict[str, Any],
                     cpu_tol: float = 0.25,
                     cpu_floor: float = CPU_FLOOR_S) -> RegressionReport:
    """Diff ``current`` against ``baseline`` (see module doc)."""
    report = RegressionReport()
    base_circuits = baseline.get("circuits")
    cur_circuits = current.get("circuits")
    if not isinstance(base_circuits, dict) or not isinstance(cur_circuits, dict):
        report.diffs.append(Diff("*", "schema", None, None, "incomparable",
                                 "missing 'circuits' payload"))
        return report
    for name in sorted(set(base_circuits) | set(cur_circuits)):
        base = base_circuits.get(name)
        cur = cur_circuits.get(name)
        if base is None or cur is None:
            report.diffs.append(Diff(
                name, "presence", None, None, "incomparable",
                "circuit missing from %s"
                % ("current run" if cur is None else "baseline")))
            continue
        _compare_circuit(report, name, base, cur, cpu_tol, cpu_floor)
    return report


def _compare_circuit(report: RegressionReport, name: str,
                     base: Dict[str, Any], cur: Dict[str, Any],
                     cpu_tol: float, cpu_floor: float = CPU_FLOOR_S) -> None:
    # Counter consistency first: broken telemetry poisons everything.
    counters = {str(k): float(v)
                for k, v in (cur.get("counters") or {}).items()}
    for desc, rule in MONOTONICITY_RULES:
        if not rule(counters):
            report.diffs.append(Diff(name, "counters", None, None,
                                     "incomparable", "violates: %s" % desc))
    for metric in EXACT_METRICS:
        b, c = base.get(metric), cur.get(metric)
        if b is None or c is None:
            report.diffs.append(Diff(name, metric, b, c, "incomparable",
                                     "metric missing"))
        elif c != b:
            report.diffs.append(Diff(
                name, metric, float(b), float(c), "regressed",
                "exact metric drifted; quality changes require a "
                "deliberate baseline update"))
        else:
            report.diffs.append(Diff(name, metric, float(b), float(c), "ok"))
    b_cpu, c_cpu = base.get("cpu_s"), cur.get("cpu_s")
    if b_cpu is None or c_cpu is None:
        report.diffs.append(Diff(name, "cpu_s", b_cpu, c_cpu,
                                 "incomparable", "metric missing"))
    elif float(b_cpu) < 0:
        report.diffs.append(Diff(name, "cpu_s", float(b_cpu), float(c_cpu),
                                 "incomparable", "negative baseline"))
    else:
        # max(x, floor) on both sides: a near-zero baseline is noise, not
        # a denominator (satellite fix for ZeroDivisionError / spurious
        # failures on sub-millisecond circuits).
        ratio = max(float(c_cpu), cpu_floor) / max(float(b_cpu), cpu_floor)
        floored = float(b_cpu) < cpu_floor or float(c_cpu) < cpu_floor
        if ratio > 1.0 + cpu_tol:
            status, note = "regressed", "%.2fx slower (tol %.0f%%)" % (
                ratio, cpu_tol * 100)
        elif ratio < 1.0 - cpu_tol:
            status, note = "improved", "%.2fx of baseline" % ratio
        else:
            status, note = "ok", ""
        if floored and note:
            note += "; floored at %gs" % cpu_floor
        report.diffs.append(Diff(name, "cpu_s", float(b_cpu), float(c_cpu),
                                 status, note))
