"""Work regression gate behind ``repro bench --compare``.

A fresh run of the standard circuit set is compared with a committed
baseline (``benchmarks/results/BENCH_flow.json``), and the exit code
says whether the flow still does the same work.  The gate reads no
clock: CPU on these 2-300 ms runs is mostly host noise, and it is
measured elsewhere (bdsbench in alternating pairs,
``benchmarks/bench_table1.py``).

Each circuit's entry holds the optimized network's ``nodes`` and
``literals``, the ``counters`` totals of ``BDSResult.perf``, and
``phases``: the counter deltas (``Span.counters``) of each top-level
``flow.*`` span.  One rule covers all of them (docs/OBSERVABILITY.md):
every value must equal the baseline's (a lower count fails as a higher
one does), and a key present on only one side is a difference.  A
change that moves work regenerates the baseline on purpose and says
why.

Before that, the counters of the *fresh* run must be consistent
(non-negative, free-list reuse implies a reclamation source,
``peak_live_nodes <= peak_allocated_nodes``, hit rate in [0, 1]).  A
violation means the telemetry itself is broken, which poisons every
other comparison.

Exit codes: 0 = every value equal; 1 = a value differs or is on one
side only; 2 = not comparable (a schema other than :data:`SCHEMA`, a
circuit missing from either side, or inconsistent counters).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.bds.flow import BDSResult

#: Payload schema tag (bump on incompatible layout changes).
SCHEMA = "repro-bench-flow/2"

#: The standard bench set: Table I circuits small enough that the whole
#: sweep stays under a few seconds, plus two arithmetic/control shapes.
DEFAULT_BENCH_CIRCUITS: Tuple[str, ...] = (
    "C432", "C499", "C880", "C1908", "add8", "rl_mux")

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
    """One compared value on one circuit; ``metric`` joins the keys of
    its path with ``/`` (``phases/flow.sweep/ite_calls``)."""

    circuit: str
    metric: str
    baseline: Any
    current: Any
    status: str          # "ok" | "regressed" | "incomparable"
    note: str = ""

    def render(self) -> str:
        return ("%-10s %-12s baseline=%-12s current=%-12s %s%s"
                % (self.circuit, self.metric,
                   _fmt(self.baseline), _fmt(self.current),
                   self.status.upper(),
                   " (%s)" % self.note if self.note else ""))


def _fmt(value: Any) -> str:
    if isinstance(value, (int, float)):
        return "%d" % value if float(value).is_integer() else "%.4f" % value
    return "-" if value is None else str(value)


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
                 if d.status != "ok"] or ["every metric equals the baseline"]
        lines.append("bench compare: %d metric(s), %d regressed, "
                     "%d incomparable -> exit %d"
                     % (len(self.diffs), len(self.regressions),
                        len(self.incomparable), self.exit_code()))
        return "\n".join(lines)


def collect_flow_payload(circuits: Optional[Tuple[str, ...]] = None
                         ) -> Dict[str, Any]:
    """Run the BDS flow over ``circuits`` and collect the bench payload.

    Each circuit runs twice with default options, each call under a
    fresh :class:`~repro.obs.trace.Tracer` so that its phase spans carry
    counter deltas.  The two entries must be equal, or ``RuntimeError``
    names the circuit.
    """
    from repro.bds.flow import bds_optimize
    from repro.circuits import build_circuit

    per_circuit: Dict[str, Dict[str, Any]] = {}
    for name in sorted(circuits or DEFAULT_BENCH_CIRCUITS):
        net = build_circuit(name)
        first, second = (_entry(bds_optimize(net, tracer=Tracer()))
                         for _ in range(2))
        if first != second:
            raise RuntimeError(
                "%s: two identical flow calls disagree on their work" % name)
        per_circuit[name] = first
    return {"schema": SCHEMA, "circuits": per_circuit}


def _entry(result: "BDSResult") -> Dict[str, Any]:
    """One circuit's payload entry: what must repeat exactly."""
    stats = result.network.stats()
    return {
        "nodes": stats["nodes"],
        "literals": stats["literals"],
        "counters": dict(sorted(result.perf.items())),
        "phases": {span.name: dict(span.counters)
                   for span in result.trace.children
                   if span.name.startswith("flow.")},
    }


def load_baseline(path: str) -> Dict[str, Any]:
    """Load a baseline payload (``BENCH_flow.json``'s format) from a
    bench JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or not isinstance(obj.get("circuits"), dict):
        raise ValueError("%s: no 'circuits' payload found "
                         "(not a bench baseline?)" % path)
    return obj


def compare_payloads(baseline: Dict[str, Any],
                     current: Dict[str, Any]) -> RegressionReport:
    """Diff ``current`` against ``baseline`` (see module doc)."""
    report = RegressionReport()
    schemas = (baseline.get("schema"), current.get("schema"))
    if schemas != (SCHEMA, SCHEMA):
        report.diffs.append(Diff("*", "schema", *schemas, "incomparable",
                                 "the gate compares %s" % SCHEMA))
        return report
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
        # Counter consistency first: broken telemetry poisons everything.
        counters = {str(k): float(v)
                    for k, v in (cur.get("counters") or {}).items()}
        for desc, rule in MONOTONICITY_RULES:
            if not rule(counters):
                report.diffs.append(Diff(name, "counters", None, None,
                                         "incomparable",
                                         "violates: %s" % desc))
        _compare_exact(report, name, "", base, cur)
    return report


def _compare_exact(report: RegressionReport, circuit: str, prefix: str,
                   base: Dict[str, Any], cur: Dict[str, Any]) -> None:
    """One diff per value under ``base`` and ``cur``, walking the maps
    they share; a key on one side only is a regression too."""
    for key in sorted(set(base) | set(cur)):
        metric = prefix + str(key)
        if key not in cur or key not in base:
            report.diffs.append(Diff(
                circuit, metric, base.get(key), cur.get(key), "regressed",
                "only in %s" % ("baseline" if key in base else "current run")))
        elif isinstance(base[key], dict) and isinstance(cur[key], dict):
            _compare_exact(report, circuit, metric + "/", base[key], cur[key])
        elif base[key] != cur[key]:
            report.diffs.append(Diff(
                circuit, metric, base[key], cur[key], "regressed",
                "differs; moving work requires a deliberate baseline "
                "update"))
        else:
            report.diffs.append(Diff(circuit, metric, base[key], cur[key],
                                     "ok"))
