"""Observability: structured tracing, metrics, and regression gates.

The BDS paper's argument is empirical (Table I: CPU, memory, literals),
so the reproduction treats observability as a subsystem, not an
afterthought:

* :mod:`repro.obs.trace` -- nested span API over monotonic timers,
  capturing per-span deltas of the :mod:`repro.perf` counters and
  exporting Chrome ``trace_event`` JSON (``repro optimize --trace``).
* :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges and histograms with explicit reset, surfaced by the ``stats``
  JSON-lines command and a Prometheus-style text dump from
  ``repro serve``.
* :mod:`repro.obs.regress` -- the regression harness behind
  ``repro bench --compare``: diffs a fresh run against committed
  ``BENCH_*.json`` baselines with per-metric tolerances and exits 0/1/2.

See ``docs/OBSERVABILITY.md`` for the span catalog, metric names and
tolerance policy.
"""

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               get_registry)
from repro.obs.regress import (DEFAULT_BENCH_CIRCUITS, RegressionReport,
                               collect_flow_payload, compare_payloads,
                               load_baseline)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BENCH_CIRCUITS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegressionReport",
    "Span",
    "Tracer",
    "collect_flow_payload",
    "compare_payloads",
    "get_registry",
    "load_baseline",
]
