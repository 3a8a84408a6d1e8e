"""Spans recorded from outside the program, around calls into each layer.

:func:`traced` wraps the names the flow resolves at call time -- module
attributes of ``repro.bds.flow`` and ``repro.decomp.engine``, the two
``PartitionedNetwork`` methods and ``repro.verify.cec.BDD`` -- so every
call into a layer opens a span.  Spans stay in memory; :meth:`Recorder.dump`
writes them out when the benchmark ends.

A span's *self time* is its CPU time minus the CPU time its child spans
cover.  With ``memory=True`` each span also records the tracemalloc peak
reached inside it (the peak is reset on entry and folded back into the
parent on exit, so nested spans do not hide each other's peaks).
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchlib import patch

#: Span name -> per-layer metric that collects its self time.
SELF_TIME_METRIC = {
    "bds_optimize": "bds.other_s",
    "sweep": "network.sweep_s",
    "partition": "network.partition_s",
    "eliminate": "network.eliminate_s",
    "transfer_many": "bdd.transfer_s",
    "sift": "bdd.sift_s",
    "decompose": "decomp.decompose_s",
    "generalized": "decomp.generalized_s",
    "sharing": "decomp.sharing_s",
    "lower": "decomp.lower_s",
    "require_equivalent": "verify.check_s",
}

#: Span name -> per-layer metric that collects its memory peak.
PEAK_METRIC = {
    "sweep": "network.sweep_peak_mb",
    "eliminate": "network.eliminate_peak_mb",
    "decompose": "decomp.decompose_peak_mb",
}

#: (span name, module, attribute path) of every wrapped call site.
CALL_SITES = [
    ("sweep", "repro.bds.flow", "sweep"),
    ("partition", "repro.network.eliminate", "PartitionedNetwork.from_network"),
    ("eliminate", "repro.network.eliminate", "PartitionedNetwork.eliminate"),
    ("transfer_many", "repro.bds.flow", "transfer_many"),
    ("sift", "repro.bds.flow", "sift"),
    ("decompose", "repro.bds.flow", "decompose"),
    ("generalized", "repro.decomp.engine", "conjunctive_candidates"),
    ("generalized", "repro.decomp.engine", "disjunctive_candidates"),
    ("sharing", "repro.bds.flow", "extract_sharing"),
    ("lower", "repro.bds.flow", "trees_to_network"),
    ("require_equivalent", "repro.bds.flow", "require_equivalent"),
]

_MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("sid", "name", "key", "group", "parent", "cpu0", "cpu1",
                 "wall0", "wall1", "child_cpu", "peak")

    def __init__(self, sid: int, name: str, key: str, group: int,
                 parent: Optional["Span"]) -> None:
        self.sid = sid
        self.name = name
        self.key = key
        self.group = group
        self.parent = parent
        self.child_cpu = 0.0
        self.peak = 0
        self.cpu0 = self.cpu1 = self.wall0 = self.wall1 = 0.0

    @property
    def self_cpu(self) -> float:
        return self.cpu1 - self.cpu0 - self.child_cpu

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.sid, "name": self.name, "key": self.key,
                "group": self.group, "parent": self.parent.sid if self.parent else None,
                "start": self.wall0, "end": self.wall1,
                "cpu": self.cpu1 - self.cpu0, "self_cpu": self.self_cpu,
                "peak_bytes": self.peak}


class Recorder:
    """In-memory span store for a traced run.

    ``key`` names what the next spans work on (a circuit or a request)
    and ``group`` which pass they belong to.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: List[Span] = []
        self.key = ""
        self.group = 0
        self._stack: List[Span] = []
        #: (group, perf snapshot) of the equivalence checker's managers.
        self.cec_perf: List[tuple] = []
        self._cec_live: List[Any] = []

    def call(self, name: str, fn: Callable, /, *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            if parent is not None:
                parent.peak = max(parent.peak,
                                  tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, self.key, self.group, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.wall0 = time.perf_counter()
        span.cpu0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span.cpu1 = time.process_time()
            span.wall1 = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_cpu += span.cpu1 - span.cpu0
            if self.memory:
                span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak = max(parent.peak, span.peak)
                tracemalloc.reset_peak()
            if name == "require_equivalent":
                self.cec_perf.extend((self.group, m.perf_snapshot())
                                     for m in self._cec_live)
                self._cec_live.clear()

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def traced_call(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, fn, *args, **kwargs)

            return traced_call

        return make

    def keep_manager(self, fn: Callable) -> Callable:
        def make_manager(*args: Any, **kwargs: Any) -> Any:
            mgr = fn(*args, **kwargs)
            self._cec_live.append(mgr)
            return mgr

        return make_manager

    # -- summaries ------------------------------------------------------

    def counts(self, group: Optional[int] = None) -> Dict[str, int]:
        """Spans per name, in one group or in all of them."""
        out: Dict[str, int] = {}
        for span in self.spans:
            if group is None or span.group == group:
                out[span.name] = out.get(span.name, 0) + 1
        return out

    def self_times(self) -> Dict[str, List[float]]:
        """Per-layer self CPU seconds, one sum per group."""
        groups = sorted({span.group for span in self.spans})
        index = {g: i for i, g in enumerate(groups)}
        out = {metric: [0.0] * len(groups)
               for metric in SELF_TIME_METRIC.values()}
        for span in self.spans:
            out[SELF_TIME_METRIC[span.name]][index[span.group]] += \
                span.self_cpu
        return out

    def peaks_mb(self) -> Dict[str, float]:
        """Per layer: each key's highest peak inside that layer, summed
        over keys (circuits)."""
        per_key: Dict[tuple, int] = {}
        for span in self.spans:
            if span.name in PEAK_METRIC:
                k = (PEAK_METRIC[span.name], span.key)
                per_key[k] = max(per_key.get(k, 0), span.peak)
        out = {metric: 0.0 for metric in PEAK_METRIC.values()}
        for (metric, _key), peak in per_key.items():
            out[metric] += peak / _MB
        return out

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        doc = {"spans": [s.as_dict() for s in self.spans]}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every :data:`CALL_SITES` name for the duration of the block."""
    undos = [patch(module, path, recorder.wrap(name))
             for name, module, path in CALL_SITES]
    undos.append(patch("repro.verify.cec", "BDD", recorder.keep_manager))
    try:
        yield recorder
    finally:
        for undo in reversed(undos):
            undo()
