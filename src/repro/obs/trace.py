"""Structured flow tracing: nested spans over monotonic timers.

A :class:`Tracer` records a tree of :class:`Span` objects.  Spans are
opened with the ``with`` statement (RPL009 enforces this -- manual
``begin``/``end`` leaks a frame on any exception path)::

    with tracer.span("reorder.sift", var=v):
        ...

Each span captures, besides its wall-clock window (``time.perf_counter``
only; wall-clock epochs are RPL005-banned on deterministic paths), the
*delta* of the tracer's counter source across its lifetime -- by
convention the merged :mod:`repro.perf` snapshot of every manager a flow
owns.  Because count-type keys are linear under
:func:`repro.perf.merge_snapshots`, the top-level phase deltas of a flow
partition its ``BDSResult.perf`` totals exactly (peaks and derived
ratios are excluded from deltas; they do not sum).

Spans produced in worker *processes* cannot share the parent's tracer:
workers export their finished span trees as JSON-able dicts
(:meth:`Tracer.export_spans`) and ship them back through the result
channel; the parent re-attaches them with :meth:`Tracer.graft`, which
rebases child-local times onto the enclosing span and gives each grafted
subtree its own Chrome ``tid`` so parallel workers do not overlap on one
timeline row.

Spans are cheap enough to leave on: the flow always records them, and
only samples counters when its caller supplies the tracer (see
``repro.bds.flow.bds_optimize`` and docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.perf import counter_delta

#: JSON-able span attribute values.
Attr = Any

#: A counter source: returns the *current* merged perf snapshot.
CounterSource = Callable[[], Dict[str, float]]


class Span:
    """One node of the trace tree (times in seconds since tracer epoch)."""

    __slots__ = ("name", "attrs", "start", "duration", "children",
                 "counters", "tid", "_before")

    def __init__(self, name: str, attrs: Dict[str, Attr], start: float,
                 tid: int = 1) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.duration = 0.0
        self.children: List["Span"] = []
        #: Count-key deltas of the tracer's counter source over this span.
        self.counters: Dict[str, float] = {}
        self.tid = tid
        self._before: Dict[str, float] = {}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able tree snapshot (the worker -> parent wire format)."""
        return {
            "name": self.name,
            "start": self.start,
            "dur": self.duration,
            "attrs": dict(sorted(self.attrs.items())),
            "counters": dict(sorted(self.counters.items())),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], offset: float = 0.0,
                  tid: int = 1) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output, shifting every
        start time by ``offset`` (used by :meth:`Tracer.graft`)."""
        span = cls(str(data.get("name", "?")),
                   dict(data.get("attrs") or {}),
                   float(data.get("start", 0.0)) + offset, tid=tid)
        span.duration = float(data.get("dur", 0.0))
        span.counters = dict(data.get("counters") or {})
        span.children = [cls.from_dict(c, offset, tid)
                         for c in (data.get("children") or [])]
        return span

    def walk(self) -> List["Span"]:
        """This span and every descendant, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

    def __repr__(self) -> str:
        return ("Span(%r, start=%.6f, dur=%.6f, children=%d)"
                % (self.name, self.start, self.duration, len(self.children)))


class _SpanContext:
    """The ``with``-handle returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Attr]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, **self._attrs)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self._tracer.end()


class Tracer:
    """Records a span tree; single-threaded by design (one per flow)."""

    def __init__(self, counter_source: Optional[CounterSource] = None) -> None:
        self.epoch = time.perf_counter()
        self.counter_source = counter_source
        self._stack: List[Span] = []
        self._roots: List[Span] = []
        self._next_tid = 2  # tid 1 is the tracer's own timeline

    # -- span lifecycle -------------------------------------------------

    def span(self, name: str, **attrs: Attr) -> _SpanContext:
        """Context manager opening a nested span (always use ``with``)."""
        return _SpanContext(self, name, attrs)

    def begin(self, name: str, **attrs: Attr) -> Span:
        """Open a span manually (prefer :meth:`span`; see RPL009)."""
        span = Span(name, attrs, time.perf_counter() - self.epoch)
        if self.counter_source is not None:
            span._before = self.counter_source()
        self._stack.append(span)
        return span

    def end(self) -> Span:
        """Close the innermost open span."""
        if not self._stack:
            raise RuntimeError("no span is open")
        span = self._stack.pop()
        span.duration = (time.perf_counter() - self.epoch) - span.start
        if self.counter_source is not None:
            span.counters = counter_delta(span._before, self.counter_source())
            span._before = {}
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def roots(self) -> List[Span]:
        """Completed top-level spans, in completion order."""
        return list(self._roots)

    # -- cross-process grafting ----------------------------------------

    def export_spans(self) -> List[Dict[str, Any]]:
        """Completed span trees as JSON-able dicts (worker wire format)."""
        return [span.to_dict() for span in self._roots]

    def graft(self, spans: Sequence[Dict[str, Any]]) -> List[Span]:
        """Attach serialized span trees (from a worker's
        :meth:`export_spans`) under the currently open span.

        Child-local times are rebased so the grafted subtree starts where
        the enclosing span starts (the worker's clock is not comparable
        to the parent's); each graft gets a fresh ``tid`` so concurrent
        workers render on separate Chrome rows.
        """
        parent = self.current
        offset = (parent.start if parent is not None
                  else time.perf_counter() - self.epoch)
        tid = self._next_tid
        self._next_tid += 1
        grafted = [Span.from_dict(d, offset, tid) for d in spans]
        if parent is not None:
            parent.children.extend(grafted)
        else:
            self._roots.extend(grafted)
        return grafted

    # -- export ---------------------------------------------------------

    def to_chrome(self, pid: int = 1) -> Dict[str, Any]:
        """The span tree as a Chrome ``trace_event`` document
        (load via ``chrome://tracing`` or https://ui.perfetto.dev)."""
        events: List[Dict[str, Any]] = []
        for root in self._roots:
            for span in root.walk():
                args: Dict[str, Any] = dict(sorted(span.attrs.items()))
                if span.counters:
                    args["counters"] = dict(sorted(span.counters.items()))
                events.append({
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": args,
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
