"""The optimization service: cache-lookup -> schedule -> cache-store.

:class:`OptimizationService` is the one front door every entry point
(``repro batch``, ``repro optimize --cache-dir``, and both transports
of ``repro serve`` in :mod:`repro.service.server`) routes through.  A
request carries a BLIF netlist plus a
:class:`repro.bds.flow.BDSOptions` snapshot; the service

1. keys the request into the content-addressed
   :class:`repro.service.cache.ArtifactCache` and answers hits without
   scheduling any work (a cached, already-verified artifact is a proof
   object -- its verdict is returned as-is);
2. fans misses out over the :class:`OptimizationScheduler` (bounded
   queue, per-job timeouts, crash recovery);
3. stores every successful result back into the cache.

Concurrency is layered through :class:`ServiceSession`: one session is
one pipelined request stream (a batch, or one stream of ``repro
serve``) whose responses come back **in that session's request order**
regardless of worker completion order; many sessions can multiplex
onto one shared scheduler, which is how the socket server overlaps
clients.  The session orders replies because the scheduler does not:
a verdict leaves the scheduler only through the completion callback,
and a reply lives only until the session hands it out, so a stream
that runs for days holds no record of what it answered.  A cache hit
is byte-identical to the artifact originally stored (the BLIF text is
returned verbatim, never re-serialized).

The JSON-lines protocol itself lives in :mod:`repro.service.server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bds.flow import BDSOptions
from repro.obs.metrics import get_registry
from repro.perf import merge_snapshots
from repro.service.cache import Artifact, ArtifactCache
from repro.service.scheduler import JobResult, OptimizationScheduler

#: Job statuses the stats response enumerates (stable wire shape: every
#: status appears, zero or not).
JOB_STATUSES = ("ok", "failed", "timeout", "cancelled")


@dataclass
class ServiceRequest:
    """One unit of work: optimize ``blif`` under ``options``."""

    blif: str
    options: BDSOptions = field(default_factory=BDSOptions)
    name: str = ""
    timeout: Optional[float] = None
    #: Run the job under a worker-local tracer and return its span trees
    #: (JSON dicts) on the response.  Tracing never affects the cache:
    #: hits skip the flow entirely and carry no trace.
    trace: bool = False


@dataclass
class ServiceResponse:
    """One unit of result, aligned 1:1 with the request list."""

    name: str
    status: str                        # "ok" | "failed" | "timeout" | "cancelled"
    cached: bool = False
    blif: Optional[str] = None
    perf: Dict[str, float] = field(default_factory=dict)
    verify_mode: str = "off"
    verify_unknown_outputs: List[str] = field(default_factory=list)
    error: Optional[str] = None
    elapsed: float = 0.0
    #: Span trees from the worker's tracer (requests with ``trace=True``).
    trace: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name,
            "status": self.status,
            "cached": self.cached,
            "perf": self.perf,
            "verify_mode": self.verify_mode,
            "verify_unknown_outputs": list(self.verify_unknown_outputs),
            "elapsed": round(self.elapsed, 6),
        }
        if self.blif is not None:
            obj["blif"] = self.blif
        if self.error is not None:
            obj["error"] = self.error
        if self.trace is not None:
            obj["trace"] = self.trace
        return obj


class ServiceSession:
    """One pipelined request stream over a (possibly shared) scheduler.

    ``submit`` answers cache hits and parse failures immediately and
    schedules everything else with a completion callback; ``ready``
    hands finished responses out **in submission order** (head-of-line:
    response *k* is never released before response *k-1*), which is the
    per-stream ordering contract of ``repro serve``.  A response is held
    only from its answer until ``ready`` hands it out.  Sessions do not
    own the scheduler: many sessions multiplex onto one.
    """

    def __init__(self, service: "OptimizationService",
                 scheduler: OptimizationScheduler) -> None:
        self._service = service
        self._scheduler = scheduler
        #: Requests admitted so far (the next request's slot index).
        self.submitted = 0
        #: Responses ``ready`` handed out so far (the next slot it yields).
        self.emitted = 0
        #: Unanswered slot -> its scheduler job id (None for a request
        #: riding along on another slot's job).
        self._unanswered: Dict[int, Optional[int]] = {}
        #: Answered slot -> its response, until ``ready`` hands it out.
        self._answered: Dict[int, ServiceResponse] = {}
        #: cache key -> follower (slot, request) pairs coalesced onto an
        #: in-flight job for the same key (thundering-herd dedup: the
        #: same netlist submitted twice runs once; the duplicate is
        #: answered from the cache the moment the first run stores).
        self._inflight: Dict[str, List[Any]] = {}

    # -- submission -----------------------------------------------------

    def submit(self, req: ServiceRequest) -> int:
        """Admit one request; returns its slot index.

        Raises :class:`repro.service.scheduler.SchedulerFull` when the
        request needs scheduling and the queue is at capacity -- callers
        either wait for room first (``process``, the stdin transport) or
        convert it into an explicit ``overloaded`` reply (the socket
        transport).
        """
        slot = self.submitted
        self.submitted += 1
        self._unanswered[slot] = None
        cache = self._service.cache
        key: Optional[str] = None
        if cache is not None:
            try:
                key = cache.key_for(req.blif, req.options)
            except ValueError as exc:
                self._fill(slot, ServiceResponse(
                    req.name, "failed", error="parse error: %s" % exc))
                return slot
            artifact = cache.lookup(key)
            if artifact is not None:
                self._fill(slot, self._service._hit_response(req, artifact))
                return slot
        if key is not None and not req.trace and key in self._inflight:
            # Same key already running in this session: ride along
            # instead of scheduling duplicate work.
            self._inflight[key].append((slot, req))
            return slot
        try:
            self._unanswered[slot] = self._schedule(slot, req, key)
        except BaseException:
            # Nothing was scheduled: retract the slot so a rejected
            # request (queue full) leaves no hole in the stream.
            del self._unanswered[slot]
            self.submitted -= 1
            raise
        if key is not None and not req.trace:
            self._inflight[key] = []
        return slot

    def _schedule(self, slot: int, req: ServiceRequest,
                  key: Optional[str]) -> int:
        payload: Dict[str, Any] = {"blif": req.blif,
                                   "options": req.options.to_dict()}
        if req.trace:
            payload["trace"] = True

        def _on_complete(job: JobResult) -> None:
            self._fill(slot, self._service._miss_response(req, key, job))
            if key is None:
                return
            cache = self._service.cache
            for fslot, freq in self._inflight.pop(key, []):
                artifact = cache.lookup(key) \
                    if job.ok and cache is not None else None
                if artifact is not None:
                    self._fill(fslot,
                               self._service._hit_response(freq, artifact))
                else:
                    # Identical request, identical verdict: a failed /
                    # timed-out / cancelled primary answers its
                    # followers too (no store -> no hit to serve).
                    self._fill(fslot,
                               self._service._miss_response(freq, None, job))

        return self._scheduler.submit(payload, timeout=req.timeout,
                                      on_complete=_on_complete)

    # -- progress -------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Submitted requests not yet answered."""
        return len(self._unanswered)

    def ready(self) -> List[ServiceResponse]:
        """Hand out answered responses from the head of the stream, in
        submission order; stops at the first unanswered slot.  The
        session keeps nothing of what it hands out."""
        out: List[ServiceResponse] = []
        while self.emitted in self._answered:
            out.append(self._answered.pop(self.emitted))
            self.emitted += 1
        return out

    def cancel_outstanding(self) -> None:
        """Cancel every unanswered request, answering its slot.

        A job that already completed inside the scheduler keeps its real
        verdict (first verdict wins); everything else is answered with
        ``status="cancelled"``, ``error="cancelled"`` -- the documented
        per-request error object -- so no client is left hanging.
        """
        for job_id in sorted(job_id for job_id in self._unanswered.values()
                             if job_id is not None):
            self._scheduler.cancel(job_id)
        # Defensive: any slot somehow still unanswered is filled so the
        # response stream always terminates.
        for slot in sorted(self._unanswered):
            self._fill(slot, ServiceResponse(
                "", "cancelled", error="cancelled"))

    # -- internals ------------------------------------------------------

    def _fill(self, slot: int, resp: ServiceResponse) -> None:
        assert slot in self._unanswered, "slot %d filled twice" % slot
        del self._unanswered[slot]
        self._answered[slot] = resp
        self._service._note_response(resp)


class OptimizationService:
    """Batched optimization with artifact reuse (see module doc).

    Every caller owns the scheduler it runs on: ``process`` makes one
    per call, and each ``repro serve`` transport makes one that all of
    its streams share (:meth:`make_scheduler`).
    """

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 max_workers: int = 1, queue_cap: int = 64,
                 default_timeout: Optional[float] = None,
                 scheduler_factory: Callable[..., OptimizationScheduler]
                 = OptimizationScheduler) -> None:
        self.cache = cache
        self.max_workers = max_workers
        self.queue_cap = queue_cap
        self.default_timeout = default_timeout
        self._scheduler_factory = scheduler_factory
        # Kernel counters aggregated over every response this service
        # produced (hits and misses alike); reported by the stats command.
        self._kernel: Dict[str, float] = {}

    def make_scheduler(self) -> OptimizationScheduler:
        """A fresh scheduler with this service's settings (callers own
        its lifetime)."""
        return self._scheduler_factory(
            max_workers=self.max_workers, queue_cap=self.queue_cap,
            default_timeout=self.default_timeout)

    # -- core ----------------------------------------------------------

    def process(self, requests: List[ServiceRequest]) -> List[ServiceResponse]:
        """Answer every request, in order: cache -> schedule -> store.

        Backpressure, not rejection: past the scheduler's queue cap the
        call blocks until a slot frees up.
        """
        scheduler = self.make_scheduler()
        session = ServiceSession(self, scheduler)
        try:
            for req in requests:
                scheduler.wait_for_room()
                session.submit(req)
            scheduler.wait_for_room(1)
        finally:
            scheduler.shutdown()
        return session.ready()

    def optimize_one(self, request: ServiceRequest) -> ServiceResponse:
        return self.process([request])[0]

    def stats(self, served: int = 0) -> Dict[str, Any]:
        """The full ``{"cmd": "stats"}`` response object.

        Beyond the artifact-cache counters this folds in the scheduler's
        queue state, the kernel counters aggregated over every response
        served, and the raw process metrics registry -- one stats line
        answers "is the service healthy" without a second command.
        """
        registry = get_registry()
        return {
            "status": "ok",
            "served": served,
            "cache": (self.cache.perf_snapshot()
                      if self.cache is not None else {}),
            "scheduler": {
                "queue_depth": registry.gauge_value("scheduler_queue_depth"),
                "running": registry.gauge_value("scheduler_running"),
                "jobs_total": {
                    status: registry.counter_value("scheduler_jobs_total",
                                                   status=status)
                    for status in JOB_STATUSES},
            },
            "kernel": {k: self._kernel[k] for k in sorted(self._kernel)},
            "metrics": registry.as_dict(),
        }

    # -- internals -----------------------------------------------------

    def _note_response(self, resp: ServiceResponse) -> None:
        """Fold one finished response into the service-wide aggregates."""
        if resp.perf:
            self._kernel = merge_snapshots([self._kernel, resp.perf])
        get_registry().counter("service_requests_total",
                               status=resp.status,
                               cached=str(resp.cached).lower()).inc()

    def _hit_response(self, req: ServiceRequest,
                      artifact: Artifact) -> ServiceResponse:
        perf = merge_snapshots([artifact.perf,
                                {"artifact_cache_hits": 1.0}])
        return ServiceResponse(
            req.name, "ok", cached=True, blif=artifact.network_blif,
            perf=perf, verify_mode=artifact.verify_mode,
            verify_unknown_outputs=list(artifact.verify_unknown_outputs))

    def _miss_response(self, req: ServiceRequest, key: Optional[str],
                       job: JobResult) -> ServiceResponse:
        if not job.ok:
            error = job.error if job.status != "cancelled" \
                else (job.error or "cancelled")
            return ServiceResponse(req.name, job.status, error=error,
                                   elapsed=job.elapsed)
        value = job.value
        artifact = Artifact(
            network_blif=value["blif"],
            perf=dict(value.get("perf") or {}),
            verify_mode=str(value.get("verify_mode", req.options.verify)),
            verify_unknown_outputs=list(
                value.get("verify_unknown_outputs") or []))
        if self.cache is not None and key is not None:
            self.cache.store(key, artifact)
        perf = merge_snapshots([artifact.perf,
                                {"artifact_cache_misses": 1.0}])
        return ServiceResponse(
            req.name, "ok", cached=False, blif=artifact.network_blif,
            perf=perf, verify_mode=artifact.verify_mode,
            verify_unknown_outputs=list(artifact.verify_unknown_outputs),
            elapsed=job.elapsed, trace=value.get("trace"))
