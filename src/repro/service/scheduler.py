"""Async job scheduler for batched optimization.

Runs optimization jobs in worker *processes* (one process per job, at
most ``max_workers`` alive at once) so that the service survives
everything a job can do to a worker:

* **Per-job wall-clock timeouts** reuse the PR-4 budget machinery: the
  worker arms ``SIGALRM`` to raise :class:`repro.bdd.manager.BddBudgetExceeded`
  -- the same interrupt the size-capped verifier uses -- so a timed-out
  job unwinds gracefully and reports ``status="timeout"``.  A parent-side
  deadline (+ a grace period) is the backstop: a worker that cannot be
  interrupted (hung in C, ignoring signals) is terminated.
* **Worker-crash recovery**: a worker that dies without reporting (killed,
  segfault, ``os._exit``) marks its job ``failed`` and frees the slot --
  the next pending job starts immediately; nothing hangs, nothing leaks.
* **Cancellation**: pending jobs are dropped from the queue; running jobs
  are terminated.
* **Bounded queue**: ``submit`` raises :class:`SchedulerFull` beyond
  ``queue_cap`` outstanding jobs; callers that block instead wait in
  :meth:`OptimizationScheduler.wait_for_room`, the one poll loop.
* **Verdicts leave through callbacks only**: ``submit(...,
  on_complete=fn)`` fires ``fn`` parent-side the moment the job's
  verdict is recorded, from whichever of ``poll``/``wait_for_room``/
  ``cancel``/``shutdown`` observes it first.  The scheduler keeps no
  verdict: recording one drops the job from the queue or the running
  set, so no per-job state outlives it.  Ordering is the caller's
  business (:class:`repro.service.api.ServiceSession` orders each
  stream's replies).  Callbacks must not raise.
* **One verdict per job**: a job is recorded (and accounted in
  ``repro_scheduler_jobs_total{status}``) exactly once.  When the
  parent-side deadline backstop or a cancellation races a worker that
  already wrote its graceful result to the channel, the *first* verdict
  -- the worker's own report -- wins; the terminate only reaps the
  process, it never re-classifies the job.

The scheduler is generic over the worker function (any picklable
``payload -> dict`` callable), which is also the fault-injection seam the
scheduler tests use; the default :func:`optimize_job_worker` runs the BDS
flow on a BLIF payload.
"""

from __future__ import annotations

import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import multiprocessing as mp

from repro.bdd.manager import BddBudgetExceeded
from repro.check import CheckError
from repro.obs.metrics import get_registry
from repro.verify import VerifyError

#: Seconds past a job's deadline before the parent terminates the worker
#: (the window in which the in-worker SIGALRM path may still report a
#: graceful "timeout").
DEFAULT_GRACE = 2.0

_POLL_INTERVAL = 0.01


class SchedulerFull(RuntimeError):
    """``submit`` was called with ``queue_cap`` jobs already outstanding."""


@dataclass
class JobResult:
    """Outcome of one scheduled job."""

    job_id: int
    status: str                       # "ok" | "failed" | "timeout" | "cancelled"
    value: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def optimize_job_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Default worker: run the BDS flow on ``payload["blif"]``.

    ``payload["options"]`` is a :meth:`BDSOptions.to_dict` snapshot (so
    payloads stay JSON-able end to end, matching the ``repro serve``
    wire format).  A verification mismatch is a job *failure*, not a
    crash.  ``payload["trace"]`` (truthy) runs the flow under a local
    :class:`repro.obs.trace.Tracer` and ships the finished span trees
    back in ``"trace"`` -- the worker runs in a forked process, so spans
    must travel through the result channel, never a shared tracer.
    """
    from repro.bds.flow import BDSOptions, bds_optimize
    from repro.network.blif import parse_blif, write_blif
    from repro.obs.trace import Tracer
    from repro.verify import VerifyError

    options = BDSOptions.from_dict(payload.get("options") or {})
    net = parse_blif(payload["blif"])
    tracer = Tracer() if payload.get("trace") else None
    try:
        result = bds_optimize(net, options, tracer=tracer)
    except VerifyError as exc:
        return {"status": "failed",
                "error": "verification failed (%s) at output %s"
                         % (exc.mode, exc.failing_output)}
    out = {
        "status": "ok",
        "blif": write_blif(result.network),
        "perf": result.perf,
        "verify_mode": options.verify,
        "verify_unknown_outputs": list(result.verify_unknown_outputs),
    }
    if tracer is not None:
        out["trace"] = tracer.export_spans()
    return out


def _child_main(conn: Any, worker: Callable[[Dict[str, Any]], Dict[str, Any]],
                payload: Dict[str, Any], timeout: Optional[float]) -> None:
    """Worker-process entry: run the job, report exactly one dict."""
    # The parent may have a SIGTERM handler of its own (the socket
    # server's drain handler); a forked worker inherits it, which would
    # turn the scheduler's terminate() into a no-op.  Restore the
    # default so kill paths keep killing.
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if timeout is not None and hasattr(signal, "SIGALRM"):
        def _on_alarm(signum: int, frame: Any) -> None:
            raise BddBudgetExceeded(
                "job wall-clock budget (%.3fs) exceeded" % timeout)

        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        out = worker(payload)
        if timeout is not None and hasattr(signal, "SIGALRM"):
            signal.setitimer(signal.ITIMER_REAL, 0)
        if "status" not in out:
            out = dict(out, status="ok")
        conn.send(out)
    except BddBudgetExceeded as exc:
        conn.send({"status": "timeout", "error": str(exc)})
    except (CheckError, VerifyError) as exc:
        # Invariant violations and verification mismatches are job
        # verdicts in their own right -- report them by name so the
        # service response says *what* failed, not just that it did.
        conn.send({"status": "failed",
                   "error": "%s: %s" % (type(exc).__name__, exc)})
    except BaseException as exc:  # report, never hang the parent
        try:
            conn.send({"status": "failed",
                       "error": "%s: %s" % (type(exc).__name__, exc)})
        except (OSError, ValueError, TypeError):
            pass  # pipe already gone or payload unpicklable
    finally:
        try:
            conn.close()
        except OSError:
            pass


#: Shape of a completion callback (see ``submit(on_complete=...)``).
CompletionCallback = Callable[[JobResult], None]


@dataclass
class _Pending:
    job_id: int
    payload: Dict[str, Any]
    timeout: Optional[float]
    on_complete: Optional[CompletionCallback] = None


@dataclass
class _Running:
    job_id: int
    proc: Any
    conn: Any
    started: float
    deadline: Optional[float]
    on_complete: Optional[CompletionCallback] = None


class OptimizationScheduler:
    """Bounded async scheduler over worker processes (see module doc)."""

    def __init__(self, max_workers: int = 1, queue_cap: int = 64,
                 default_timeout: Optional[float] = None,
                 worker: Callable[[Dict[str, Any]], Dict[str, Any]] = optimize_job_worker,
                 grace: float = DEFAULT_GRACE) -> None:
        self.max_workers = max(1, max_workers)
        self.queue_cap = max(1, queue_cap)
        self.default_timeout = default_timeout
        self.worker = worker
        self.grace = grace
        self._ctx = mp.get_context()
        self._next_id = 0
        #: Queued jobs in submission order, and the running ones: a job is
        #: in exactly one of the two until its verdict is recorded.
        self._pending: OrderedDict[int, _Pending] = OrderedDict()
        self._running: Dict[int, _Running] = {}
        # Parent-side only: workers report through the result channel,
        # never the registry (forked increments would be lost silently).
        self._metrics = get_registry()

    def _sync_gauges(self) -> None:
        self._metrics.gauge("scheduler_queue_depth").set(len(self._pending))
        self._metrics.gauge("scheduler_running").set(len(self._running))

    # -- public API ----------------------------------------------------

    def submit(self, payload: Dict[str, Any],
               timeout: Optional[float] = None,
               on_complete: Optional[CompletionCallback] = None) -> int:
        """Queue one job; returns its id.  Raises :class:`SchedulerFull`
        when ``queue_cap`` jobs are already outstanding.

        ``on_complete`` (optional) is invoked with the :class:`JobResult`
        exactly once, parent-side, when the verdict is recorded -- from
        whichever of ``poll``/``wait_for_room``/``cancel``/``shutdown``
        observes it first.  It is the only way the verdict leaves the
        scheduler.  Callbacks must not raise.
        """
        if self.outstanding >= self.queue_cap:
            raise SchedulerFull("queue cap %d reached" % self.queue_cap)
        job_id = self._next_id
        self._next_id += 1
        self._pending[job_id] = _Pending(
            job_id, payload,
            self.default_timeout if timeout is None else timeout,
            on_complete)
        self._pump()
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Cancel a job: drop it if pending, terminate it if running.

        Returns False when the job already completed (or never existed).
        A running job that already wrote its result to the channel is
        recorded under that verdict (first verdict wins), not as
        ``cancelled``.
        """
        if job_id in self._pending:
            self._record(JobResult(job_id, "cancelled",
                                   error="cancelled while queued"))
            return True
        run = self._running.get(job_id)
        if run is None:
            return False
        self._end(run, "cancelled", "cancelled while running")
        self._pump()
        return True

    @property
    def outstanding(self) -> int:
        return len(self._pending) + len(self._running)

    def poll(self) -> None:
        """Advance the scheduler without blocking."""
        self._pump()

    def wait_for_room(self, limit: Optional[int] = None) -> None:
        """Poll, blocking while ``limit`` (at most ``queue_cap``) or more
        jobs are outstanding: the backpressure of every blocking caller,
        and with ``limit=1`` the wait for every verdict."""
        cap = self.queue_cap if limit is None else min(limit, self.queue_cap)
        self._pump()
        while self.outstanding >= cap:
            time.sleep(_POLL_INTERVAL)
            self._pump()

    def shutdown(self) -> None:
        """Cancel everything outstanding and reap every worker process."""
        for job_id in list(self._pending):
            self._record(JobResult(job_id, "cancelled",
                                   error="scheduler shutdown"))
        for run in list(self._running.values()):
            self._end(run, "cancelled", "scheduler shutdown")

    def __enter__(self) -> "OptimizationScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- internals -----------------------------------------------------

    def _start(self, job: _Pending) -> None:
        # The deadline before the fork: a timeout the clock cannot take
        # raises here, not after a worker was started and left untracked.
        deadline = None if job.timeout is None \
            else time.monotonic() + job.timeout
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main,
            args=(child_conn, self.worker, job.payload, job.timeout),
            daemon=True)
        proc.start()
        child_conn.close()
        self._running[job.job_id] = _Running(job.job_id, proc, parent_conn,
                                             time.monotonic(), deadline,
                                             job.on_complete)

    def _pump(self) -> None:
        now = time.monotonic()
        for run in list(self._running.values()):
            if run.conn.poll() or not run.proc.is_alive():
                self._end(run)  # its report, or the crash
            elif run.deadline is not None and now > run.deadline + self.grace:
                # The in-worker SIGALRM path had its grace period; enforce.
                self._end(run, "timeout",
                          "terminated %.1fs past deadline" % self.grace)
        while self._pending and len(self._running) < self.max_workers:
            self._start(self._pending.popitem(last=False)[1])
        self._sync_gauges()

    def _end(self, run: _Running, status: str = "failed",
             error: Optional[str] = None) -> None:
        """End a running job: take the worker's report if the pipe holds
        one, terminate the worker if it is alive, close the pipe, then
        record the report or the fallback verdict ``status``/``error``
        (without an ``error``: the worker crashed).

        First verdict wins: a worker may have written its graceful
        report (the SIGALRM timeout path, or a completion racing a
        cancel or the backstop) since the last poll, so the pipe is
        read before the terminate, and that report is the one verdict.
        """
        elapsed = time.monotonic() - run.started
        msg: Optional[Dict[str, Any]] = None
        try:
            if run.conn.poll():
                msg = run.conn.recv()
        except (EOFError, OSError):
            msg = None
        if run.proc.is_alive():
            self._terminate(run.proc)
        run.conn.close()
        if msg is not None:
            result = JobResult(run.job_id, msg.get("status", "failed"),
                               value=msg, error=msg.get("error"),
                               elapsed=elapsed)
        else:
            if error is None:
                error = "worker crashed (exit code %s)" % run.proc.exitcode
            result = JobResult(run.job_id, status, error=error,
                               elapsed=elapsed)
        self._record(result)

    def _terminate(self, proc: Any) -> None:
        """SIGTERM, then SIGKILL after ``grace``: a worker killed in the
        narrow window after fork but before ``_child_main`` resets an
        inherited SIGTERM handler (the socket server's drain handler)
        would otherwise ignore the terminate and leave us joining until
        its job ran to completion."""
        proc.terminate()
        proc.join(timeout=self.grace)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def _record(self, result: JobResult) -> None:
        """The single sink every verdict funnels through: take the job
        out of the queue or the running set, account once, notify once."""
        job = (self._pending.pop(result.job_id, None)
               or self._running.pop(result.job_id, None))
        if job is None:
            raise AssertionError("job %d recorded twice (second verdict: %s)"
                                 % (result.job_id, result.status))
        self._metrics.counter("scheduler_jobs_total",
                              status=result.status).inc()
        self._metrics.histogram("scheduler_job_seconds").observe(
            result.elapsed)
        self._sync_gauges()
        if job.on_complete is not None:
            job.on_complete(result)
