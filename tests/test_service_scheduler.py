"""Tests for the async job scheduler: ordering, per-job timeouts,
cancellation, worker-crash recovery, and leak-freedom.

The workers below are module-level so they pickle under any
multiprocessing start method; they are the fault-injection seam the
scheduler exposes (any ``payload -> dict`` callable).  Verdicts leave
the scheduler only through completion callbacks; :class:`_Verdicts`
collects them.
"""

import gc
import multiprocessing
import os
import signal
import time
import weakref

import pytest

from repro.bds.flow import BDSOptions
from repro.circuits import build_circuit
from repro.network.blif import parse_blif, write_blif
from repro.service.scheduler import (OptimizationScheduler, SchedulerFull,
                                     optimize_job_worker)
from repro.verify import verify_networks


def _quick_worker(payload):
    return {"status": "ok", "n": payload["n"]}


def _sleep_worker(payload):
    time.sleep(payload.get("sleep", 30))
    return {"status": "ok"}


def _crash_worker(payload):
    os._exit(13)  # simulates a segfaulting / OOM-killed worker


def _stubborn_worker(payload):
    # Defeats the graceful SIGALRM path: only the parent-side terminate
    # backstop can end this job.
    # repro-lint: disable=RPL006
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    time.sleep(30)
    return {"status": "ok"}


def _flaky_worker(payload):
    kind = payload["kind"]
    if kind == "crash":
        os._exit(7)
    if kind == "sleep":
        time.sleep(30)
    return {"status": "ok", "n": payload["n"]}


def _report_then_linger_worker(payload):
    # Writes its graceful result to the channel, then keeps the process
    # alive (a non-daemon thread blocks interpreter exit) -- the exact
    # window in which a parent-side terminate used to race the worker's
    # own verdict.
    import threading
    threading.Thread(target=time.sleep, args=(30,), daemon=False).start()
    return {"status": "ok", "n": payload.get("n", 0)}


def _sigterm_probe_worker(payload):
    # Reports whether the fork left SIGTERM at its default disposition.
    # repro-lint: disable=RPL006
    return {"status": "ok",
            "sigterm_default":
                signal.getsignal(signal.SIGTERM) is signal.SIG_DFL}


def _assert_no_leaked_children():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not multiprocessing.active_children()


def _wait(sched, timeout):
    """Poll until no job is outstanding or ``timeout`` seconds passed."""
    deadline = time.monotonic() + timeout
    sched.poll()
    while sched.outstanding and time.monotonic() < deadline:
        time.sleep(0.01)
        sched.poll()


class _Verdicts:
    """The verdicts of the jobs submitted through it, collected by their
    completion callback and listed in submission order."""

    def __init__(self, sched):
        self.sched = sched
        self.by_id = {}

    def __call__(self, result):
        assert result.job_id not in self.by_id, "verdict delivered twice"
        self.by_id[result.job_id] = result

    def submit(self, payload, **kwargs):
        return self.sched.submit(payload, on_complete=self, **kwargs)

    def run(self, payloads, timeout=None):
        """Submit each payload once there is room, then wait for all."""
        for payload in payloads:
            self.sched.wait_for_room()
            self.submit(payload, timeout=timeout)
        return self.wait(60)

    def wait(self, timeout):
        _wait(self.sched, timeout)
        return self.results()

    def results(self):
        return [self.by_id[k] for k in sorted(self.by_id)]


class TestOrdering:
    def test_results_in_submission_order(self):
        with OptimizationScheduler(max_workers=4,
                                   worker=_quick_worker) as sched:
            verdicts = _Verdicts(sched)
            for i in range(10):
                verdicts.submit({"n": i})
            results = verdicts.wait(30)
        assert [r.value["n"] for r in results] == list(range(10))
        assert all(r.ok for r in results)
        _assert_no_leaked_children()

    def test_run_applies_backpressure_past_queue_cap(self):
        with OptimizationScheduler(max_workers=2, queue_cap=3,
                                   worker=_quick_worker) as sched:
            results = _Verdicts(sched).run([{"n": i} for i in range(12)])
        assert [r.value["n"] for r in results] == list(range(12))

    def test_submit_past_cap_raises(self):
        with OptimizationScheduler(max_workers=1, queue_cap=2,
                                   worker=_sleep_worker) as sched:
            sched.submit({"sleep": 30})
            sched.submit({"sleep": 30})
            with pytest.raises(SchedulerFull):
                sched.submit({"sleep": 30})
        _assert_no_leaked_children()


class TestTimeout:
    def test_unusable_timeout_raises_before_a_worker_starts(self):
        # The deadline is computed before the fork: a timeout that cannot
        # be added to the clock must not leave an untracked worker.
        before = set(multiprocessing.active_children())
        with OptimizationScheduler(max_workers=1,
                                   worker=_sleep_worker) as sched:
            with pytest.raises(TypeError):
                sched.submit({"sleep": 30}, timeout="x")
            assert set(multiprocessing.active_children()) == before
            assert sched.outstanding == 0

    def test_graceful_in_worker_timeout(self):
        """The SIGALRM/BddBudgetExceeded path reports within the budget."""
        with OptimizationScheduler(max_workers=1, worker=_sleep_worker,
                                   grace=5.0) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({"sleep": 30}, timeout=0.3)
            t0 = time.monotonic()
            results = verdicts.wait(30)
            took = time.monotonic() - t0
        assert results[0].status == "timeout"
        assert "budget" in (results[0].error or "")
        assert took < 4.0          # nowhere near the 30s sleep or the grace
        _assert_no_leaked_children()

    def test_backstop_terminates_uninterruptible_worker(self):
        with OptimizationScheduler(max_workers=1, worker=_stubborn_worker,
                                   grace=0.5) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({}, timeout=0.3)
            results = verdicts.wait(30)
        assert results[0].status == "timeout"
        assert "terminated" in (results[0].error or "")
        _assert_no_leaked_children()

    def test_timed_out_job_does_not_block_followers(self):
        with OptimizationScheduler(max_workers=1, worker=_sleep_worker,
                                   grace=0.5) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({"sleep": 30}, timeout=0.2)
            verdicts.submit({"sleep": 0.01})
            results = verdicts.wait(30)
        assert results[0].status == "timeout"
        assert results[1].status == "ok"


class TestCrashRecovery:
    def test_crash_marks_failed_and_slot_refills(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=_flaky_worker) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({"kind": "crash", "n": 0})
            verdicts.submit({"kind": "ok", "n": 1})
            results = verdicts.wait(30)
        assert results[0].status == "failed"
        assert "crashed" in results[0].error
        assert "13" not in results[0].error  # exit code 7 in this worker
        assert results[1].ok and results[1].value["n"] == 1
        _assert_no_leaked_children()

    def test_exit_code_is_reported(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=_crash_worker) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({})
            results = verdicts.wait(30)
        assert results[0].status == "failed"
        assert "13" in results[0].error

    def test_worker_exception_is_a_failure_not_a_crash(self):
        def boom(payload):
            raise RuntimeError("kaput")

        # Closures don't pickle under spawn, but the default Linux start
        # method forks; guard so the test degrades gracefully elsewhere.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork start method for closure workers")
        with OptimizationScheduler(max_workers=1, worker=boom) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({})
            results = verdicts.wait(30)
        assert results[0].status == "failed"
        assert "kaput" in results[0].error


class TestCancellation:
    def test_cancel_pending_and_running(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=_sleep_worker) as sched:
            verdicts = _Verdicts(sched)
            running = verdicts.submit({"sleep": 30})
            queued = verdicts.submit({"sleep": 30})
            assert sched.cancel(queued)
            assert sched.cancel(running)
            results = verdicts.wait(10)
        assert [r.status for r in results] == ["cancelled", "cancelled"]
        _assert_no_leaked_children()

    def test_cancel_completed_returns_false(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=_quick_worker) as sched:
            jid = sched.submit({"n": 0})
            _wait(sched, 30)
            assert not sched.cancel(jid)

    def test_shutdown_reaps_everything(self):
        sched = OptimizationScheduler(max_workers=2, worker=_sleep_worker)
        verdicts = _Verdicts(sched)
        for _ in range(5):
            verdicts.submit({"sleep": 30})
        sched.shutdown()
        statuses = [r.status for r in verdicts.results()]
        assert len(statuses) == 5
        assert set(statuses) == {"cancelled"}
        _assert_no_leaked_children()


class TestFirstVerdictWins:
    """Satellite fix: a kill (timeout backstop / cancel) racing a worker
    that already reported must record the worker's verdict, once."""

    def _jobs_total(self):
        from repro.obs.metrics import get_registry
        reg = get_registry()
        return {s: reg.counter_value("scheduler_jobs_total", status=s)
                for s in ("ok", "failed", "timeout", "cancelled")}

    def test_cancel_after_report_keeps_worker_verdict(self):
        before = self._jobs_total()
        with OptimizationScheduler(max_workers=1,
                                   worker=_report_then_linger_worker) as sched:
            verdicts = _Verdicts(sched)
            jid = verdicts.submit({"n": 7})
            # Wait for the worker's report to land in the pipe WITHOUT
            # letting the scheduler consume it (no poll/wait): the next
            # scheduler action is the cancel itself -- the race window,
            # made deterministic.
            deadline = time.monotonic() + 10.0
            while not sched._running[jid].conn.poll():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert sched.cancel(jid)
            results = verdicts.results()
        assert [r.status for r in results] == ["ok"]
        assert results[0].value["n"] == 7
        after = self._jobs_total()
        # Single accounting: exactly one job counted, under the
        # worker's own status -- never ok *and* cancelled.
        assert after["ok"] == before["ok"] + 1
        assert after["cancelled"] == before["cancelled"]
        assert sum(after.values()) == sum(before.values()) + 1
        _assert_no_leaked_children()

    def test_shutdown_after_report_keeps_worker_verdict(self):
        before = self._jobs_total()
        sched = OptimizationScheduler(max_workers=1,
                                      worker=_report_then_linger_worker)
        verdicts = _Verdicts(sched)
        jid = verdicts.submit({"n": 3})
        deadline = time.monotonic() + 10.0
        while not sched._running[jid].conn.poll():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        sched.shutdown()
        assert [r.status for r in verdicts.results()] == ["ok"]
        after = self._jobs_total()
        assert sum(after.values()) == sum(before.values()) + 1
        _assert_no_leaked_children()

    def test_double_record_is_an_assertion_error(self):
        from repro.service.scheduler import JobResult
        with OptimizationScheduler(max_workers=1,
                                   worker=_quick_worker) as sched:
            sched.submit({"n": 0})
            _wait(sched, 30)
            with pytest.raises(AssertionError, match="recorded twice"):
                sched._record(JobResult(0, "cancelled"))


class TestCompletionCallbacks:
    def test_callbacks_fire_once_per_job_with_the_result(self):
        seen = []
        with OptimizationScheduler(max_workers=4,
                                   worker=_quick_worker) as sched:
            for i in range(6):
                sched.submit({"n": i}, on_complete=seen.append)
            _wait(sched, 30)
        assert sorted(r.job_id for r in seen) == list(range(6))
        assert all(r.ok for r in seen)
        assert [r.value["n"] for r in sorted(seen, key=lambda r: r.job_id)] \
            == list(range(6))

    def test_callback_fires_for_cancelled_pending_job(self):
        seen = []
        with OptimizationScheduler(max_workers=1,
                                   worker=_sleep_worker) as sched:
            sched.submit({"sleep": 30}, on_complete=seen.append)
            queued = sched.submit({"sleep": 30}, on_complete=seen.append)
            sched.cancel(queued)
            assert [r.job_id for r in seen] == [queued]
            assert seen[0].status == "cancelled"
        # shutdown (via __exit__) completes the running job's callback.
        assert len(seen) == 2

    def test_no_verdict_outlives_its_callback(self):
        # The callback is the verdict's only way out: once it returns,
        # nothing of the job is left in the scheduler to keep it alive.
        verdicts = []

        def keep_weakly(result):
            verdicts.append(weakref.ref(result))

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with OptimizationScheduler(max_workers=2,
                                       worker=_quick_worker) as sched:
                for i in range(4):
                    sched.submit({"n": i}, on_complete=keep_weakly)
                _wait(sched, 30)
                assert len(verdicts) == 4
                assert all(ref() is None for ref in verdicts)
        finally:
            if was_enabled:
                gc.enable()


class TestForkSafety:
    def test_worker_resets_inherited_sigterm_handler(self):
        # The socket server installs a SIGTERM drain handler; a forked
        # worker inheriting it would survive the scheduler's terminate().
        # repro-lint: disable=RPL006
        previous = signal.signal(signal.SIGTERM, lambda s, f: None)
        try:
            with OptimizationScheduler(
                    max_workers=1, worker=_sigterm_probe_worker) as sched:
                verdicts = _Verdicts(sched)
                verdicts.submit({})
                results = verdicts.wait(30)
        finally:
            signal.signal(signal.SIGTERM, previous)  # repro-lint: disable=RPL006
        assert results[0].ok
        assert results[0].value["sigterm_default"] is True
        _assert_no_leaked_children()

    def test_terminate_still_kills_despite_parent_sigterm_handler(self):
        # repro-lint: disable=RPL006
        previous = signal.signal(signal.SIGTERM, lambda s, f: None)
        try:
            with OptimizationScheduler(max_workers=1,
                                       worker=_sleep_worker) as sched:
                verdicts = _Verdicts(sched)
                jid = verdicts.submit({"sleep": 30})
                t0 = time.monotonic()
                sched.cancel(jid)
                results = verdicts.wait(10)
                took = time.monotonic() - t0
        finally:
            signal.signal(signal.SIGTERM, previous)  # repro-lint: disable=RPL006
        assert results[0].status == "cancelled"
        assert took < 5.0        # terminate worked; no 30s wait
        _assert_no_leaked_children()


class TestOptimizeWorker:
    def test_end_to_end_optimization_job(self):
        net = build_circuit("add4")
        payload = {"blif": write_blif(net),
                   "options": BDSOptions(verify="cec").to_dict()}
        with OptimizationScheduler(max_workers=1,
                                   worker=optimize_job_worker) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit(payload)
            results = verdicts.wait(60)
        assert results[0].ok
        optimized = parse_blif(results[0].value["blif"])
        assert verify_networks(net, optimized, mode="cec").equivalent
        assert results[0].value["perf"]["ite_calls"] > 0

    def test_bad_blif_is_a_failure(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=optimize_job_worker) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({"blif": "this is not blif"})
            results = verdicts.wait(30)
        assert results[0].status == "failed"


@pytest.mark.perf
class TestFaultInjectionStress:
    """Nightly: a mixed wave of crashing / hanging / healthy jobs must
    drain completely with deterministic per-job verdicts and no leaks."""

    def test_mixed_fault_wave_drains(self):
        kinds = (["ok", "crash", "ok", "sleep", "ok"] * 6)[:30]
        payloads = [{"kind": k, "n": i} for i, k in enumerate(kinds)]
        with OptimizationScheduler(max_workers=4, worker=_flaky_worker,
                                   grace=0.5) as sched:
            results = _Verdicts(sched).run(payloads, timeout=1.0)
        assert len(results) == len(payloads)
        for payload, result in zip(payloads, results):
            expected = {"ok": "ok", "crash": "failed",
                        "sleep": "timeout"}[payload["kind"]]
            assert result.status == expected, (payload, result)
        _assert_no_leaked_children()
