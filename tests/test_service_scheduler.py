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
import socket
import time
import weakref

import pytest

from repro.bds.flow import BDSOptions
from repro.circuits import build_circuit, random_logic
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


def _pid_worker(payload):
    return {"status": "ok", "pid": os.getpid()}


def _lifecycle_worker(payload):
    # Each way a job can end, by payload kind; "pid" reports the worker.
    kind = payload["kind"]
    if kind == "crash":
        os._exit(9)
    if kind == "sleep":
        return _sleep_worker({})
    if kind == "stubborn":
        return _stubborn_worker({})
    if kind == "fail":
        return {"status": "failed", "error": "reported failure"}
    if kind == "raise":
        raise RuntimeError("worker raised")
    return _pid_worker(payload)


def _orphaning_parent(conn):
    # Runs 2 jobs, reports the worker pids and dies without shutdown.
    sched = OptimizationScheduler(max_workers=2, worker=_pid_worker)
    verdicts = _Verdicts(sched)
    for _ in range(2):
        verdicts.submit({})
    conn.send([r.value["pid"] for r in verdicts.wait(30)])
    conn.close()
    os._exit(0)


def _stderr_worker(payload):
    os.write(2, b"worker stderr\n")
    return {"status": "ok"}


def _stderr_socket_parent(conn):
    # Runs a job whose worker writes to descriptor 2, a socket here (as
    # under systemd), and reports what reached the socket's other end.
    left, right = socket.socketpair()
    os.dup2(left.fileno(), 2)
    left.close()
    with OptimizationScheduler(max_workers=1, worker=_stderr_worker) as sched:
        _Verdicts(sched).run([{}])
    right.settimeout(5)
    try:
        conn.send(right.recv(64))
    except socket.timeout:
        conn.send(b"")
    conn.close()
    os._exit(0)


def _pid_alive(pid):
    """Whether ``pid`` runs (a zombie waiting for its reaper does not)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _workers_started():
    from repro.obs.metrics import get_registry
    return get_registry().counter_value("scheduler_workers_started_total")


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


class TestWorkerReuse:
    def test_two_workers_run_ten_jobs(self):
        before = _workers_started()
        with OptimizationScheduler(max_workers=2,
                                   worker=_pid_worker) as sched:
            verdicts = _Verdicts(sched)
            for _ in range(10):
                verdicts.submit({})
            results = verdicts.wait(30)
        assert all(r.ok for r in results) and len(results) == 10
        assert len({r.value["pid"] for r in results}) == 2
        assert _workers_started() == before + 2
        _assert_no_leaked_children()

    @pytest.mark.parametrize("kind,timeout,status", [
        ("pid", None, "ok"),
        ("crash", None, "failed"),
        ("sleep", 0.3, "timeout"),         # graceful SIGALRM report
        ("stubborn", 0.3, "timeout"),      # the deadline backstop
        ("cancel", None, "cancelled"),
        ("fail", None, "failed"),          # a reported failure
        ("raise", None, "failed"),
    ])
    def test_only_an_ok_job_keeps_its_worker(self, kind, timeout, status):
        with OptimizationScheduler(max_workers=1, worker=_lifecycle_worker,
                                   grace=0.5) as sched:
            verdicts = _Verdicts(sched)
            first = verdicts.submit({"kind": "pid"})
            middle = verdicts.submit(
                {"kind": "sleep" if kind == "cancel" else kind},
                timeout=timeout)
            last = verdicts.submit({"kind": "pid"})
            if kind == "cancel":
                while middle not in sched._running:
                    sched.poll()
                    time.sleep(0.01)
                assert sched.cancel(middle)
            verdicts.wait(30)
        results = verdicts.by_id
        assert results[middle].status == status, results[middle]
        pids = results[first].value["pid"], results[last].value["pid"]
        assert (pids[0] == pids[1]) == (status == "ok")
        _assert_no_leaked_children()

    def test_idle_worker_dies_before_its_next_job(self):
        with OptimizationScheduler(max_workers=1,
                                   worker=_pid_worker) as sched:
            verdicts = _Verdicts(sched)
            first = verdicts.submit({})
            pid = verdicts.wait(30)[0].value["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while pid in [p.pid for p in multiprocessing.active_children()]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            second = verdicts.submit({})
            verdicts.wait(30)
        assert verdicts.by_id[first].ok
        assert verdicts.by_id[second].ok       # not failed: a fresh worker
        assert verdicts.by_id[second].value["pid"] != pid
        _assert_no_leaked_children()

    def test_unpicklable_payload_raises_before_a_worker_is_taken(self):
        import threading

        with OptimizationScheduler(max_workers=1,
                                   worker=_pid_worker) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit({})
            pid = verdicts.wait(30)[0].value["pid"]
            with pytest.raises(TypeError):
                sched.submit({"lock": threading.Lock()})
            assert sched.outstanding == 0
            verdicts.submit({})
            assert verdicts.wait(30)[1].value["pid"] == pid

    def test_unpicklable_payload_behind_a_running_job_raises_at_submit(self):
        import threading

        with OptimizationScheduler(max_workers=1,
                                   worker=_sleep_worker) as sched:
            verdicts = _Verdicts(sched)
            running = verdicts.submit({"sleep": 0.5})
            queued = verdicts.submit({"sleep": 0})
            assert running in sched._running
            with pytest.raises(TypeError):
                verdicts.submit({"sleep": 0, "lock": threading.Lock()})
            assert sched.outstanding == 2
            results = verdicts.wait(30)
        assert [r.job_id for r in results] == [running, queued]
        assert all(r.ok for r in results)
        _assert_no_leaked_children()

    def test_worker_keeps_a_socket_stderr(self):
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_stderr_socket_parent, args=(writer,))
        proc.start()
        writer.close()
        assert reader.poll(30), "the scheduler's parent never reported"
        assert reader.recv() == b"worker stderr\n"
        proc.join(10)

    def test_idle_worker_holds_no_inherited_socket(self):
        # A socket the parent opened before the fork: once the parent
        # closes one end, the peer reads EOF although the worker that
        # inherited both ends is still alive and idle.
        left, right = socket.socketpair()
        try:
            with OptimizationScheduler(max_workers=1,
                                       worker=_pid_worker) as sched:
                verdicts = _Verdicts(sched)
                verdicts.submit({})
                pid = verdicts.wait(30)[0].value["pid"]
                left.close()
                right.settimeout(5)
                assert right.recv(1) == b""
                verdicts.submit({})
                assert verdicts.wait(30)[1].value["pid"] == pid
        finally:
            left.close()
            right.close()
        _assert_no_leaked_children()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_dead_parent_leaves_no_worker(self):
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_orphaning_parent, args=(writer,))
        proc.start()
        writer.close()
        assert reader.poll(30), "the scheduler's parent never reported"
        pids = reader.recv()
        proc.join(10)
        assert len(set(pids)) == 2
        deadline = time.monotonic() + 5.0
        while any(_pid_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        alive = [pid for pid in pids if _pid_alive(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)   # leave nothing behind on failure
        assert not alive

    def test_reused_worker_answers_byte_identically(self):
        target = {"blif": write_blif(build_circuit("C880")),
                  "options": BDSOptions().to_dict()}
        with OptimizationScheduler(max_workers=1) as sched:
            verdicts = _Verdicts(sched)
            verdicts.submit(target)
            fresh = verdicts.wait(120)[0]
        before = _workers_started()
        others = [{"blif": write_blif(random_logic(16, 48, 8, seed=seed)),
                   "options": BDSOptions().to_dict()} for seed in range(20)]
        with OptimizationScheduler(max_workers=1) as sched:
            results = _Verdicts(sched).run(others + [target])
        assert _workers_started() == before + 1
        assert all(r.ok for r in results)
        assert fresh.ok and results[-1].value["blif"] == fresh.value["blif"]
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
