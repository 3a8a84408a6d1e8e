"""Tests for the batched optimization service (repro.service.api):
cache routing, request/response ordering, the stdin transport of the
JSON-lines daemon (repro.service.server.serve_stdio), and the
warm-cache speedup acceptance criterion."""

import gc
import io
import json
import os
import select
import subprocess
import sys
import time
import weakref

import pytest

from repro.bds.flow import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.circuits.registry import TABLE1_CIRCUITS
from repro.network.blif import parse_blif, write_blif
from repro.obs.metrics import get_registry
from repro.service import (ArtifactCache, OptimizationService, ServiceRequest)
from repro.service.server import DEFAULT_BACKLOG, serve_stdio
from repro.verify import verify_networks

SMALL = ["add4", "add8", "cmp8", "parity8", "rl_mux"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _slow_echo_worker(payload):
    # Module-level so it pickles; blif "sleep:<s>" sleeps, else instant.
    blif = payload["blif"]
    if blif.startswith("sleep:"):
        time.sleep(float(blif.split(":", 1)[1]))
    return {"status": "ok", "blif": "echo:" + blif}


def _slow_service(**kwargs):
    from repro.service import OptimizationScheduler

    return OptimizationService(
        scheduler_factory=lambda **kw: OptimizationScheduler(
            worker=_slow_echo_worker, **kw),
        **kwargs)


def _requests(names, **opt_kwargs):
    opts = BDSOptions(**opt_kwargs)
    return [ServiceRequest(blif=write_blif(build_circuit(n)), options=opts,
                           name=n) for n in names]


class TestBatchRouting:
    def test_two_pass_second_all_cached_byte_identical(self, tmp_path):
        service = OptimizationService(cache=ArtifactCache(str(tmp_path)),
                                      max_workers=2)
        cold = service.process(_requests(SMALL, verify="cec"))
        assert [r.name for r in cold] == SMALL
        assert all(r.ok and not r.cached for r in cold)
        warm = service.process(_requests(SMALL, verify="cec"))
        assert all(r.ok and r.cached for r in warm)
        for a, b in zip(cold, warm):
            assert b.blif == a.blif          # byte-identical, not re-emitted
            assert b.perf["artifact_cache_hits"] == 1
            assert b.verify_mode == a.verify_mode

    def test_responses_follow_request_order_with_mixed_hits(self, tmp_path):
        service = OptimizationService(cache=ArtifactCache(str(tmp_path)),
                                      max_workers=2)
        service.process(_requests(["add4", "cmp8"]))
        mixed = service.process(
            _requests(["parity8", "add4", "rl_mux", "cmp8"]))
        assert [r.name for r in mixed] == ["parity8", "add4", "rl_mux",
                                           "cmp8"]
        assert [r.cached for r in mixed] == [False, True, False, True]

    def test_parse_error_fails_only_that_request(self, tmp_path):
        service = OptimizationService(cache=ArtifactCache(str(tmp_path)))
        reqs = _requests(["add4"])
        reqs.insert(0, ServiceRequest(blif="not blif at all", name="bad"))
        responses = service.process(reqs)
        assert responses[0].status == "failed"
        assert "parse error" in responses[0].error
        assert responses[1].ok

    def test_results_are_equivalent_to_inputs(self, tmp_path):
        service = OptimizationService(cache=ArtifactCache(str(tmp_path)))
        for resp in service.process(_requests(["add8", "parity8"])):
            original = build_circuit(resp.name)
            assert verify_networks(original, parse_blif(resp.blif),
                                   mode="cec").equivalent

    def test_cacheless_service_still_optimizes(self):
        service = OptimizationService(cache=None)
        resp = service.optimize_one(_requests(["add4"])[0])
        assert resp.ok and not resp.cached
        assert parse_blif(resp.blif).stats()["outputs"] == 5

    def test_jobs_option_runs_in_the_worker(self):
        # Clients written for revisions that had a ``jobs`` option may
        # still send it; the options snapshot drops the unknown key.
        net = build_circuit("add8")
        line = json.dumps({"blif": write_blif(net), "id": "j",
                           "options": {"jobs": 2}})
        out = io.StringIO()
        serve_stdio(OptimizationService(), io.StringIO(line + "\n"), out)
        resp = json.loads(out.getvalue())
        assert resp["status"] == "ok", resp.get("error")
        assert resp["blif"] == write_blif(bds_optimize(net).network)


class TestServeLoop:
    def _serve(self, lines, cache=None, backlog=DEFAULT_BACKLOG):
        service = OptimizationService(cache=cache)
        out = io.StringIO()
        served = serve_stdio(service, io.StringIO("\n".join(lines) + "\n"),
                             out, backlog=backlog)
        return served, [json.loads(line) for line in out.getvalue().splitlines()]

    def test_request_stats_shutdown(self, tmp_path):
        # Commands are answered when read.  With backlog 1 the loop reads
        # the next line only once job-a is answered, so stats covers the
        # finished job and shutdown finds nothing left to cancel.
        blif = write_blif(build_circuit("add4"))
        lines = [json.dumps({"blif": blif, "id": "job-a"}),
                 json.dumps({"cmd": "stats"}),
                 json.dumps({"cmd": "shutdown"}),
                 json.dumps({"blif": blif, "id": "never-reached"})]
        served, out = self._serve(lines, cache=ArtifactCache(str(tmp_path)),
                                  backlog=1)
        assert served == 1
        assert out[0]["id"] == "job-a" and out[0]["status"] == "ok"
        assert out[1]["cache"]["artifact_cache_misses"] == 1
        assert out[2] == {"status": "ok", "served": 1}
        assert len(out) == 3                 # nothing after shutdown

    def test_malformed_lines_do_not_kill_the_daemon(self):
        blif = write_blif(build_circuit("add4"))
        lines = ["{invalid json", json.dumps(["a", "list"]),
                 json.dumps({"no_blif": True}),
                 json.dumps({"blif": blif, "id": "ok-after-junk"})]
        served, out = self._serve(lines)
        assert served == 1
        assert [o["status"] for o in out] == ["failed", "failed", "failed",
                                              "ok"]
        assert out[3]["id"] == "ok-after-junk"

    def test_undecodable_bytes_fail_only_their_line(self):
        # Decoded as UTF-8 with replacement, as on a socket: under a
        # strict locale codec a stray byte would end the daemon.
        stdin = io.TextIOWrapper(
            io.BytesIO(b'\xff{"cmd": "stats"}\n{"cmd": "stats"}\n'),
            encoding="utf-8", errors="strict")
        out = io.StringIO()
        serve_stdio(OptimizationService(), stdin, out)
        bad, stats = [json.loads(line) for line in out.getvalue().splitlines()]
        assert bad["status"] == "failed" and "bad request" in bad["error"]
        assert stats["status"] == "ok" and "cache" in stats

    def test_serve_hits_cache_across_lines(self, tmp_path):
        blif = write_blif(build_circuit("cmp8"))
        req = json.dumps({"blif": blif})
        _served, out = self._serve([req, req],
                                   cache=ArtifactCache(str(tmp_path)))
        assert [o["cached"] for o in out] == [False, True]
        assert out[0]["blif"] == out[1]["blif"]

    def test_stats_covers_scheduler_and_kernel_not_just_cache(self,
                                                              tmp_path):
        # Regression: the stats response used to expose only the
        # artifact-cache counters; scheduler queue state and the kernel
        # counters served were invisible to operators.
        get_registry().reset()
        blif = write_blif(build_circuit("add4"))
        lines = [json.dumps({"blif": blif, "id": "job-a"}),
                 json.dumps({"cmd": "stats"})]
        # Backlog 1: stats is read only after job-a is answered.
        _served, out = self._serve(lines, cache=ArtifactCache(str(tmp_path)),
                                   backlog=1)
        stats = out[1]
        assert stats["cache"]["artifact_cache_misses"] == 1
        sched = stats["scheduler"]
        assert sched["queue_depth"] == 0 and sched["running"] == 0
        assert sched["jobs_total"] == {"ok": 1, "failed": 0,
                                       "timeout": 0, "cancelled": 0}
        # Kernel counters of the served flow are aggregated in.
        assert stats["kernel"]["ite_calls"] > 0
        assert stats["kernel"]["nodes_allocated"] > 0
        # And the raw registry rides along (counters/gauges/histograms).
        metrics = stats["metrics"]
        assert metrics["counters"][
            'service_requests_total{cached="false",status="ok"}'] == 1
        assert metrics["histograms"][
            "scheduler_job_seconds"]["count"] == 1

    def test_metrics_command_renders_prometheus_text(self, tmp_path):
        get_registry().reset()
        blif = write_blif(build_circuit("add4"))
        lines = [json.dumps({"blif": blif, "id": "job-a"}),
                 json.dumps({"cmd": "metrics"})]
        # Backlog 1: metrics is read only after job-a is answered.
        _served, out = self._serve(lines, cache=ArtifactCache(str(tmp_path)),
                                   backlog=1)
        assert out[1]["status"] == "ok"
        text = out[1]["text"]
        assert "# TYPE repro_scheduler_jobs_total counter" in text
        assert 'repro_scheduler_jobs_total{status="ok"} 1' in text
        assert "# TYPE repro_scheduler_job_seconds histogram" in text
        assert 'repro_scheduler_job_seconds_bucket{le="+Inf"} 1' in text

    def test_shutdown_with_pending_requests_emits_cancelled_replies(self):
        # Satellite fix: a shutdown interleaved with pending requests
        # used to drop their responses entirely -- clients hung waiting
        # for replies that never came.  Every unanswered request must
        # get its documented per-request cancelled error object, in
        # request order, before the ack.
        service = _slow_service(max_workers=1)
        lines = [json.dumps({"blif": "sleep:30", "id": "running"}),
                 json.dumps({"blif": "sleep:30", "id": "queued"}),
                 json.dumps({"cmd": "shutdown"})]
        out_io = io.StringIO()
        served = serve_stdio(service, io.StringIO("\n".join(lines) + "\n"),
                             out_io)
        out = [json.loads(line) for line in
               out_io.getvalue().splitlines()]
        assert served == 2
        assert len(out) == 3
        assert [o["id"] for o in out[:2]] == ["running", "queued"]
        for o in out[:2]:
            assert o["status"] == "cancelled"
            assert "cancelled" in o["error"]
        assert out[2] == {"status": "ok", "served": 2}

    def test_pipelined_requests_respond_in_request_order(self):
        # The first request is slow, the second instant; the daemon may
        # run them concurrently but must answer in request order.
        service = _slow_service(max_workers=2)
        lines = [json.dumps({"blif": "sleep:0.4", "id": "slow"}),
                 json.dumps({"blif": "quick", "id": "quick"})]
        out_io = io.StringIO()
        serve_stdio(service, io.StringIO("\n".join(lines) + "\n"), out_io)
        out = [json.loads(line) for line in out_io.getvalue().splitlines()]
        assert [o["id"] for o in out] == ["slow", "quick"]
        assert [o["status"] for o in out] == ["ok", "ok"]
        assert out[1]["blif"] == "echo:quick"

    def test_serve_trace_request_returns_span_trees(self):
        blif = write_blif(build_circuit("add4"))
        lines = [json.dumps({"blif": blif, "id": "traced", "trace": True}),
                 json.dumps({"blif": blif, "id": "untraced"})]
        _served, out = self._serve(lines)
        assert out[0]["status"] == "ok"
        spans = out[0]["trace"]
        assert spans and spans[-1]["name"] == "flow"
        phase_names = [c["name"] for c in spans[-1]["children"]]
        assert "flow.sweep" in phase_names and "flow.lower" in phase_names
        assert "trace" not in out[1]

    def test_no_reply_or_verdict_outlives_its_write(self, tmp_path,
                                                    monkeypatch):
        # A stream keeps a reply only until it is written, and a job
        # verdict only until its reply is made, so a daemon's memory
        # does not grow with the requests it has answered.  Reference
        # counting alone must free them: the cyclic GC is off.
        import repro.service.api as api
        import repro.service.scheduler as scheduler

        made = []

        def tracked(cls):
            class Tracked(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made.append(weakref.ref(self))
            return Tracked

        monkeypatch.setattr(api, "ServiceResponse",
                            tracked(api.ServiceResponse))
        monkeypatch.setattr(scheduler, "JobResult",
                            tracked(scheduler.JobResult))
        lines = [json.dumps({"blif": write_blif(build_circuit(name)),
                             "id": "%s-%d" % (name, rep)})
                 for rep in range(2) for name in SMALL[:3]]

        class Stdin:
            """Hands out the request lines, then notes what is still
            alive when it is read past the last one."""

            alive = None

            def readline(self):
                if lines:
                    return lines.pop(0) + "\n"
                self.alive = [ref() for ref in made if ref() is not None]
                return ""

        stdin, stdout = Stdin(), io.StringIO()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            # Backlog 1: each line is read only once every earlier reply
            # is written, so EOF is read with all six replies out.
            served = serve_stdio(_slow_service(cache=ArtifactCache(
                str(tmp_path))), stdin, stdout, backlog=1)
        finally:
            if was_enabled:
                gc.enable()
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 6
        assert [r["cached"] for r in replies] == [False] * 3 + [True] * 3
        # Six replies and three verdicts (one per miss) were made ...
        assert len(made) == 9
        # ... and none of them was still held once it was written.
        assert stdin.alive == []


class TestServeStdinPipe:
    def test_reply_arrives_before_stdin_closes(self, tmp_path):
        # A client that waits for each reply before it writes its next
        # line: with the default backlog the reply must come while stdin
        # stays open, not at the next line or at EOF.
        blif = write_blif(build_circuit("add4"))
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        with open(tmp_path / "stderr.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--cache-dir", str(tmp_path / "cache")],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err)
            try:
                proc.stdin.write(
                    (json.dumps({"id": "r", "blif": blif}) + "\n").encode())
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 30.0)
                assert ready, "no reply within 30 s while stdin stayed open"
                reply = json.loads(proc.stdout.readline())
                assert reply["id"] == "r" and reply["status"] == "ok", reply
                proc.stdin.close()
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


@pytest.mark.perf
class TestWarmCacheSpeedup:
    """Acceptance: warm-cache batch over the Table I suite is >=10x
    faster than the cold pass, with byte-identical outputs."""

    def test_table1_warm_pass_10x(self, tmp_path):
        service = OptimizationService(cache=ArtifactCache(str(tmp_path)),
                                      max_workers=2)
        requests = _requests(list(TABLE1_CIRCUITS))
        t0 = time.perf_counter()
        cold = service.process(requests)
        cold_s = time.perf_counter() - t0
        assert all(r.ok and not r.cached for r in cold)
        t0 = time.perf_counter()
        warm = service.process(_requests(list(TABLE1_CIRCUITS)))
        warm_s = time.perf_counter() - t0
        assert all(r.ok and r.cached for r in warm)
        assert [w.blif for w in warm] == [c.blif for c in cold]
        assert warm_s * 10 <= cold_s, (cold_s, warm_s)
