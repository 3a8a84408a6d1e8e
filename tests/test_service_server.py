"""Tests for the concurrent socket front door (repro.service.server)
and its client (repro.service.client): per-connection response order,
backpressure + retry, drain semantics, and the real optimize flow over
a Unix socket and TCP.

The server runs in a thread (signal handlers are skipped off the main
thread; tests drive the drain via ``request_shutdown``); workers are
module-level fault-injection callables, with blif strings doubling as
scripts (``sleep:<s>`` sleeps before echoing).
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import repro.service.server as server_module
from repro.circuits import build_circuit
from repro.network.blif import write_blif
from repro.obs.metrics import get_registry
from repro.service import (ArtifactCache, OptimizationScheduler,
                           OptimizationService, ServiceClient,
                           ServiceUnavailable, SocketServer)


def _script_worker(payload):
    blif = payload["blif"]
    if blif.startswith("sleep:"):
        time.sleep(float(blif.split(":")[1].split("#")[0]))
    return {"status": "ok", "blif": "echo:" + blif}


def _scripted_service(max_workers=4, queue_cap=64, cache=None):
    return OptimizationService(
        cache=cache, max_workers=max_workers, queue_cap=queue_cap,
        scheduler_factory=lambda **kw: OptimizationScheduler(
            worker=_script_worker, **kw))


@contextmanager
def _running(server):
    outcome = {}

    def run():
        outcome["rc"] = server.serve_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert server.ready.wait(10), "server never became ready"
    try:
        yield outcome
    finally:
        server.request_shutdown()
        server.request_shutdown()      # second call forces cancellation
        thread.join(30)
        assert not thread.is_alive(), "server failed to drain"


def _raw_connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(path)
    return sock, sock.makefile("r", encoding="utf-8", newline="\n")


def _send_lines(sock, objs):
    sock.sendall("".join(json.dumps(o) + "\n" for o in objs)
                 .encode("utf-8"))


class TestResponseOrdering:
    def test_per_connection_order_survives_out_of_order_completion(
            self, tmp_path):
        # Four workers: r1/r2 finish long before r0, but the wire must
        # still say r0, r1, r2.
        server = SocketServer(_scripted_service(max_workers=4),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "r0", "blif": "sleep:0.4#a"},
                               {"id": "r1", "blif": "b"},
                               {"id": "r2", "blif": "c"}])
            out = [json.loads(reader.readline()) for _ in range(3)]
            sock.close()
        assert [o["id"] for o in out] == ["r0", "r1", "r2"]
        assert [o["status"] for o in out] == ["ok"] * 3
        assert out[1]["blif"] == "echo:b"

    def test_eight_concurrent_clients_each_get_their_own_answers(
            self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=4),
                              socket_path=str(tmp_path / "srv.sock"))
        results = {}

        def one_client(i):
            with ServiceClient(socket_path=server.address) as client:
                blifs = ["client%d-req%d" % (i, j) for j in range(3)]
                if i % 2 == 0:            # stagger completion order
                    blifs[0] = "sleep:0.1#" + blifs[0]
                results[i] = (blifs, client.request_many(
                    [{"blif": b} for b in blifs]))

        with _running(server):
            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        assert sorted(results) == list(range(8))
        for _i, (blifs, responses) in results.items():
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert [r["blif"] for r in responses] \
                == ["echo:" + b for b in blifs]
        assert get_registry().counter_value("server_connections_total") >= 8


class TestReplyLatency:
    def test_finished_job_does_not_wait_for_the_idle_tick(self, tmp_path):
        # A worker finishing wakes no socket: while jobs are outstanding
        # the loop must look at the scheduler well inside its idle tick.
        server = SocketServer(_scripted_service(max_workers=2),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            times = []
            for i in range(9):
                start = time.monotonic()
                _send_lines(sock, [{"id": "r%d" % i, "blif": "x%d" % i}])
                assert json.loads(reader.readline())["status"] == "ok"
                times.append(time.monotonic() - start)
            sock.close()
        assert sorted(times)[len(times) // 2] < server_module._TICK_S


class TestBackpressure:
    def test_overloaded_reply_and_client_retry_to_success(self, tmp_path):
        # One worker, backlog 2: two slow jobs fill the scheduler, so a
        # third request is refused with an explicit overloaded reply --
        # and the client's backoff retries it to eventual success.
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"),
                              backlog=2, retry_after=0.05)
        with _running(server):
            before = get_registry().counter_value(
                "server_backpressure_total")
            filler_sock, filler_reader = _raw_connect(server.address)
            _send_lines(filler_sock, [{"id": "f0", "blif": "sleep:0.8"},
                                      {"id": "f1", "blif": "sleep:0.8"}])
            # Raw view of the refusal: no silent queueing, no drop.
            deadline = time.monotonic() + 5.0
            while True:
                probe_sock, probe_reader = _raw_connect(server.address)
                _send_lines(probe_sock, [{"id": "p", "blif": "x"}])
                reply = json.loads(probe_reader.readline())
                probe_sock.close()
                if reply["status"] == "overloaded":
                    break
                # Fillers had not been admitted yet; try again.
                assert time.monotonic() < deadline, reply
            assert reply["error"] == "overloaded"
            assert reply["retry_after"] == pytest.approx(0.05)
            assert reply["id"] == "p"
            # The client helper absorbs the refusals and succeeds.
            with ServiceClient(socket_path=server.address,
                               retries=20) as client:
                resp = client.request("retry-me")
            assert resp["status"] == "ok"
            assert resp["blif"] == "echo:retry-me"
            for reply_id in ("f0", "f1"):
                assert json.loads(
                    filler_reader.readline())["id"] == reply_id
            filler_sock.close()
            after = get_registry().counter_value("server_backpressure_total")
            assert after > before

    def test_retries_exhausted_raises_service_unavailable(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"),
                              backlog=1, retry_after=0.01)
        with _running(server):
            filler_sock, _reader = _raw_connect(server.address)
            _send_lines(filler_sock, [{"id": "f", "blif": "sleep:20"}])
            time.sleep(0.2)           # let the filler be admitted
            client = ServiceClient(socket_path=server.address, retries=2,
                                   backoff_base=0.01, backoff_cap=0.02)
            with pytest.raises(ServiceUnavailable, match="overloaded"):
                client.request_many([{"blif": "nope"}])
            assert client.backpressure_seen >= 3   # initial + 2 retries
            client.close()
            filler_sock.close()


class TestDrain:
    def test_sigterm_drain_finishes_running_jobs_and_exits_0(
            self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=2),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server) as outcome:
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "inflight", "blif": "sleep:0.5"}])
            time.sleep(0.1)           # request admitted, job running
            server.request_shutdown()
            # The running job is finished and its response flushed, not
            # dropped: that is the drain contract.
            reply = json.loads(reader.readline())
            assert reply["id"] == "inflight"
            assert reply["status"] == "ok"
            assert reader.readline() == ""        # server closed cleanly
            sock.close()
        assert outcome["rc"] == 0

    def test_requests_during_drain_are_answered_cancelled(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            # A slow in-flight job holds the drain open...
            _send_lines(sock, [{"id": "slow", "blif": "sleep:1.0"}])
            time.sleep(0.1)
            server.request_shutdown()
            # ...so this late request is processed -- and refused.
            _send_lines(sock, [{"id": "late", "blif": "x"}])
            late = json.loads(reader.readline())
            assert late["id"] == "late"
            assert late["status"] == "cancelled"
            assert "draining" in late["error"]
            slow = json.loads(reader.readline())
            assert (slow["id"], slow["status"]) == ("slow", "ok")
            sock.close()

    def test_second_sigterm_force_cancels_with_replies(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server) as outcome:
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "doomed", "blif": "sleep:60"}])
            time.sleep(0.1)
            server.request_shutdown()
            server.request_shutdown()        # force
            reply = json.loads(reader.readline())
            assert reply["id"] == "doomed"
            assert reply["status"] == "cancelled"   # answered, not hung
            sock.close()
        assert outcome["rc"] == 0

    def test_draining_server_refuses_new_connections(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "hold", "blif": "sleep:0.6"}])
            time.sleep(0.1)
            server.request_shutdown()
            time.sleep(0.15)                 # listener now closed
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(5)
            try:
                probe.connect(server.address)
                # Accepted by the kernel's listen backlog at best; the
                # server must close it without serving anything.
                probe_reader = probe.makefile("r")
                assert probe_reader.readline() == ""
            except (ConnectionRefusedError, FileNotFoundError,
                    BrokenPipeError, OSError):
                pass                          # equally acceptable
            finally:
                probe.close()
            assert json.loads(reader.readline())["id"] == "hold"
            sock.close()


class TestConnectionProtocol:
    def test_connection_shutdown_cancels_with_replies_then_ack(
            self, tmp_path):
        # The socket analogue of the stdin satellite fix: shutdown with
        # a request still pending answers it (cancelled) before the ack.
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "pending", "blif": "sleep:60"},
                               {"cmd": "shutdown"}])
            first = json.loads(reader.readline())
            assert (first["id"], first["status"]) == ("pending",
                                                      "cancelled")
            ack = json.loads(reader.readline())
            assert ack == {"served": 1, "status": "ok"}
            assert reader.readline() == ""    # connection closed
            sock.close()

    def test_shutdown_after_a_miss_reaches_eof(self, tmp_path):
        # The miss forks a worker while this connection is open; once
        # idle, that worker must not hold the connection open after the
        # server closes it.  Both misses run in the one worker.
        registry = get_registry()
        before = registry.counter_value("scheduler_workers_started_total")
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "m0", "blif": "x"},
                               {"id": "m1", "blif": "y"}])
            assert [json.loads(reader.readline())["status"]
                    for _ in range(2)] == ["ok", "ok"]
            _send_lines(sock, [{"cmd": "stats"}])
            stats = json.loads(reader.readline())["scheduler"]
            assert stats["workers_started"] == before + 1
            _send_lines(sock, [{"cmd": "shutdown"}])
            assert json.loads(reader.readline()) == {"served": 2,
                                                     "status": "ok"}
            assert reader.readline() == ""    # connection closed
            sock.close()

    def test_malformed_line_and_stats_over_socket(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            sock, reader = _raw_connect(server.address)
            sock.sendall(b"{not json\n")
            _send_lines(sock, [{"cmd": "stats"}])
            bad = json.loads(reader.readline())
            assert bad["status"] == "failed"
            assert "bad request" in bad["error"]
            stats = json.loads(reader.readline())
            assert stats["status"] == "ok"
            assert "scheduler" in stats and "metrics" in stats
            sock.close()

    def test_client_commands_and_metrics_text(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"))
        with _running(server):
            with ServiceClient(socket_path=server.address) as client:
                assert client.request("ping")["status"] == "ok"
                stats = client.stats()
                assert stats["status"] == "ok"
                text = client.metrics_text()
                assert "# TYPE repro_server_connections gauge" in text
                assert "repro_server_request_seconds_count" in text
                ack = client.shutdown()
                assert ack["status"] == "ok" and ack["served"] == 1

    def test_dead_client_frees_its_scheduler_slots(self, tmp_path):
        server = SocketServer(_scripted_service(max_workers=1),
                              socket_path=str(tmp_path / "srv.sock"),
                              backlog=2)
        with _running(server):
            sock, reader = _raw_connect(server.address)
            _send_lines(sock, [{"id": "a", "blif": "sleep:30"},
                               {"id": "b", "blif": "sleep:30"}])
            time.sleep(0.2)
            # Close reader too: makefile() holds the fd open, and a
            # half-alive socket never sends FIN.
            sock.shutdown(socket.SHUT_RDWR)
            reader.close()
            sock.close()                       # client vanishes
            # Its jobs are cancelled, so a new client is served promptly
            # instead of being refused by a queue full of orphans.
            with ServiceClient(socket_path=server.address,
                               retries=20) as client:
                t0 = time.monotonic()
                assert client.request("fresh")["status"] == "ok"
                assert time.monotonic() - t0 < 10.0


class TestTransports:
    def test_tcp_ephemeral_port(self):
        server = SocketServer(_scripted_service(max_workers=1), port=0)
        with _running(server):
            host, port = server.address
            assert port != 0
            with ServiceClient(host=host, port=port) as client:
                assert client.request("over-tcp")["blif"] == "echo:over-tcp"

    def test_constructor_requires_exactly_one_transport(self):
        service = _scripted_service()
        with pytest.raises(ValueError):
            SocketServer(service)
        with pytest.raises(ValueError):
            SocketServer(service, socket_path="/tmp/x", port=1234)
        with pytest.raises(ValueError):
            ServiceClient()
        with pytest.raises(ValueError):
            ServiceClient(socket_path="/tmp/x", port=1234)


class TestRealFlow:
    def test_real_optimize_roundtrip_with_shared_cache(self, tmp_path):
        # Default worker, real cache: the second identical request on a
        # *different* connection is a cache hit -- sessions share one
        # cache and one scheduler.
        service = OptimizationService(
            cache=ArtifactCache(str(tmp_path / "cache")), max_workers=2)
        server = SocketServer(service,
                              socket_path=str(tmp_path / "srv.sock"))
        blif = write_blif(build_circuit("add4"))
        with _running(server):
            with ServiceClient(socket_path=server.address) as client:
                cold = client.request(blif, timeout=120)
            with ServiceClient(socket_path=server.address) as client:
                warm = client.request(blif, timeout=120)
        assert cold["status"] == "ok" and not cold["cached"]
        assert warm["status"] == "ok" and warm["cached"]
        assert warm["blif"] == cold["blif"]       # byte-identical


class TestClientBackoff:
    def test_backoff_grows_exponentially_with_jitter_and_floor(self):
        import random

        client = ServiceClient(socket_path="/nonexistent", retries=0,
                               backoff_base=0.1, backoff_cap=10.0,
                               rng=random.Random(42))
        delays = [client._backoff_delay(k) for k in range(6)]
        for k, delay in enumerate(delays):
            nominal = min(10.0, 0.1 * 2 ** k)
            assert 0.5 * nominal <= delay <= nominal
        assert client._backoff_delay(0, floor=5.0) == 5.0

    def test_connect_refusal_exhausts_into_service_unavailable(
            self, tmp_path):
        client = ServiceClient(socket_path=str(tmp_path / "nope.sock"),
                               retries=2, backoff_base=0.01,
                               backoff_cap=0.02)
        t0 = time.monotonic()
        with pytest.raises(ServiceUnavailable, match="3 attempts"):
            client.connect()
        assert time.monotonic() - t0 < 5.0
