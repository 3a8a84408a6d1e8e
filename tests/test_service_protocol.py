"""The one JSON-lines protocol of ``repro serve`` (repro.service.server),
driven through both transports: stdin/stdout (``serve_stdio``) and a
Unix socket (``SocketServer``).

Every test runs the same lines through each transport and expects the
same replies: a malformed line is refused with a ``failed`` reply that
carries its ``id`` and the stream goes on to answer the next request;
commands are answered when read; a request without an ``id`` is named
by its position.
"""

import io
import json
import socket
import threading
import time

import pytest

from repro.service import (ArtifactCache, OptimizationScheduler,
                           OptimizationService, ServiceRequest, SocketServer)
from repro.service.server import serve_stdio

AND2 = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
OR2 = ".model t\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n"
XOR2 = ".model t\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n"


def _script_worker(payload):
    blif = payload["blif"]
    if blif.startswith("sleep:"):
        time.sleep(float(blif.split(":")[1]))
    return {"status": "ok", "blif": "echo:" + blif}


def _scripted_service():
    return OptimizationService(
        max_workers=2, scheduler_factory=lambda **kw: OptimizationScheduler(
            worker=_script_worker, **kw))


def _wire(lines):
    """Request objects as JSON lines; a string is sent as it is."""
    return "".join((o if isinstance(o, str) else json.dumps(o)) + "\n"
                   for o in lines)


def _over_stdin(service, lines, tmp_path):
    out = io.StringIO()
    serve_stdio(service, io.StringIO(_wire(lines)), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _over_socket(service, lines, tmp_path):
    """Send ``lines`` on one connection; read one reply per line."""
    server = SocketServer(service, socket_path=str(tmp_path / "srv.sock"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.ready.wait(10), "server never became ready"
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(server.address)
            sock.sendall(_wire(lines).encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as reader:
                replies = [reader.readline() for _ in lines]
    finally:
        server.request_shutdown()
        server.request_shutdown()
        thread.join(30)
    assert not thread.is_alive(), "server failed to drain"
    assert all(replies), "server closed the stream early: %r" % replies
    return [json.loads(line) for line in replies]


TRANSPORTS = [pytest.param(_over_stdin, id="stdin"),
              pytest.param(_over_socket, id="socket")]

#: (request fields, fragment of the error the line is refused with).
MALFORMED = [
    pytest.param({"blif": AND2, "options": "x"},
                 "options must be an object", id="options-string"),
    pytest.param({"blif": AND2, "options": {"decomp": "x"}},
                 "options.decomp must be an object", id="decomp-string"),
    pytest.param({"blif": 123}, '"blif" must be a string', id="blif-number"),
    pytest.param({"blif": AND2, "timeout": "x"}, '"timeout" must be',
                 id="timeout-string"),
    pytest.param({"blif": AND2, "timeout": True}, '"timeout" must be',
                 id="timeout-bool"),
    pytest.param({"blif": AND2, "timeout": 0}, '"timeout" must be',
                 id="timeout-zero"),
    pytest.param({"blif": AND2, "timeout": -1}, '"timeout" must be',
                 id="timeout-negative"),
    pytest.param({"blif": AND2.replace("11 1", "11")},
                 "cover row '11' of y", id="blif-row-without-output-bit"),
]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("fields, error", MALFORMED)
def test_malformed_line_fails_alone_and_the_stream_goes_on(
        transport, fields, error, tmp_path):
    # With a cache, so the BLIF is parsed in the daemon, not the worker.
    service = OptimizationService(cache=ArtifactCache(str(tmp_path / "c")))
    bad, good = transport(service, [dict(fields, id="bad"),
                                    {"blif": AND2, "id": "good"}], tmp_path)
    assert (bad["status"], bad["id"]) == ("failed", "bad")
    assert error in bad["error"]
    assert (good["status"], good["id"]) == ("ok", "good")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_deeply_nested_line_fails_alone(transport, tmp_path):
    # Nested 100,000 deep, json.loads would overflow the C stack under
    # the recursion limit repro sets, killing the daemon.  Brackets
    # inside strings do not count.
    names = " ".join("x[%d]" % i for i in range(1200))
    bracketed = ".model t\n.inputs %s\n.outputs y\n.end\n" % names
    bad, good = transport(_scripted_service(),
                          ["[" * 100000 + "]" * 100000,
                           {"blif": bracketed, "id": "good"}], tmp_path)
    assert bad["status"] == "failed"
    assert "more than 1000 arrays and objects" in bad["error"]
    assert (good["status"], good["id"]) == ("ok", "good")
    assert good["blif"] == "echo:" + bracketed


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_command_is_answered_when_read(transport, tmp_path):
    # Out of band: stats does not wait for the request before it.
    first, second = transport(_scripted_service(),
                              [{"blif": "sleep:0.5", "id": "slow"},
                               {"cmd": "stats"}], tmp_path)
    assert "scheduler" in first and "id" not in first
    assert (second["id"], second["status"]) == ("slow", "ok")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_request_without_id_is_named_by_its_position(transport, tmp_path):
    # The cache hit in the middle is answered while the miss before it
    # still runs; the third request must still be named "2".
    service = OptimizationService(cache=ArtifactCache(str(tmp_path / "c")))
    assert service.process([ServiceRequest(blif=AND2)])[0].ok
    replies = transport(service, [{"blif": OR2}, {"blif": AND2, "id": None},
                                  {"blif": XOR2}], tmp_path)
    assert [r["id"] for r in replies] == ["0", "1", "2"]
    assert [r["cached"] for r in replies] == [False, True, False]
