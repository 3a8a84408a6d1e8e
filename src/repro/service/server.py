"""Concurrent socket front door for the optimization service.

``repro serve --socket PATH`` / ``--port N`` runs :class:`SocketServer`:
a single-threaded, ``selectors``-driven event loop accepting many
concurrent clients over a Unix-domain or TCP socket, speaking the same
JSON-lines protocol as the stdin daemon (``docs/SERVICE.md``).  Each
connection gets its own :class:`repro.service.api.ServiceSession`, and
every session multiplexes onto **one** shared
:class:`repro.service.scheduler.OptimizationScheduler` and one shared
artifact cache -- the completion callbacks added to the scheduler are
what let the loop pipeline requests from one client while another
client's jobs are still running, without ever blocking in submission
order.

Contracts (the tentpole's acceptance criteria):

* **Per-connection response order** -- responses to *requests* on a
  connection are emitted in that connection's request order, exactly
  like the stdin mode.  Command replies (``stats``/``metrics``) and
  rejection replies (``overloaded``, malformed) are immediate and
  therefore out of band; they carry the request's ``id`` where one was
  given.
* **Explicit backpressure** -- once the shared scheduler has ``backlog``
  jobs outstanding, further requests are answered immediately with
  ``{"status": "overloaded", "error": "overloaded", "retry_after": s}``
  rather than silently queueing.  The paired
  :class:`repro.service.client.ServiceClient` retries these with
  jittered exponential backoff.
* **Graceful drain** -- SIGTERM stops accepting connections, lets
  running jobs finish, flushes every response buffer, then exits 0.
  Requests arriving *during* the drain are answered
  ``{"status": "cancelled", "error": "server draining"}``; a second
  SIGTERM force-cancels outstanding jobs (each still gets its
  documented ``cancelled`` response -- no client is left hanging).

Metrics (``repro_`` prefix via the registry): ``server_connections``
(gauge), ``server_connections_total``, ``server_backpressure_total``
(counters), ``server_request_seconds`` (per-request latency histogram,
admission to response).
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.bds.flow import BDSOptions
from repro.obs.metrics import get_registry
from repro.service.api import OptimizationService, ServiceRequest, ServiceSession
from repro.service.scheduler import OptimizationScheduler, SchedulerFull

#: Event-loop tick: the select timeout bounding scheduler-poll latency.
_TICK_S = 0.05
#: The tick while jobs are outstanding.  A finished job wakes no socket,
#: so this bounds how long its reply waits before it is noticed.
_JOB_TICK_S = 0.005

#: Bytes per recv.
_RECV_SIZE = 65536

#: Default ``retry_after`` hint (seconds) on overloaded replies.
DEFAULT_RETRY_AFTER = 0.25

#: Default backlog: scheduler jobs outstanding before overloaded replies.
DEFAULT_BACKLOG = 64

#: Hard cap on one line (a request is one line; a 16 MiB line is abuse).
_MAX_LINE = 16 * 1024 * 1024


class _Connection:
    """Per-client state: socket, session, buffers, latency clocks."""

    def __init__(self, sock: socket.socket, session: ServiceSession) -> None:
        self.sock = sock
        self.session = session
        self.rbuf = b""
        self.wbuf = b""
        #: slot index -> admission time, for the latency histogram.
        self.t0: Dict[int, float] = {}
        #: responses emitted so far == next slot ``ready()`` will yield.
        self.emitted = 0
        self.served = 0
        #: half-closed: flush ``wbuf``, then close (set by ``shutdown``).
        self.closing = False


class SocketServer:
    """Socket front door over one shared scheduler (see module doc).

    Exactly one of ``socket_path`` (AF_UNIX) or ``port`` (TCP; ``0``
    binds an ephemeral port, read back from :attr:`address`) must be
    given.  ``backlog`` bounds scheduler outstanding before requests are
    refused with ``overloaded``.
    """

    def __init__(self, service: OptimizationService,
                 socket_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 backlog: int = DEFAULT_BACKLOG,
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path / port required")
        self.service = service
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.backlog = max(1, backlog)
        self.retry_after = retry_after
        self.ready = threading.Event()
        #: Bound address once listening: the socket path, or (host, port).
        self.address: Any = None
        self._listener: Optional[socket.socket] = None
        self._scheduler: Optional[OptimizationScheduler] = None
        self._conns: Dict[socket.socket, _Connection] = {}
        self._draining = False
        self._force = False
        self._metrics = get_registry()

    # -- control --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin (or, called again, force) the graceful drain.

        Safe from a signal handler or another thread: it only sets
        flags; the event loop acts on them at the next tick.
        """
        if self._draining:
            self._force = True
        self._draining = True

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self) -> int:
        """Run until drained (SIGTERM / :meth:`request_shutdown`).

        Returns the process exit code: 0 after a clean drain.
        """
        self._scheduler = self.service.make_scheduler()
        listener = self._open_listener()
        sel = selectors.DefaultSelector()
        sel.register(listener, selectors.EVENT_READ)
        self._install_signal_handlers()
        self.ready.set()
        try:
            while True:
                tick = _JOB_TICK_S if self._scheduler.outstanding else _TICK_S
                for key, events in sel.select(timeout=tick):
                    if key.fileobj is listener:
                        self._accept(sel, listener)
                    elif events & selectors.EVENT_READ:
                        self._read(sel, key.fileobj)  # type: ignore[arg-type]
                    elif events & selectors.EVENT_WRITE:
                        self._write(sel, key.fileobj)  # type: ignore[arg-type]
                self._scheduler.poll()
                if self._force:
                    for conn in list(self._conns.values()):
                        conn.session.cancel_outstanding()
                    self._force = False
                for sock in list(self._conns):
                    conn = self._conns.get(sock)
                    if conn is None:
                        continue
                    self._pump_session(conn)
                    self._write(sel, sock)
                    if conn.closing and not conn.wbuf \
                            and sock in self._conns:
                        self._close(sel, sock)
                        continue
                    if sock in self._conns:
                        self._update_mask(sel, sock)
                if self._draining:
                    if listener.fileno() != -1:
                        sel.unregister(listener)
                        listener.close()
                    if self._drained():
                        break
        finally:
            self.ready.clear()
            for sock in list(self._conns):
                self._close(sel, sock)
            if listener.fileno() != -1:
                try:
                    sel.unregister(listener)
                except (KeyError, ValueError):
                    pass
                listener.close()
            sel.close()
            self._scheduler.shutdown()
            self._remove_socket_file()
        return 0

    def _drained(self) -> bool:
        if any(c.session.outstanding for c in self._conns.values()):
            return False
        return not any(c.wbuf for c in self._conns.values())

    def _open_listener(self) -> socket.socket:
        if self.socket_path is not None:
            self._remove_socket_file()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
            self.address = self.socket_path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port or 0))
            self.address = listener.getsockname()
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        return listener

    def _remove_socket_file(self) -> None:
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _install_signal_handlers(self) -> None:
        # Signal handlers only exist in the main thread; tests drive the
        # server from a worker thread via request_shutdown() instead.
        if threading.current_thread() is not threading.main_thread():
            return

        def _on_sigterm(signum: int, frame: Any) -> None:
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGINT, _on_sigterm)

    # -- connection handling --------------------------------------------

    def _accept(self, sel: selectors.BaseSelector,
                listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, OSError):
                return
            if self._draining:
                sock.close()
                continue
            sock.setblocking(False)
            assert self._scheduler is not None
            conn = _Connection(
                sock, self.service.session(scheduler=self._scheduler))
            self._conns[sock] = conn
            sel.register(sock, selectors.EVENT_READ)
            self._metrics.counter("server_connections_total").inc()
            self._metrics.gauge("server_connections").set(len(self._conns))

    def _close(self, sel: selectors.BaseSelector,
               sock: socket.socket) -> None:
        conn = self._conns.pop(sock, None)
        try:
            sel.unregister(sock)
        except (KeyError, ValueError):
            pass
        sock.close()
        if conn is not None and conn.session.outstanding:
            # The peer is gone; free its scheduler slots so other
            # clients' jobs start sooner (first verdict still wins for
            # jobs that already finished -- they land in the cache).
            conn.session.cancel_outstanding()
        self._metrics.gauge("server_connections").set(len(self._conns))

    def _read(self, sel: selectors.BaseSelector,
              sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None:
            return
        try:
            data = sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, sock)
            return
        if not data:
            self._close(sel, sock)
            return
        conn.rbuf += data
        if len(conn.rbuf) > _MAX_LINE:
            self._send(conn, {"status": "failed",
                              "error": "request line too long"})
            conn.closing = True
            return
        while b"\n" in conn.rbuf:
            line, conn.rbuf = conn.rbuf.split(b"\n", 1)
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                self._handle_line(conn, text)
            if conn.closing:
                break

    def _write(self, sel: selectors.BaseSelector,
               sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None or not conn.wbuf:
            return
        try:
            sent = sock.send(conn.wbuf)
            conn.wbuf = conn.wbuf[sent:]
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, sock)

    def _update_mask(self, sel: selectors.BaseSelector,
                     sock: socket.socket) -> None:
        conn = self._conns.get(sock)
        if conn is None:
            return
        mask = selectors.EVENT_READ
        if conn.wbuf:
            mask |= selectors.EVENT_WRITE
        try:
            sel.modify(sock, mask)
        except (KeyError, ValueError):
            pass

    # -- protocol -------------------------------------------------------

    def _handle_line(self, conn: _Connection, text: str) -> None:
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            self._send(conn, {"status": "failed",
                              "error": "bad request: %s" % exc})
            return
        cmd = obj.get("cmd")
        if cmd == "stats":
            self._send(conn, self.service.stats(conn.served))
            return
        if cmd == "metrics":
            self._send(conn, {"status": "ok", "format": "prometheus",
                              "text": get_registry().render_prometheus()})
            return
        if cmd == "shutdown":
            # Connection-scoped: cancel this client's outstanding work
            # (each request still gets its cancelled response, in
            # order), ack, flush, close.  The *server* is stopped by
            # SIGTERM, not by a client command.
            conn.session.cancel_outstanding()
            self._pump_session(conn)
            self._send(conn, {"status": "ok", "served": conn.served})
            conn.closing = True
            return
        req_id = obj.get("id")
        if self._draining:
            self._send(conn, _with_id({"status": "cancelled",
                                       "error": "server draining"}, req_id))
            return
        assert self._scheduler is not None
        if self._scheduler.outstanding >= self.backlog:
            self._reject_overloaded(conn, req_id)
            return
        try:
            req = ServiceRequest(
                blif=obj["blif"],
                options=BDSOptions.from_dict(obj.get("options") or {}),
                name=str(req_id if req_id is not None
                         else conn.served + conn.session.outstanding),
                timeout=obj.get("timeout", self.service.default_timeout),
                trace=bool(obj.get("trace", False)))
        except (KeyError, TypeError, ValueError) as exc:
            self._send(conn, _with_id({"status": "failed",
                                       "error": "bad request: %s" % exc},
                                      req_id))
            return
        admitted = time.monotonic()
        try:
            slot = conn.session.submit(req)
        except SchedulerFull:
            self._reject_overloaded(conn, req_id)
            return
        conn.t0[slot] = admitted
        self._pump_session(conn)

    def _reject_overloaded(self, conn: _Connection,
                           req_id: Any) -> None:
        self._metrics.counter("server_backpressure_total").inc()
        self._send(conn, _with_id({"status": "overloaded",
                                   "error": "overloaded",
                                   "retry_after": self.retry_after},
                                  req_id))

    def _pump_session(self, conn: _Connection) -> None:
        """Move completed session responses into the write buffer."""
        for resp in conn.session.ready():
            slot = conn.emitted
            conn.emitted += 1
            t0 = conn.t0.pop(slot, None)
            if t0 is not None:
                self._metrics.histogram("server_request_seconds").observe(
                    time.monotonic() - t0)
            self._send(conn, dict(resp.to_json_obj(), id=resp.name))
            conn.served += 1

    def _send(self, conn: _Connection, obj: Dict[str, Any]) -> None:
        conn.wbuf += (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _with_id(obj: Dict[str, Any], req_id: Any) -> Dict[str, Any]:
    if req_id is not None:
        obj = dict(obj, id=req_id)
    return obj
