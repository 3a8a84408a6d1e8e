"""The ``repro serve`` front door: one JSON-lines protocol, two transports.

:class:`_Dispatcher` is the protocol, and every stream goes through it:
each connection of :class:`SocketServer` and the one stream of
:func:`serve_stdio`.  It parses request lines (:func:`_parse_request`
is the one reader of request fields), answers the ``stats`` /
``metrics`` / ``shutdown`` commands, refuses with ``bad request`` /
``overloaded`` / ``server draining`` replies, and pumps each stream's
replies out in request order, timing each into the
``server_request_seconds`` histogram.  A stream is one
:class:`repro.service.api.ServiceSession`; all streams of a transport
multiplex onto one shared
:class:`repro.service.scheduler.OptimizationScheduler` and the
service's one artifact cache.

Both transports (``docs/SERVICE.md``):

* **Order** -- replies to requests come in the stream's request order.
  Command and rejection replies are written when their line is read,
  out of band, and every rejection echoes the line's ``id``.
* **Names** -- a request without an ``id`` (or ``"id": null``) is named
  by its position among the stream's admitted requests.
* **Shutdown** -- ``{"cmd": "shutdown"}`` cancels the stream's
  outstanding requests (each still gets its ``cancelled`` reply, in
  order), acks, and closes the stream; on stdin that ends the daemon.
* **Exit** -- every way a transport ends (drain, a second SIGTERM,
  stdin EOF or ``shutdown``) runs the scheduler's ``shutdown``, which
  also ends its idle workers, so the daemon leaves no process behind.

What the transports still do differently:

* **EOF** -- :func:`serve_stdio` answers every outstanding request; a
  socket peer that hangs up has its requests cancelled.
* **Backpressure** -- with ``backlog`` jobs outstanding the socket
  replies ``{"status": "overloaded", "retry_after": s}`` (the paired
  :class:`repro.service.client.ServiceClient` retries these with
  jittered exponential backoff); the stdin loop stops reading instead.
* **Drain** -- socket only.  SIGTERM stops accepting connections, lets
  running jobs finish, flushes every reply buffer, then exits 0;
  requests read meanwhile are answered ``{"status": "cancelled",
  "error": "server draining"}``, and a second SIGTERM cancels what is
  outstanding (each request still gets its reply).

Metrics (``repro_`` prefix via the registry): ``server_connections``
(gauge), ``server_connections_total``, ``server_backpressure_total``
(counters), ``server_request_seconds`` (per-request latency histogram,
admission to response).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import selectors
import signal
import socket
import threading
import time
from typing import IO, Any, Dict, Optional

from repro.bds.flow import BDSOptions
from repro.obs.metrics import get_registry
from repro.service.api import OptimizationService, ServiceRequest, ServiceSession
from repro.service.scheduler import SchedulerFull

#: Event-loop tick: the select timeout bounding scheduler-poll latency.
_TICK_S = 0.05
#: The tick while jobs are outstanding.  A finished job wakes no socket,
#: so this bounds how long its reply waits before it is noticed.
_JOB_TICK_S = 0.005

#: Bytes per recv.
_RECV_SIZE = 65536

#: Default ``retry_after`` hint (seconds) on overloaded replies.
DEFAULT_RETRY_AFTER = 0.25

#: Default backlog: scheduler jobs outstanding at which a socket replies
#: ``overloaded`` and the stdin loop stops reading.
DEFAULT_BACKLOG = 64

#: Hard cap on one line (a request is one line; a 16 MiB line is abuse).
_MAX_LINE = 16 * 1024 * 1024

#: Most arrays and objects one line may open outside its strings.
#: ``import repro`` raises the recursion limit for the BDD kernel, so a
#: line nested some 100,000 deep overflows the C stack inside
#: ``json.loads``: the daemon dies instead of raising RecursionError.
_MAX_CONTAINERS = 1000
#: A JSON string literal (BLIF names may hold brackets, e.g. ``a[3]``).
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


class _Stream:
    """One JSON-lines stream: its session, buffers and latency clocks."""

    def __init__(self, session: ServiceSession) -> None:
        self.session = session
        #: Received bytes not yet split into lines (socket transport).
        self.rbuf = b""
        #: Encoded reply lines the transport has not written yet.
        self.wbuf = b""
        #: slot index -> admission time, for the latency histogram.
        self.t0: Dict[int, float] = {}
        #: ``shutdown`` was read: write ``wbuf``, then close.
        self.closing = False


class _Dispatcher:
    """The JSON-lines protocol over one shared scheduler (module doc)."""

    def __init__(self, service: OptimizationService, backlog: int,
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        self.service = service
        self.scheduler = service.make_scheduler()
        self.backlog = max(1, backlog)
        self.retry_after = retry_after
        #: Refuse new requests (the socket transport's SIGTERM drain).
        self.draining = False
        self._metrics = get_registry()

    def open_stream(self) -> _Stream:
        return _Stream(ServiceSession(self.service, self.scheduler))

    def handle_line(self, stream: _Stream, line: str) -> None:
        """Answer, refuse or admit one line of ``stream``."""
        line = line.strip()
        if not line:
            return
        try:
            if _too_nested(line):
                raise ValueError("more than %d arrays and objects"
                                 % _MAX_CONTAINERS)
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            _send(stream, {"status": "failed",
                           "error": "bad request: %s" % exc})
            return
        cmd = obj.get("cmd")
        if cmd == "stats":
            _send(stream, self.service.stats(stream.session.emitted))
            return
        if cmd == "metrics":
            _send(stream, {"status": "ok", "format": "prometheus",
                           "text": self._metrics.render_prometheus()})
            return
        if cmd == "shutdown":
            # Stream-scoped: a socket server is stopped by SIGTERM, not
            # by a client command.
            stream.session.cancel_outstanding()
            self.pump(stream)
            _send(stream, {"status": "ok",
                           "served": stream.session.emitted})
            stream.closing = True
            return
        req_id = obj.get("id")
        if self.draining:
            _send(stream, _with_id({"status": "cancelled",
                                    "error": "server draining"}, req_id))
            return
        if self.scheduler.outstanding >= self.backlog:
            self._reject_overloaded(stream, req_id)
            return
        name = str(req_id if req_id is not None else stream.session.submitted)
        try:
            req = _parse_request(obj, name, self.service.default_timeout)
        except (TypeError, ValueError) as exc:
            _send(stream, _with_id({"status": "failed",
                                    "error": "bad request: %s" % exc},
                                   req_id))
            return
        admitted = time.monotonic()
        try:
            slot = stream.session.submit(req)
        except SchedulerFull:
            self._reject_overloaded(stream, req_id)
            return
        stream.t0[slot] = admitted
        self.pump(stream)

    def pump(self, stream: _Stream) -> None:
        """Move the stream's finished replies, in request order, into its
        write buffer."""
        first = stream.session.emitted
        for slot, resp in enumerate(stream.session.ready(), first):
            t0 = stream.t0.pop(slot, None)
            if t0 is not None:
                self._metrics.histogram("server_request_seconds").observe(
                    time.monotonic() - t0)
            _send(stream, dict(resp.to_json_obj(), id=resp.name))

    def _reject_overloaded(self, stream: _Stream, req_id: Any) -> None:
        self._metrics.counter("server_backpressure_total").inc()
        _send(stream, _with_id({"status": "overloaded",
                                "error": "overloaded",
                                "retry_after": self.retry_after},
                               req_id))


def _too_nested(line: str) -> bool:
    """Whether ``line`` opens more than :data:`_MAX_CONTAINERS` arrays
    and objects outside its strings (a bound on its nesting depth)."""
    def opened(text: str) -> int:
        return text.count("[") + text.count("{")

    return opened(line) > _MAX_CONTAINERS \
        and opened(_JSON_STRING.sub("", line)) > _MAX_CONTAINERS


def _send(stream: _Stream, obj: Dict[str, Any]) -> None:
    stream.wbuf += (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _parse_request(obj: Dict[str, Any], name: str,
                   default_timeout: Optional[float]) -> ServiceRequest:
    """The one reader of request fields.  Raises ``TypeError`` or
    ``ValueError`` for any value a worker could not take."""
    blif = obj.get("blif")
    if not isinstance(blif, str):
        raise TypeError('"blif" must be a string' if "blif" in obj
                        else 'missing "blif"')
    timeout = obj.get("timeout")
    if timeout is None:
        timeout = default_timeout
    elif isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
            or not 0 < timeout < math.inf:
        raise ValueError('"timeout" must be null or a positive number of '
                         'seconds, not %s' % json.dumps(timeout))
    options = obj.get("options")
    return ServiceRequest(
        blif=blif,
        options=BDSOptions.from_dict({} if options is None else options),
        name=name, timeout=timeout, trace=bool(obj.get("trace", False)))


def _with_id(obj: Dict[str, Any], req_id: Any) -> Dict[str, Any]:
    if req_id is not None:
        obj = dict(obj, id=req_id)
    return obj


def serve_stdio(service: OptimizationService, stdin: IO[str],
                stdout: IO[str], backlog: int = DEFAULT_BACKLOG) -> int:
    """Serve one JSON-lines stream on ``stdin``/``stdout`` until EOF or
    a ``shutdown`` line; returns the number of requests answered.

    The transport loop only: a line is read once fewer than ``backlog``
    jobs are outstanding, and at EOF every outstanding request is
    answered before the function returns.  A reply is written as soon as
    its job finishes, while the loop waits for the next line, if
    ``stdin`` has a descriptor (a pipe, a file, a terminal); a stream
    without one (``io.StringIO``) is read a line at a time, so there a
    reply waits for the next line or EOF.
    """
    dispatcher = _Dispatcher(service, backlog)
    scheduler = dispatcher.scheduler
    stream = dispatcher.open_stream()
    lines = _StdinLines(stdin)

    def write() -> None:
        dispatcher.pump(stream)
        if stream.wbuf:
            stdout.write(stream.wbuf.decode("utf-8"))
            stdout.flush()
            stream.wbuf = b""

    try:
        while not stream.closing:
            scheduler.wait_for_room(dispatcher.backlog)
            write()
            line = lines.read(_JOB_TICK_S if scheduler.outstanding else None)
            if line is None:
                continue        # a tick without a line: write what finished
            if not line:
                scheduler.wait_for_room(1)  # every verdict is in
                break
            dispatcher.handle_line(stream, line)
        write()
    finally:
        lines.close()
        scheduler.shutdown()
    return stream.session.emitted


class _StdinLines:
    """The lines of :func:`serve_stdio`'s input.

    With a descriptor, lines are read from it directly into a byte
    buffer, so a selector on it sees every byte not yet taken: a line
    that a text layer had already buffered would never wake one.  A
    ``SelectSelector`` takes every kind of descriptor, regular files
    too.  Bytes decode as UTF-8 with replacement, as on a socket.
    """

    def __init__(self, stdin: IO[str]) -> None:
        self.stdin = stdin
        self.buf = b""
        self.eof = False
        self.selector: Optional[selectors.BaseSelector] = None
        try:
            self.fd = stdin.fileno()
        except (AttributeError, OSError, ValueError):
            # No descriptor: a reader with only ``readline``, or an
            # io.UnsupportedOperation (an OSError and a ValueError).
            # Blocking reads only.
            if isinstance(stdin, io.TextIOWrapper):
                # UTF-8 whatever the locale, undecodable bytes replaced,
                # as the socket transport decodes: a stray byte fails
                # only its line.
                stdin.reconfigure(encoding="utf-8", errors="replace")
            return
        self.selector = selectors.SelectSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)

    def read(self, timeout: Optional[float]) -> Optional[str]:
        """The next line, ``""`` at EOF, or None once ``timeout`` seconds
        pass without one (None waits for it).  A stream without a
        descriptor always blocks until its next line."""
        if self.selector is None:
            return self.stdin.readline()
        while b"\n" not in self.buf and not self.eof:
            if not self.selector.select(timeout):
                return None
            data = os.read(self.fd, _RECV_SIZE)
            self.buf += data
            self.eof = not data
        line, newline, self.buf = self.buf.partition(b"\n")
        return (line + newline).decode("utf-8", errors="replace")

    def close(self) -> None:
        if self.selector is not None:
            self.selector.close()


class SocketServer:
    """Socket transport over one shared scheduler (see module doc).

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
        self.ready = threading.Event()
        #: Bound address once listening: the socket path, or (host, port).
        self.address: Any = None
        self._dispatcher = _Dispatcher(service, backlog, retry_after)
        self._conns: Dict[socket.socket, _Stream] = {}
        self._force = False
        self._metrics = get_registry()

    # -- control --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin (or, called again, force) the graceful drain.

        Safe from a signal handler or another thread: it only sets
        flags; the event loop acts on them at the next tick.
        """
        if self._dispatcher.draining:
            self._force = True
        self._dispatcher.draining = True

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self) -> int:
        """Run until drained (SIGTERM / :meth:`request_shutdown`).

        Returns the process exit code: 0 after a clean drain.
        """
        scheduler = self._dispatcher.scheduler
        listener = self._open_listener()
        sel = selectors.DefaultSelector()
        sel.register(listener, selectors.EVENT_READ)
        self._install_signal_handlers()
        self.ready.set()
        try:
            while True:
                tick = _JOB_TICK_S if scheduler.outstanding else _TICK_S
                for key, events in sel.select(timeout=tick):
                    if key.fileobj is listener:
                        self._accept(sel, listener)
                    elif events & selectors.EVENT_READ:
                        self._read(sel, key.fileobj)  # type: ignore[arg-type]
                    elif events & selectors.EVENT_WRITE:
                        self._write(sel, key.fileobj)  # type: ignore[arg-type]
                scheduler.poll()
                if self._force:
                    for conn in list(self._conns.values()):
                        conn.session.cancel_outstanding()
                    self._force = False
                for sock in list(self._conns):
                    conn = self._conns.get(sock)
                    if conn is None:
                        continue
                    self._dispatcher.pump(conn)
                    self._write(sel, sock)
                    if conn.closing and not conn.wbuf \
                            and sock in self._conns:
                        self._close(sel, sock)
                        continue
                    if sock in self._conns:
                        self._update_mask(sel, sock)
                if self._dispatcher.draining:
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
            scheduler.shutdown()
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
            if self._dispatcher.draining:
                sock.close()
                continue
            sock.setblocking(False)
            self._conns[sock] = self._dispatcher.open_stream()
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
            _send(conn, {"status": "failed",
                         "error": "request line too long"})
            conn.closing = True
            return
        while b"\n" in conn.rbuf and not conn.closing:
            line, conn.rbuf = conn.rbuf.split(b"\n", 1)
            self._dispatcher.handle_line(
                conn, line.decode("utf-8", errors="replace"))

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
