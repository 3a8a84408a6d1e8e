"""Batched optimization service (see ``docs/SERVICE.md``).

Production-facing layer over the BDS flow:

* :mod:`repro.service.cache` -- content-addressed on-disk artifact store
  keyed by ``sha256(canonical BLIF)`` x ``BDSOptions.cache_key()``; an
  already-verified optimization result is a proof object worth keeping.
  Index mutation is serialized across processes with an ``fcntl``
  advisory lock, so many ``repro batch`` runs can share one cache dir.
* :mod:`repro.service.scheduler` -- async job scheduler over reused
  worker processes: bounded queue, per-job wall-clock timeouts,
  cancellation, worker-crash recovery, deterministic result ordering,
  completion callbacks, one-verdict-per-job accounting.
* :mod:`repro.service.api` -- :class:`OptimizationService` routing every
  request through cache-lookup -> schedule -> cache-store (``repro
  batch``, ``repro optimize --cache-dir``); :class:`ServiceSession`
  pipelines one request stream (ordered responses) over a shared
  scheduler.
* :mod:`repro.service.server` -- ``repro serve``: one JSON-lines
  protocol for every stream, over two transports -- stdin/stdout
  (:func:`repro.service.server.serve_stdio`) and the concurrent socket
  server :class:`SocketServer` (``--socket/--port``: many clients, one
  shared scheduler, explicit ``overloaded`` backpressure, SIGTERM
  drain).
* :mod:`repro.service.client` -- :class:`ServiceClient` speaking the
  socket protocol with jittered-backoff retry (``repro client``).
"""

from repro.service.api import (OptimizationService, ServiceRequest,
                               ServiceResponse, ServiceSession)
from repro.service.cache import Artifact, ArtifactCache
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.scheduler import (JobResult, OptimizationScheduler,
                                     SchedulerFull)
from repro.service.server import SocketServer

__all__ = [
    "Artifact",
    "ArtifactCache",
    "JobResult",
    "OptimizationScheduler",
    "OptimizationService",
    "SchedulerFull",
    "ServiceClient",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceSession",
    "ServiceUnavailable",
    "SocketServer",
]
