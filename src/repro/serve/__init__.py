"""Persistent solve service: ``parma serve`` / ``parma submit``.

The batch CLI pays full process startup — importing numpy, rederiving
the Jacobian structure, refactoring the Laplacian pseudo-inverse — on
*every* invocation.  ``repro.serve`` turns the reproduction into a
long-lived local service instead: a :class:`SolveService` listens on a
unix-domain socket, admits requests through a priority-aware bounded
queue, and executes them one per dispatch, in priority order, on a
crash-isolated pool of forked executor workers whose engine caches
stay warm across requests.  Served
requests never form the §IV-A equations: that stage runs only when
equations are persisted.

The pieces, each its own module:

* :mod:`repro.serve.protocol` — the length-prefixed JSON wire format,
  request/response schema (priority classes, client ids, idempotency
  ids), status → exit-status mapping (including the deadline status 94
  shared with the batch CLI and the retriable ``worker-lost``/quota
  rejections);
* :mod:`repro.serve.queue` — the bounded admission queue: priority
  classes with an anti-starvation age bound, load shedding,
  per-client token-bucket quotas, drain-aware retriable rejections;
* :mod:`repro.serve.batcher` — the dispatchers' one-ticket take;
* :mod:`repro.serve.runner` — the per-request execution pipeline both
  hosts share (which is what keeps their results bit-identical);
* :mod:`repro.serve.executor` — the forked executor pool: heartbeat
  supervision, stall/deadline kills, respawn and request salvage;
* :mod:`repro.serve.server` — :class:`SolveService` itself: socket
  accept loop, dispatchers, idempotency cache, per-request run
  manifests via :mod:`repro.observe`, graceful drain on SIGTERM;
* :mod:`repro.serve.client` — :class:`SolveClient`, the library/CLI
  client (one request per connection, unix-socket or TCP, opt-in
  bounded retries with seeded-jitter backoff);
* :mod:`repro.serve.fleet` — horizontal scale-out:
  :class:`SolveFleet`, a TCP/unix front listener dispatching to a
  consistent-hash-sharded fleet of :class:`SolveService` worker
  processes with heartbeat health and rerouting; admission (quotas,
  shedding) happens once, in each shard's queue (``parma fleet``,
  ``docs/OPERATIONS.md``).

See ``docs/SERVING.md`` for the wire protocol and operational
semantics, and ``docs/ARCHITECTURE.md`` for where serving sits in the
stack.
"""

from repro.serve.batcher import Batcher
from repro.serve.client import ServeConnectionError, SolveClient
from repro.serve.executor import ExecutorPool
from repro.serve.fleet import FleetConfig, ShardMap, SolveFleet
from repro.serve.protocol import (
    PRIORITY_BATCH,
    PRIORITY_CLASSES,
    PRIORITY_INTERACTIVE,
    RETRIABLE_EXIT_CODE,
    RETRIABLE_STATUSES,
    STATUS_DEADLINE,
    STATUS_DRAINING,
    STATUS_FAILED,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_QUEUE_FULL,
    STATUS_QUOTA,
    STATUS_WORKER_LOST,
    ProtocolError,
    Request,
    Response,
    exit_status_for,
)
from repro.serve.queue import (
    AdmissionQueue,
    QueueDraining,
    QueueFull,
    QuotaExceeded,
    Ticket,
    TokenBucket,
)
from repro.serve.runner import RequestRunner
from repro.serve.server import ServiceConfig, SolveService

__all__ = [
    "AdmissionQueue",
    "Batcher",
    "ExecutorPool",
    "FleetConfig",
    "PRIORITY_BATCH",
    "PRIORITY_CLASSES",
    "PRIORITY_INTERACTIVE",
    "ProtocolError",
    "QueueDraining",
    "QueueFull",
    "QuotaExceeded",
    "Request",
    "RequestRunner",
    "Response",
    "RETRIABLE_EXIT_CODE",
    "RETRIABLE_STATUSES",
    "STATUS_DEADLINE",
    "STATUS_DRAINING",
    "STATUS_FAILED",
    "STATUS_INVALID",
    "STATUS_OK",
    "STATUS_QUEUE_FULL",
    "STATUS_QUOTA",
    "STATUS_WORKER_LOST",
    "ServeConnectionError",
    "ServiceConfig",
    "ShardMap",
    "SolveClient",
    "SolveFleet",
    "SolveService",
    "Ticket",
    "TokenBucket",
    "exit_status_for",
]
