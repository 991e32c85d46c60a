""":class:`SolveService` — the persistent, crash-isolated solve server.

One acceptor process, three kinds of threads plus (by default) a pool
of forked executor workers:

* the **acceptors**, one per listening socket (the unix socket, plus
  TCP when configured), spawn a short-lived handler per connection;
  they run in a :class:`Listener`, the front door the fleet front
  shares, and keep answering until :meth:`SolveService.stop`;
* **handlers** read one request, admit it to the
  :class:`repro.serve.queue.AdmissionQueue` (or answer a retriable
  rejection), block on the ticket, and write the response;
* **dispatchers** take one ticket at a time, in priority order,
  through the :class:`repro.serve.batcher.Batcher` and execute it — on
  the forked children of :class:`repro.serve.executor.ExecutorPool`
  (``executor="subprocess"``, the default: a native crash, OOM kill or
  hang takes out one child, not the service), or in-process through a
  shared :class:`repro.serve.runner.RequestRunner`
  (``executor="thread"``, the PR-5 behaviour kept for platforms
  without fork and for the overhead benchmark).  Both paths run the
  same runner code, so results are bit-identical.

Admission is priority-aware (see :mod:`repro.serve.queue`): the queue
sheds the newest lowest-priority ticket to admit more urgent work
under saturation, meters per-client token-bucket quotas, and bounds
how long any ticket can be bypassed.  Requests carry an idempotency
``id``: a retry of an in-flight request joins its ticket, and a retry
of a completed one returns the cached response instead of re-solving.

Graceful drain (SIGTERM, or an admin ``drain`` message): admission
closes, queued-but-unstarted tickets are answered with the retriable
``rejected-draining`` status, in-flight requests run to completion and
their responses are delivered, then the dispatchers exit, executor
children are retired and the socket is unlinked.  Nothing already
being computed is discarded.

Every request that executes leaves one evidence record, its run
manifest plus spans, appended and fsynced to the executing process's
``results_dir/evidence-<token>.jsonl`` before its response is sent
(:mod:`repro.observe.evidence`; ``Response.manifest_path`` is the
record's ``<log>#<offset>`` locator); service-level health lands in the
``serve.*`` spans/counters of the service observer (see
``docs/SERVING.md`` for the metric names and
``docs/OBSERVABILITY.md`` for the manifest schema).
"""

from __future__ import annotations

import dataclasses
import errno
import os
import socket
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.observe.observer import as_observer
from repro.parallel.pymp import fork_available
from repro.serve.batcher import Batcher
from repro.serve.executor import ExecutorPool
from repro.serve.protocol import (
    PRIORITY_CLASSES,
    STATUS_DRAINING,
    STATUS_INVALID,
    STATUS_QUEUE_FULL,
    STATUS_QUOTA,
    ProtocolError,
    Request,
    Response,
    parse_address,
    recv_message,
    send_message,
)
from repro.serve.queue import (
    AdmissionQueue,
    QueueDraining,
    QueueFull,
    QuotaExceeded,
    Ticket,
)
from repro.serve.runner import RequestRunner
from repro.utils import logging as rlog

#: How long blocked socket/queue polls sleep between liveness checks.
_POLL_SECONDS = 0.1

#: Reads and writes on one client connection give up after this long.
_CONNECTION_TIMEOUT = 60.0

#: Completed non-retriable responses kept (LRU) for idempotent replay.
_IDEMPOTENCY_CACHE = 128

#: Status → rejection counter name (see ``serve.*`` metric family).
_REJECT_COUNTERS = {
    STATUS_QUEUE_FULL: "serve.rejected.queue_full",
    STATUS_DRAINING: "serve.rejected.draining",
    STATUS_QUOTA: "serve.rejected.quota",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`SolveService` needs to run.

    ``serve_workers`` is the number of executor slots.  ``executor``
    picks the execution host: ``"subprocess"`` (default; falls back to
    ``"thread"`` where fork is unavailable) isolates solves in forked
    children supervised by ``stall_timeout``/``term_grace`` and
    salvages a dying worker's request up to ``max_salvage`` times; ``"thread"`` runs solves in-process.  ``max_deadline``
    caps any per-request budget; ``None`` accepts the request's own
    value unchanged.  ``quota_rate``/``quota_burst`` meter per-client
    admission and ``max_queue_seconds`` triggers load shedding on
    estimated wait.  ``faults`` (a ``FaultPlan``/``FaultInjector``) arms the
    serve chaos hooks inside executor children.  ``catalog_path``
    auto-ingests every executed request's run manifest into the SQLite
    run catalog (:mod:`repro.observe.catalog`) once it is committed.
    ``tcp`` additionally binds a ``HOST:PORT`` stream listener beside
    the unix socket (same framing; port ``0`` picks an ephemeral port,
    observable as :attr:`SolveService.tcp_address`) — the transport
    the fleet front and remote clients use.
    """

    socket_path: Path
    results_dir: Path
    tcp: str | None = None
    max_queue_depth: int = 64
    serve_workers: int = 1
    max_deadline: float | None = None
    observer: object | None = None
    executor: str = "subprocess"
    stall_timeout: float = 30.0
    term_grace: float = 1.0
    max_salvage: int = 1
    quota_rate: float | None = None
    quota_burst: float = 8.0
    max_queue_seconds: float | None = None
    faults: object | None = None
    catalog_path: Path | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "socket_path", Path(self.socket_path))
        object.__setattr__(self, "results_dir", Path(self.results_dir))
        if self.tcp is not None:
            kind, _ = parse_address(self.tcp)
            if kind != "tcp":
                raise ValueError(
                    f"tcp must be a HOST:PORT spec, got {self.tcp!r}"
                )
        if self.serve_workers < 1:
            raise ValueError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if self.executor not in ("thread", "subprocess"):
            raise ValueError(
                f"executor must be 'thread' or 'subprocess', "
                f"got {self.executor!r}"
            )


class ListenError(OSError):
    """An address could not be bound; ``strerror`` names it and why."""


class Listener:
    """The front door of a :class:`SolveService` and of the fleet front.

    Construction binds each address (a ``Path`` is a unix socket, any
    other spec goes through :func:`repro.serve.protocol.parse_address`)
    before the host forks anything; a failed bind closes what was bound
    and raises :class:`ListenError`.  A unix path a live listener still
    answers on is refused with ``EADDRINUSE``; a stale socket file is
    replaced.

    :meth:`start` runs one acceptor thread per socket until
    :meth:`stop`; each connection carries one frame and gets one reply.
    The listener answers a malformed frame, an unknown ``kind``,
    ``drain`` and the base fields of ``ping``/``stats`` itself.  The
    host provides ``draining``, ``request_drain()``,
    ``_handle_solve(message)``, ``_stats()`` and ``_ping()``.
    """

    def __init__(self, host: object, addresses: list) -> None:
        self.host = host
        self.started_at = time.monotonic()
        #: ``(host, port)`` of the first TCP socket (port 0 resolved).
        self.tcp_address: tuple[str, int] | None = None
        self._socks: list[socket.socket] = []
        self._paths: list[Path] = []
        self._acceptors: list[threading.Thread] = []
        self._handlers: set[threading.Thread] = set()
        self._handlers_lock = threading.Lock()
        self._stopped = threading.Event()
        try:
            for spec in addresses:
                try:
                    self._bind(spec)
                except OSError as exc:
                    raise ListenError(
                        exc.errno,
                        f"cannot listen on {spec}: {exc.strerror or exc}",
                    ) from exc
        except BaseException:
            self.stop()
            raise

    def _bind(self, spec: object) -> None:
        kind, target = (
            ("unix", str(spec)) if isinstance(spec, Path) else parse_address(spec)
        )
        family = socket.AF_INET if kind == "tcp" else socket.AF_UNIX
        if kind == "unix":
            target = Path(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            _claim_unix_path(target)
        sock = socket.socket(family, socket.SOCK_STREAM)
        self._socks.append(sock)
        if kind == "tcp":
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(target)
            self.tcp_address = self.tcp_address or sock.getsockname()[:2]
        else:
            sock.bind(str(target))
            self._paths.append(target)
        # A fixed backlog, not one sized from the queue depth: overload
        # must be rejected by the admission queue with its retriable
        # ``rejected-queue-full`` status, not by a full kernel backlog.
        sock.listen(128)
        sock.settimeout(_POLL_SECONDS)

    def start(self) -> None:
        """Start one acceptor thread per bound socket."""
        self.started_at = time.monotonic()
        for sock in self._socks:
            acceptor = threading.Thread(
                target=self._accept_loop, args=(sock,), daemon=True
            )
            acceptor.start()
            self._acceptors.append(acceptor)

    def stop(self) -> None:
        """Stop accepting, join the handlers, close and unlink (idempotent)."""
        self._stopped.set()
        for acceptor in self._acceptors:
            acceptor.join(timeout=5.0)
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        for sock in self._socks:
            sock.close()
        for path in self._paths:
            path.unlink(missing_ok=True)
        self._acceptors, self._socks, self._paths = [], [], []
        self.tcp_address = None

    def _accept_loop(self, sock: socket.socket) -> None:
        """Accept connections until stopped; one handler thread each."""
        while not self._stopped.is_set():
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - socket closed under us
                break
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            with self._handlers_lock:
                self._handlers.add(handler)
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        """Serve one connection: read one message, answer, close."""
        try:
            with conn:
                conn.settimeout(_CONNECTION_TIMEOUT)
                try:
                    message = recv_message(conn)
                except ProtocolError as exc:
                    send_message(
                        conn,
                        Response(
                            id="", status=STATUS_INVALID, error=str(exc)
                        ).to_dict(),
                    )
                    return
                if message is None:
                    return
                send_message(conn, self._dispatch(message))
        except OSError:
            # The client went away mid-reply; its problem, not ours.
            pass
        finally:
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    def _dispatch(self, message: dict) -> dict:
        """Route one decoded message; returns the reply."""
        kind = message.get("kind", "solve")
        if kind == "solve":
            return self.host._handle_solve(message)
        if kind == "drain":
            self.host.request_drain()
            return {"kind": "draining"}
        now = time.monotonic()
        if kind == "ping":
            return {
                "kind": "pong",
                "draining": self.host.draining,
                "uptime_seconds": now - self.started_at,
                "pid": os.getpid(),
                **self.host._ping(),
            }
        if kind == "stats":
            # Server-side monotonic clock + uptime: pollers (e.g.
            # `parma runs watch`) difference successive replies to
            # turn raw counters into rates without trusting their
            # own wall clock against the service's.
            return {
                "kind": "stats",
                "server_monotonic": now,
                "uptime_seconds": now - self.started_at,
                "draining": self.host.draining,
                **self.host._stats(),
            }
        return Response(
            id=str(message.get("id") or ""),
            status=STATUS_INVALID,
            error=f"unknown message kind {kind!r}",
        ).to_dict()


def _claim_unix_path(path: Path) -> None:
    """Unlink a stale socket file at ``path``; refuse a live one."""
    if not os.path.lexists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except (ConnectionRefusedError, FileNotFoundError):
        # A previous instance that died uncleanly left its socket file.
        path.unlink(missing_ok=True)
        return
    except TimeoutError:
        pass  # a live listener whose backlog is full
    finally:
        probe.close()
    raise OSError(errno.EADDRINUSE, "a live listener already answers there")


class SolveService:
    """A running (or startable) solve service.

    It listens on a unix socket, plus a TCP ``HOST:PORT`` when
    ``config.tcp`` is set, through one :class:`Listener`.

    Lifecycle::

        service = SolveService(ServiceConfig(socket_path, results_dir))
        service.start()           # binds, forks executors, then threads
        ...                       # clients connect and submit
        service.request_drain()   # e.g. from a SIGTERM handler
        service.wait()            # until drained and stopped
        service.stop()            # idempotent final cleanup

    ``start()``/``stop()`` are safe to call from the main thread while
    handlers and dispatchers run; ``request_drain()`` is
    async-signal-safe enough for a Python signal handler (it only sets
    events and resolves tickets).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.observer = as_observer(config.observer)
        #: The execution host actually in effect (subprocess falls back
        #: to thread where fork is unavailable).
        self.executor_mode = (
            "subprocess"
            if config.executor == "subprocess" and fork_available()
            else "thread"
        )
        self.queue = AdmissionQueue(
            max_depth=config.max_queue_depth,
            on_depth=self._on_depth,
            max_queue_seconds=config.max_queue_seconds,
            quota_rate=config.quota_rate,
            quota_burst=config.quota_burst,
            on_shed=self._on_shed,
        )
        self.batcher = Batcher(self.queue)
        self.pool: ExecutorPool | None = None
        self._runner: RequestRunner | None = None
        if self.executor_mode == "thread":
            self._runner = RequestRunner(
                config.results_dir,
                max_deadline=config.max_deadline,
                observer=self.observer,
            )
        self._listener: Listener | None = None
        self._workers: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._requests_seen = 0
        self._shed_counts = {name: 0 for name in PRIORITY_CLASSES}
        self._quota_rejections = 0
        self._idempotent_hits = 0
        self._idempotency_lock = threading.Lock()
        self._inflight: dict[str, Ticket] = {}
        self._completed: OrderedDict[str, Response] = OrderedDict()
        self._catalog: object | None = None  # opened lazily on first ingest

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the listeners, fork the executors, then start the threads.

        Binding comes first, so a taken address fails before anything
        forks; :func:`repro.parallel.proc.spawn` closes the listening
        fds in every executor child.  Executor children fork while the
        process is still single-threaded — the acceptor/handler threads
        only exist afterwards, so the initial pool avoids fork-with-locks
        hazards entirely (respawns after a crash do fork from a threaded
        parent; see :meth:`repro.serve.executor.ExecutorPool.start`).
        A failed start closes the listeners, unlinks the socket and
        retires any forked child, so ``start()`` may be called again.
        A service that has been drained or stopped cannot be restarted
        (it would reject every solve as draining); build a new one.
        """
        if self._listener is not None:
            raise RuntimeError("service already started")
        if self._stopping.is_set():
            raise RuntimeError(
                "service was drained or stopped; build a new SolveService"
            )
        self.config.results_dir.mkdir(parents=True, exist_ok=True)
        listener = Listener(self, [self.config.socket_path] + (
            [self.config.tcp] if self.config.tcp is not None else []
        ))
        try:
            if self.executor_mode == "subprocess":
                self.pool = ExecutorPool(
                    self.config.serve_workers,
                    self.config.results_dir,
                    max_deadline=self.config.max_deadline,
                    stall_timeout=self.config.stall_timeout,
                    term_grace=self.config.term_grace,
                    max_salvage=self.config.max_salvage,
                    observer=self.observer,
                    faults=self.config.faults,
                    on_response=self._on_executed,
                )
                self.pool.start()
        except BaseException:
            if self.pool is not None:
                self.pool.stop()
                self.pool = None
            listener.stop()
            raise
        self._listener = listener
        listener.start()
        for rank in range(self.config.serve_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(rank,),
                name=f"serve-dispatch-{rank}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        rlog.info(
            "serve.started",
            socket=str(self.config.socket_path),
            workers=self.config.serve_workers,
            executor=self.executor_mode,
        )

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; returns immediately).

        New submissions are rejected with ``rejected-draining``,
        queued-but-unstarted tickets are resolved with the same
        retriable status, and dispatchers exit once in-flight requests
        finish.  :meth:`wait` observes completion.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.observer.count("serve.drains")
        self.observer.event("serve.draining", queued=self.queue.depth())
        abandoned = self.queue.drain()
        for ticket in abandoned:
            self._reject(ticket.request, STATUS_DRAINING, ticket=ticket)
        rlog.info("serve.draining", rejected_queued=len(abandoned))

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the drain completed; True when it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
            if worker.is_alive():
                return False
        return True

    def stop(self) -> None:
        """Drain, join every thread, retire executors, unlink the socket.

        The listener keeps answering until the drain is done: a
        ``solve`` gets ``rejected-draining``, ``ping`` and ``stats``
        answer as usual.
        """
        self.request_drain()
        self.wait()
        if self.pool is not None:
            self.pool.stop()
        if self._runner is not None:
            self._runner.close()
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        if self._catalog is not None:
            self._catalog.close()
            self._catalog = None
        rlog.info("serve.stopped", requests=self._requests_seen)

    @property
    def draining(self) -> bool:
        """True once a drain has been requested."""
        return self._stopping.is_set()

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """``(host, port)`` bound for ``config.tcp``; None when unset or stopped."""
        return None if self._listener is None else self._listener.tcp_address

    # -- admission callbacks -------------------------------------------------

    def _on_depth(self, depth: int) -> None:
        """Mirror queue depth (total and per class) into gauges."""
        self.observer.gauge("serve.queue_depth", float(depth))
        for name, count in self.queue.depths().items():
            self.observer.gauge(f"serve.queue_depth.{name}", float(count))

    def _on_shed(self, ticket: Ticket) -> None:
        """Resolve a load-shed ticket with the retriable rejection."""
        priority = ticket.request.priority
        self._shed_counts[priority] = self._shed_counts.get(priority, 0) + 1
        self.observer.count(f"serve.shed.{priority}")
        ticket.try_resolve(
            Response(
                id=ticket.request.id or "",
                status=STATUS_QUEUE_FULL,
                error=(
                    "shed to admit higher-priority work under overload; "
                    "retry later"
                ),
                queue_seconds=ticket.queue_seconds(),
            )
        )

    def _on_executed(self, ticket: Ticket, response: Response) -> None:
        """Per-delivery bookkeeping: feed the queue's load estimator."""
        if response.elapsed_seconds > 0.0:
            self.queue.note_service_time(response.elapsed_seconds)
        self._ingest_manifest(response)

    def _ingest_manifest(self, response: Response) -> None:
        """Index the finished request's manifest into the run catalog.

        Active only with ``catalog_path`` configured; the Catalog's own
        lock serializes the dispatcher threads and WAL mode keeps
        concurrent external readers/ingesters safe.  Ingest failures
        are counted, never allowed to fail the request — the evidence
        record on disk remains the source of truth either way.
        """
        if self.config.catalog_path is None or not response.manifest_path:
            return
        try:
            if self._catalog is None:
                from repro.observe.catalog import Catalog

                self._catalog = Catalog(self.config.catalog_path)
            if self._catalog.ingest([response.manifest_path]).ingested:
                self.observer.count("serve.catalog.ingested")
        except Exception as exc:  # noqa: BLE001 - never fail the request
            self.observer.count("serve.catalog.errors")
            rlog.info("serve.catalog_error", error=str(exc))

    # -- replies the listener asks for --------------------------------------

    def _ping(self) -> dict:
        """Extra ``pong`` fields: none for a single service."""
        return {}

    def _stats(self) -> dict:
        """The service's own ``stats`` fields (the listener adds the clock)."""
        snapshot = (
            self.observer.metrics.snapshot()
            if self.observer.metrics is not None
            else {}
        )
        return {
            "queue_depth": self.queue.depth(),
            "queue_depths": self.queue.depths(),
            "estimated_queue_seconds": self.queue.estimated_queue_seconds(),
            "requests": self._requests_seen,
            "executor": self.executor_mode,
            "shed": dict(self._shed_counts),
            "quota_rejections": self._quota_rejections,
            "idempotent_hits": self._idempotent_hits,
            "worker_respawns": (
                self.pool.respawns if self.pool is not None else 0
            ),
            "requests_salvaged": (
                self.pool.salvaged if self.pool is not None else 0
            ),
            "metrics": snapshot,
        }

    def _handle_solve(self, message: dict) -> dict:
        """Admit a solve request, wait for its ticket, return the reply.

        Client-supplied ids are idempotency keys: a duplicate of a
        completed request answers from the cache, a duplicate of an
        in-flight request joins the existing ticket, and only then does
        a fresh ticket enter admission.
        """
        try:
            request = Request.from_dict(message)
            request.z_array()  # shape-check before admission
        except ValueError as exc:
            self.observer.count("serve.rejected.invalid")
            return Response(
                id=str(message.get("id") or ""),
                status=STATUS_INVALID,
                error=str(exc),
            ).to_dict()
        if request.id is None:
            request = dataclasses.replace(request, id=uuid.uuid4().hex[:12])
        self._requests_seen += 1
        self.observer.count("serve.requests")
        assert request.id is not None
        with self._idempotency_lock:
            cached = self._completed.get(request.id)
            if cached is not None:
                self._completed.move_to_end(request.id)
                joined = None
            else:
                joined = self._inflight.get(request.id)
        if cached is not None:
            self._idempotent_hits += 1
            self.observer.count("serve.idempotent_hits")
            return cached.to_dict()
        if joined is not None:
            self._idempotent_hits += 1
            self.observer.count("serve.idempotent_hits")
            response = joined.wait()
            assert response is not None
            return response.to_dict()
        try:
            ticket = self.queue.submit(request)
        except QueueFull as exc:
            return self._reject(request, STATUS_QUEUE_FULL, error=str(exc))
        except QueueDraining as exc:
            return self._reject(request, STATUS_DRAINING, error=str(exc))
        except QuotaExceeded as exc:
            self._quota_rejections += 1
            return self._reject(request, STATUS_QUOTA, error=str(exc))
        with self._idempotency_lock:
            self._inflight[request.id] = ticket
        response = ticket.wait()
        assert response is not None  # tickets are always resolved
        with self._idempotency_lock:
            self._inflight.pop(request.id, None)
            if not response.retriable:
                self._completed[request.id] = response
                while len(self._completed) > _IDEMPOTENCY_CACHE:
                    self._completed.popitem(last=False)
        return response.to_dict()

    def _reject(
        self,
        request: Request,
        status: str,
        error: str = "",
        ticket: Ticket | None = None,
    ) -> dict:
        """Build (and deliver, for queued tickets) a retriable rejection."""
        self.observer.count(
            _REJECT_COUNTERS.get(status, "serve.rejected.draining")
        )
        response = Response(
            id=request.id or "",
            status=status,
            error=error or "service is draining; retry against the next instance",
        )
        if ticket is not None:
            ticket.try_resolve(response)
        return response.to_dict()

    # -- dispatchers ---------------------------------------------------------

    def _worker_loop(self, rank: int) -> None:
        """Take tickets until the queue is drained empty, then exit."""
        while True:
            ticket = self.batcher.next_batch(timeout=_POLL_SECONDS)
            if ticket is None:
                if self._stopping.is_set() and self.queue.depth() == 0:
                    return
                continue
            self._execute(rank, ticket)

    def _execute(self, rank: int, ticket: Ticket) -> None:
        """Run one request on this dispatcher's execution host."""
        if self.pool is not None:
            with self.observer.span(
                "serve.dispatch", n=ticket.request.n, executor="subprocess"
            ):
                self.pool.run_batch(rank, ticket)
            return
        assert self._runner is not None
        with self.observer.span("serve.dispatch", n=ticket.request.n):
            queue_seconds = ticket.queue_seconds()
            self.observer.observe_hist("serve.queue_wait_seconds", queue_seconds)
            response = self._runner.run(
                ticket.request, queue_seconds=queue_seconds
            )
            ticket.try_resolve(response)
            self._on_executed(ticket, response)
