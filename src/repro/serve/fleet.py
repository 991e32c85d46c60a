"""Horizontal scale-out: a front listener over a fleet of shard services.

:class:`SolveFleet` is the "millions of users" axis of the serving
stack.  One front process listens on a TCP ``HOST:PORT`` and/or a unix
socket (same 4-byte length-prefixed JSON frames as
:mod:`repro.serve.protocol` — a :class:`repro.serve.client.SolveClient`
cannot tell a fleet front from a single service) and dispatches every
solve to one of ``shards`` worker processes, each running a full
:class:`repro.serve.server.SolveService` on a private unix socket.

Design decisions worth knowing:

* **Sharding key is ``n``**, routed through a consistent-hash ring
  (:class:`ShardMap`).  Everything expensive the serve path reuses (Laplacian factor LRU,
  Jacobian structure) is keyed by device size, so pinning a size to a
  shard keeps that shard's caches hot while the other shards stay cold
  for it.  The ring hashes ``n`` together with the fixed
  :data:`ROUTE_LABEL`, which keeps every size on the shard it has
  always been placed on.  Consistent hashing means a resize only
  remaps ``1/shards`` of the keyspace instead of reshuffling every
  cache.
* **Any shard can serve any key.**  Sharding is a cache-affinity
  policy, not a correctness boundary — results are bit-identical
  wherever they run (the integration tests assert this).  That is
  what makes rerouting trivial: when a shard dies mid-request the
  front walks the ring to the next live shard, and only after
  ``max_reroutes`` extra attempts answers ``worker-lost`` (exit 75,
  retriable, same contract as a lost executor worker).
* **Health is the existing HeartbeatBoard.**  Each shard child beats
  one row of a shared-memory :class:`repro.resilience.supervise.
  HeartbeatBoard`; the front's watchdog reaps exited children,
  declares a silent shard dead after ``shard_stall_timeout`` seconds,
  and respawns (new generation) — the same escalation ladder as the
  executor pool, one level up.
* **Admission happens once, in the shards.**  Each shard's
  :class:`repro.serve.queue.AdmissionQueue` — depth bound, priority
  shedding, per-client quotas — is the fleet's only admission point;
  the front validates a request (it needs ``n`` to route) and rejects
  while draining, nothing more.  Quotas are therefore metered per
  shard: a client whose sizes are homed on ``k`` shards can get up to
  ``k`` times the template's ``quota_rate``.

The front holds no solve state: requests stream through, idempotency
ids are assigned here (so a reroute of an outcome-unknown forward is
safe — the shard dedupes), and every reply passes through verbatim.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

from repro.observe import Observer
from repro.observe.metrics import MetricsRegistry
from repro.observe.observer import as_observer
from repro.parallel import blas, proc
from repro.resilience.faults import as_injector
from repro.resilience.supervise import HeartbeatBoard
from repro.serve.protocol import (
    PRIORITY_CLASSES,
    STATUS_DRAINING,
    STATUS_INVALID,
    STATUS_WORKER_LOST,
    ProtocolError,
    Request,
    Response,
    connect_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.serve.server import ServiceConfig, SolveService
from repro.utils import logging as rlog

_POLL_SECONDS = 0.1
_WATCHDOG_SECONDS = 0.2
_BEAT_SECONDS = 0.25

#: Second half of every route key the front hashes.  It is the former
#: default formation mode, kept so ``n/cached`` keys place each size on
#: the shard it always had; e2ebench/workloads.py calls
#: ``fleet.map.shard_for(n, "cached")`` to find that shard.
ROUTE_LABEL = "cached"


# -- shard map ----------------------------------------------------------------


class ShardMap:
    """Consistent-hash ring mapping route keys to shard indices.

    Each shard owns ``replicas`` points on a 64-bit ring (SHA-1 of
    ``"shard-<i>/<r>"`` — deliberately *not* Python's salted ``hash``,
    so the map is identical across processes and runs).  A key routes
    to the first ring point clockwise from its own hash; rerouting and
    resizing walk the same ring, so each key has a stable preference
    order over shards and a resize moves only ``~1/shards`` of keys.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = int(shards)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for shard in range(self.shards):
            for replica in range(self.replicas):
                points.append((self._hash(f"shard-{shard}/{replica}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha1(text.encode("utf-8")).digest()[:8], "big"
        )

    @staticmethod
    def route_key(n: int, label: str) -> str:
        """The routing key: device size and a label (:data:`ROUTE_LABEL`)."""
        return f"{int(n)}/{label}"

    def preference(self, key: str) -> list[int]:
        """All shards in ring order from ``key`` (each exactly once)."""
        start = bisect_right(self._hashes, self._hash(key))
        seen: list[int] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == self.shards:
                    break
        return seen

    def shard_for(
        self, n: int, label: str, alive: set[int] | None = None
    ) -> int | None:
        """The first (live, if ``alive`` given) shard for a key."""
        for shard in self.preference(self.route_key(n, label)):
            if alive is None or shard in alive:
                return shard
        return None


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class FleetConfig:
    """Everything a :class:`SolveFleet` needs to run.

    ``listen`` is the front's address — a unix socket path or a TCP
    ``HOST:PORT`` spec (:func:`repro.serve.protocol.parse_address`;
    port 0 picks an ephemeral port, observable as
    :attr:`SolveFleet.tcp_address`).  ``shards`` worker processes are
    forked, each a full :class:`SolveService` on
    ``results_dir/shard-<i>/shard.sock``.  ``service`` is the
    :class:`ServiceConfig` template every shard runs — queue depth,
    quotas, deadline cap, executor, ``term_grace`` (which the front
    also uses when it kills a shard) — with its ``socket_path`` and
    ``results_dir`` replaced per shard.  ``None`` gives the shard
    defaults: ``thread`` executors (the shard process is already the
    crash-isolation boundary, and the front respawns it), otherwise
    :class:`ServiceConfig`'s own defaults.  The template may not set
    ``tcp``: the front is the fleet's only listener.
    ``max_reroutes`` bounds ring-walk retries after a forward failure,
    and ``shard_stall_timeout`` is how long a shard may go without a
    heartbeat before the watchdog respawns it.  ``processes=False``
    runs the shards as in-process services (no fork — the fallback on
    platforms without it, and handy in tests).
    """

    listen: str | Path
    results_dir: Path
    shards: int = 2
    replicas: int = 64
    max_reroutes: int = 2
    shard_stall_timeout: float = 15.0
    forward_timeout: float = 300.0
    ready_timeout: float = 30.0
    processes: bool = True
    observer: object | None = None
    faults: object | None = None
    service: ServiceConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "results_dir", Path(self.results_dir))
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        parse_address(self.listen)  # raises on malformed tcp:// specs
        if self.service is None:
            object.__setattr__(self, "service", ServiceConfig(
                socket_path=self.shard_socket(0),
                results_dir=self.shard_dir(0),
                executor="thread",
            ))
        elif self.service.tcp is not None:
            raise ValueError(
                f"the shard template may not set tcp ({self.service.tcp!r}): "
                "the front is the fleet's only listener"
            )

    def shard_dir(self, index: int) -> Path:
        """Results/manifest directory for shard ``index``."""
        return self.results_dir / f"shard-{index}"

    def shard_socket(self, index: int) -> Path:
        """Private unix socket shard ``index`` serves on."""
        return self.shard_dir(index) / "shard.sock"

    def shard_service_config(self, index: int) -> ServiceConfig:
        """The template with shard ``index``'s socket and directory."""
        return replace(
            self.service,
            socket_path=self.shard_socket(index),
            results_dir=self.shard_dir(index),
        )


@dataclass
class _Shard:
    """Front-side bookkeeping for one shard slot."""

    index: int
    generation: int = 0
    pid: int | None = None
    service: SolveService | None = None  # in-process mode only
    lost: bool = False


# -- the fleet ----------------------------------------------------------------


class SolveFleet:
    """A front listener dispatching to sharded :class:`SolveService`\\ s.

    Lifecycle mirrors the single service::

        fleet = SolveFleet(FleetConfig("127.0.0.1:7433", results_dir))
        fleet.start()            # forks shards, binds the front
        ...                      # clients connect with SolveClient
        fleet.request_drain()    # SIGTERM handler calls this
        fleet.wait(); fleet.stop()
    """

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.observer = as_observer(config.observer)
        self.faults = as_injector(config.faults)
        self.map = ShardMap(config.shards, config.replicas)
        self.board: HeartbeatBoard | None = None
        self._shards: list[_Shard] = [
            _Shard(index=i) for i in range(config.shards)
        ]
        self._shards_lock = threading.Lock()
        self._listeners: list[socket.socket] = []
        self.tcp_address: tuple[str, int] | None = None
        self._acceptors: list[threading.Thread] = []
        self._watchdog: threading.Thread | None = None
        self._handlers: set[threading.Thread] = set()
        self._handlers_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._started_at = time.monotonic()
        self._front_lock = threading.Lock()
        self._front_requests = 0
        self._routed = [0] * config.shards
        self._reroutes = 0
        self._respawns = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fork the shards, wait for them, then open the front."""
        if self._listeners:
            raise RuntimeError("fleet already started")
        self.config.results_dir.mkdir(parents=True, exist_ok=True)
        # The board must exist before the first fork so every child
        # inherits the same shared-memory mapping.
        self.board = HeartbeatBoard(self.config.shards)
        # Resolved before the first fork so each shard can cap its
        # BLAS pool at its share of the CPUs.
        blas.resolve()
        # Bind before forking: a bind failure (port already in use)
        # must not leak orphaned shard processes.
        self._bind_front()
        try:
            for shard in self._shards:
                self._spawn(shard)
            self._wait_shards_ready()
        except BaseException:
            proc.kill(
                *(s.pid for s in self._shards if s.pid is not None),
                term_grace=0.2,
            )
            for shard in self._shards:
                shard.pid = None
                if shard.service is not None:
                    shard.service.stop()
                    shard.service = None
            for listener in self._listeners:
                listener.close()
            self._listeners = []
            self.tcp_address = None
            raise
        self._started_at = time.monotonic()
        for listener in self._listeners:
            acceptor = threading.Thread(
                target=self._accept_loop,
                args=(listener,),
                name="fleet-acceptor",
                daemon=True,
            )
            acceptor.start()
            self._acceptors.append(acceptor)
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="fleet-watchdog", daemon=True
        )
        self._watchdog.start()
        rlog.info(
            "fleet.started",
            listen=str(self.config.listen),
            shards=self.config.shards,
            processes=self._processes,
        )

    @property
    def _processes(self) -> bool:
        return self.config.processes and hasattr(os, "fork")

    def _bind_front(self) -> None:
        kind, target = parse_address(self.config.listen)
        if kind == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(target)
            self.tcp_address = sock.getsockname()[:2]
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(str(path))
        sock.listen(128)
        sock.settimeout(_POLL_SECONDS)
        self._listeners.append(sock)

    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) one shard; bumps its generation."""
        shard.generation += 1
        shard.lost = False
        self.config.shard_dir(shard.index).mkdir(parents=True, exist_ok=True)
        assert self.board is not None
        self.board.assign(shard.index, 0)  # fresh heartbeat pre-fork
        if self._processes:
            shard.pid = proc.spawn(
                _shard_main,
                shard.index,
                self.board,
                self.config,
                blas_slots=self.config.shards,
            )
            shard.service = None
        else:
            service = SolveService(self.config.shard_service_config(shard.index))
            service.start()
            shard.service = service
            shard.pid = None

    def _wait_shards_ready(self) -> None:
        """Block until every shard accepts connections (or time out)."""
        # Local import: client -> protocol only, no cycle back to us.
        from repro.serve.client import SolveClient

        deadline = time.monotonic() + self.config.ready_timeout
        for shard in self._shards:
            remaining = max(0.1, deadline - time.monotonic())
            client = SolveClient(self.config.shard_socket(shard.index))
            if not client.wait_ready(timeout=remaining):
                raise RuntimeError(
                    f"shard {shard.index} did not become ready within "
                    f"{self.config.ready_timeout:.0f}s"
                )

    def request_drain(self) -> None:
        """Begin a graceful fleet-wide drain (idempotent)."""
        if self._draining.is_set():
            return
        self._draining.set()
        self.observer.count("fleet.drains")
        self.observer.event("fleet.draining", shards=self.config.shards)
        for shard in self._shards:
            try:
                self._forward_message(shard.index, {"kind": "drain"}, timeout=5.0)
            except OSError:
                pass
        rlog.info("fleet.draining")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every shard finished draining; True when done."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self._shards:
            while True:
                if self._processes:
                    if shard.pid is None or proc.poll(shard.pid) is not None:
                        shard.pid = None
                        break
                else:
                    if shard.service is None:
                        break
                    if shard.service.wait(timeout=_POLL_SECONDS):
                        shard.service.stop()
                        shard.service = None
                        break
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                if self._processes:
                    time.sleep(_POLL_SECONDS)
        return True

    def stop(self) -> None:
        """Drain, retire every shard, close the front, join threads."""
        self.request_drain()
        term_grace = self.config.service.term_grace
        self.wait(timeout=max(5.0, term_grace * 4))
        self._stopped.set()
        proc.kill(
            *(s.pid for s in self._shards if s.pid is not None),
            term_grace=term_grace,
        )
        for shard in self._shards:
            shard.pid = None
            if shard.service is not None:
                shard.service.stop()
                shard.service = None
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None
        for acceptor in self._acceptors:
            acceptor.join(timeout=5.0)
        self._acceptors = []
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        for listener in self._listeners:
            listener.close()
        self._listeners = []
        self.tcp_address = None
        kind, target = parse_address(self.config.listen)
        if kind == "unix":
            try:
                Path(target).unlink()
            except FileNotFoundError:
                pass
        rlog.info("fleet.stopped", requests=self._front_requests)

    @property
    def draining(self) -> bool:
        """Whether a graceful drain has started."""
        return self._draining.is_set()

    @property
    def requests(self) -> int:
        """Solve requests seen at the front."""
        return self._front_requests

    @property
    def reroutes(self) -> int:
        """Forward attempts that failed and walked the ring."""
        return self._reroutes

    @property
    def respawns(self) -> int:
        """Shards the watchdog restarted after death or stall."""
        return self._respawns

    # -- shard health --------------------------------------------------------

    def _shard_alive(self, shard: _Shard) -> bool:
        if shard.lost:
            return False
        if self._processes:
            if shard.pid is None:
                return False
            try:
                os.kill(shard.pid, 0)
            except OSError:
                return False
            return True
        return shard.service is not None

    def alive_shards(self) -> set[int]:
        """Indices of shards currently believed healthy."""
        with self._shards_lock:
            return {
                s.index for s in self._shards if self._shard_alive(s)
            }

    def _watchdog_loop(self) -> None:
        while not self._stopped.is_set():
            self._check_shards()
            self._stopped.wait(_WATCHDOG_SECONDS)

    def _check_shards(self) -> None:
        """Reap exited children, respawn dead or stalled shards."""
        if self.draining:
            return
        assert self.board is not None
        with self._shards_lock:
            for shard in self._shards:
                dead = shard.lost
                if shard.pid is not None and proc.poll(shard.pid) is not None:
                    shard.pid = None
                    dead = True
                stalled = (
                    not dead
                    and self._shard_alive(shard)
                    and self.board.age(shard.index)
                    > self.config.shard_stall_timeout
                )
                if not dead and not stalled:
                    continue
                reason = "stalled" if stalled else "exited"
                if shard.pid is not None:
                    proc.kill(
                        shard.pid, term_grace=self.config.service.term_grace
                    )
                    shard.pid = None
                if shard.service is not None:
                    try:
                        shard.service.stop()
                    except Exception:
                        pass
                    shard.service = None
                self._respawns += 1
                self.observer.count("fleet.shard_respawns")
                self.observer.event(
                    "fleet.shard_respawn",
                    shard=shard.index,
                    reason=reason,
                    generation=shard.generation,
                )
                rlog.info(
                    "fleet.shard_respawn", shard=shard.index, reason=reason
                )
                self._spawn(shard)

    # -- front listener ------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - listener closed under us
                break
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            with self._handlers_lock:
                self._handlers.add(handler)
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.settimeout(max(60.0, self.config.forward_timeout))
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
            pass
        finally:
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, message: dict) -> dict:
        kind = message.get("kind", "solve")
        if kind == "ping":
            alive = sorted(self.alive_shards())
            return {
                "kind": "pong",
                "draining": self.draining,
                "uptime_seconds": time.monotonic() - self._started_at,
                "pid": os.getpid(),
                "fleet": {
                    "shards": self.config.shards,
                    "alive": alive,
                    "generations": [s.generation for s in self._shards],
                },
            }
        if kind == "stats":
            return self._stats()
        if kind == "drain":
            self.request_drain()
            return {"kind": "draining"}
        if kind != "solve":
            return Response(
                id=str(message.get("id") or ""),
                status=STATUS_INVALID,
                error=f"unknown message kind {kind!r}",
            ).to_dict()
        return self._handle_solve(message)

    def _stats(self) -> dict:
        """Fleet-wide stats: front counters + per-shard aggregation.

        The reply keeps the single-service schema (``queue_depth``,
        ``shed``, ``metrics``, ...) so pollers like ``parma runs
        watch`` work unchanged against a front, and adds a ``fleet``
        section plus the raw per-shard replies under ``shards``.
        """
        per_shard: list[dict | None] = []
        for shard in self._shards:
            reply: dict | None = None
            if self._shard_alive(shard):
                try:
                    reply = self._forward_message(
                        shard.index, {"kind": "stats"}, timeout=5.0
                    )
                except OSError:
                    reply = None
            per_shard.append(reply)
        merged = MetricsRegistry()
        if self.observer.metrics is not None:
            merged.merge(self.observer.metrics.snapshot())
        queue_depth = 0
        queue_depths = {name: 0 for name in PRIORITY_CLASSES}
        estimated = 0.0
        requests = 0
        shed = {name: 0 for name in PRIORITY_CLASSES}
        quota_rejections = 0
        idempotent_hits = 0
        worker_respawns = 0
        salvaged = 0
        for reply in per_shard:
            if not reply:
                continue
            merged.merge(reply.get("metrics", {}) or {})
            queue_depth += int(reply.get("queue_depth", 0))
            for name, count in (reply.get("queue_depths") or {}).items():
                queue_depths[name] = queue_depths.get(name, 0) + int(count)
            estimated = max(
                estimated, float(reply.get("estimated_queue_seconds", 0.0))
            )
            requests += int(reply.get("requests", 0))
            for name, count in (reply.get("shed") or {}).items():
                shed[name] = shed.get(name, 0) + int(count)
            quota_rejections += int(reply.get("quota_rejections", 0))
            idempotent_hits += int(reply.get("idempotent_hits", 0))
            worker_respawns += int(reply.get("worker_respawns", 0))
            salvaged += int(reply.get("requests_salvaged", 0))
        now = time.monotonic()
        with self._front_lock:
            routed = list(self._routed)
        return {
            "kind": "stats",
            "server_monotonic": now,
            "uptime_seconds": now - self._started_at,
            "queue_depth": queue_depth,
            "queue_depths": queue_depths,
            "estimated_queue_seconds": estimated,
            "draining": self.draining,
            "requests": self._front_requests,
            "executor": "fleet",
            "shed": shed,
            "quota_rejections": quota_rejections,
            "idempotent_hits": idempotent_hits,
            "worker_respawns": worker_respawns,
            "requests_salvaged": salvaged,
            "metrics": merged.snapshot(),
            "fleet": {
                "shards": self.config.shards,
                "alive": sorted(self.alive_shards()),
                "generations": [s.generation for s in self._shards],
                "routed": routed,
                "reroutes": self._reroutes,
                "shard_respawns": self._respawns,
                "shard_requests": requests,
            },
            "shards": per_shard,
        }

    # -- solve path ----------------------------------------------------------

    def _handle_solve(self, message: dict) -> dict:
        try:
            request = Request.from_dict(message)
            request.z_array()  # shape-check before routing
        except ValueError as exc:
            self.observer.count("fleet.rejected.invalid")
            return Response(
                id=str(message.get("id") or ""),
                status=STATUS_INVALID,
                error=str(exc),
            ).to_dict()
        with self._front_lock:
            self._front_requests += 1
            ordinal = self._front_requests
        self.observer.count("fleet.requests")
        if self.draining:
            self.observer.count("fleet.rejected.draining")
            return Response(
                id=request.id or "",
                status=STATUS_DRAINING,
                error="fleet is draining; retry against the next instance",
            ).to_dict()
        # Assign the idempotency id at the front: every forward attempt
        # (including reroutes after an outcome-unknown failure) carries
        # the same key, so the shards dedupe instead of double-solving.
        if not request.id:
            message = dict(message)
            message["id"] = request.id = (
                f"fleet-{os.getpid():x}-{ordinal:08x}"
            )
        key = self.map.route_key(request.n, ROUTE_LABEL)
        self._maybe_inject_fault(ordinal, key)
        preference = self.map.preference(key)
        attempts = 0
        for shard_index in preference:
            if attempts > self.config.max_reroutes:
                break
            with self._shards_lock:
                if not self._shard_alive(self._shards[shard_index]):
                    continue
            attempts += 1
            started = time.perf_counter()
            try:
                reply = self._forward_message(
                    shard_index, message, timeout=self.config.forward_timeout
                )
            except OSError as exc:
                self._note_forward_failure(shard_index, exc)
                continue
            self.observer.observe_hist(
                "fleet.forward_seconds", time.perf_counter() - started
            )
            with self._front_lock:
                self._routed[shard_index] += 1
            self.observer.count(f"fleet.routed.shard{shard_index}")
            return reply
        self.observer.count("fleet.worker_lost")
        return Response(
            id=request.id or "",
            status=STATUS_WORKER_LOST,
            error=(
                "every candidate shard failed while running this request; "
                "retry with the same request id"
            ),
        ).to_dict()

    def _maybe_inject_fault(self, ordinal: int, key: str) -> None:
        """Chaos hook: kill the routed shard before forwarding."""
        if self.faults is None:
            return
        shard_index = self.map.preference(key)[0]
        with self._shards_lock:
            shard = self._shards[shard_index]
            generation = shard.generation
        if not self.faults.fleet_kill_at(ordinal, generation):
            return
        rlog.info(
            "fleet.fault.kill", shard=shard_index, ordinal=ordinal
        )
        if shard.pid is not None:
            try:
                os.kill(shard.pid, signal.SIGKILL)
            except OSError:
                pass
        elif shard.service is not None:
            shard.service.stop()
            with self._shards_lock:
                shard.service = None
                shard.lost = True

    def _note_forward_failure(self, shard_index: int, exc: OSError) -> None:
        with self._front_lock:
            self._reroutes += 1
        self.observer.count("fleet.reroutes")
        self.observer.event(
            "fleet.reroute", shard=shard_index, error=str(exc)
        )
        rlog.info("fleet.reroute", shard=shard_index, error=str(exc))
        if not self._processes:
            with self._shards_lock:
                self._shards[shard_index].lost = True
        self._check_shards()

    # -- forwarding ----------------------------------------------------------

    def _forward_message(
        self, shard_index: int, message: dict, *, timeout: float
    ) -> dict:
        """One framed round-trip to a shard; raises ``OSError`` family."""
        sock = connect_address(
            self.config.shard_socket(shard_index), timeout=timeout
        )
        try:
            send_message(sock, message)
            try:
                reply = recv_message(sock)
            except ProtocolError as exc:
                raise ConnectionError(
                    f"shard {shard_index} reply broke mid-frame: {exc}"
                ) from exc
            if reply is None:
                raise ConnectionError(
                    f"shard {shard_index} closed without replying"
                )
            return reply
        finally:
            sock.close()


# -- shard child --------------------------------------------------------------


def _shard_main(
    index: int, board: HeartbeatBoard, config: FleetConfig
) -> None:  # pragma: no cover - runs in the forked shard child
    """Run one shard service until drained (the front's listeners are
    not inherited: :func:`repro.parallel.proc.spawn` closed them)."""
    # Fresh Observer with a live metrics registry so `stats`
    # aggregation has real counters to merge (the inherited global
    # observer may be a null one).
    service = SolveService(
        replace(config.shard_service_config(index), observer=Observer())
    )

    def _drain(signum: int, frame: object) -> None:
        service.request_drain()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    service.start()
    stop_beat = threading.Event()

    def _beat() -> None:
        while not stop_beat.is_set():
            board.tick(index)
            stop_beat.wait(_BEAT_SECONDS)

    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    while not service.wait(timeout=0.2):
        pass
    stop_beat.set()
    service.stop()
    board.mark_done(index)
