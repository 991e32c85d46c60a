""":class:`ExecutorPool` — forked, supervised solve executor workers.

Crash isolation for the solve service: instead of executing requests on
threads inside the acceptor process (where one native fault — a BLAS
segfault, an OOM kill — takes down every queued request), the service
forks a small pool of executor children.  Each child owns a private
:class:`repro.serve.runner.RequestRunner` (and therefore its own warm
engine pool and per-process caches) and speaks a framed channel over an
inherited ``socketpair``:

* parent → child: ``{"kind": "solve", "request": Request,
  "queue_seconds": float}``
* child → parent: ``{"kind": "result", "response": Response,
  "metrics": {...}}``.

One request is in flight per child at a time, so a lost child costs
only that request.

The channel reuses the protocol's 4-byte length prefix and size bound
but carries pickled objects rather than JSON: both ends are the same
trusted codebase, pickling skips four JSON passes per request (the
benchmarked difference between the subprocess path clearing and
missing its < 5 % overhead gate), and binary floats round-trip
bit-exactly by construction.  The *client* socket stays JSON.

Supervision reuses the PR-4 machinery: a
:class:`repro.resilience.supervise.HeartbeatBoard` row per slot
(created before the first fork, so every child — including respawns —
shares the mapping), ticked by the child at each request boundary.
The dispatching parent kills a child via
:func:`repro.parallel.proc.kill` when its heartbeat age
exceeds ``stall_timeout`` (or the in-flight request's capped
``Deadline`` plus grace), then respawns the slot and either
*salvages* the ticket onto the fresh child (at most ``max_salvage``
times) or resolves it with the retriable ``worker-lost`` status.
Crashes, clean EOFs and corrupt frames all funnel into the same loss
path, which is what the serve chaos modes of
:mod:`repro.resilience.faults` exercise.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import socket
import struct
import time
from pathlib import Path
from typing import Callable

from repro.observe import Observer
from repro.observe.observer import as_observer
from repro.parallel import blas, proc
from repro.resilience.faults import FaultInjector, FaultPlan, as_injector
from repro.resilience.supervise import Deadline, HeartbeatBoard
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    STATUS_WORKER_LOST,
    ProtocolError,
    Response,
    _recv_exact,
)
from repro.serve.queue import Ticket
from repro.serve.runner import RequestRunner
from repro.utils import logging as rlog

#: Parent-side readability poll between heartbeat checks.
_POLL_SECONDS = 0.1

#: Executor-channel length prefix (same shape as the JSON protocol's).
_LENGTH_FORMAT = ">I"
_LENGTH_BYTES = struct.calcsize(_LENGTH_FORMAT)


def _encode_frame(message: dict) -> bytes:
    """Frame a pickled executor-channel message (parent ↔ child only)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"executor frame of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return struct.pack(_LENGTH_FORMAT, len(payload)) + payload


def _send_frame(sock: socket.socket, message: dict) -> None:
    """Write one framed executor-channel message."""
    sock.sendall(_encode_frame(message))


def _recv_frame(sock: socket.socket) -> dict | None:
    """Read one executor-channel message; None on clean EOF.

    Enforces the same length bound as the JSON protocol, so a corrupt
    prefix (including the injected ``serve_corrupt_frames`` fault) is
    rejected deterministically instead of desynchronizing the stream.
    """
    header = _recv_exact(sock, _LENGTH_BYTES)
    if header is None:
        return None
    (length,) = struct.unpack(_LENGTH_FORMAT, header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"executor frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable executor frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("executor frame must unpickle to a dict")
    return message


class _Child:
    """Parent-side handle for one forked executor worker."""

    __slots__ = ("pid", "sock", "generation")

    def __init__(self, pid: int, sock: socket.socket, generation: int) -> None:
        self.pid = pid
        self.sock = sock
        self.generation = generation


class ExecutorPool:
    """A fixed set of executor slots, each backed by a forked child.

    One dispatcher thread drives one slot, one ticket at a time,
    through :meth:`run_batch`; the pool itself owns spawning,
    supervision, loss handling and salvage.  Metrics land on ``observer``
    (``serve.worker_respawns``, ``serve.requests_salvaged``,
    ``serve.worker_lost`` plus everything the children snapshot back);
    ``on_response`` fires in the parent for every delivered response
    so the service can feed its queue-seconds load estimator.
    """

    def __init__(
        self,
        slots: int,
        results_dir: str | Path,
        *,
        max_deadline: float | None = None,
        stall_timeout: float = 30.0,
        term_grace: float = 1.0,
        max_salvage: int = 1,
        observer: object | None = None,
        faults: FaultInjector | FaultPlan | None = None,
        on_response: Callable[[Ticket, Response], None] | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self.results_dir = Path(results_dir)
        self.max_deadline = max_deadline
        self.stall_timeout = float(stall_timeout)
        self.term_grace = float(term_grace)
        self.max_salvage = int(max_salvage)
        self.observer = as_observer(observer)
        self.faults = as_injector(faults)
        self.on_response = on_response
        # Created before any fork so every child shares the mapping.
        self.board = HeartbeatBoard(self.slots)
        self._children: list[_Child | None] = [None] * self.slots
        self._generations = [0] * self.slots
        self.respawns = 0
        self.salvaged = 0
        self.lost_responses = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fork the initial child for every slot.

        Called before the service spawns its acceptor/handler threads:
        forking from a still-single-threaded process sidesteps the
        classic fork-with-locks hazards; later *respawns* do fork from
        a threaded parent, which CPython's at-fork lock reinit makes
        survivable for the narrow executor code path.  The OpenBLAS
        thread setters are resolved here, before the first fork, so
        each child can cap itself at its share of the CPUs.
        """
        blas.resolve()
        for slot in range(self.slots):
            self._spawn(slot)

    def stop(self) -> None:
        """Retire every child: close its channel, then SIGTERM at once.

        The children are killed together (:func:`repro.parallel.proc.kill`,
        SIGKILL after ``term_grace``), not waited on for a clean EOF
        exit; the work in flight was resolved or lost already.
        """
        children = [child for child in self._children if child is not None]
        for child in children:
            try:
                child.sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        proc.kill(*(child.pid for child in children), term_grace=self.term_grace)
        self._children = [None] * self.slots

    def _spawn(self, slot: int) -> _Child:
        """Fork a fresh executor child into ``slot``."""
        generation = self._generations[slot]
        self._generations[slot] += 1
        self.board.assign(slot, 0)  # reset the heartbeat clock pre-fork
        parent_sock, child_sock = socket.socketpair()
        pid = proc.spawn(
            _child_main,
            child_sock,
            slot,
            generation,
            self.board,
            self.results_dir,
            self.max_deadline,
            self.faults,
            keep_fds={child_sock.fileno()},
            blas_slots=self.slots,
        )
        child_sock.close()
        parent_sock.settimeout(self.stall_timeout)
        child = _Child(pid, parent_sock, generation)
        self._children[slot] = child
        if generation > 0:
            self.respawns += 1
            self.observer.count("serve.worker_respawns")
        rlog.info(
            "serve.executor_spawned", slot=slot, pid=pid, generation=generation
        )
        return child

    def _lose(self, slot: int, reason: str) -> None:
        """Kill + forget the slot's child after any loss signal."""
        child = self._children[slot]
        if child is None:
            return
        self.observer.count("serve.worker_lost")
        try:
            child.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        (code,) = proc.kill(child.pid, term_grace=self.term_grace)
        self._children[slot] = None
        self.observer.event(
            "serve.worker_lost", slot=slot, reason=reason, exit_code=code
        )
        rlog.info(
            "serve.worker_lost",
            slot=slot,
            pid=child.pid,
            reason=reason,
            exit_code=code,
        )

    # -- dispatch ------------------------------------------------------------

    def run_batch(self, slot: int, ticket: Ticket) -> None:
        """Execute one ticket on ``slot``, salvaging across worker loss.

        The ticket ends resolved: with its solve response, or — after
        ``max_salvage`` re-dispatches onto fresh children — with the
        retriable ``worker-lost`` status.
        """
        while not self._attempt(slot, ticket):
            ticket.salvage_count += 1
            if ticket.salvage_count > self.max_salvage:
                self.lost_responses += 1
                self.observer.count("serve.responses.worker_lost")
                ticket.try_resolve(
                    Response(
                        id=ticket.request.id or "",
                        status=STATUS_WORKER_LOST,
                        error=(
                            "executor worker died while running this "
                            "request; retry with the same request id"
                        ),
                        queue_seconds=ticket.queue_seconds(),
                    )
                )
                return
            self.salvaged += 1
            self.observer.count("serve.requests_salvaged")

    def _attempt(self, slot: int, ticket: Ticket) -> bool:
        """One dispatch of ``ticket`` to the slot's (live) child.

        True when the child answered with its result; False after any
        loss (the child is already killed and the slot left empty for
        the next attempt to respawn).
        """
        child = self._children[slot]
        if child is None:
            child = self._spawn(slot)
        queue_seconds = ticket.queue_seconds()
        self.observer.observe_hist("serve.queue_wait_seconds", queue_seconds)
        try:
            _send_frame(
                child.sock,
                {
                    "kind": "solve",
                    "request": ticket.request,
                    "queue_seconds": queue_seconds,
                },
            )
        except OSError:
            self._lose(slot, reason="send-failed")
            return False
        limit = self._stall_limit(ticket)
        while True:
            try:
                ready, _, _ = select.select([child.sock], [], [], _POLL_SECONDS)
            except OSError:  # pragma: no cover - socket died under select
                ready = []
            if not ready:
                if self.board.age(slot) > limit:
                    self._lose(slot, reason="stall")
                    return False
                continue
            try:
                message = _recv_frame(child.sock)
            except (ProtocolError, OSError, socket.timeout):
                self._lose(slot, reason="protocol")
                return False
            if message is None:
                self._lose(slot, reason="eof")
                return False
            kind = message.get("kind")
            if kind != "result":  # pragma: no cover - unknown frame kind
                self._lose(slot, reason=f"unexpected-{kind}")
                return False
            response = message.get("response")
            if not isinstance(response, Response):
                self._lose(slot, reason="bad-response")
                return False
            metrics = message.get("metrics")
            if metrics and self.observer.metrics is not None:
                self.observer.metrics.merge(metrics)
            ticket.try_resolve(response)
            if self.on_response is not None:
                self.on_response(ticket, response)
            return True

    def _stall_limit(self, ticket: Ticket) -> float:
        """Heartbeat-age bound for the request in flight.

        The child ticks at request boundaries, so "age" is "seconds
        inside the current request".  A deadline-bearing request gets
        its capped budget plus the kill grace (the child's own engine
        normally answers ``deadline-exceeded`` well before this); the
        stall timeout is the ceiling either way.
        """
        deadline = Deadline.capped(ticket.request.deadline, self.max_deadline)
        if deadline is None:
            return self.stall_timeout
        return min(self.stall_timeout, deadline.seconds + self.term_grace + 1.0)


# -- child side ---------------------------------------------------------------


def _child_main(
    sock: socket.socket,
    slot: int,
    generation: int,
    board: HeartbeatBoard,
    results_dir: Path,
    max_deadline: float | None,
    faults: FaultInjector | None,
) -> None:  # pragma: no cover - runs in the forked child
    """Request loop of one executor child; exits via ``os._exit``.

    The child is single-threaded: a private runner (warm engine pool),
    the inherited heartbeat row ticked at request boundaries, and a
    metrics registry snapshotted back with every result so the parent's
    ``stats`` stay a running total across the whole pool.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    runner = RequestRunner(
        results_dir,
        max_deadline=max_deadline,
        pool_engines=True,
        observer=Observer(),
    )
    ordinal = 0  # requests served since this child forked
    while True:
        try:
            message = _recv_frame(sock)
        except (ProtocolError, OSError):
            os._exit(1)
        if message is None:  # parent closed the pipe: clean retirement
            os._exit(0)
        if message.get("kind") != "solve":
            continue
        board.tick(slot)
        if faults is not None:
            faults.on_serve_request(ordinal, generation)
        # Warmth is a property of *this child's* runner.
        response = runner.run(
            message["request"],
            queue_seconds=float(message.get("queue_seconds", 0.0)),
        )
        snapshot = (
            runner.observer.metrics.snapshot()
            if runner.observer.metrics is not None
            else {}
        )
        if runner.observer.metrics is not None:
            runner.observer.metrics.clear()
        payload = {"kind": "result", "response": response, "metrics": snapshot}
        fate = (
            faults.serve_frame_fate(ordinal, generation)
            if faults is not None
            else "ok"
        )
        ordinal += 1
        try:
            if fate == "drop":
                sock.close()
                os._exit(75)
            frame = _encode_frame(payload)
            if fate == "corrupt":
                # An impossible length prefix: the parent's framing
                # layer rejects it deterministically.
                frame = (
                    struct.pack(_LENGTH_FORMAT, MAX_MESSAGE_BYTES + 1)
                    + frame[_LENGTH_BYTES:]
                )
            sock.sendall(frame)
        except OSError:
            os._exit(1)
        board.tick(slot)
