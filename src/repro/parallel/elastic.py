"""Elastic campaign dispatch: work leases, live pool resize, churn sweeps.

The paper's §IV headline is strong-scaling to 1,024 processes, but a
wall-clock-day campaign on shared hardware never keeps a fixed worker
set that long: ranks die (OOM, node loss), hang, straggle, and — on an
elastic allocation — *join and leave* mid-run.  Every parallel path in
this repo so far fixes pool membership at fork time.  This module is
the supervision layer's answer to membership churn:

* :class:`WorkLedger` — lease-based chunk ownership.  Formation work
  is cut into :class:`WorkChunk` slices (:func:`plan_chunks`), each
  carrying its *expected* term count and checksum from the O(1)
  template checksum table
  (:attr:`repro.core.templates.PairTemplate.checksum_table`).  A chunk
  is leased to exactly one worker at a time; a lost or expired lease
  is re-enqueued exactly once per loss (``forfeit`` is idempotent),
  and every completion is verified against the table before it is
  accepted — so the surviving output is bit-identical no matter how
  many times a chunk bounced between workers.
* :class:`ElasticPool` — a forked worker set that can *grow and
  shrink mid-campaign*.  New workers register fresh rows on a growable
  :class:`repro.resilience.supervise.HeartbeatBoard`; removed workers
  drain their current lease at a chunk (checkpoint) boundary before
  exiting; a worker whose lease expires on the heartbeat watchdog is
  killed *first* and re-enqueued *second* (never two writers on one
  chunk file); repeat-offender slots are quarantined after
  ``quarantine_after`` worker losses with an ``elastic.quarantined``
  event.
* :func:`run_elastic_formation` — a churn-tolerant formation campaign
  on top of the two, writing one atomically-committed part file per
  chunk so a quiet run and a churn run produce byte-identical output.
* :func:`sweep_scaling_curves` — the simulated strategy × rank-count
  sweep (real processes up to the host's cores; the
  :mod:`repro.parallel.simcluster` clock beyond, to 1,024).
* :func:`run_scaling_experiment` — the whole ``BENCH_scaling.json``
  experiment (quiet and churn campaigns per size, the sweep, failover
  and heterogeneous points); ``parma scale`` and
  ``benchmarks/bench_scaling.py`` both call it.

Observability: the pool emits ``elastic.*`` events and counters
(``elastic.lease_reassigned``, ``elastic.pool_resized``,
``elastic.quarantined``, ``elastic.workers_respawned``, ...) through
whatever :class:`repro.observe.Observer` is passed in, so churn shows
up in run manifests and the catalog (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import select
import signal
import socket
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.partition import hole_of_pair, make_items
from repro.core.strategies import (
    calibrate_sec_per_term,
    part_writer,
    share_header,
)
from repro.core.templates import (
    expected_share,
    form_worker_share,
    share_matches,
    warm_template_cache,
)
from repro.observe.observer import as_observer
from repro.parallel import proc, pymp
from repro.parallel.heterogeneous import HeterogeneousCluster
from repro.parallel.simcluster import (
    HPC_FDR,
    ClusterModel,
    parallel_efficiency,
    scaling_sweep,
    simulate_with_failures,
    speedup_curve,
)
from repro.parallel.workstealing import (
    Assignment,
    category_schedule,
    contiguous_schedule,
    lpt_schedule,
    simulate_stealing_with_failures,
)
from repro.resilience.faults import FaultPlan, as_injector
from repro.resilience.supervise import Deadline, HeartbeatBoard

__all__ = [
    "ElasticError",
    "LeaseVerificationError",
    "WorkChunk",
    "WorkLedger",
    "WorkerContext",
    "ElasticPool",
    "ElasticReport",
    "StrategyCurve",
    "plan_chunks",
    "run_elastic_formation",
    "part_files_identical",
    "scaling_strategy_schedulers",
    "sweep_scaling_curves",
    "run_scaling_experiment",
]

#: The parent's wait for worker messages between reap/watchdog passes.
_POLL_SECONDS = 0.02


class ElasticError(RuntimeError):
    """The elastic pool cannot make progress (e.g. every slot quarantined)."""


class LeaseVerificationError(ElasticError):
    """A completed chunk disagreed with the template checksum table."""


# -- chunks and the ledger ----------------------------------------------------


@dataclass(frozen=True)
class WorkChunk:
    """One leaseable slice of the formation item list.

    ``expected_terms`` / ``expected_checksum`` come from the O(1)
    template checksum table at planning time, so any worker's result
    can be verified without re-forming anything.
    """

    chunk_id: int
    item_lo: int
    item_hi: int  # exclusive
    expected_terms: int
    expected_checksum: float

    @property
    def num_items(self) -> int:
        return self.item_hi - self.item_lo


def plan_chunks(
    n: int, chunk_items: int = 32, items: Sequence | None = None
) -> tuple[WorkChunk, ...]:
    """Cut the ``4 n^2`` formation items into contiguous lease chunks.

    Expectations come from
    :func:`repro.core.templates.expected_share` — no formation happens
    here.
    """
    if chunk_items < 1:
        raise ValueError(f"chunk_items must be >= 1, got {chunk_items}")
    if items is None:
        items = make_items(n)
    chunks: list[WorkChunk] = []
    for lo in range(0, len(items), chunk_items):
        hi = min(lo + chunk_items, len(items))
        terms, checksum = expected_share(n, items, range(lo, hi))
        chunks.append(
            WorkChunk(
                chunk_id=len(chunks),
                item_lo=lo,
                item_hi=hi,
                expected_terms=terms,
                expected_checksum=checksum,
            )
        )
    return tuple(chunks)


class WorkLedger:
    """Lease-based ownership of work chunks.

    Invariants (the hypothesis suite in
    ``tests/parallel/test_elastic_ledger_property.py`` drives these
    under arbitrary interleavings):

    * a chunk is held by at most one worker at a time;
    * a worker holds at most one lease at a time;
    * :meth:`forfeit` re-enqueues a lost lease exactly once per loss
      (it is idempotent — a watchdog expiry and a crash reap racing on
      the same worker cannot double-enqueue);
    * a chunk completes exactly once — late duplicates are detected by
      owner mismatch and discarded;
    * every accepted completion matched the template checksum table.
    """

    def __init__(self, chunks: Sequence[WorkChunk]) -> None:
        self._chunks: dict[int, WorkChunk] = {c.chunk_id: c for c in chunks}
        if len(self._chunks) != len(chunks):
            raise ValueError("duplicate chunk ids")
        self._pending: deque[int] = deque(c.chunk_id for c in chunks)
        self._state: dict[int, str] = {
            c.chunk_id: "pending" for c in chunks
        }
        self._owner_of_chunk: dict[int, int] = {}
        self._chunk_of_worker: dict[int, int] = {}
        self.requeues: dict[int, int] = {}
        self.completions = 0
        self.stale_results = 0

    # -- queries -------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self._chunks)

    @property
    def completed_count(self) -> int:
        return self.completions

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def leased_count(self) -> int:
        return len(self._owner_of_chunk)

    @property
    def done(self) -> bool:
        return self.completions == len(self._chunks)

    def lease_of(self, worker: int) -> int | None:
        """The chunk id ``worker`` currently holds, if any."""
        return self._chunk_of_worker.get(worker)

    def chunk(self, chunk_id: int) -> WorkChunk:
        return self._chunks[chunk_id]

    # -- transitions ---------------------------------------------------------

    def lease(self, worker: int) -> WorkChunk | None:
        """Grant the next pending chunk to ``worker`` (None = nothing
        pending right now; the pool parks the worker idle)."""
        if worker in self._chunk_of_worker:
            raise ElasticError(
                f"worker {worker} already holds chunk "
                f"{self._chunk_of_worker[worker]}"
            )
        if not self._pending:
            return None
        chunk_id = self._pending.popleft()
        self._state[chunk_id] = "leased"
        self._owner_of_chunk[chunk_id] = worker
        self._chunk_of_worker[worker] = chunk_id
        return self._chunks[chunk_id]

    def complete(
        self, worker: int, chunk_id: int, terms: int, checksum: float
    ) -> bool:
        """Record a finished chunk; returns False for stale duplicates.

        Raises :class:`LeaseVerificationError` when the reported totals
        disagree with the template checksum table — the lease stays
        held so the caller can kill the worker and :meth:`forfeit`.
        """
        if self._owner_of_chunk.get(chunk_id) != worker:
            self.stale_results += 1
            return False
        chunk = self._chunks[chunk_id]
        expected = (chunk.expected_terms, chunk.expected_checksum)
        if not share_matches(expected, terms, checksum):
            raise LeaseVerificationError(
                f"chunk {chunk_id} from worker {worker} failed "
                f"verification: terms {terms} vs {chunk.expected_terms}, "
                f"checksum {checksum!r} vs {chunk.expected_checksum!r}"
            )
        del self._owner_of_chunk[chunk_id]
        del self._chunk_of_worker[worker]
        self._state[chunk_id] = "done"
        self.completions += 1
        return True

    def forfeit(self, worker: int) -> int | None:
        """Return ``worker``'s lease (if any) to the *front* of the
        queue; returns the chunk id, or None when it held nothing.

        Idempotent: a second forfeit of the same loss is a no-op, so a
        lease is re-enqueued exactly once however many failure paths
        observe the same death.
        """
        chunk_id = self._chunk_of_worker.pop(worker, None)
        if chunk_id is None:
            return None
        del self._owner_of_chunk[chunk_id]
        self._state[chunk_id] = "pending"
        self._pending.appendleft(chunk_id)
        self.requeues[chunk_id] = self.requeues.get(chunk_id, 0) + 1
        return chunk_id


# -- the elastic pool ---------------------------------------------------------


@dataclass
class WorkerContext:
    """What a chunk runner sees inside a forked worker."""

    worker_id: int
    board: HeartbeatBoard
    row: int
    injector: object | None = None
    items_done: int = 0
    items_assigned: int = 0

    def tick(self, advance: int = 1) -> None:
        """Per-item heartbeat + fault hook (hang/slow injection)."""
        self.items_done += int(advance)
        self.board.tick(self.row, advance)
        if self.injector is not None:
            self.injector.on_progress(self.worker_id, self.items_done)


@dataclass
class _Worker:
    worker_id: int
    pid: int
    slot: int
    row: int
    sock: socket.socket  # commands out, results back (proc framing)
    draining: bool = False
    exiting: bool = False


@dataclass
class _Slot:
    index: int
    active: bool = True
    quarantined: bool = False
    losses: int = 0
    handle: _Worker | None = None


class ElasticPool:
    """A forked worker pool whose membership can change mid-campaign.

    ``runner(chunk, ctx)`` executes inside the child and returns
    ``(terms, checksum, bytes_written)`` for ledger verification.
    Workers get monotonically increasing ids starting at 1 (0 is the
    parent, per the :mod:`repro.resilience.faults` convention) and one
    :class:`HeartbeatBoard` row each — respawns and joins get *fresh*
    ids and fresh rows via :meth:`HeartbeatBoard.grow`, always
    allocated in the parent before the fork.
    """

    def __init__(
        self,
        workers: int,
        runner: Callable[[WorkChunk, WorkerContext], tuple[int, float, int]],
        *,
        lease_timeout: float | None = 30.0,
        quarantine_after: int = 3,
        term_grace: float = 1.0,
        idle_wait: float = 0.01,
        faults=None,
        observer=None,
        deadline: Deadline | float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_timeout is not None and not lease_timeout > 0:
            raise ValueError("lease_timeout must be positive (or None)")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if not pymp.fork_available():  # pragma: no cover - posix-only repo
            raise ElasticError("elastic pools need os.fork")
        self.runner = runner
        self.lease_timeout = lease_timeout
        self.quarantine_after = int(quarantine_after)
        self.term_grace = float(term_grace)
        self.idle_wait = float(idle_wait)
        self.injector = as_injector(faults)
        self.observer = observer
        self.deadline = Deadline.coerce(deadline)
        self.board = HeartbeatBoard(workers)
        self._next_row = 0
        self._next_worker_id = 1
        self._slots: list[_Slot] = [_Slot(index=i) for i in range(workers)]
        self._live: list[_Worker] = []
        self._running = False
        self._ran = False
        # lifetime stats (the report and the manifest read these)
        self.leases_reassigned = 0
        self.pool_resizes = 0
        self.quarantined_slots = 0
        self.workers_spawned = 0
        self.workers_respawned = 0

    # -- sizing --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Target pool size: active, non-quarantined slots."""
        return sum(1 for s in self._slots if s.active and not s.quarantined)

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._live if not w.draining)

    def resize(self, new_size: int) -> None:
        """Grow or shrink the pool; safe to call mid-campaign.

        Growth spawns workers into fresh (or vacated, non-quarantined)
        slots with new board rows.  Shrinkage marks the highest-index
        live workers *draining*: each finishes its current lease, then
        exits cleanly at the next chunk boundary.
        """
        if new_size < 0:
            raise ValueError(f"new_size must be >= 0, got {new_size}")
        old = self.size
        if new_size == old:
            return
        obs = as_observer(self.observer)
        obs.event("elastic.pool_resized", old_size=old, new_size=new_size)
        obs.count("elastic.pool_resized")
        self.pool_resizes += 1
        if new_size > old:
            for _ in range(new_size - old):
                slot = self._vacant_slot()
                slot.active = True
                if self._running:
                    self._spawn(slot)
                    obs.event(
                        "elastic.worker_joined",
                        worker=slot.handle.worker_id,
                        slot=slot.index,
                    )
                    obs.count("elastic.worker_joined")
        else:
            victims = [
                s
                for s in self._slots
                if s.active and not s.quarantined
            ][new_size:]
            for slot in victims:
                slot.active = False
                if slot.handle is not None:
                    slot.handle.draining = True

    def _vacant_slot(self) -> _Slot:
        for slot in self._slots:
            if not slot.active and not slot.quarantined:
                return slot
        slot = _Slot(index=len(self._slots), active=False)
        self._slots.append(slot)
        return slot

    # -- spawning ------------------------------------------------------------

    def _alloc_row(self) -> int:
        if self._next_row < self.board.workers:
            row = self._next_row
        else:
            row = self.board.grow(1)
        self._next_row = row + 1
        return row

    def _spawn(self, slot: _Slot) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        row = self._alloc_row()  # pre-fork: the child inherits the mapping
        parent_sock, child_sock = socket.socketpair()
        pid = proc.spawn(
            self._child_main,
            worker_id,
            row,
            child_sock,
            keep_fds={child_sock.fileno()},
        )
        child_sock.close()
        worker = _Worker(
            worker_id=worker_id,
            pid=pid,
            slot=slot.index,
            row=row,
            sock=parent_sock,
        )
        slot.handle = worker
        self._live.append(worker)
        self.workers_spawned += 1
        return worker

    def _child_main(
        self, worker_id: int, row: int, sock: socket.socket
    ) -> None:  # pragma: no cover - runs in the forked child
        signal.signal(signal.SIGPIPE, signal.SIG_IGN)
        ctx = WorkerContext(
            worker_id=worker_id,
            board=self.board,
            row=row,
            injector=self.injector,
        )
        try:
            proc.send(sock, ("ready", worker_id))
            while True:
                msg = proc.recv(sock)
                if msg is None:
                    return  # the parent is gone
                kind = msg[0]
                if kind == "exit":
                    self.board.mark_done(row)
                    return
                elif kind == "idle":
                    self.board.tick(row, 0)
                    time.sleep(float(msg[1]))
                    proc.send(sock, ("ready", worker_id))
                elif kind == "lease":
                    chunk: WorkChunk = msg[1]
                    ctx.items_assigned += chunk.num_items
                    self.board.assign(row, ctx.items_assigned)
                    if self.injector is not None:
                        self.injector.maybe_kill_worker(worker_id)
                    terms, checksum, nbytes = self.runner(chunk, ctx)
                    self.board.tick(row, 0)
                    proc.send(
                        sock,
                        ("done", worker_id, chunk.chunk_id, terms, checksum, nbytes),
                    )
                    proc.send(sock, ("ready", worker_id))
                else:
                    raise ElasticError(f"unknown command {kind!r}")
        except (proc.ChannelError, ConnectionError):
            return  # the parent is gone

    # -- the campaign loop ---------------------------------------------------

    def run(
        self,
        ledger: WorkLedger,
        on_chunk: Callable[["ElasticPool", int], None] | None = None,
    ) -> tuple[int, float, int]:
        """Drive ``ledger`` to completion; returns total
        ``(terms, checksum, bytes_written)`` across all chunks.

        ``on_chunk(pool, completed_count)`` fires after each accepted
        completion — the hook resize schedules hang off.
        """
        if self._ran:
            raise ElasticError("an ElasticPool is single-use")
        self._ran = True
        self._running = True
        obs = as_observer(self.observer)
        totals = [0, 0.0, 0]
        try:
            for slot in self._slots:
                if slot.active and slot.handle is None:
                    self._spawn(slot)
            while not ledger.done:
                if self.deadline is not None:
                    self.deadline.check("elastic campaign")
                self._pump(ledger, obs, totals, on_chunk)
                self._reap(ledger, obs)
                self._watchdog(ledger, obs)
                if not ledger.done and not self._live and self.size == 0:
                    raise ElasticError(
                        f"no live workers and no spawnable slots with "
                        f"{ledger.pending_count + ledger.leased_count} "
                        "chunk(s) left"
                    )
        finally:
            self._running = False
            self._shutdown()
        return int(totals[0]), float(totals[1]), int(totals[2])

    def _pump(self, ledger, obs, totals, on_chunk) -> None:
        socks = {w.sock: w for w in self._live}
        if not socks:
            time.sleep(_POLL_SECONDS)
            return
        readable, _, _ = select.select(list(socks), [], [], _POLL_SECONDS)
        for sock in readable:
            worker = socks[sock]
            if worker not in self._live:
                continue  # retired earlier in this same sweep
            try:
                msg = proc.recv(sock)
            except proc.ChannelError:
                self._lose_worker(worker, ledger, obs, reason="channel")
                continue
            except OSError:
                msg = None
            if msg is None:
                continue  # death; the reap pass owns this transition
            kind = msg[0]
            if kind == "ready":
                self._handle_ready(worker, ledger, obs)
            elif kind == "done":
                self._handle_done(worker, msg, ledger, obs, totals, on_chunk)

    def _handle_ready(self, worker: _Worker, ledger, obs) -> None:
        if worker.exiting:
            return
        if worker.draining or ledger.done:
            worker.exiting = True
            if worker.draining:
                obs.event(
                    "elastic.worker_left",
                    worker=worker.worker_id,
                    slot=worker.slot,
                )
                obs.count("elastic.worker_left")
            self._send(worker, ("exit",))
            return
        chunk = ledger.lease(worker.worker_id)
        if chunk is None:
            self._send(worker, ("idle", self.idle_wait))
        else:
            obs.count("elastic.leases_granted")
            self._send(worker, ("lease", chunk))

    def _handle_done(
        self, worker: _Worker, msg, ledger, obs, totals, on_chunk
    ) -> None:
        _, wid, chunk_id, terms, checksum, nbytes = msg
        try:
            accepted = ledger.complete(wid, chunk_id, terms, checksum)
        except LeaseVerificationError as exc:
            obs.event(
                "elastic.verification_failed",
                worker=wid,
                chunk=chunk_id,
                error=str(exc),
            )
            obs.count("elastic.verification_failures")
            self._lose_worker(worker, ledger, obs, reason="verification")
            return
        if not accepted:
            return
        totals[0] += int(terms)
        totals[1] += float(checksum)
        totals[2] += int(nbytes)
        obs.count("elastic.chunks_completed")
        if on_chunk is not None:
            on_chunk(self, ledger.completed_count)

    def _reap(self, ledger, obs) -> None:
        for worker in list(self._live):
            code = proc.poll(worker.pid)
            if code is None:
                continue
            self._retire(worker)
            if worker.exiting and code == 0:
                continue  # clean drain/shutdown exit
            obs.event(
                "elastic.worker_died",
                worker=worker.worker_id,
                slot=worker.slot,
                exit_code=code,
            )
            obs.count("elastic.workers_died")
            self._after_loss(worker, ledger, obs, reason="death")

    def _watchdog(self, ledger, obs) -> None:
        if self.lease_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._live):
            if ledger.lease_of(worker.worker_id) is None:
                continue
            age = self.board.age(worker.row, now)
            if age <= self.lease_timeout:
                continue
            obs.event(
                "elastic.lease_expired",
                worker=worker.worker_id,
                chunk=ledger.lease_of(worker.worker_id),
                age_seconds=round(age, 4),
            )
            obs.count("elastic.leases_expired")
            self._lose_worker(worker, ledger, obs, reason="expired")

    def _lose_worker(self, worker: _Worker, ledger, obs, reason: str) -> None:
        """Kill first, forfeit second: the dead writer is reaped before
        its chunk can be re-leased, so no two workers ever hold the
        same chunk (or its part file) concurrently."""
        proc.kill(worker.pid, term_grace=self.term_grace)
        self._retire(worker)
        self._after_loss(worker, ledger, obs, reason=reason)

    def _after_loss(self, worker: _Worker, ledger, obs, reason: str) -> None:
        slot = self._slots[worker.slot]
        # Every unclean loss counts against the slot, leased or not: a
        # worker that dies before its first lease would otherwise be
        # respawned without bound.
        slot.losses += 1
        chunk_id = ledger.forfeit(worker.worker_id)
        if chunk_id is not None:
            self.leases_reassigned += 1
            obs.event(
                "elastic.lease_reassigned",
                chunk=chunk_id,
                worker=worker.worker_id,
                slot=slot.index,
                reason=reason,
                losses=slot.losses,
            )
            obs.count("elastic.lease_reassigned")
        if not slot.active or slot.quarantined or ledger.done:
            return
        if slot.losses >= self.quarantine_after:
            slot.quarantined = True
            self.quarantined_slots += 1
            obs.event(
                "elastic.quarantined",
                slot=slot.index,
                worker=worker.worker_id,
                losses=slot.losses,
            )
            obs.count("elastic.quarantined")
            return
        replacement = self._spawn(slot)
        self.workers_respawned += 1
        obs.event(
            "elastic.worker_respawned",
            worker=replacement.worker_id,
            slot=slot.index,
            replaces=worker.worker_id,
        )
        obs.count("elastic.workers_respawned")

    # -- plumbing ------------------------------------------------------------

    def _send(self, worker: _Worker, msg) -> None:
        try:
            proc.send(worker.sock, msg)
        except OSError:
            pass  # dead child; the reap pass owns the fallout

    def _retire(self, worker: _Worker) -> None:
        worker.sock.close()
        if worker in self._live:
            self._live.remove(worker)
        slot = self._slots[worker.slot]
        if slot.handle is worker:
            slot.handle = None

    def _shutdown(self) -> None:
        for worker in list(self._live):
            self._send(worker, ("exit",))
        t_end = time.monotonic() + max(self.term_grace, 0.25)
        while self._live and time.monotonic() < t_end:
            for worker in list(self._live):
                if proc.poll(worker.pid) is not None:
                    self._retire(worker)
            if self._live:
                time.sleep(0.005)
        proc.kill(*(w.pid for w in self._live), term_grace=self.term_grace)
        for worker in list(self._live):
            self._retire(worker)


# -- the formation campaign ---------------------------------------------------


@dataclass(frozen=True)
class ElasticReport:
    """What :func:`run_elastic_formation` hands back."""

    n: int
    chunks_total: int
    chunks_completed: int
    terms_formed: int
    checksum: float
    bytes_written: int
    elapsed_seconds: float
    leases_reassigned: int
    pool_resizes: int
    quarantined_slots: int
    workers_spawned: int
    workers_respawned: int
    part_files: tuple[str, ...]


def run_elastic_formation(
    z: np.ndarray,
    *,
    workers: int = 3,
    chunk_items: int = 32,
    voltage: float = 5.0,
    output_dir: str | Path,
    lease_timeout: float | None = 30.0,
    quarantine_after: int = 3,
    term_grace: float = 0.5,
    idle_wait: float = 0.01,
    faults=None,
    observer=None,
    deadline: Deadline | float | None = None,
    resize_schedule: Sequence[tuple[int, int]] = (),
) -> ElasticReport:
    """Form the full constraint system under elastic dispatch.

    Each chunk is formed independently and committed to its own
    ``equations-chunk<NNNNN>.bin`` part file via
    :class:`repro.resilience.atomio.AtomicFile`, so chunk content is a
    pure function of ``(z, voltage, chunk)`` — a churn run and a quiet
    run produce byte-identical part files (``parma chaos --include
    elastic`` and the CI ``elastic`` job assert exactly this).

    ``resize_schedule`` is ``[(after_chunks, new_size), ...]``: once
    ``after_chunks`` completions have been accepted the pool is resized
    to ``new_size``.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    items = make_items(n)
    categories = sorted({it.category for it in items})
    warm_template_cache(n, [(cat,) for cat in categories])
    chunks = plan_chunks(n, chunk_items=chunk_items, items=items)
    ledger = WorkLedger(chunks)

    def runner(chunk: WorkChunk, ctx: WorkerContext) -> tuple[int, float, int]:
        mine = range(chunk.item_lo, chunk.item_hi)
        share = form_worker_share(n, items, mine, z, voltage)
        name = f"equations-chunk{chunk.chunk_id:05d}"
        header = share_header(out, n, voltage, items, mine)
        with part_writer(out, "binary", name, header) as write:
            nbytes = write(share)
            for _ in mine:
                ctx.tick(1)
        return share.terms, share.checksum, nbytes

    pool = ElasticPool(
        workers,
        runner,
        lease_timeout=lease_timeout,
        quarantine_after=quarantine_after,
        term_grace=term_grace,
        idle_wait=idle_wait,
        faults=faults,
        observer=observer,
        deadline=deadline,
    )
    schedule = sorted(
        (int(after), int(size)) for after, size in resize_schedule
    )
    fired = [0]

    def on_chunk(p: ElasticPool, completed: int) -> None:
        while fired[0] < len(schedule) and completed >= schedule[fired[0]][0]:
            p.resize(schedule[fired[0]][1])
            fired[0] += 1

    start = time.perf_counter()
    terms, checksum, nbytes = pool.run(ledger, on_chunk=on_chunk)
    elapsed = time.perf_counter() - start
    part_files = tuple(
        sorted(p.name for p in out.glob("equations-chunk*.bin"))
    )
    return ElasticReport(
        n=n,
        chunks_total=ledger.total,
        chunks_completed=ledger.completed_count,
        terms_formed=terms,
        checksum=checksum,
        bytes_written=nbytes,
        elapsed_seconds=elapsed,
        leases_reassigned=pool.leases_reassigned,
        pool_resizes=pool.pool_resizes,
        quarantined_slots=pool.quarantined_slots,
        workers_spawned=pool.workers_spawned,
        workers_respawned=pool.workers_respawned,
        part_files=part_files,
    )


def part_files_identical(
    dir_a: str | Path, dir_b: str | Path
) -> tuple[bool, str]:
    """Byte-compare the committed chunk part files of two campaigns.

    Only ``equations-chunk*.bin`` files participate — ``*.tmp``
    orphans a killed worker left behind are in-flight garbage by
    contract (:mod:`repro.resilience.atomio`) and never count.
    """
    a, b = Path(dir_a), Path(dir_b)
    names_a = sorted(p.name for p in a.glob("equations-chunk*.bin"))
    names_b = sorted(p.name for p in b.glob("equations-chunk*.bin"))
    if names_a != names_b:
        return False, (
            f"part-file sets differ: {len(names_a)} vs {len(names_b)} files"
        )
    if not names_a:
        return False, "no part files on either side"
    for name in names_a:
        if (a / name).read_bytes() != (b / name).read_bytes():
            return False, f"{name} differs"
    return True, f"{len(names_a)} part files identical"


# -- the simulated strategy x rank sweep --------------------------------------


@dataclass(frozen=True)
class StrategyCurve:
    """One strategy's strong-scaling curve from the simulated clock."""

    strategy: str
    rank_counts: tuple[int, ...]
    total_seconds: tuple[float, ...]
    speedup: tuple[float, ...]
    efficiency: tuple[float, ...]


def scaling_strategy_schedulers(n: int) -> dict[str, Callable]:
    """The paper's four partitioning strategies as simcluster schedulers.

    Each value is a ``scheduler(costs, ranks) -> Assignment`` closure
    over the canonical :func:`repro.core.partition.make_items` order.
    ``category`` needs at least 4 ranks (one per constraint category).
    """
    items = make_items(n)
    cat_codes = [int(it.category) for it in items]
    holes = np.array(
        [hole_of_pair(it.row, it.col, n) for it in items], dtype=np.int64
    )

    def betti_schedule(costs: Sequence[float], ranks: int) -> Assignment:
        costs_arr = np.asarray(costs, dtype=np.float64)
        worker_of = (holes[: len(costs_arr)] % ranks).astype(np.int64)
        loads = np.bincount(worker_of, weights=costs_arr, minlength=ranks)
        return Assignment(
            worker_of=worker_of,
            loads=loads,
            makespan=float(loads.max(initial=0.0)),
        )

    def category(costs: Sequence[float], ranks: int) -> Assignment:
        return category_schedule(costs, cat_codes[: len(costs)], ranks)

    return {
        "contiguous": contiguous_schedule,
        "balanced": lpt_schedule,
        "betti": betti_schedule,
        "category": category,
    }


def sweep_scaling_curves(
    n: int,
    rank_counts: Sequence[int],
    *,
    model: ClusterModel = HPC_FDR,
    sec_per_term: float | None = None,
) -> dict[str, StrategyCurve]:
    """Strategy × rank-count strong-scaling sweep on the simulated clock.

    ``sec_per_term`` defaults to a live calibration on this machine
    (:func:`repro.core.strategies.calibrate_sec_per_term`), so the
    simulated curves are anchored to measured per-term cost — the same
    convention as ``benchmarks/bench_fig10_mpi_scaling.py``.
    """
    if not rank_counts:
        raise ValueError("rank_counts must be non-empty")
    if sec_per_term is None:
        sec_per_term = calibrate_sec_per_term(n)
    items = make_items(n)
    costs = np.array([it.cost for it in items], dtype=np.float64)
    costs = costs * float(sec_per_term)
    curves: dict[str, StrategyCurve] = {}
    for name, scheduler in scaling_strategy_schedulers(n).items():
        ranks = [int(r) for r in rank_counts]
        if name == "category":
            ranks = [r for r in ranks if r >= 4]
            if not ranks:
                continue
        points = scaling_sweep(costs, ranks, model, scheduler)
        curves[name] = StrategyCurve(
            strategy=name,
            rank_counts=tuple(ranks),
            total_seconds=tuple(float(p.total) for p in points),
            speedup=tuple(float(s) for s in speedup_curve(points)),
            efficiency=tuple(float(e) for e in parallel_efficiency(points)),
        )
    return curves


# -- the BENCH_scaling.json experiment ----------------------------------------


def _campaign_row(n: int, seed: int, common: dict) -> dict:
    """A quiet and a churn campaign at side ``n``; one ``sizes`` row.

    ``common`` holds the :func:`run_elastic_formation` arguments both
    runs share.  The churn run SIGKILLs one worker and shrinks then
    grows the pool mid-campaign; its part files must equal the quiet
    run's byte for byte, or :class:`ElasticError` is raised.
    """
    from repro.mea.wetlab import quick_device_data

    z = quick_device_data(n, seed=seed)[1]
    workers = common["workers"]
    obs = as_observer(common["observer"])
    with tempfile.TemporaryDirectory() as td, obs.span(
        "formation", strategy="elastic", n=n
    ):
        td = Path(td)
        quiet = run_elastic_formation(z, output_dir=td / "quiet", **common)
        chunks = quiet.chunks_total
        churn = run_elastic_formation(
            z,
            output_dir=td / "churn",
            faults=FaultPlan(
                seed=seed,
                kill_workers=(1,),
                kill_signal=int(signal.SIGKILL),
            ),
            resize_schedule=[
                (max(1, chunks // 3), max(1, workers - 1)),
                (max(2, 2 * chunks // 3), workers),
            ],
            **common,
        )
        identical, detail = part_files_identical(td / "quiet", td / "churn")
    if not identical:
        raise ElasticError(
            f"n={n}: churn campaign diverged from the quiet run ({detail})"
        )
    overhead = churn.elapsed_seconds / quiet.elapsed_seconds - 1.0
    print(
        f"n={n:3d}: quiet {quiet.elapsed_seconds:.3f}s, churn "
        f"{churn.elapsed_seconds:.3f}s ({overhead * 100:+.1f}%); "
        f"{detail}; {churn.leases_reassigned} lease(s) reassigned, "
        f"{churn.pool_resizes} resize(s), {churn.workers_respawned} "
        "respawn(s)"
    )
    return {
        "n": n,
        "chunks": chunks,
        "terms": quiet.terms_formed,
        "quiet_seconds": quiet.elapsed_seconds,
        "churn_seconds": churn.elapsed_seconds,
        "churn_overhead": overhead,
        "leases_reassigned": churn.leases_reassigned,
        "pool_resizes": churn.pool_resizes,
        "workers_respawned": churn.workers_respawned,
        "part_files_identical": True,
        # The regress baseline: the whole campaign interval (quiet +
        # churn), the interval the ``formation`` span above records.
        "elastic_formation_seconds": (
            quiet.elapsed_seconds + churn.elapsed_seconds
        ),
    }


def _simulated_sweep(n: int, max_ranks: int, *, observer) -> dict:
    """Strategy × rank sweep plus the failover/heterogeneous points."""
    rank_counts = [1 << k for k in range(max_ranks.bit_length())]
    calib_start = time.perf_counter()
    sec_per_term = calibrate_sec_per_term(n)
    calib_seconds = time.perf_counter() - calib_start
    curves = sweep_scaling_curves(n, rank_counts, sec_per_term=sec_per_term)
    print(
        f"simulated strong scaling at n={n} (sec/term {sec_per_term:.2e}), "
        f"up to {rank_counts[-1]} ranks:"
    )
    for curve in curves.values():
        peak = int(np.argmax(curve.speedup))
        print(
            f"  {curve.strategy:>10s}: peak speedup "
            f"{curve.speedup[peak]:.1f}x at {curve.rank_counts[peak]} "
            f"ranks (efficiency {curve.efficiency[peak]:.3f}); at "
            f"{curve.rank_counts[-1]} ranks speedup "
            f"{curve.speedup[-1]:.1f}x"
        )

    costs = np.array([it.cost for it in make_items(n)], dtype=np.float64)
    costs *= sec_per_term
    failover_ranks = min(256, max(2, max_ranks))
    recovery = simulate_with_failures(
        costs, failover_ranks, HPC_FDR, failed_ranks=(1,), observer=observer
    )
    steal = simulate_stealing_with_failures(
        costs,
        num_workers=8,
        death_times={1: float(costs.sum()) / 16.0},
        observer=observer,
    )
    hetero_ranks = min(64, max(2, max_ranks))
    classes = {
        "old": (hetero_ranks // 2, 1.0),
        "new": (hetero_ranks - hetero_ranks // 2, 1.8),
    }
    awareness = HeterogeneousCluster(classes, HPC_FDR).awareness_gain(costs)
    overhead = recovery.total / recovery.baseline_total - 1.0
    print(
        f"  failover at {failover_ranks} ranks: {overhead:+.1%} over the "
        f"quiet makespan ({recovery.tasks_redispatched} task(s) "
        f"redispatched); stealing failover reran {steal.tasks_rerun} "
        f"task(s); heterogeneous awareness gain at {hetero_ranks} ranks: "
        f"{awareness:.2f}x"
    )
    return {
        "sec_per_term": sec_per_term,
        "calibration_seconds": calib_seconds,
        "model": "HPC_FDR",
        "curves": {
            name: {
                "rank_counts": list(c.rank_counts),
                "total_seconds": list(c.total_seconds),
                "speedup": list(c.speedup),
                "efficiency": list(c.efficiency),
            }
            for name, c in curves.items()
        },
        "failover": {
            "ranks": failover_ranks,
            "failed_ranks": [1],
            "baseline_seconds": recovery.baseline_total,
            "recovered_seconds": recovery.total,
            "overhead": overhead,
            "tasks_redispatched": recovery.tasks_redispatched,
            "stealing_tasks_rerun": steal.tasks_rerun,
            "stealing_lost_work_seconds": steal.lost_work_seconds,
        },
        "heterogeneous": {
            "ranks": hetero_ranks,
            "classes": {name: list(c) for name, c in classes.items()},
            "awareness_gain": awareness,
        },
    }


def run_scaling_experiment(
    sizes: Sequence[int],
    *,
    max_ranks: int = 1024,
    workers: int = 3,
    chunk_items: int = 16,
    seed: int = 7,
    sweep_n: int | None = None,
    lease_timeout: float | None = 30.0,
    observer=None,
    deadline: Deadline | float | None = None,
) -> dict:
    """The §V scaling experiment; returns the ``BENCH_scaling.json`` report.

    Two halves:

    1. A *real* elastic formation campaign per size on this host (the
       device from :func:`repro.mea.wetlab.quick_device_data`): a quiet
       run, then a churn run with one worker SIGKILLed and the pool
       shrunk then grown.  Each size is one ``formation`` span on
       ``observer`` and one ``sizes`` row whose
       ``elastic_formation_seconds`` (quiet + churn) is what ``parma
       runs regress`` gates ``bench=scaling`` runs against.  A churn
       run whose part files differ from the quiet run's raises
       :class:`ElasticError`.  Skipped (no rows) where fork is missing.
    2. A *simulated* strategy × rank sweep at ``sweep_n`` (default: the
       largest size) over powers of two up to ``max_ranks``, anchored
       to this machine's measured per-term cost, plus failover and
       heterogeneous-awareness points.

    ``lease_timeout`` and ``deadline`` go to
    :func:`run_elastic_formation`.  One progress line per campaign and
    per sweep curve is printed.
    """
    common = dict(
        workers=workers,
        chunk_items=chunk_items,
        lease_timeout=lease_timeout,
        observer=observer,
        deadline=Deadline.coerce(deadline),
    )
    rows = []
    if pymp.fork_available():
        rows = [_campaign_row(n, seed, common) for n in sizes]
    else:  # pragma: no cover - fork always available on test platforms
        print("elastic campaign skipped: fork unavailable on this host")
    sweep_n = sweep_n if sweep_n is not None else max(sizes)
    return {
        "benchmark": "elastic_scaling",
        "description": (
            "elastic campaign dispatch (quiet vs churn: one SIGKILLed "
            "worker, pool shrunk then grown mid-run, part files verified "
            "byte-identical) plus the simulated strategy x rank "
            "strong-scaling sweep to 1,024 ranks"
        ),
        "seed": seed,
        "workers": workers,
        "chunk_items": chunk_items,
        "max_ranks": max_ranks,
        "sweep_n": sweep_n,
        "sweep": _simulated_sweep(sweep_n, max_ranks, observer=observer),
        "sizes": rows,
    }
