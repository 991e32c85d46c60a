"""Deadline-aware worker supervision: heartbeats, watchdog, stragglers.

The fork/join regions of :mod:`repro.parallel.pymp` originally joined
with a *blocking*, rank-ordered ``os.waitpid``: one hung worker
stalled the whole solve forever, invisible to the retry layer (which
only reacts to nonzero exit codes).  On large MEA workloads wall-clock
is dominated by the slowest worker, so a production run needs three
properties this module provides:

* **liveness is observable** — every region member updates a
  per-worker heartbeat slot (:class:`HeartbeatBoard`, an anonymous
  shared ``mmap`` created before the fork) each time it pulls or
  completes work, so the parent can distinguish *slow* from *dead*;
* **hangs are bounded** — a :class:`Supervisor` reaps whichever child
  exits first (:func:`repro.parallel.pymp.join`), declares a worker
  hung when its heartbeat stalls past ``stall_timeout``, escalates
  SIGTERM → SIGKILL (:func:`repro.parallel.proc.kill`) and surfaces
  the loss as
  :class:`repro.parallel.pymp.WorkerStalled` carrying every rank's
  last recorded progress;
* **time is budgeted** — a :class:`Deadline` (monotonic wall-clock)
  rides from the CLI through engine, pipeline, strategies, streaming
  and the MPI launcher; when it expires, remaining workers are killed
  (no orphans) and :class:`DeadlineExceeded` maps to the dedicated
  exit status :data:`DEADLINE_EXIT_CODE`.

Stragglers and salvage are built on top by the formation strategies
(:mod:`repro.core.strategies`): once ``straggler_threshold`` of the
region's items are done, the supervisor invokes the strategy's
``on_straggler`` hook so the parent can speculatively re-form the tail
of a slow worker's share, and on any worker loss only the *missing*
blocks are re-formed — completed shares are verified against the O(1)
template checksum table and kept.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.observe.observer import as_observer
from repro.parallel import proc, pymp

#: Process exit status the CLI returns when a run's :class:`Deadline`
#: expires (distinct from 1 = failure and 2 = usage; chosen away from
#: coreutils ``timeout``'s 124 so CI can tell the two apart).  The
#: solve service maps its ``deadline-exceeded`` response status to the
#: same code, so ``parma submit`` and ``parma solve --deadline`` are
#: script-compatible (full table in ``docs/SERVING.md``).
DEADLINE_EXIT_CODE = 94


class DeadlineExceeded(RuntimeError):
    """The wall-clock budget ran out before the work completed.

    ``partial`` optionally carries whatever completed results the
    raising layer could salvage (e.g. the finished timepoints of an
    interrupted campaign), so callers can report instead of discard.
    """

    def __init__(
        self, message: str, deadline: "Deadline | None" = None, partial: Any = None
    ) -> None:
        super().__init__(message)
        self.deadline = deadline
        self.partial = partial


class Deadline:
    """A monotonic wall-clock budget, started at construction.

    The clock is ``time.monotonic`` so the budget is immune to wall
    clock steps; one ``Deadline`` object is shared by every layer of a
    run (engine → pipeline → strategies → streaming → MPI dispatch) so
    they all drain the *same* budget.
    """

    __slots__ = ("seconds", "_t0")

    def __init__(self, seconds: float, _t0: float | None = None) -> None:
        seconds = float(seconds)
        if not seconds > 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._t0 = time.monotonic() if _t0 is None else float(_t0)

    @classmethod
    def coerce(cls, value: "Deadline | float | int | None") -> "Deadline | None":
        """None passes through; numbers become a fresh running budget."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(value)

    @classmethod
    def capped(
        cls,
        value: "Deadline | float | int | None",
        cap: float | None,
    ) -> "Deadline | None":
        """Coerce a requested budget, clamped to a policy maximum.

        The solve service admits per-request deadlines but must not
        let one request reserve an executor forever, so admission caps
        the request's budget at the service's ``max_deadline``.  With
        no request budget and no cap the result is None (unbounded);
        with only a cap, the cap *is* the budget — an operator cap
        bounds every request, including those that asked for none.
        """
        if cap is None:
            return cls.coerce(value)
        cap = float(cap)
        if value is None:
            return cls(cap)
        if isinstance(value, Deadline):
            if value.seconds <= cap:
                return value
            return cls(cap, _t0=value._t0)
        return cls(min(float(value), cap))

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "work") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline of {self.seconds:g}s exceeded "
                f"({self.elapsed():.2f}s elapsed) before {what}",
                deadline=self,
            )

    def __repr__(self) -> str:
        return f"Deadline({self.seconds:g}s, remaining={self.remaining():.2f}s)"


class HeartbeatBoard:
    """Per-worker progress slots in anonymous shared memory.

    One row per region member: ``[items_done, items_assigned,
    last_beat (monotonic seconds), state]``.  Rows live in anonymous
    ``MAP_SHARED`` mappings (:func:`repro.parallel.pymp.shared_array`),
    so each mapping must be created *before* the fork of any worker
    that will write to it; a tick is two array stores plus one
    ``time.monotonic`` call — cheap enough for per-item use.
    ``dump()`` serialises a snapshot for error payloads and events.

    The board is *growable*: :meth:`grow` appends a fresh shared
    segment of rows (again, pre-fork) so an elastic pool can admit
    workers mid-campaign.  Existing rows — and the mappings already
    inherited by running children — are untouched, so pre-growth
    workers keep beating into the same memory.
    """

    STATE_STARTING = 0.0
    STATE_RUNNING = 1.0
    STATE_DONE = 2.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        first = pymp.shared_array((int(workers), 4), dtype=np.float64)
        first[:, 2] = time.monotonic()
        self._segments: list[np.ndarray] = [first]

    @property
    def workers(self) -> int:
        """Total rows across all segments (grows with :meth:`grow`)."""
        return sum(seg.shape[0] for seg in self._segments)

    @property
    def _slots(self) -> np.ndarray:
        """The initial segment (compatibility view for fixed-size users)."""
        return self._segments[0]

    def grow(self, extra: int = 1) -> int:
        """Append ``extra`` rows in a new shared segment; return the
        index of the first new row.

        Must be called in the parent *before* forking the workers that
        will own the new rows — children forked earlier cannot see the
        new mapping (and never need to: rows are single-writer).
        """
        if extra < 1:
            raise ValueError(f"extra must be >= 1, got {extra}")
        first_new = self.workers
        segment = pymp.shared_array((int(extra), 4), dtype=np.float64)
        segment[:, 2] = time.monotonic()
        self._segments.append(segment)
        return first_new

    def _row(self, worker: int) -> np.ndarray:
        if worker < 0:
            raise IndexError(f"worker index must be >= 0, got {worker}")
        for seg in self._segments:
            rows = seg.shape[0]
            if worker < rows:
                return seg[worker]
            worker -= rows
        raise IndexError(f"worker {worker + self.workers} out of range")

    # -- worker side ---------------------------------------------------------

    def assign(self, worker: int, total: int) -> None:
        row = self._row(worker)
        row[1] = float(total)
        row[2] = time.monotonic()
        row[3] = self.STATE_RUNNING

    def provisional_assign(self, worker: int, amount: float) -> None:
        """Parent-side estimate of a share size, pre-fork.

        Overwritten by the worker's own :meth:`assign` once it knows
        its exact share; keeps ``progress()`` denominators meaningful
        from the first poll."""
        self._row(worker)[1] = float(amount)

    def tick(self, worker: int, advance: int = 1) -> None:
        row = self._row(worker)
        row[0] += float(advance)
        row[2] = time.monotonic()

    def mark_done(self, worker: int) -> None:
        row = self._row(worker)
        row[2] = time.monotonic()
        row[3] = self.STATE_DONE

    # -- parent side ---------------------------------------------------------

    def items_done(self, worker: int) -> int:
        return int(self._row(worker)[0])

    def is_done(self, worker: int) -> bool:
        return self._row(worker)[3] == self.STATE_DONE

    def age(self, worker: int, now: float | None = None) -> float:
        """Seconds since the worker's last heartbeat."""
        now = time.monotonic() if now is None else now
        return now - float(self._row(worker)[2])

    def progress(self) -> tuple[int, int]:
        """(items done, items assigned) across the whole region."""
        done = sum(float(seg[:, 0].sum()) for seg in self._segments)
        assigned = sum(float(seg[:, 1].sum()) for seg in self._segments)
        return int(done), int(assigned)

    def dump(self, now: float | None = None) -> dict[int, dict[str, float]]:
        """Snapshot per-rank progress for error payloads and events."""
        now = time.monotonic() if now is None else now
        out: dict[int, dict[str, float]] = {}
        w = 0
        for seg in self._segments:
            for i in range(seg.shape[0]):
                out[w] = {
                    "items_done": float(seg[i, 0]),
                    "items_assigned": float(seg[i, 1]),
                    "age_seconds": round(now - float(seg[i, 2]), 4),
                    "done": bool(seg[i, 3] == self.STATE_DONE),
                }
                w += 1
        return out


class Supervisor:
    """Watches one parallel region at a time: reap, watchdog, deadline.

    Pass a ``Supervisor`` to :class:`repro.parallel.pymp.Parallel`
    (the formation strategies do this when the engine runs with
    ``stall_timeout``/``deadline``) and the region join becomes a
    non-blocking poll loop:

    * children are reaped in *completion* order
      (:func:`repro.parallel.pymp.join`), so a hung rank 1 no longer
      masks rank 3's crash diagnostics;
    * a worker whose heartbeat stalls past ``stall_timeout`` while not
      done is declared hung: SIGTERM, then SIGKILL after
      ``term_grace`` seconds, surfaced as ``WorkerStalled`` with every
      rank's last progress;
    * when the :class:`Deadline` expires mid-region all remaining
      children are killed (orphan cleanup) and
      :class:`DeadlineExceeded` is raised;
    * once ``straggler_threshold`` of assigned items are done, a slow
      (but alive) worker triggers the ``on_straggler`` hook so the
      caller can speculatively re-execute its tail.

    ``salvage`` is advisory state read by the formation strategies:
    when True (default) a lost worker's share is re-formed in the
    parent instead of failing/retrying the whole region.
    """

    def __init__(
        self,
        stall_timeout: float | None = None,
        deadline: Deadline | float | None = None,
        term_grace: float = 1.0,
        salvage: bool = True,
        straggler_threshold: float = 0.8,
        straggler_age: float | None = None,
        observer=None,
    ) -> None:
        if stall_timeout is not None and not stall_timeout > 0:
            raise ValueError("stall_timeout must be positive (or None)")
        if not 0.0 < straggler_threshold <= 1.0:
            raise ValueError("straggler_threshold must be in (0, 1]")
        self.stall_timeout = stall_timeout
        self.deadline = Deadline.coerce(deadline)
        self.term_grace = float(term_grace)
        self.salvage = bool(salvage)
        self.straggler_threshold = float(straggler_threshold)
        # A worker counts as a straggler when the tail threshold is
        # reached and it has not beaten for this long (default: half
        # the stall timeout, so speculation starts before the kill).
        if straggler_age is None and stall_timeout is not None:
            straggler_age = stall_timeout / 2.0
        self.straggler_age = straggler_age
        self.observer = observer
        self.board: HeartbeatBoard | None = None
        self._on_straggler: Callable[[int, int], None] | None = None
        self._region_workers = 0

    # -- region lifecycle ----------------------------------------------------

    def begin_region(
        self,
        workers: int,
        total_items: int = 0,
        observer=None,
        on_straggler: Callable[[int, int], None] | None = None,
    ) -> HeartbeatBoard:
        """Arm the supervisor for one region (call *before* forking).

        ``on_straggler(rank, items_done)`` is invoked at most once per
        rank from the parent's reap loop when the region is past
        ``straggler_threshold`` and that rank looks slow.
        """
        self.board = HeartbeatBoard(workers)
        self._region_workers = int(workers)
        self._on_straggler = on_straggler
        if total_items:
            # Provisional even split; workers overwrite their row with
            # the exact share size via ``assign`` once inside.
            per = float(total_items) / workers
            for w in range(workers):
                self.board.provisional_assign(w, per)
        if observer is not None:
            self.observer = observer
        return self.board

    def region_armed_for(self, workers: int) -> bool:
        return self.board is not None and self._region_workers == int(workers)

    # convenience passthroughs used by region members -------------------------

    def assign(self, worker: int, total: int) -> None:
        if self.board is not None:
            self.board.assign(worker, total)

    def tick(self, worker: int, advance: int = 1) -> None:
        if self.board is not None:
            self.board.tick(worker, advance)

    def mark_done(self, worker: int) -> None:
        if self.board is not None:
            self.board.mark_done(worker)

    # -- the supervised join -------------------------------------------------

    def reap_region(
        self, children: list[int], parent_failed: bool = False
    ) -> tuple[list[tuple[int, int]], dict[int, dict[str, float]]]:
        """Non-blocking reap of a region's children with watchdog.

        ``children`` are pids in rank order (rank = index + 1, rank 0
        is the parent).  Returns ``(failures, stalled)`` where
        ``failures`` is ``[(rank, exit_code), ...]`` sorted by rank
        (negative codes are signal numbers) and ``stalled`` maps each
        watchdog-killed rank to its last-progress snapshot.  Raises
        :class:`DeadlineExceeded` (after killing every remaining
        child) when the deadline expires — unless ``parent_failed``,
        in which case the parent's own exception must propagate and
        this method only cleans up.
        """
        obs = as_observer(self.observer)
        board = self.board
        stalled: dict[int, dict[str, float]] = {}
        straggled: set[int] = set()
        deadline_hit = False

        def watch(
            pending: dict[int, int], failures: list[tuple[int, int]]
        ) -> None:
            nonlocal deadline_hit
            now = time.monotonic()
            if self.deadline is not None and self.deadline.expired:
                deadline_hit = True
                self._kill_pending(pending, failures, stalled, reason="deadline")
                return
            if board is not None and self.stall_timeout is not None:
                hung = [
                    rank
                    for rank in sorted(pending)
                    if not board.is_done(rank)
                    and board.age(rank, now) > self.stall_timeout
                ]
                for rank in hung:
                    snapshot = board.dump(now).get(rank, {})
                    obs.event(
                        "supervise.heartbeat_stall",
                        rank=rank,
                        age_seconds=snapshot.get("age_seconds"),
                        items_done=snapshot.get("items_done"),
                    )
                    obs.count("supervise.stalls")
                    (code,) = proc.kill(
                        pending.pop(rank), term_grace=self.term_grace
                    )
                    failures.append((rank, code))
                    stalled[rank] = snapshot
                    obs.event(
                        "supervise.worker_killed", rank=rank, exit_code=code
                    )
                    obs.count("supervise.workers_killed")
            self._maybe_straggle(pending, straggled, now, obs)

        try:
            failures = pymp.join(dict(enumerate(children, 1)), watch)
        finally:
            self.board = None
            self._on_straggler = None
            self._region_workers = 0
        if deadline_hit and not parent_failed:
            raise DeadlineExceeded(
                f"deadline of {self.deadline.seconds:g}s expired inside a "
                f"parallel region; killed {len(stalled) or len(failures)} "
                "remaining worker(s)",
                deadline=self.deadline,
            )
        return failures, stalled

    # -- internals -----------------------------------------------------------

    def _kill_pending(
        self,
        pending: dict[int, int],
        failures: list[tuple[int, int]],
        stalled: dict[int, dict[str, float]],
        reason: str,
    ) -> None:
        obs = as_observer(self.observer)
        snapshot = self.board.dump() if self.board is not None else {}
        ranks = sorted(pending)
        codes = proc.kill(
            *(pending.pop(rank) for rank in ranks), term_grace=self.term_grace
        )
        for rank, code in zip(ranks, codes):
            failures.append((rank, code))
            stalled[rank] = snapshot.get(rank, {})
            obs.event(
                "supervise.worker_killed",
                rank=rank,
                exit_code=code,
                reason=reason,
            )
            obs.count("supervise.workers_killed")

    def _maybe_straggle(
        self,
        pending: dict[int, int],
        straggled: set[int],
        now: float,
        obs,
    ) -> None:
        if self._on_straggler is None or self.board is None:
            return
        if self.straggler_age is None:
            return
        done, assigned = self.board.progress()
        if assigned <= 0 or done < self.straggler_threshold * assigned:
            return
        for rank in sorted(pending):
            if rank in straggled or self.board.is_done(rank):
                continue
            if self.board.age(rank, now) <= self.straggler_age:
                continue
            straggled.add(rank)
            items_done = self.board.items_done(rank)
            obs.event(
                "supervise.straggler_respawned",
                rank=rank,
                items_done=items_done,
            )
            obs.count("supervise.stragglers")
            try:
                self._on_straggler(rank, items_done)
            except Exception:  # pragma: no cover - speculation must not kill
                # Speculative re-execution is an optimisation; a failure
                # here must never take down the supervised join.
                pass

    def __repr__(self) -> str:
        return (
            f"Supervisor(stall_timeout={self.stall_timeout}, "
            f"deadline={self.deadline!r}, salvage={self.salvage})"
        )
