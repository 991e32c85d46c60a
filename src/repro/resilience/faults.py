"""Deterministic fault injection for chaos testing.

Real wet-lab campaigns fail in three places: *workers* die (OOM kill,
node loss), *artifacts* rot (torn writes, bit flips in part files) and
*measurements* arrive dirty (dead electrodes, rail-saturated channels,
NaN from the DAQ).  This module injects all three on demand so the
recovery paths — retry (:mod:`repro.resilience.retry`), checkpoint
resume (:mod:`repro.resilience.checkpoint`) and the solver degradation
ladder (:mod:`repro.resilience.degrade`) — can be exercised end to end
in tests and in the ``parma chaos`` smoke command.

Every fault decision is a pure function of ``(plan.seed, site key)``
via :func:`repro.utils.rng.derive_seed`, so an injection schedule is
reproducible across processes, fork order and retry attempts — the
same determinism contract the paper's schedulers keep (§IV-C.1).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.equations import PairBlock
from repro.utils.rng import default_rng, derive_seed

#: Exit status an injected worker kill uses (EX_TEMPFAIL: retryable).
KILLED_WORKER_EXIT = 75


class InjectedAbort(RuntimeError):
    """Simulated process death between units of work (checkpoint test)."""


class InjectedSolverFault(ArithmeticError):
    """Simulated solver divergence (degradation-ladder test)."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule; all fields default to "no faults".

    Attributes
    ----------
    seed:
        Root of every stochastic decision below (deterministic).
    kill_workers:
        Worker ranks to kill inside parallel formation regions.  Rank 0
        is the parent process and is never killed.
    kill_probability:
        Additional per-(attempt, worker) Bernoulli kill rate.
    kill_attempts:
        Kills fire only on attempts ``< kill_attempts`` — the default 1
        means "die once, survive the retry", which is the interesting
        recovery case.  Also gates hang/slow faults.
    kill_signal:
        When set (e.g. ``signal.SIGKILL``), doomed workers die via
        ``os.kill(os.getpid(), kill_signal)`` instead of ``os._exit``,
        so the parent observes a *negative* exit code (the signal
        number) — exercises signal-death reporting.
    hang_workers / hang_after_items:
        Worker ranks that stop making progress (sleep forever, still
        reapable via SIGTERM) after completing ``hang_after_items``
        items — exercises the heartbeat watchdog and salvage.
    slow_workers / slow_seconds_per_item:
        Worker ranks that sleep this long per item — exercises the
        straggler detector without ever tripping the stall watchdog.
    corrupt_blocks / corrupt_block_rate:
        Explicit canonical pair indices (and/or a Bernoulli rate) of
        streamed blocks that are corrupted — detectable by checksum,
        invisible to byte counting.  In memory (:meth:`FaultInjector.
        mangle_block`) their term signs are flipped before the sink; in
        a checkpointed stream their written record's ``z`` bytes are
        flipped on disk (:meth:`FaultInjector.corrupt_written`).
    drop_blocks / drop_block_rate:
        Blocks silently discarded before the sink (torn write).
    abort_after_blocks / abort_after_timepoints:
        Raise :class:`InjectedAbort` once this many blocks (streaming)
        or timepoints (campaign pipeline) have completed — simulates a
        process kill between checkpoints.
    nan_sites / saturate_sites:
        ``(row, col)`` channels of Z replaced by NaN / the saturation
        rail.
    dead_rows / dead_cols:
        Whole wires reading the saturation rail (electrode lost
        contact: every pair through it is an open circuit).
    dirty_rate:
        Bernoulli per-channel NaN rate on top of the explicit sites.
    saturation_kohm:
        The rail value used for saturated/dead channels.
    fail_rungs:
        Degradation-ladder rung names that raise
        :class:`InjectedSolverFault` instead of solving.
    serve_kill_requests:
        Request ordinals (per executor child, counted from fork) at
        which a serve executor worker dies *before* producing its
        result — the parent observes mid-batch worker loss and must
        salvage or answer ``worker-lost``.
    serve_kill_generations:
        Serve kills/hangs/drops fire only in child generations ``<``
        this bound — the default 1 means the respawned worker
        survives, which is the interesting recovery case (mirrors
        ``kill_attempts``).
    serve_hang_requests:
        Request ordinals at which the executor worker stops making
        progress (infinite sleep; only the serve stall watchdog can
        reclaim it).
    serve_slow_seconds:
        Extra seconds every executor request sleeps before solving —
        exercises queue-seconds load estimation without killing
        anything.
    serve_corrupt_frames:
        Result-frame ordinals whose length prefix is mangled before
        hitting the channel, so the parent sees a
        :class:`repro.parallel.proc.ChannelError` and must treat the
        worker as lost.
    serve_drop_connections:
        Request ordinals at which the executor worker closes its pipe
        mid-request (clean EOF instead of a crash) and exits.
    fleet_kill_requests:
        Front solve ordinals (counted at the fleet front, from 1) at
        which the *routed shard process* is SIGKILLed before the
        request is forwarded — exercising the front's ring-walk
        reroute and the watchdog respawn
        (:class:`repro.serve.fleet.SolveFleet`).
    fleet_kill_generations:
        Fleet shard kills fire only while the target shard's
        generation is ``<=`` this bound (generations start at 1 on
        first spawn) — the default 1 means the respawned shard
        survives, mirroring ``serve_kill_generations``.
    """

    seed: int = 0
    kill_workers: tuple[int, ...] = ()
    kill_probability: float = 0.0
    kill_attempts: int = 1
    kill_signal: int | None = None
    hang_workers: tuple[int, ...] = ()
    hang_after_items: int = 0
    slow_workers: tuple[int, ...] = ()
    slow_seconds_per_item: float = 0.0
    corrupt_blocks: tuple[int, ...] = ()
    corrupt_block_rate: float = 0.0
    drop_blocks: tuple[int, ...] = ()
    drop_block_rate: float = 0.0
    abort_after_blocks: int | None = None
    abort_after_timepoints: int | None = None
    nan_sites: tuple[tuple[int, int], ...] = ()
    saturate_sites: tuple[tuple[int, int], ...] = ()
    dead_rows: tuple[int, ...] = ()
    dead_cols: tuple[int, ...] = ()
    dirty_rate: float = 0.0
    saturation_kohm: float = 1.0e7
    fail_rungs: tuple[str, ...] = ()
    serve_kill_requests: tuple[int, ...] = ()
    serve_kill_generations: int = 1
    serve_hang_requests: tuple[int, ...] = ()
    serve_slow_seconds: float = 0.0
    serve_corrupt_frames: tuple[int, ...] = ()
    serve_drop_connections: tuple[int, ...] = ()
    fleet_kill_requests: tuple[int, ...] = ()
    fleet_kill_generations: int = 1

    def any_fleet_faults(self) -> bool:
        return bool(self.fleet_kill_requests)

    def any_serve_faults(self) -> bool:
        return bool(
            self.serve_kill_requests
            or self.serve_hang_requests
            or self.serve_slow_seconds > 0.0
            or self.serve_corrupt_frames
            or self.serve_drop_connections
        )

    def any_measurement_faults(self) -> bool:
        return bool(
            self.nan_sites
            or self.saturate_sites
            or self.dead_rows
            or self.dead_cols
            or self.dirty_rate > 0.0
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` at the library's injection points.

    One injector follows one logical run; the retry layer calls
    :meth:`note_attempt` between attempts so "die once" plans stop
    firing after the first failure.  The attempt counter is bumped in
    the parent *before* workers fork, so every region member agrees on
    it (copy-on-write).
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.attempt = 0

    # -- shared helpers ------------------------------------------------------

    def _bernoulli(self, rate: float, *key: int | str) -> bool:
        if rate <= 0.0:
            return False
        rng = default_rng(derive_seed(self.plan.seed, *key))
        return bool(rng.random() < rate)

    def note_attempt(self) -> None:
        """Record that a failed attempt is being retried."""
        self.attempt += 1

    # -- worker kills --------------------------------------------------------

    def should_kill_worker(self, worker: int) -> bool:
        if worker == 0 or self.attempt >= self.plan.kill_attempts:
            return False
        if worker in self.plan.kill_workers:
            return True
        return self._bernoulli(
            self.plan.kill_probability, "kill", self.attempt, worker
        )

    def maybe_kill_worker(self, worker: int) -> None:
        """Called by each region member; dies via ``os._exit`` if doomed.

        ``os._exit`` (not an exception) models a SIGKILL-style death:
        no Python unwind, no part-file commit, just a non-zero wait
        status for the parent to find.  With ``plan.kill_signal`` set
        the death is a real signal instead, so the parent reads a
        negative exit code.
        """
        if self.should_kill_worker(worker):
            if self.plan.kill_signal is not None:
                os.kill(os.getpid(), int(self.plan.kill_signal))
                time.sleep(60)  # pragma: no cover - signal delivery race
            os._exit(KILLED_WORKER_EXIT)

    # -- hangs and stragglers ------------------------------------------------

    def should_hang_worker(self, worker: int) -> bool:
        if worker == 0 or self.attempt >= self.plan.kill_attempts:
            return False
        return worker in self.plan.hang_workers

    def on_progress(self, worker: int, items_done: int) -> None:
        """Per-item hook inside formation loops: hang or slow down.

        A *hang* is an infinite sleep loop — the worker stays alive
        (so only the heartbeat watchdog can detect it) but remains
        killable by SIGTERM.  A *slow* worker just sleeps per item,
        exercising the straggler path without tripping the watchdog.
        """
        if worker == 0 or self.attempt >= self.plan.kill_attempts:
            return
        if (
            worker in self.plan.hang_workers
            and items_done >= self.plan.hang_after_items
        ):
            while True:  # pragma: no branch - exits only by signal
                time.sleep(60)
        if (
            worker in self.plan.slow_workers
            and self.plan.slow_seconds_per_item > 0.0
        ):
            time.sleep(self.plan.slow_seconds_per_item)

    # -- block corruption (streaming / serialization) ------------------------

    def block_fate(self, index: int) -> str:
        """``"ok"``, ``"corrupt"`` or ``"drop"`` for canonical block ``index``."""
        if index in self.plan.drop_blocks or self._bernoulli(
            self.plan.drop_block_rate, "drop", index
        ):
            return "drop"
        if index in self.plan.corrupt_blocks or self._bernoulli(
            self.plan.corrupt_block_rate, "corrupt", index
        ):
            return "corrupt"
        return "ok"

    def mangle_block(self, block: PairBlock, index: int) -> PairBlock | None:
        """Apply the block's fate: pass through, corrupt, or drop (None).

        Corruption flips every term sign in memory — the block keeps
        its size but its order-independent checksum is negated, which
        a checksum-keeping sink must catch.  A binary equation writer
        refuses such a block outright (it is not its template's stamp),
        so the checkpointed stream corrupts the written record instead
        (:meth:`corrupt_written`).
        """
        fate = self.block_fate(index)
        if fate == "ok":
            return block
        if fate == "drop":
            return None
        return dataclasses.replace(block, sign=(-block.sign).astype(np.int8))

    def corrupt_written(self, fh, offset: int, nbytes: int) -> None:
        """Flip every bit of ``nbytes`` already written at ``offset``.

        ``fh`` is a seekable binary file open for reading and writing;
        its position is restored.  This is bit rot after the write: the
        file keeps its size, and only a check over the damaged bytes
        (an equation record's own, see :mod:`repro.io.equations_io`)
        finds it.
        """
        end = fh.tell()
        fh.seek(offset)
        data = fh.read(nbytes)
        fh.seek(offset)
        fh.write(bytes(b ^ 0xFF for b in data))
        fh.seek(end)

    def maybe_abort_stream(self, blocks_done: int) -> None:
        limit = self.plan.abort_after_blocks
        if limit is not None and blocks_done >= limit:
            raise InjectedAbort(
                f"injected stream abort after {blocks_done} block(s)"
            )

    def maybe_abort_campaign(self, timepoints_done: int) -> None:
        limit = self.plan.abort_after_timepoints
        if limit is not None and timepoints_done >= limit:
            raise InjectedAbort(
                f"injected campaign abort after {timepoints_done} timepoint(s)"
            )

    # -- serve executor faults -----------------------------------------------

    def _serve_gated(self, generation: int) -> bool:
        """Whether destructive serve faults still fire for this child."""
        return generation < self.plan.serve_kill_generations

    def on_serve_request(self, ordinal: int, generation: int) -> None:
        """Pre-solve hook inside an executor child: kill, hang or slow.

        ``ordinal`` counts requests since the child forked;
        ``generation`` counts respawns of its slot (0 = original).
        Kills use ``os._exit`` / ``plan.kill_signal`` exactly like
        :meth:`maybe_kill_worker`, so the parent sees the same death
        shapes the formation supervisor does.
        """
        plan = self.plan
        if not self._serve_gated(generation):
            if plan.serve_slow_seconds > 0.0:
                time.sleep(plan.serve_slow_seconds)
            return
        if ordinal in plan.serve_kill_requests:
            if plan.kill_signal is not None:
                os.kill(os.getpid(), int(plan.kill_signal))
                time.sleep(60)  # pragma: no cover - signal delivery race
            os._exit(KILLED_WORKER_EXIT)
        if ordinal in plan.serve_hang_requests:
            while True:  # pragma: no branch - exits only by signal
                time.sleep(60)
        if plan.serve_slow_seconds > 0.0:
            time.sleep(plan.serve_slow_seconds)

    def fleet_kill_at(self, ordinal: int, generation: int) -> bool:
        """Whether the fleet front should kill the routed shard now.

        ``ordinal`` counts solve requests at the front (from 1);
        ``generation`` is the target shard's spawn generation (1 =
        original).  Deciding at the front — not inside the shard —
        keeps the fault deterministic under rerouting: the killed
        process is always the one the ring chose first.
        """
        if generation > self.plan.fleet_kill_generations:
            return False
        return ordinal in self.plan.fleet_kill_requests

    def serve_frame_fate(self, ordinal: int, generation: int) -> str:
        """``"ok"``, ``"corrupt"`` or ``"drop"`` for result frame ``ordinal``."""
        if not self._serve_gated(generation):
            return "ok"
        if ordinal in self.plan.serve_drop_connections:
            return "drop"
        if ordinal in self.plan.serve_corrupt_frames:
            return "corrupt"
        return "ok"

    # -- dirty measurements --------------------------------------------------

    def dirty_measurement(self, z: np.ndarray) -> np.ndarray:
        """Return a copy of ``z`` with the planned channel damage applied."""
        plan = self.plan
        if not plan.any_measurement_faults():
            return np.asarray(z, dtype=np.float64)
        out = np.array(z, dtype=np.float64, copy=True)
        m, n = out.shape
        for r in plan.dead_rows:
            out[r, :] = plan.saturation_kohm
        for c in plan.dead_cols:
            out[:, c] = plan.saturation_kohm
        for r, c in plan.saturate_sites:
            out[r, c] = plan.saturation_kohm
        for r, c in plan.nan_sites:
            out[r, c] = np.nan
        if plan.dirty_rate > 0.0:
            rng = default_rng(derive_seed(plan.seed, "dirty"))
            mask = rng.random((m, n)) < plan.dirty_rate
            out[mask] = np.nan
        return out

    # -- solver divergence ---------------------------------------------------

    def maybe_fail_rung(self, rung: str) -> None:
        if rung in self.plan.fail_rungs:
            raise InjectedSolverFault(f"injected divergence on rung {rung!r}")


def as_injector(
    faults: "FaultInjector | FaultPlan | None",
) -> FaultInjector | None:
    """Accept a plan or an injector wherever ``faults=`` is threaded."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
