"""Execution strategies for equation formation (paper §IV-A/§IV-C/§V).

The four systems the paper evaluates, mapped 1:1:

* :class:`SingleThread` — the serialized baseline of [15];
* :class:`ParallelStrategy` — 4 workers, one constraint category each
  (*Parallel*, §IV-A): capped at 4 and skewed;
* :class:`BalancedParallel` — deterministic LPT plan over the
  ``4 n^2`` (pair, category) items (*Balanced Parallel*, §IV-C.1);
* :class:`PyMPStrategy` — fine-grained Betti-aware decomposition with
  static (hole round-robin) or dynamic (shared-counter) scheduling
  (*PyMP-k*, §IV-C.2).

All strategies *really execute*: workers are forked PyMP-style
processes forming real term arrays (optionally serializing them to
per-worker part files, the Fig. 9 path) and reporting their share
through shared memory.  On a many-core box the wall-clock elapsed in
the report is the paper's measured quantity; on this 1-core container
the elapsed is serial-ish, and the scaling *figures* instead feed the
strategies' exact per-item costs into the calibrated cluster model
(:mod:`repro.parallel.simcluster`) — see DESIGN.md §2.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.categories import Category
from repro.core.equations import form_pair_block
from repro.core.partition import (
    Partition,
    WorkItem,
    partition_balanced,
    partition_betti,
    partition_by_category,
)
from repro.core.templates import (
    form_worker_share,
    get_template,
    iter_pair_batches,
    stamp_pair_block,
    warm_template_cache,
)
from repro.io.equations_io import write_block_binary, write_block_text
from repro.observe.observer import NULL_SPAN as _NO_SPAN
from repro.observe.observer import as_observer
from repro.parallel import pymp
from repro.resilience.atomio import AtomicFile
from repro.resilience.faults import as_injector
from repro.resilience.supervise import Deadline
from repro.utils.validation import require_positive, require_positive_int

#: Minimum items formed per heartbeat under supervision.  Supervised
#: workers form their share in contiguous chunks so the watchdog sees
#: progress at sub-share granularity; the chunks are consecutive
#: slices of the same sorted share, so part files stay byte-identical
#: to the unsupervised single-call path.
_SUPERVISED_CHUNK = 32

#: Upper bound on chunks per worker share: per-chunk overhead (extra
#: ``form_worker_share`` calls) must stay a constant fraction of the
#: share no matter its size, or supervision would tax large devices.
_SUPERVISED_CHUNKS_PER_SHARE = 4


def _heartbeat_chunk(share_items: int) -> int:
    """Chunk size balancing watchdog granularity against call overhead."""
    return max(_SUPERVISED_CHUNK, -(-share_items // _SUPERVISED_CHUNKS_PER_SHARE))


@dataclass(frozen=True)
class FormationReport:
    """What one formation run did, and what it cost."""

    strategy: str
    n: int
    num_workers: int
    elapsed_seconds: float
    terms_formed: int
    checksum: float
    per_worker_terms: np.ndarray
    bytes_written: int = 0
    part_files: tuple[str, ...] = field(default_factory=tuple)
    #: Items kept from surviving workers after a worker loss (verified
    #: against the template checksum table), items re-formed in the
    #: parent, and which ranks the heartbeat watchdog killed.  All zero
    #: / empty on a fault-free run.
    blocks_salvaged: int = 0
    blocks_reformed: int = 0
    stalled_ranks: tuple[int, ...] = field(default_factory=tuple)

    def terms_per_second(self) -> float:
        """Formation throughput (the paper's Fig. 5/6 y-axis unit)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.terms_formed / self.elapsed_seconds


def _validate_z(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be a square (n, n) matrix")
    if z.shape[0] < 2:
        raise ValueError("device must be at least 2x2")
    return z


class SingleThread:
    """Serial formation of every pair block (baseline [15]).

    Blocks are stamped in batches from the per-n template cache.
    """

    name = "single-thread"
    num_workers = 1

    def run(
        self,
        z: np.ndarray,
        voltage: float = 5.0,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
        faults=None,
        observer=None,
        supervise=None,
        deadline=None,
    ) -> FormationReport:
        """Form all ``2n³`` joint-constraint terms for one measurement.

        ``z`` is the (n, n) pairwise-resistance matrix in kΩ;
        ``output_dir`` (optional) streams the equations to disk in
        ``fmt`` ("binary" or "text").  ``faults``, ``observer``,
        ``supervise`` and ``deadline`` hook in fault injection,
        tracing/metrics, heartbeat supervision and the shared
        wall-clock budget — all optional, all free when absent.
        Returns a :class:`FormationReport`.
        """
        z = _validate_z(z)
        require_positive(voltage, "voltage")
        obs = as_observer(observer)
        deadline = _resolve_deadline(deadline, supervise)
        n = z.shape[0]
        start = time.perf_counter()
        terms = 0
        checksum = 0.0
        bytes_written = 0
        parts: tuple[str, ...] = ()
        writer, fh = _open_writer(output_dir, fmt, worker=0)
        ok = False
        try:
            with obs.span("formation", strategy=self.name, n=n, workers=1):
                for batch in iter_pair_batches(z, voltage=voltage):
                    if deadline is not None:
                        deadline.check("serial formation")
                    with obs.span("form.batch", pairs=batch.num_pairs):
                        terms += batch.num_terms
                        checksum += float(batch.checksums().sum())
                        if writer is not None:
                            for block in batch:
                                bytes_written += writer(block, fh)
            ok = True
        finally:
            if fh is not None:
                _close_writer(fh, ok)
                parts = (fh.name,)
        report = FormationReport(
            strategy=self.name,
            n=n,
            num_workers=1,
            elapsed_seconds=time.perf_counter() - start,
            terms_formed=terms,
            checksum=checksum,
            per_worker_terms=np.array([terms], dtype=np.int64),
            bytes_written=bytes_written,
            part_files=parts,
        )
        obs.record_formation(report)
        return report


class _PartitionedStrategy:
    """Shared machinery: execute a static :class:`Partition` with PyMP."""

    name = "partitioned"

    def __init__(self, num_workers: int) -> None:
        self.num_workers = require_positive_int(num_workers, "num_workers")

    def _partition(self, n: int) -> Partition:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(
        self,
        z: np.ndarray,
        voltage: float = 5.0,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
        faults=None,
        observer=None,
        supervise=None,
        deadline=None,
    ) -> FormationReport:
        """Form the constraints in parallel over this strategy's partition.

        Same contract as :meth:`SingleThread.run`; the work is dealt
        to ``num_workers`` forked PyMP workers per the subclass's
        partition, each writing a part file that the parent merges
        (order-independent checksum, byte-identical equations).
        """
        z = _validate_z(z)
        require_positive(voltage, "voltage")
        injector = as_injector(faults)
        obs = as_observer(observer)
        tracing = obs.enabled
        sup = supervise
        deadline = _resolve_deadline(deadline, sup)
        if deadline is not None:
            deadline.check("formation")
        n = z.shape[0]
        part = self._partition(n)
        workers = part.num_workers
        items = part.items
        worker_of = part.worker_of
        per_worker_terms = pymp.shared_array((workers,), dtype=np.int64)
        per_worker_checksum = pymp.shared_array((workers,), dtype=np.float64)
        per_worker_bytes = pymp.shared_array((workers,), dtype=np.int64)
        # Build the per-category templates in the parent so forked
        # workers inherit them copy-on-write instead of each paying
        # the build cost (and each missing the shared cache).
        warm_template_cache(
            n, [(cat,) for cat in sorted({it.category for it in items})]
        )
        # Speculative tail shares formed in the parent by the straggler
        # hook: rank -> (head_count, batches, placement).  Formation is
        # deterministic, so the speculative result is identical to what
        # the worker would produce — the checksum verification in
        # _salvage is the dedup.
        spec: dict[int, tuple[int, dict, dict]] = {}

        def _on_straggler(rank: int, items_done: int) -> None:
            if rank in spec or (deadline is not None and deadline.expired):
                return
            mine_r = np.flatnonzero(worker_of == rank)
            tail = mine_r[items_done:]
            if len(tail) == 0:
                return
            batches, placement = form_worker_share(
                n, items, tail, z, voltage=voltage
            )
            spec[rank] = (int(items_done), batches, placement)

        if sup is not None:
            sup.begin_region(
                workers,
                total_items=len(items),
                observer=obs,
                on_straggler=_on_straggler,
            )
        if tracing:
            # The spool directory must exist before the fork so every
            # region member inherits the same path; ``mark`` keeps
            # children from re-spooling inherited pre-fork spans.
            obs.ensure_spool()
        mark = obs.mark()
        start = time.perf_counter()
        salvage_stats = (0, 0)
        stalled_ranks: tuple[int, ...] = ()
        try:
            with obs.span(
                "formation", strategy=self.name, n=n, workers=workers
            ), pymp.Parallel(workers, supervisor=sup) as p:
                me = p.thread_num
                if injector is not None:
                    injector.maybe_kill_worker(me)
                writer, fh = _open_writer(output_dir, fmt, worker=me)
                my_terms = 0
                my_checksum = 0.0
                my_bytes = 0
                ok = False
                try:
                    mine = np.flatnonzero(worker_of == me)
                    if sup is not None:
                        sup.assign(me, len(mine))
                    with obs.span(
                        "formation.worker", worker=me, items=len(mine)
                    ):
                        # Unsupervised: one batched call per worker.
                        # Supervised: the same share in contiguous
                        # chunks, heartbeating per chunk (output is
                        # byte-identical; see _SUPERVISED_CHUNK).
                        chunk = (
                            _heartbeat_chunk(len(mine))
                            if sup is not None or injector is not None
                            else max(1, len(mine))
                        )
                        done = 0
                        for lo in range(0, len(mine), chunk):
                            sub = mine[lo : lo + chunk]
                            with obs.span("form.share", worker=me):
                                batches, placement = form_worker_share(
                                    n, items, sub, z, voltage=voltage
                                )
                            my_terms += sum(
                                b.num_terms for b in batches.values()
                            )
                            my_checksum += sum(
                                float(b.checksums().sum())
                                for b in batches.values()
                            )
                            if writer is not None:
                                # Emit in original item order so part
                                # files are byte-identical to per-item
                                # formation of the same partition.
                                with obs.span("form.write", worker=me):
                                    for idx in sub:
                                        cat, pos = placement[int(idx)]
                                        my_bytes += writer(
                                            batches[cat].block(pos), fh
                                        )
                            done += len(sub)
                            if sup is not None:
                                sup.tick(me, advance=len(sub))
                            if injector is not None:
                                injector.on_progress(me, done)
                    ok = True
                finally:
                    _close_writer(fh, ok)
                    if me != 0:
                        # Forked children exit via os._exit: their span
                        # buffers die with them unless spooled here.
                        obs.worker_flush(since=mark, worker=me)
                per_worker_terms[me] = my_terms
                per_worker_checksum[me] = my_checksum
                per_worker_bytes[me] = my_bytes
        except pymp.ParallelError as exc:
            if sup is None or not sup.salvage or not exc.failed_ranks:
                raise
            salvage_stats = _salvage_lost_shares(
                exc,
                n=n,
                items=items,
                worker_of=worker_of,
                z=z,
                voltage=voltage,
                output_dir=output_dir,
                fmt=fmt,
                per_worker_terms=per_worker_terms,
                per_worker_checksum=per_worker_checksum,
                per_worker_bytes=per_worker_bytes,
                spec=spec,
                obs=obs,
                deadline=deadline,
            )
            stalled_ranks = tuple(
                sorted(getattr(exc, "last_progress", {}) or ())
            )
        obs.merge_workers()
        elapsed = time.perf_counter() - start
        parts = _part_files(output_dir, fmt, workers)
        report = FormationReport(
            strategy=self.name,
            n=n,
            num_workers=workers,
            elapsed_seconds=elapsed,
            terms_formed=int(per_worker_terms.sum()),
            checksum=float(per_worker_checksum.sum()),
            per_worker_terms=per_worker_terms.copy(),
            bytes_written=int(per_worker_bytes.sum()),
            part_files=parts,
            blocks_salvaged=salvage_stats[0],
            blocks_reformed=salvage_stats[1],
            stalled_ranks=stalled_ranks,
        )
        obs.record_formation(report)
        return report


class ParallelStrategy(_PartitionedStrategy):
    """The paper's *Parallel*: exactly 4 workers, one per category."""

    name = "parallel"

    def __init__(self) -> None:
        super().__init__(4)

    def _partition(self, n: int) -> Partition:
        return partition_by_category(n)


class BalancedParallel(_PartitionedStrategy):
    """The paper's *Balanced Parallel*: deterministic LPT plan."""

    name = "balanced-parallel"

    def _partition(self, n: int) -> Partition:
        return partition_balanced(n, self.num_workers)


class PyMPStrategy(_PartitionedStrategy):
    """The paper's *PyMP-k*: Betti-aware fine-grained multiprocessing.

    ``schedule="static"`` deals homology holes round-robin
    (deterministic); ``schedule="dynamic"`` pulls items from a shared
    counter (OpenMP ``dynamic``), trading determinism for adaptivity.
    """

    name = "pymp"

    def __init__(self, num_workers: int, schedule: str = "static") -> None:
        super().__init__(num_workers)
        if schedule not in ("static", "dynamic"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.schedule = schedule

    def _partition(self, n: int) -> Partition:
        return partition_betti(n, self.num_workers)

    def run(
        self,
        z: np.ndarray,
        voltage: float = 5.0,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
        faults=None,
        observer=None,
        supervise=None,
        deadline=None,
    ) -> FormationReport:
        """Form the constraints with PyMP-k over the Betti partition.

        ``schedule="static"`` runs the shared partitioned path
        (:meth:`_PartitionedStrategy.run`); ``"dynamic"`` pulls hole
        indices from a shared atomic counter instead, so faster
        workers take more work (non-deterministic shares, identical
        merged output).
        """
        if self.schedule == "static":
            return super().run(
                z,
                voltage=voltage,
                output_dir=output_dir,
                fmt=fmt,
                faults=faults,
                observer=observer,
                supervise=supervise,
                deadline=deadline,
            )
        return self._run_dynamic(
            z, voltage, output_dir, fmt, faults, observer, supervise, deadline
        )

    def _run_dynamic(
        self,
        z: np.ndarray,
        voltage: float,
        output_dir: str | Path | None,
        fmt: str,
        faults=None,
        observer=None,
        supervise=None,
        deadline=None,
    ) -> FormationReport:
        z = _validate_z(z)
        require_positive(voltage, "voltage")
        injector = as_injector(faults)
        obs = as_observer(observer)
        tracing = obs.enabled
        sup = supervise
        deadline = _resolve_deadline(deadline, sup)
        if deadline is not None:
            deadline.check("formation")
        n = z.shape[0]
        part = self._partition(n)  # for the item list only
        items = part.items
        workers = self.num_workers
        per_worker_terms = pymp.shared_array((workers,), dtype=np.int64)
        per_worker_checksum = pymp.shared_array((workers,), dtype=np.float64)
        per_worker_bytes = pymp.shared_array((workers,), dtype=np.int64)
        warm_template_cache(
            n, [(cat,) for cat in sorted({it.category for it in items})]
        )
        if sup is not None:
            # Dynamic assignment has no per-rank share to salvage; the
            # supervisor still heartbeats (via p.xrange ticks) and the
            # watchdog converts a hang into a WorkerStalled that the
            # retry ladder can handle.
            sup.begin_region(workers, total_items=len(items), observer=obs)
        if tracing:
            obs.ensure_spool()
        mark = obs.mark()
        start = time.perf_counter()
        with obs.span(
            "formation", strategy=f"{self.name}-dynamic", n=n, workers=workers
        ), pymp.Parallel(workers, supervisor=sup) as p:
            me = p.thread_num
            if injector is not None:
                injector.maybe_kill_worker(me)
            writer, fh = _open_writer(output_dir, fmt, worker=me)
            my_terms = 0
            my_checksum = 0.0
            my_bytes = 0
            my_items = 0
            ok = False
            try:
                # Dynamic schedule pulls items one at a time from the
                # shared counter, so stamping stays per-item (the cached
                # template still skips all index recomputation).
                with obs.span("formation.worker", worker=me):
                    for idx in p.xrange(len(items)):
                        item = items[idx]
                        my_items += 1
                        if injector is not None:
                            injector.on_progress(me, my_items)
                        with obs.span(
                            "form",
                            pair=(item.row, item.col),
                            category=int(item.category),
                        ) if tracing else _NO_SPAN:
                            block = stamp_pair_block(
                                n,
                                item.row,
                                item.col,
                                z[item.row, item.col],
                                voltage=voltage,
                                categories=(item.category,),
                            )
                            my_terms += block.num_terms
                            my_checksum += block.checksum()
                            if writer is not None:
                                my_bytes += writer(block, fh)
                ok = True
            finally:
                _close_writer(fh, ok)
                if me != 0:
                    obs.worker_flush(since=mark, worker=me)
            per_worker_terms[me] = my_terms
            per_worker_checksum[me] = my_checksum
            per_worker_bytes[me] = my_bytes
        obs.merge_workers()
        elapsed = time.perf_counter() - start
        parts = _part_files(output_dir, fmt, workers)
        report = FormationReport(
            strategy=f"{self.name}-dynamic",
            n=n,
            num_workers=workers,
            elapsed_seconds=elapsed,
            terms_formed=int(per_worker_terms.sum()),
            checksum=float(per_worker_checksum.sum()),
            per_worker_terms=per_worker_terms.copy(),
            bytes_written=int(per_worker_bytes.sum()),
            part_files=parts,
        )
        obs.record_formation(report)
        return report


def _resolve_deadline(deadline, supervise):
    """One shared Deadline for the run: explicit wins, else supervisor's.

    When only one side carries a budget the other is synchronised to
    it, so the in-region watchdog and the between-stage checks drain
    the same clock.
    """
    deadline = Deadline.coerce(deadline)
    if supervise is None:
        return deadline
    if deadline is None:
        return supervise.deadline
    if supervise.deadline is None:
        supervise.deadline = deadline
    return deadline


def _expected_share(n, items, mine_r, tables):
    """(terms, checksum) a rank's share must total, from the O(1) table."""
    terms = 0
    checksum = 0.0
    for i in mine_r:
        item = items[int(i)]
        terms += int(item.cost)
        checksum += float(tables[item.category][item.row, item.col])
    return terms, checksum


def _salvage_lost_shares(
    exc,
    *,
    n,
    items,
    worker_of,
    z,
    voltage,
    output_dir,
    fmt,
    per_worker_terms,
    per_worker_checksum,
    per_worker_bytes,
    spec,
    obs,
    deadline,
):
    """Keep verified survivor shares; re-form only the lost ones.

    Called in the parent after a supervised region lost workers
    (crash, injected kill, or watchdog kill).  Every rank's reported
    (terms, checksum) is verified against the exact per-category
    template checksum tables; verified shares are *salvaged* as-is
    (their part files committed atomically before the loss), while
    missing or mismatched shares are re-formed here — reusing any
    speculative tail the straggler hook already formed — and their
    part files written by the parent, so the final output is
    bit-identical to a fault-free run.  Returns
    ``(blocks_salvaged, blocks_reformed)`` in work items.
    """
    failed = set(exc.failed_ranks)
    workers = len(per_worker_terms)
    tables = {
        cat: get_template(n, (cat,)).checksum_table
        for cat in sorted({it.category for it in items})
    }
    salvaged = 0
    reformed = 0
    for rank in range(workers):
        mine_r = np.flatnonzero(worker_of == rank)
        expected_terms, expected_checksum = _expected_share(
            n, items, mine_r, tables
        )
        intact = (
            rank not in failed
            and int(per_worker_terms[rank]) == expected_terms
            and math.isclose(
                float(per_worker_checksum[rank]),
                expected_checksum,
                rel_tol=1e-9,
                abs_tol=1e-6,
            )
        )
        if intact:
            salvaged += len(mine_r)
            continue
        if deadline is not None:
            deadline.check("salvage re-formation")
        # Reuse the speculative tail if the straggler hook got there
        # first; only the head still needs forming.
        head = mine_r
        shares = []
        if rank in spec:
            head_count, tail_batches, tail_placement = spec[rank]
            head = mine_r[:head_count]
            shares.append((tail_batches, tail_placement))
            salvaged += len(mine_r) - head_count
        if len(head):
            shares.append(form_worker_share(n, items, head, z, voltage=voltage))
            reformed += len(head)
        my_terms = sum(
            b.num_terms for batches, _ in shares for b in batches.values()
        )
        my_checksum = sum(
            float(b.checksums().sum())
            for batches, _ in shares
            for b in batches.values()
        )
        my_bytes = 0
        writer, fh = _open_writer(output_dir, fmt, worker=rank)
        ok = False
        try:
            if writer is not None:
                for idx in mine_r:
                    for batches, placement in shares:
                        if int(idx) in placement:
                            cat, pos = placement[int(idx)]
                            my_bytes += writer(batches[cat].block(pos), fh)
                            break
            ok = True
        finally:
            _close_writer(fh, ok)
        per_worker_terms[rank] = my_terms
        per_worker_checksum[rank] = my_checksum
        per_worker_bytes[rank] = my_bytes
        obs.event(
            "supervise.blocks_salvaged",
            rank=rank,
            reformed_items=int(len(head)),
            reused_speculative=rank in spec,
        )
    obs.count("supervise.blocks_salvaged", salvaged)
    obs.count("supervise.blocks_reformed", reformed)
    return salvaged, reformed


def _open_writer(output_dir, fmt, worker):
    """(writer function, atomic part file) or (None, None).

    Part files are written atomically (:class:`AtomicFile`:
    tmp+fsync+rename on commit), so a worker that dies mid-run leaves
    at most a ``*.tmp`` orphan — never a truncated part file under the
    canonical name that a later reader would consume.
    """
    if output_dir is None:
        return None, None
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "binary":
        part = AtomicFile(out / f"equations-part{worker:04d}.bin", "wb")
        return write_block_binary, part
    if fmt == "text":
        part = AtomicFile(
            out / f"equations-part{worker:04d}.txt", "w", encoding="utf-8"
        )
        return write_block_text, part
    raise ValueError(f"unknown format {fmt!r}; use 'binary' or 'text'")


def _close_writer(part, ok: bool) -> None:
    if part is not None:
        if ok:
            part.commit()
        else:
            part.abort()


def _part_files(output_dir, fmt, workers) -> tuple[str, ...]:
    if output_dir is None:
        return ()
    ext = "bin" if fmt == "binary" else "txt"
    return tuple(
        str(Path(output_dir) / f"equations-part{w:04d}.{ext}")
        for w in range(workers)
        if (Path(output_dir) / f"equations-part{w:04d}.{ext}").exists()
    )


def make_strategy(
    name: str, num_workers: int = 4
) -> "SingleThread | _PartitionedStrategy":
    """Factory by paper name: 'single' | 'parallel' | 'balanced' | 'pymp'."""
    if name in ("single", "single-thread"):
        return SingleThread()
    if name == "parallel":
        return ParallelStrategy()
    if name in ("balanced", "balanced-parallel"):
        return BalancedParallel(num_workers)
    if name == "pymp":
        return PyMPStrategy(num_workers)
    if name == "pymp-dynamic":
        return PyMPStrategy(num_workers, schedule="dynamic")
    raise ValueError(f"unknown strategy {name!r}")


# -- cost calibration for the simulated-cluster figures ----------------------


def calibrate_sec_per_term(
    n: int,
    voltage: float = 5.0,
    sample_pairs: int = 64,
    seed_z: float = 1000.0,
) -> float:
    """Measured seconds per formed term on this machine.

    Forms ``sample_pairs`` representative full pair blocks with the
    per-pair former (:func:`repro.core.equations.form_pair_block`, the
    cost model the scaling figures were fit against) and divides
    elapsed time by terms produced.  Formation cost is data-independent
    (pure index arithmetic), so a constant Z is fine.
    """
    require_positive_int(n, "n", minimum=2)
    count = min(sample_pairs, n * n)
    sample = np.linspace(0, n * n - 1, count).astype(np.int64)
    start = time.perf_counter()
    terms = 0
    for p in sample:
        row, col = divmod(int(p), n)
        block = form_pair_block(n, row, col, seed_z, voltage=voltage)
        terms += block.num_terms
    elapsed = time.perf_counter() - start
    return elapsed / max(terms, 1)


def item_costs_seconds(partition_obj: Partition, sec_per_term: float) -> np.ndarray:
    """Per-item wall costs: exact term counts × measured sec/term."""
    return np.array([it.cost for it in partition_obj.items]) * sec_per_term
