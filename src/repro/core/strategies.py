"""Execution strategies for equation formation (paper §IV-A/§IV-C/§V).

The four systems the paper evaluates, mapped 1:1:

* :class:`SingleThread` — the serialized baseline of [15];
* :class:`ParallelStrategy` — 4 workers, one constraint category each
  (*Parallel*, §IV-A): capped at 4 and skewed;
* :class:`BalancedParallel` — deterministic LPT plan over the
  ``4 n^2`` (pair, category) items (*Balanced Parallel*, §IV-C.1);
* :class:`PyMPStrategy` — fine-grained Betti-aware decomposition,
  homology holes dealt round-robin over the workers (*PyMP-k*,
  §IV-C.2).

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

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.equations import form_pair_block
from repro.core.partition import (
    Partition,
    partition_balanced,
    partition_betti,
    partition_by_category,
)
from repro.core.templates import (
    WorkerShare,
    expected_share,
    form_worker_share,
    get_template,
    iter_pair_batches,
    share_matches,
    share_templates,
    warm_template_cache,
)
from repro.io.equations_io import (
    EquationHeader,
    EquationWriter,
    write_block_binary,
    write_block_text,
)
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
        header = EquationHeader(n, voltage, (get_template(n),), n * n)
        with part_writer(output_dir, fmt, "equations-part0000", header) as write, \
                obs.span("formation", strategy=self.name, n=n, workers=1):
            for batch in iter_pair_batches(z, voltage=voltage):
                if deadline is not None:
                    deadline.check("serial formation")
                with obs.span("form.batch", pairs=batch.num_pairs):
                    terms += batch.num_terms
                    checksum += float(batch.checksums().sum())
                    if write is not None:
                        bytes_written += write(batch)
        report = FormationReport(
            strategy=self.name,
            n=n,
            num_workers=1,
            elapsed_seconds=time.perf_counter() - start,
            terms_formed=terms,
            checksum=checksum,
            per_worker_terms=np.array([terms], dtype=np.int64),
            bytes_written=bytes_written,
            part_files=_part_files(output_dir, fmt, "equations-part", 1),
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
        # hook: rank -> (head_count, tail share).  Formation is
        # deterministic, so the speculative result is identical to what
        # the worker would produce — the checksum verification in
        # _salvage is the dedup.
        spec: dict[int, tuple[int, WorkerShare]] = {}

        def _on_straggler(rank: int, items_done: int) -> None:
            if rank in spec or (deadline is not None and deadline.expired):
                return
            mine_r = np.flatnonzero(worker_of == rank)
            tail = mine_r[items_done:]
            if len(tail) == 0:
                return
            spec[rank] = (
                int(items_done),
                form_worker_share(n, items, tail, z, voltage=voltage),
            )

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
                my_terms = 0
                my_checksum = 0.0
                my_bytes = 0
                mine = np.flatnonzero(worker_of == me)
                if sup is not None:
                    sup.assign(me, len(mine))
                # Unsupervised: one batched share per worker.  Supervised:
                # the same share in contiguous chunks, heartbeating per
                # chunk (output is byte-identical; see _SUPERVISED_CHUNK).
                chunk = (
                    _heartbeat_chunk(len(mine))
                    if sup is not None or injector is not None
                    else max(1, len(mine))
                )
                try:
                    with part_writer(
                        output_dir,
                        fmt,
                        f"equations-part{me:04d}",
                        share_header(output_dir, n, voltage, items, mine),
                    ) as write, obs.span(
                        "formation.worker", worker=me, items=len(mine)
                    ):
                        for lo in range(0, len(mine), chunk):
                            sub = mine[lo : lo + chunk]
                            with obs.span("form.share", worker=me):
                                share = form_worker_share(
                                    n, items, sub, z, voltage=voltage
                                )
                            my_terms += share.terms
                            my_checksum += share.checksum
                            if write is not None:
                                with obs.span("form.write", worker=me):
                                    my_bytes += write(share)
                            if sup is not None:
                                sup.tick(me, advance=len(sub))
                            if injector is not None:
                                injector.on_progress(me, lo + len(sub))
                finally:
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
        parts = _part_files(output_dir, fmt, "equations-part", workers)
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

    The ``(n-1)^k`` homology holes are dealt round-robin over the
    workers (a deterministic static schedule), so every run writes the
    same part files.
    """

    name = "pymp"

    def _partition(self, n: int) -> Partition:
        return partition_betti(n, self.num_workers)

    # Own class attribute: e2ebench/workloads.py wraps __dict__["run"].
    def run(self, *args, **kwargs) -> FormationReport:
        """Form the constraints with PyMP-k over the Betti partition."""
        return super().run(*args, **kwargs)


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
    (terms, checksum) is checked against :func:`expected_share`;
    verified shares are *salvaged* as-is (their part files committed
    atomically before the loss), while missing or mismatched shares
    are re-formed here — reusing any speculative tail the straggler
    hook already formed — and their part files written by the parent,
    head then tail, so the final output is bit-identical to a
    fault-free run.  Returns ``(blocks_salvaged, blocks_reformed)`` in
    work items.
    """
    failed = set(exc.failed_ranks)
    salvaged = 0
    reformed = 0
    for rank in range(len(per_worker_terms)):
        mine_r = np.flatnonzero(worker_of == rank)
        if rank not in failed and share_matches(
            expected_share(n, items, mine_r),
            per_worker_terms[rank],
            per_worker_checksum[rank],
        ):
            salvaged += len(mine_r)
            continue
        if deadline is not None:
            deadline.check("salvage re-formation")
        # Reuse the speculative tail if the straggler hook got there
        # first; only the head still needs forming.
        head_count, tail = spec.get(rank, (len(mine_r), None))
        shares = [
            form_worker_share(n, items, mine_r[:head_count], z, voltage=voltage)
        ]
        if tail is not None:
            shares.append(tail)
            salvaged += len(tail)
        reformed += head_count
        my_bytes = 0
        with part_writer(
            output_dir,
            fmt,
            f"equations-part{rank:04d}",
            share_header(output_dir, n, voltage, items, mine_r),
        ) as write:
            if write is not None:
                for share in shares:
                    my_bytes += write(share)
        per_worker_terms[rank] = sum(share.terms for share in shares)
        per_worker_checksum[rank] = sum(share.checksum for share in shares)
        per_worker_bytes[rank] = my_bytes
        obs.event(
            "supervise.blocks_salvaged",
            rank=rank,
            reformed_items=int(head_count),
            reused_speculative=tail is not None,
        )
    obs.count("supervise.blocks_salvaged", salvaged)
    obs.count("supervise.blocks_reformed", reformed)
    return salvaged, reformed


_EXTENSIONS = {"binary": "bin", "text": "txt"}


def share_header(
    output_dir, n, voltage, items, item_indices
) -> EquationHeader | None:
    """The binary part-file header of one share of the work items, or
    None when nothing is written (it costs a pass over the items)."""
    if output_dir is None:
        return None
    return EquationHeader(
        n, voltage, share_templates(n, items, item_indices), len(item_indices)
    )


def _open_writer(output_dir, fmt, name, header):
    """(write function, atomic part file ``<name>.bin|.txt``) or (None, None).

    Part files are written atomically (:class:`AtomicFile`:
    tmp+fsync+rename on commit), so a worker that dies mid-run leaves
    at most a ``*.tmp`` orphan — never a truncated part file under the
    canonical name that a later reader would consume.
    """
    if output_dir is None:
        return None, None
    if fmt not in _EXTENSIONS:
        raise ValueError(f"unknown format {fmt!r}; use 'binary' or 'text'")
    path = Path(output_dir) / f"{name}.{_EXTENSIONS[fmt]}"
    if fmt == "binary":
        part = AtomicFile(path, "wb")
        out = EquationWriter(part, header)
        return (lambda blocks: write_block_binary(blocks, out)), part
    part = AtomicFile(path, "w", encoding="utf-8")
    return (lambda blocks: sum(write_block_text(b, part) for b in blocks)), part


def _close_writer(part, ok: bool) -> None:
    if part is not None:
        if ok:
            part.commit()
        else:
            part.abort()


@contextmanager
def part_writer(output_dir, fmt, name, header: EquationHeader | None):
    """Write one part file ``<output_dir>/<name>.bin|.txt`` atomically.

    Yields ``write(blocks) -> bytes written``, or None when
    ``output_dir`` is None; ``blocks`` is a :class:`PairBlockBatch` or
    a :class:`WorkerShare`.  A binary part is a ``PMEQ2`` file
    declaring ``header`` (text parts ignore it), and its records are
    written from the batch arrays ``(rows, cols, z)``.  The part is committed when the block
    exits normally and aborted (its ``*.tmp`` removed) when it raises,
    so no caller ever leaves a truncated part under its final name.
    Every share writer — PyMP workers, salvage, MPI ranks, elastic
    chunks — and the serial strategy go through here.
    """
    write, part = _open_writer(output_dir, fmt, name, header)
    ok = False
    try:
        yield write
        ok = True
    finally:
        _close_writer(part, ok)


def _part_files(output_dir, fmt, stem, count) -> tuple[str, ...]:
    """The committed ``<stem><i:04d>`` part files, ``i < count``."""
    if output_dir is None:
        return ()
    paths = (
        Path(output_dir) / f"{stem}{i:04d}.{_EXTENSIONS[fmt]}"
        for i in range(count)
    )
    return tuple(str(p) for p in paths if p.exists())


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
