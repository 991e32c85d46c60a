"""Distributed (MPI-style) equation formation — paper §V-F's deployment.

Runs the Betti-aware decomposition across message-passing ranks using
:mod:`repro.parallel.mpi`.  Rank ``r`` forms the work items of its
partition share (optionally writing a per-rank part file, as the
cluster experiments do on GPFS), then the ranks allreduce their term
counts and checksums so every rank — and the launcher — can verify
that the union of shares is exactly the full system.

The same SPMD program structure would run unchanged on real mpi4py
(the ``Comm`` surface matches); here it runs on forked local ranks.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core.partition import partition_betti
from repro.core.strategies import (
    FormationReport,
    _part_files,
    _validate_z,
    part_writer,
    share_header,
)
from repro.core.templates import form_worker_share, warm_template_cache
from repro.observe.observer import as_observer
from repro.parallel.mpi import Comm, MPITimeout, run_mpi
from repro.resilience.supervise import Deadline, DeadlineExceeded
from repro.utils.validation import require_positive, require_positive_int


def _rank_program(
    comm: Comm,
    z: np.ndarray,
    voltage: float,
    output_dir: str | None,
):
    """SPMD body: form my share, reduce totals, report my stats."""
    t0 = time.perf_counter()
    rank, size = comm.Get_rank(), comm.Get_size()
    n = z.shape[0]
    part = partition_betti(n, size)
    mine = np.flatnonzero(part.worker_of == rank)
    share = form_worker_share(n, part.items, mine, z, voltage=voltage)
    my_bytes = 0
    with part_writer(
        output_dir,
        "binary",
        f"equations-rank{rank:04d}",
        share_header(output_dir, n, voltage, part.items, mine),
    ) as write:
        if write is not None:
            my_bytes = write(share)
    totals = comm.allreduce(np.array([share.terms, share.checksum, my_bytes]))
    return {
        "rank": rank,
        "terms": share.terms,
        "checksum": share.checksum,
        "bytes": my_bytes,
        "total_terms": int(totals[0]),
        "total_checksum": float(totals[1]),
        "total_bytes": int(totals[2]),
        # perf_counter is CLOCK_MONOTONIC on Linux, so the launcher can
        # place this rank's work window on its own trace timeline.
        "t0": t0,
        "t1": time.perf_counter(),
        "pid": os.getpid(),
    }


class MPIFormation:
    """Formation strategy executing on ``size`` message-passing ranks.

    API-compatible with the strategies of
    :mod:`repro.core.strategies` (``run(z, ...) -> FormationReport``).
    """

    name = "mpi"

    def __init__(self, size: int) -> None:
        self.num_workers = require_positive_int(size, "size")

    def run(
        self,
        z: np.ndarray,
        voltage: float = 5.0,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
        observer=None,
        deadline: Deadline | float | None = None,
    ) -> FormationReport:
        z = _validate_z(z)
        require_positive(voltage, "voltage")
        if fmt != "binary":
            raise ValueError("MPI formation persists binary part files only")
        deadline = Deadline.coerce(deadline)
        if deadline is not None:
            deadline.check("MPI formation launch")
        # Warm the per-category templates in the launcher so forked
        # ranks inherit them copy-on-write.
        part = partition_betti(z.shape[0], self.num_workers)
        warm_template_cache(
            z.shape[0],
            [(cat,) for cat in sorted({it.category for it in part.items})],
        )
        obs = as_observer(observer)
        with obs.span(
            "formation",
            strategy=self.name,
            n=z.shape[0],
            workers=self.num_workers,
        ):
            start = time.perf_counter()
            try:
                results = run_mpi(
                    _rank_program,
                    self.num_workers,
                    args=(
                        z,
                        voltage,
                        None if output_dir is None else str(output_dir),
                    ),
                    timeout=deadline,
                )
            except MPITimeout as exc:
                raise DeadlineExceeded(
                    f"deadline of {deadline.seconds:g}s expired during "
                    f"MPI formation: {exc}",
                    deadline=deadline,
                ) from exc
            elapsed = time.perf_counter() - start
            # Cross-rank consistency: every rank saw the same totals.
            totals = {
                (r["total_terms"], round(r["total_checksum"], 6)) for r in results
            }
            if len(totals) != 1:  # pragma: no cover - runtime invariant
                raise RuntimeError("ranks disagree on reduced totals")
            ordered = sorted(results, key=lambda r: r["rank"])
            if obs.enabled:
                # Ranks never see the tracer (they cross a pickle
                # boundary), so their reported work windows become
                # synthesized child spans on the launcher's timeline.
                for r in ordered:
                    obs.add_span(
                        "formation.rank",
                        ts=r["t0"],
                        dur=max(0.0, r["t1"] - r["t0"]),
                        pid=r.get("pid"),
                        tid=r["rank"],
                        rank=r["rank"],
                        terms=r["terms"],
                        bytes=r["bytes"],
                    )
            per_worker = np.array([r["terms"] for r in ordered], dtype=np.int64)
            report = FormationReport(
                strategy=self.name,
                n=z.shape[0],
                num_workers=self.num_workers,
                elapsed_seconds=elapsed,
                terms_formed=results[0]["total_terms"],
                checksum=results[0]["total_checksum"],
                per_worker_terms=per_worker,
                bytes_written=results[0]["total_bytes"],
                part_files=_part_files(
                    output_dir, fmt, "equations-rank", self.num_workers
                ),
            )
        obs.record_formation(report)
        return report
