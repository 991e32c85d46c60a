"""The per-pair formation path, kept as a test oracle.

Every formation path in :mod:`repro` stamps pair blocks from the per-n
template cache (:mod:`repro.core.templates`).  Before the cache, each
worker formed each of its work items from scratch with
:func:`repro.core.equations.form_pair_block`, one item at a time in
item order.  This module does exactly that, writing with the product's
block writers under the product's part-file names, so a strategy's
part files — an MPI run's rank files, and an elastic run's chunk
files — must equal the oracle's byte for byte, and its ``terms_formed``/``checksum`` must equal the
oracle's exactly.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.equations import PairBlock, form_pair_block, iter_pair_blocks
from repro.core.partition import make_items, partition_betti
from repro.core.strategies import SingleThread
from repro.io.equations_io import write_block_binary, write_block_text


@dataclass(frozen=True)
class ReferenceReport:
    """What the per-pair oracle formed (the matching FormationReport fields)."""

    terms_formed: int
    checksum: float
    per_worker_terms: np.ndarray
    part_files: tuple[str, ...]


def reference_formation(
    strategy,
    z: np.ndarray,
    voltage: float = 5.0,
    output_dir: str | Path | None = None,
    fmt: str = "binary",
) -> ReferenceReport:
    """Form ``strategy``'s work per pair, in the order its workers write it.

    ``SingleThread`` forms every pair's full block in row-major order
    into part 0; a partitioned strategy forms each item of its
    ``_partition(n)`` for one category, worker by worker.  Part files
    are ``equations-part<w>.bin`` (or ``.txt`` for ``fmt="text"``).
    """
    z = np.asarray(z, dtype=np.float64)
    if isinstance(strategy, SingleThread):
        shares = [iter_pair_blocks(z, voltage=voltage)]
    else:
        part = strategy._partition(z.shape[0])
        shares = [
            _item_blocks(part.items_of(w), z, voltage)
            for w in range(part.num_workers)
        ]
    ext = {"binary": "bin", "text": "txt"}[fmt]
    return _write_shares(shares, output_dir, "equations-part{:04d}." + ext, fmt)


def reference_rank_files(
    size: int,
    z: np.ndarray,
    voltage: float = 5.0,
    output_dir: str | Path | None = None,
) -> ReferenceReport:
    """Per-pair formation of ``MPIFormation(size)``'s Betti rank shares."""
    z = np.asarray(z, dtype=np.float64)
    part = partition_betti(z.shape[0], size)
    shares = [_item_blocks(part.items_of(r), z, voltage) for r in range(size)]
    return _write_shares(shares, output_dir, "equations-rank{:04d}.bin", "binary")


def reference_chunk_files(
    z: np.ndarray,
    chunk_items: int = 32,
    voltage: float = 5.0,
    output_dir: str | Path | None = None,
) -> ReferenceReport:
    """Per-pair formation of ``run_elastic_formation``'s chunks.

    Chunk ``c`` is items ``[c * chunk_items, (c + 1) * chunk_items)``
    of :func:`repro.core.partition.make_items`, written in item order
    to ``equations-chunk<c:05d>.bin``.
    """
    z = np.asarray(z, dtype=np.float64)
    items = make_items(z.shape[0])
    shares = [
        _item_blocks(items[lo : lo + chunk_items], z, voltage)
        for lo in range(0, len(items), chunk_items)
    ]
    return _write_shares(shares, output_dir, "equations-chunk{:05d}.bin", "binary")


def _item_blocks(items, z: np.ndarray, voltage: float) -> Iterator[PairBlock]:
    for item in items:
        yield form_pair_block(
            z.shape[0],
            item.row,
            item.col,
            z[item.row, item.col],
            voltage=voltage,
            categories=[item.category],
        )


def _write_shares(shares, output_dir, name: str, fmt: str) -> ReferenceReport:
    writer, mode, encoding = (
        (write_block_binary, "wb", None)
        if fmt == "binary"
        else (write_block_text, "w", "utf-8")
    )
    per_worker = np.zeros(len(shares), dtype=np.int64)
    checksum = 0.0
    paths = []
    for w, blocks in enumerate(shares):
        fh = None
        if output_dir is not None:
            path = Path(output_dir) / name.format(w)
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, mode, encoding=encoding)
            paths.append(str(path))
        try:
            for block in blocks:
                per_worker[w] += block.num_terms
                checksum += block.checksum()
                if fh is not None:
                    writer(block, fh)
        finally:
            if fh is not None:
                fh.close()
    return ReferenceReport(
        terms_formed=int(per_worker.sum()),
        checksum=checksum,
        per_worker_terms=per_worker,
        part_files=tuple(paths),
    )
