"""The per-pair formation path, kept as a test oracle.

Every formation path in :mod:`repro` stamps pair blocks from the per-n
template cache (:mod:`repro.core.templates`).  Before the cache, each
worker formed each of its work items from scratch with
:func:`repro.core.equations.form_pair_block`, one item at a time in
item order.  This module does exactly that, under the product's
part-file names, and keeps each part's blocks in
:attr:`ReferenceReport.part_blocks`.

A binary part file (``PMEQ2``) holds its templates and one
``(row, col, template, z)`` record per item, not the formed term
arrays, so equal bytes prove only equal records.  Formation parity is
proved on blocks: every block read back from a strategy's part files —
an MPI run's rank files, an elastic run's chunk files — must equal the
oracle's block at the same position, array by array
(:func:`assert_parts_match`).  The oracle also writes its parts with
the product's writer, so the files must still be byte-identical, and
``terms_formed``/``checksum`` must equal the oracle's exactly.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.equations import PairBlock, form_pair_block, iter_pair_blocks
from repro.core.partition import make_items, partition_betti
from repro.core.strategies import SingleThread
from repro.io.equations_io import (
    load_blocks_binary,
    write_block_binary,
    write_block_text,
)

#: Every array of a :class:`PairBlock`, in declaration order.
BLOCK_ARRAYS = (
    "eq_id", "sign", "r_row", "r_col", "v_plus", "v_minus", "rhs", "category"
)


@dataclass(frozen=True)
class ReferenceReport:
    """What the per-pair oracle formed (the matching FormationReport fields)."""

    terms_formed: int
    checksum: float
    per_worker_terms: np.ndarray
    part_files: tuple[str, ...]
    #: Each share's blocks in write order (one entry per share,
    #: whether or not it was written).
    part_blocks: tuple[tuple[PairBlock, ...], ...] = ()


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
    per_worker = np.zeros(len(shares), dtype=np.int64)
    checksum = 0.0
    paths = []
    part_blocks = []
    for w, blocks in enumerate(shares):
        blocks = tuple(blocks)
        part_blocks.append(blocks)
        for block in blocks:
            per_worker[w] += block.num_terms
            checksum += block.checksum()
        if output_dir is None:
            continue
        path = Path(output_dir) / name.format(w)
        path.parent.mkdir(parents=True, exist_ok=True)
        paths.append(str(path))
        if fmt == "binary":
            with open(path, "wb") as fh:
                write_block_binary(blocks, fh)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                for block in blocks:
                    write_block_text(block, fh)
    return ReferenceReport(
        terms_formed=int(per_worker.sum()),
        checksum=checksum,
        per_worker_terms=per_worker,
        part_files=tuple(paths),
        part_blocks=tuple(part_blocks),
    )


def assert_blocks_equal(got: PairBlock, want: PairBlock) -> None:
    """``got`` equals ``want`` in every field, array by array (dtype too)."""
    for name in ("n", "row", "col", "voltage", "z"):
        assert getattr(got, name) == getattr(want, name), name
    for name in BLOCK_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_parts_match(part_files, ref: ReferenceReport) -> None:
    """The blocks read back from binary ``part_files`` equal the
    oracle's, part by part and in order.

    ``part_files`` are matched to ``ref.part_files`` by name; a share
    with no items has an empty part on both sides.
    """
    names = [Path(p).name for p in part_files]
    assert names == [Path(p).name for p in ref.part_files], names
    for path, want in zip(part_files, ref.part_blocks):
        got = load_blocks_binary(path)
        assert len(got) == len(want), Path(path).name
        for a, b in zip(got, want):
            assert_blocks_equal(a, b)
