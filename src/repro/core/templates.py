"""Template-cached equation formation — the formation fast path.

:func:`repro.core.equations.form_pair_block` rebuilds the *entire*
term layout of a pair's equations from scratch for every one of the
``n^2`` endpoint pairs.  But for a fixed ``n`` almost all of that work
is pair-invariant: the equation ids, signs, voltage-node codes,
category codes and rhs mask are literally identical for every pair,
and the resistor row/col arrays differ only through the driven pair
``(i, j)`` — term ``t`` reads either the driven index itself or the
``q``-th *other* index, a relationship that does not depend on which
pair is driven (see ``docs/THEORY.md``, "Pair-invariance of the term
layout").

So formation splits into *structure* (computed once per ``(n,
categories)`` and cached, a :class:`PairTemplate`) and *values*
(stamped per pair with two table gathers plus one rhs scale — no
Python-level layout work at all).  The same split is the backbone of
resistor-network inverse solvers that re-assemble the same sparsity
pattern every iteration; here it also feeds the batched path
:func:`form_all_pairs`, which fills one preallocated
structure-of-arrays (:class:`PairBlockBatch`) for many pairs in single
vectorised numpy operations.

The per-pair former stays as the reference: templates are *built
from it* (probe pair ``(0, 0)``, unit drive), and the property tests
assert the stamped output is bit-identical to it for every pair and
category subset.

Encoding of the per-pair resistor indices
-----------------------------------------

For the probe pair ``(0, 0)`` the sorted "other" indices are
``1..n-1``, so the reference block's own ``r_row``/``r_col`` arrays
*are* the pair-invariant codes: code ``0`` means "the driven index",
code ``q >= 1`` means "the ``q``-th other index".  Stamping pair
``(i, j)`` is then a gather through the per-index lookup table
``lookup[d] = [d, others(d)...]``::

    r_row = lookup[i][rrow_code]      # one np.take
    r_col = lookup[j][rcol_code]      # one np.take
    rhs   = rhs_unit * (U / Z_ij)     # one scalar multiply

Cache statistics (template hits, bytes resident, build time) are kept
per process and surface through :func:`cache_stats`, the
``parma info`` CLI subcommand, and
:func:`repro.instrument.report.cache_stats_table`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.categories import Category
from repro.core.equations import (
    ALL_CATEGORIES,
    PairBlock,
    form_pair_block,
)
from repro.utils.validation import require_positive, require_positive_int

@dataclass(frozen=True)
class PairTemplate:
    """All pair-invariant structure of a pair's equations for one n.

    Built once from the reference implementation (probe pair
    ``(0, 0)``, unit voltage and impedance) and stamped out per pair by
    pure value arithmetic.  All arrays are read-only; stamped blocks
    share them.
    """

    n: int
    categories: tuple[Category, ...]
    eq_id: np.ndarray  # int32 (T,), shared by every stamped block
    sign: np.ndarray  # int8 (T,), shared
    v_plus: np.ndarray  # int16 (T,), shared
    v_minus: np.ndarray  # int16 (T,), shared
    category: np.ndarray  # int8 (E,), shared
    rhs_unit: np.ndarray  # float64 (E,): 1.0 on SOURCE/DEST rows else 0.0
    rrow_code: np.ndarray  # intp (T,): 0 = driven row, q = q-th other
    rcol_code: np.ndarray  # intp (T,): 0 = driven col, q = q-th other
    lookup: np.ndarray  # int32 (n, n): lookup[d] = [d, others(d)...]
    checksum_weight: np.ndarray  # float64 (T,): sign (v+ + 1) (v- + 3)
    checksum_table: np.ndarray  # float64 (n, n): every pair's checksum
    build_seconds: float

    @property
    def num_terms(self) -> int:
        return len(self.eq_id)

    @property
    def num_equations(self) -> int:
        return len(self.rhs_unit)

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.eq_id,
                self.sign,
                self.v_plus,
                self.v_minus,
                self.category,
                self.rhs_unit,
                self.rrow_code,
                self.rcol_code,
                self.lookup,
                self.checksum_weight,
                self.checksum_table,
            )
        )

    # -- stamping -----------------------------------------------------------

    def stamp(
        self, row: int, col: int, z: float, voltage: float = 5.0
    ) -> PairBlock:
        """The :class:`PairBlock` of pair ``(row, col)`` — bit-identical
        to :func:`repro.core.equations.form_pair_block`."""
        n = self.n
        if not (0 <= row < n and 0 <= col < n):
            raise IndexError(f"pair ({row}, {col}) out of range for n={n}")
        require_positive(z, "z")
        require_positive(voltage, "voltage")
        r_row = np.take(self.lookup[row], self.rrow_code, mode="clip")
        r_col = np.take(self.lookup[col], self.rcol_code, mode="clip")
        return PairBlock(
            n=n,
            row=row,
            col=col,
            voltage=voltage,
            z=float(z),
            eq_id=self.eq_id,
            sign=self.sign,
            r_row=r_row,
            r_col=r_col,
            v_plus=self.v_plus,
            v_minus=self.v_minus,
            rhs=self.rhs_unit * (voltage / z),
            category=self.category,
        )

    def stamp_batch(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        z: np.ndarray,
        voltage: float = 5.0,
    ) -> "PairBlockBatch":
        """Fill one structure-of-arrays for many pairs at once.

        The only per-pair arrays are ``r_row``/``r_col`` (two batched
        ``np.take`` gathers into preallocated ``(P, T)`` buffers) and
        ``rhs`` (one outer product); everything else is the shared
        template structure.
        """
        n = self.n
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        z = np.asarray(z, dtype=np.float64)
        if not (rows.ndim == cols.ndim == z.ndim == 1):
            raise ValueError("rows, cols and z must be 1-D")
        if not (len(rows) == len(cols) == len(z)):
            raise ValueError("rows, cols and z must have equal length")
        if len(rows) and not (
            (rows >= 0).all()
            and (rows < n).all()
            and (cols >= 0).all()
            and (cols < n).all()
        ):
            raise IndexError(f"pair indices out of range for n={n}")
        if len(z) and not (z > 0).all():
            raise ValueError("z must be positive")
        require_positive(voltage, "voltage")
        p = len(rows)
        t = self.num_terms
        r_row = np.empty((p, t), dtype=np.int32)
        r_col = np.empty((p, t), dtype=np.int32)
        np.take(self.lookup[rows], self.rrow_code, axis=1, out=r_row, mode="clip")
        np.take(self.lookup[cols], self.rcol_code, axis=1, out=r_col, mode="clip")
        rhs = (voltage / z)[:, None] * self.rhs_unit[None, :]
        return PairBlockBatch(
            template=self,
            rows=rows,
            cols=cols,
            z=z,
            voltage=float(voltage),
            r_row=r_row,
            r_col=r_col,
            rhs=rhs,
        )


@dataclass(frozen=True)
class PairBlockBatch:
    """Structure-of-arrays equations for a batch of endpoint pairs.

    ``r_row``/``r_col`` are ``(P, T)``; ``rhs`` is ``(P, E)``; all
    remaining structure lives on the shared :class:`PairTemplate`.
    :meth:`block` materialises one pair as a zero-copy
    :class:`PairBlock` view (row slices of the batch buffers), so
    serialization and checksums of individual pairs behave exactly as
    in the per-pair path.
    """

    template: PairTemplate
    rows: np.ndarray  # intp (P,)
    cols: np.ndarray  # intp (P,)
    z: np.ndarray  # float64 (P,)
    voltage: float
    r_row: np.ndarray  # int32 (P, T)
    r_col: np.ndarray  # int32 (P, T)
    rhs: np.ndarray  # float64 (P, E)

    @property
    def num_pairs(self) -> int:
        return len(self.rows)

    @property
    def num_terms(self) -> int:
        """Total terms across the batch."""
        return self.num_pairs * self.template.num_terms

    @property
    def num_equations(self) -> int:
        """Total equations across the batch."""
        return self.num_pairs * self.template.num_equations

    def nbytes(self) -> int:
        """Batch-owned bytes (template structure counted separately)."""
        return (
            self.r_row.nbytes
            + self.r_col.nbytes
            + self.rhs.nbytes
            + self.rows.nbytes
            + self.cols.nbytes
            + self.z.nbytes
        )

    def checksums(self) -> np.ndarray:
        """Per-pair :meth:`PairBlock.checksum` values, batched.

        Served from the template's precomputed ``(n, n)`` checksum
        table in O(1) per pair.  Exact (not merely close): every
        partial sum in the table's construction is an integer
        representable in float64, so each entry equals the reference
        term-by-term sum bit-for-bit.
        """
        return self.template.checksum_table[self.rows, self.cols]

    def checksum(self) -> float:
        return float(self.checksums().sum())

    def block(self, p: int) -> PairBlock:
        """Zero-copy :class:`PairBlock` view of batch entry ``p``."""
        tpl = self.template
        return PairBlock(
            n=tpl.n,
            row=int(self.rows[p]),
            col=int(self.cols[p]),
            voltage=self.voltage,
            z=float(self.z[p]),
            eq_id=tpl.eq_id,
            sign=tpl.sign,
            r_row=self.r_row[p],
            r_col=self.r_col[p],
            v_plus=tpl.v_plus,
            v_minus=tpl.v_minus,
            rhs=self.rhs[p],
            category=tpl.category,
        )

    def __iter__(self) -> Iterator[PairBlock]:
        for p in range(self.num_pairs):
            yield self.block(p)


# -- the process-wide template cache -----------------------------------------


@dataclass
class TemplateCacheStats:
    """Observable counters of one formation-structure cache."""

    name: str
    entries: int = 0
    hits: int = 0
    misses: int = 0
    bytes_resident: int = 0
    build_seconds: float = 0.0

    def snapshot(self) -> "TemplateCacheStats":
        return TemplateCacheStats(
            name=self.name,
            entries=self.entries,
            hits=self.hits,
            misses=self.misses,
            bytes_resident=self.bytes_resident,
            build_seconds=self.build_seconds,
        )


_CACHE: dict[tuple[int, tuple[Category, ...]], PairTemplate] = {}
_CACHE_LOCK = threading.Lock()
_STATS = TemplateCacheStats(name="pair-template")


def _build_template(
    n: int, categories: tuple[Category, ...]
) -> PairTemplate:
    """Derive the template from the reference implementation.

    The probe block for pair ``(0, 0)`` at unit voltage and impedance
    provides everything: its ``r_row``/``r_col`` arrays are the
    pair-invariant codes (the sorted other-indices of 0 are
    ``1..n-1``), and its ``rhs`` is exactly the 0/1 mask.
    """
    start = time.perf_counter()
    probe = form_pair_block(n, 0, 0, 1.0, voltage=1.0, categories=categories)
    lookup = np.empty((n, n), dtype=np.int32)
    base = np.arange(n, dtype=np.int32)
    for d in range(n):
        lookup[d, 0] = d
        lookup[d, 1:d + 1] = base[:d]
        lookup[d, d + 1:] = base[d + 1:]
    checksum_weight = (
        probe.sign.astype(np.float64)
        * (probe.v_plus.astype(np.float64) + 1.0)
        * (probe.v_minus.astype(np.float64) + 3.0)
    )
    # The checksum is bilinear in the lookup rows:
    #   sum_t w_t (L[row, a_t] + 1) (L[col, b_t] + 1)
    # so aggregating the weights onto their (a, b) code cell gives every
    # pair's checksum as one (n, n) table.  All intermediate sums are
    # integers well below 2^53, so the table is exact, not approximate.
    weight_by_code = np.zeros((n, n), dtype=np.float64)
    np.add.at(
        weight_by_code,
        (probe.r_row.astype(np.intp), probe.r_col.astype(np.intp)),
        checksum_weight,
    )
    shifted = lookup.astype(np.float64) + 1.0
    checksum_table = shifted @ weight_by_code @ shifted.T
    arrays = dict(
        eq_id=probe.eq_id,
        sign=probe.sign,
        v_plus=probe.v_plus,
        v_minus=probe.v_minus,
        category=probe.category,
        rhs_unit=probe.rhs,
        rrow_code=probe.r_row.astype(np.intp),
        rcol_code=probe.r_col.astype(np.intp),
        lookup=lookup,
        checksum_weight=checksum_weight,
        checksum_table=checksum_table,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return PairTemplate(
        n=n,
        categories=categories,
        build_seconds=time.perf_counter() - start,
        **arrays,
    )


def get_template(
    n: int, categories: Sequence[Category] = ALL_CATEGORIES
) -> PairTemplate:
    """The cached :class:`PairTemplate` for ``(n, categories)``."""
    n = require_positive_int(n, "n", minimum=2)
    key = (n, tuple(categories))
    if len(set(key[1])) != len(key[1]):
        raise ValueError("duplicate categories")
    with _CACHE_LOCK:
        tpl = _CACHE.get(key)
        if tpl is not None:
            _STATS.hits += 1
            return tpl
    tpl = _build_template(n, key[1])
    with _CACHE_LOCK:
        raced = _CACHE.get(key)
        if raced is not None:  # pragma: no cover - build race
            _STATS.hits += 1
            return raced
        _CACHE[key] = tpl
        _STATS.misses += 1
        _STATS.entries = len(_CACHE)
        _STATS.bytes_resident += tpl.nbytes()
        _STATS.build_seconds += tpl.build_seconds
    return tpl


def cache_stats() -> TemplateCacheStats:
    """A snapshot of the template-cache counters for this process."""
    with _CACHE_LOCK:
        return _STATS.snapshot()


def clear_template_cache() -> None:
    """Drop every cached template and reset the counters (tests)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _STATS.entries = 0
        _STATS.hits = 0
        _STATS.misses = 0
        _STATS.bytes_resident = 0
        _STATS.build_seconds = 0.0


def warm_template_cache(
    n: int, categories_list: Sequence[Sequence[Category]] = (ALL_CATEGORIES,)
) -> None:
    """Prebuild templates (e.g. before forking parallel workers, so
    children inherit them copy-on-write instead of each building its
    own)."""
    for cats in categories_list:
        get_template(n, cats)


# -- the fast formation entry points -----------------------------------------


def stamp_pair_block(
    n: int,
    row: int,
    col: int,
    z: float,
    voltage: float = 5.0,
    categories: Sequence[Category] = ALL_CATEGORIES,
) -> PairBlock:
    """Drop-in fast twin of :func:`repro.core.equations.form_pair_block`.

    Same signature, bit-identical output; structure comes from the
    template cache instead of being rebuilt.
    """
    return get_template(n, categories).stamp(row, col, z, voltage=voltage)


def form_all_pairs(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    z: np.ndarray,
    voltage: float = 5.0,
    categories: Sequence[Category] = ALL_CATEGORIES,
) -> PairBlockBatch:
    """Batched formation of many pairs in one vectorised fill.

    ``rows``/``cols``/``z`` are parallel 1-D arrays (one entry per
    pair).  This is the path a parallel worker uses for its whole
    partition share: one preallocated structure-of-arrays instead of
    an item-deep Python loop.
    """
    return get_template(n, categories).stamp_batch(
        rows, cols, z, voltage=voltage
    )


#: Pairs per internal batch of :func:`iter_pair_blocks_cached` —
#: bounds transient memory at ~chunk * 2n^2 terms regardless of device
#: size, preserving the streaming-mode O(small) footprint.
_ITER_CHUNK_TERMS = 1 << 21


def iter_pair_batches(
    z: np.ndarray, voltage: float = 5.0
) -> Iterator[PairBlockBatch]:
    """Row-major device coverage as bounded-size batches.

    Each batch holds at most ``~_ITER_CHUNK_TERMS`` terms, so peak
    transient memory is independent of device size (the streaming-mode
    guarantee) while every fill stays a single vectorised operation.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be square (n, n)")
    n = z.shape[0]
    tpl = get_template(n)
    chunk = max(1, _ITER_CHUNK_TERMS // tpl.num_terms)
    num_pairs = n * n
    flat_rows = np.arange(num_pairs, dtype=np.intp) // n
    flat_cols = np.arange(num_pairs, dtype=np.intp) % n
    flat_z = z.ravel()
    for s in range(0, num_pairs, chunk):
        yield tpl.stamp_batch(
            flat_rows[s : s + chunk],
            flat_cols[s : s + chunk],
            flat_z[s : s + chunk],
            voltage=voltage,
        )


def iter_pair_blocks_cached(
    z: np.ndarray, voltage: float = 5.0
) -> Iterator[PairBlock]:
    """Fast twin of :func:`repro.core.equations.iter_pair_blocks`.

    Streams every pair's block in row-major order, stamping from the
    cached template in bounded-size internal batches.  Yielded blocks
    are views into the current batch, so sinks must not retain them
    (the same contract the streaming module already imposes).
    """
    for batch in iter_pair_batches(z, voltage=voltage):
        yield from batch


def form_worker_share(
    n: int,
    items: Sequence,
    item_indices: np.ndarray,
    z: np.ndarray,
    voltage: float = 5.0,
) -> tuple[dict[Category, PairBlockBatch], dict[int, tuple[Category, int]]]:
    """Batched formation of one worker's partition share.

    ``items`` are :class:`repro.core.partition.WorkItem`-likes (with
    ``row``/``col``/``category``); ``item_indices`` selects this
    worker's share.  Items are grouped per category — one
    :func:`form_all_pairs` call each — while ``placement`` maps every
    item index back to ``(category, position)`` so callers can emit
    blocks in the original deterministic item order (part files stay
    byte-identical to per-item formation).
    """
    by_cat: dict[Category, list[int]] = {}
    for idx in item_indices:
        by_cat.setdefault(items[idx].category, []).append(int(idx))
    batches: dict[Category, PairBlockBatch] = {}
    placement: dict[int, tuple[Category, int]] = {}
    for cat, idxs in by_cat.items():
        rows = np.array([items[i].row for i in idxs], dtype=np.intp)
        cols = np.array([items[i].col for i in idxs], dtype=np.intp)
        batches[cat] = form_all_pairs(
            n, rows, cols, z[rows, cols], voltage=voltage, categories=(cat,)
        )
        for pos, i in enumerate(idxs):
            placement[i] = (cat, pos)
    return batches, placement
