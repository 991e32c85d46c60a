"""Serialization of formed equation blocks to disk (Fig. 9's I/O).

The paper's end-to-end experiments *write the generated system of
equations to a file*; the I/O figure measures exactly that.  Two
formats are provided:

* **binary** (``PMEQ2``, the default): a pair's block is its
  ``(n, categories)`` :class:`repro.core.templates.PairTemplate`
  stamped at ``(row, col, z, U)`` (``docs/THEORY.md``, "Pair-invariance
  of the term layout"), so a file stores each template it uses once
  and then one 24-byte record per pair;
* **text**: human-readable equations
  (``+ (U - Ua_1)/R[2,4] ... = 0.00625``), the form a user would
  inspect and the closest analogue of the paper's artifact.

The ``PMEQ2`` layout
--------------------

All fields little-endian::

    header      32 B  magic b"PMEQ2\\0", 2 zero bytes, n (i4),
                      template count K (i4), voltage U (f8),
                      record count P (i8)
    K templates       category count c (i4, 1..4), c category codes
                      (i1), then the layout arrays over the template's
                      E equations and T = n E terms: eq_id i4[T],
                      sign i1[T], v_plus i2[T], v_minus i2[T],
                      rrow_code i4[T], rcol_code i4[T], category i1[E],
                      rhs_unit f8[E]
    prefix CRC   4 B  CRC-32 of the header and the templates (u4)
    P records   24 B  each: row i4, col i4, template index i4,
                      check u4, z f8

``E`` follows from ``n`` and the categories (1 equation per SOURCE or
DEST, ``n - 1`` per UA or UB), so no array length is stored.  A
record's ``check`` is 32-bit FNV-1a over its other five 32-bit words,
so a change to any one of them never goes unseen.  The lookup and
checksum tables are derived on reading
(:func:`repro.core.templates.template_from_arrays`), and every record
is stamped back through :meth:`PairTemplate.stamp` — bit-identical to
:func:`repro.core.equations.form_pair_block`.  The reader checks every
count and template size against the bytes that remain before it reads
them, and raises :class:`ValueError` on any truncation, failed CRC or
check, or out-of-range value.  An empty file holds no blocks.

An :class:`EquationWriter` declares ``n``, ``U``, its templates and
``P`` up front and emits the prefix with its first records.  Batches
and worker shares are written from their ``(rows, cols, z)`` arrays;
a lone :class:`PairBlock` is first compared with its template's stamp
and refused with :class:`ValueError` if it differs, so a file never
holds a block lossily.  Writers target one file each, so the
per-worker "part file" pattern of the parallel strategies needs no
locking.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO, Union

import numpy as np

from repro.core.categories import Category, equations_per_pair
from repro.core.equations import (
    NODE_DRIVE,
    NODE_FIRST_UA,
    NODE_GROUND,
    PairBlock,
)
from repro.core.templates import (
    PairBlockBatch,
    PairTemplate,
    WorkerShare,
    template_from_arrays,
    template_of,
)
from repro.resilience.atomio import atomic_open

_MAGIC = b"PMEQ2\x00"
_HEADER = struct.Struct("<6s2xiidq")  # magic, n, templates, voltage, records
_COUNT = struct.Struct("<i")
_CRC = struct.Struct("<I")

#: One pair's record.
RECORD = np.dtype(
    [
        ("row", "<i4"),
        ("col", "<i4"),
        ("template", "<i4"),
        ("check", "<u4"),
        ("z", "<f8"),
    ]
)

#: Template layout arrays in file order: (name, dtype, per equation?).
_LAYOUT = (
    ("eq_id", "<i4", False),
    ("sign", "i1", False),
    ("v_plus", "<i2", False),
    ("v_minus", "<i2", False),
    ("rrow_code", "<i4", False),
    ("rcol_code", "<i4", False),
    ("category", "i1", True),
    ("rhs_unit", "<f8", True),
)
_TERM_BYTES = sum(np.dtype(d).itemsize for _, d, per_eq in _LAYOUT if not per_eq)
_EQ_BYTES = sum(np.dtype(d).itemsize for _, d, per_eq in _LAYOUT if per_eq)

#: The block arrays a stamp must reproduce.
_BLOCK_ARRAYS = (
    "eq_id", "sign", "r_row", "r_col", "v_plus", "v_minus", "rhs", "category"
)

_FNV_OFFSET = np.uint32(2166136261)
_FNV_PRIME = np.uint32(16777619)

Blocks = Union[PairBlock, PairBlockBatch, WorkerShare, Iterable[PairBlock]]


def _corrupt(message: str) -> ValueError:
    return ValueError(f"corrupt equation file: {message}")


def _layout_size(n: int, categories: tuple[Category, ...]) -> tuple[int, int]:
    """``(terms, equations)`` of one pair's block for these categories."""
    per_pair = equations_per_pair(n)
    equations = sum(per_pair[c] for c in categories)
    return n * equations, equations


def _record_checks(records: np.ndarray) -> np.ndarray:
    """32-bit FNV-1a over each record's words, its check word excepted."""
    words = records.view("<u4").reshape(len(records), RECORD.itemsize // 4)
    h = np.full(len(records), _FNV_OFFSET, dtype=np.uint32)
    for k in (0, 1, 2, 4, 5):
        h ^= words[:, k]
        h *= _FNV_PRIME
    return h


def _encode_records(ids, rows, cols, z) -> np.ndarray:
    records = np.empty(len(rows), dtype=RECORD)
    records["row"] = rows
    records["col"] = cols
    records["template"] = ids
    records["z"] = z
    records["check"] = _record_checks(records)
    return records


def _same_layout(a: PairTemplate, b: PairTemplate) -> bool:
    return a is b or all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name, _, _ in _LAYOUT
    )


def _require_stamp(block: PairBlock, tpl: PairTemplate) -> None:
    """Raise unless ``block`` equals ``tpl``'s stamp of its pair."""
    if not (0 <= block.row < tpl.n and 0 <= block.col < tpl.n):
        raise ValueError(f"pair ({block.row}, {block.col}) out of range")
    stamp = tpl.stamp(block.row, block.col, block.z, block.voltage)
    for name in _BLOCK_ARRAYS:
        a, b = getattr(block, name), getattr(stamp, name)
        if a is not b and (
            a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes()
        ):
            raise ValueError(
                f"block ({block.row}, {block.col}) is not its template's "
                f"stamp ({name} differs); refusing to write it lossily"
            )


# -- header --------------------------------------------------------------------


@dataclass(frozen=True)
class EquationHeader:
    """What a ``PMEQ2`` file declares before its records."""

    n: int
    voltage: float
    templates: tuple[PairTemplate, ...]
    num_records: int

    def encode(self) -> bytes:
        """The header, the templates and their CRC."""
        parts = [
            _HEADER.pack(
                _MAGIC,
                self.n,
                len(self.templates),
                self.voltage,
                self.num_records,
            )
        ]
        for tpl in self.templates:
            parts.append(_COUNT.pack(len(tpl.categories)))
            parts.append(bytes(int(c) for c in tpl.categories))
            for name, dtype, _ in _LAYOUT:
                parts.append(getattr(tpl, name).astype(dtype).tobytes())
        prefix = b"".join(parts)
        return prefix + _CRC.pack(zlib.crc32(prefix))

    def decode_records(self, data: bytes) -> np.ndarray:
        """Whole records from ``data``, each checked and in range."""
        if len(data) % RECORD.itemsize:
            raise _corrupt(f"{len(data)} record bytes (truncated?)")
        records = np.frombuffer(data, dtype=RECORD)
        bad = np.flatnonzero(_record_checks(records) != records["check"])
        if len(bad):
            raise _corrupt(f"record {bad[0]} checksum mismatch")
        n = self.n
        z = records["z"]
        if not (
            ((records["template"] >= 0)
             & (records["template"] < len(self.templates))
             & (records["row"] >= 0) & (records["row"] < n)
             & (records["col"] >= 0) & (records["col"] < n)
             & np.isfinite(z) & (z > 0)).all()
        ):
            raise _corrupt("record value out of range")
        return records

    def stamp(self, record) -> PairBlock:
        """The block one decoded record stands for."""
        return self.templates[int(record["template"])].stamp(
            int(record["row"]), int(record["col"]), float(record["z"]),
            voltage=self.voltage,
        )

    @classmethod
    def of_blocks(cls, blocks: list[PairBlock]) -> "EquationHeader":
        """The header of a file holding exactly ``blocks``.

        Templates are those of :func:`repro.core.templates.template_of`,
        in category order — what the strategies declare for a share.
        """
        n, voltage = blocks[0].n, blocks[0].voltage
        layouts = {}
        for block in blocks:
            if (block.n, block.voltage) != (n, voltage):
                raise ValueError("one equation file holds one n and voltage")
            key = np.asarray(block.category).tobytes()
            if key not in layouts:
                layouts[key] = template_of(block)
        templates = {tpl.categories: tpl for tpl in layouts.values()}
        return cls(
            n=n,
            voltage=voltage,
            templates=tuple(templates[c] for c in sorted(templates)),
            num_records=len(blocks),
        )


def _read_exact(fh: BinaryIO, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` or raise (truncation must not pass
    silently — a short ``np.frombuffer`` would otherwise yield a
    structurally broken block)."""
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise _corrupt(f"expected {nbytes} bytes, got {len(data)} (truncated?)")
    return data


def _remaining(fh: BinaryIO) -> int:
    here = fh.tell()
    end = fh.seek(0, 2)
    fh.seek(here)
    return end - here


def read_header(fh: BinaryIO) -> EquationHeader | None:
    """Parse and verify a file's prefix; ``None`` for an empty file.

    Every size is checked against the bytes that remain before it is
    read, so a corrupt count raises :class:`ValueError` rather than
    allocating it.  On return ``fh`` sits at the first record.
    """
    remaining = _remaining(fh)
    if remaining == 0:
        return None
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise _corrupt("bad magic")
    raw = magic + _read_exact(fh, _HEADER.size - len(_MAGIC))
    _, n, num_templates, voltage, num_records = _HEADER.unpack(raw)
    remaining -= _HEADER.size
    if n < 2 or num_templates < 0 or num_records < 0:
        raise _corrupt(f"header out of range (n={n})")
    if not (np.isfinite(voltage) and voltage > 0):
        raise _corrupt(f"voltage {voltage}")
    parts = [raw]
    stored = []
    for _ in range(num_templates):
        count_raw = _read_exact(fh, _COUNT.size)
        (count,) = _COUNT.unpack(count_raw)
        if not 1 <= count <= len(Category):
            raise _corrupt(f"template with {count} categories")
        codes = _read_exact(fh, count)
        try:
            cats = tuple(Category(c) for c in codes)
        except ValueError as exc:
            raise _corrupt(str(exc)) from None
        if len(set(cats)) != count:
            raise _corrupt("duplicate template categories")
        remaining -= _COUNT.size + count
        terms, equations = _layout_size(n, cats)
        size = terms * _TERM_BYTES + equations * _EQ_BYTES
        if size > remaining:
            raise _corrupt(
                f"template of {size} bytes, {remaining} remain (truncated?)"
            )
        remaining -= size
        body = _read_exact(fh, size)
        parts += [count_raw, codes, body]
        arrays, offset = {}, 0
        for name, dtype, per_eq in _LAYOUT:
            length = equations if per_eq else terms
            arrays[name] = np.frombuffer(
                body, dtype=dtype, count=length, offset=offset
            )
            offset += length * np.dtype(dtype).itemsize
        stored.append((cats, arrays))
    (crc,) = _CRC.unpack(_read_exact(fh, _CRC.size))
    if crc != zlib.crc32(b"".join(parts)):
        raise _corrupt("header CRC mismatch")
    for _, arrays in stored:
        for name in ("rrow_code", "rcol_code"):
            code = arrays[name]
            if len(code) and not ((code >= 0) & (code < n)).all():
                raise _corrupt(f"{name} out of range")
    return EquationHeader(
        n=n,
        voltage=voltage,
        templates=tuple(
            template_from_arrays(n, cats, **arrays) for cats, arrays in stored
        ),
        num_records=num_records,
    )


# -- writing -------------------------------------------------------------------


class EquationWriter:
    """Writes one ``PMEQ2`` file to an open binary stream.

    The prefix goes out with the first :meth:`write`, so a writer that
    never writes leaves an empty (block-free) file.  ``written`` is
    the number of records already in the stream, for appending to a
    file whose prefix is on disk (a resumed checkpoint).
    """

    def __init__(
        self, fh: BinaryIO, header: EquationHeader, written: int = 0
    ) -> None:
        self.fh = fh
        self.header = header
        self.remaining = header.num_records - written
        self._pending = b"" if written else header.encode()
        self._index = {}  # categories -> template index, for batches
        self._by_layout = {}  # a block's category codes -> template index
        for k, tpl in enumerate(header.templates):
            if tpl.n != header.n:
                raise ValueError("template n differs from the header's")
            self._index[tpl.categories] = k
            self._by_layout[tpl.category.tobytes()] = k

    def _template_index(self, tpl: PairTemplate) -> int:
        k = self._index.get(tpl.categories) if tpl.n == self.header.n else None
        if k is None or not _same_layout(tpl, self.header.templates[k]):
            raise ValueError(
                f"template {tpl.categories} (n={tpl.n}) is not declared "
                "in this file's header"
            )
        return k

    def _batch_fields(self, batch: PairBlockBatch):
        if batch.voltage != self.header.voltage:
            raise ValueError("batch voltage differs from the header's")
        ids = np.full(batch.num_pairs, self._template_index(batch.template))
        return ids, batch.rows, batch.cols, batch.z

    def _records(self, blocks: Blocks) -> np.ndarray:
        if isinstance(blocks, PairBlockBatch):
            return _encode_records(*self._batch_fields(blocks))
        if isinstance(blocks, WorkerShare):
            if not blocks.batches:
                return _encode_records((), (), (), ())
            fields = [self._batch_fields(b) for b in blocks.batches]
            starts = np.cumsum([0] + [len(f[1]) for f in fields])[:-1]
            pick = starts[blocks.order[:, 0]] + blocks.order[:, 1]
            return _encode_records(
                *(np.concatenate(column)[pick] for column in zip(*fields))
            )
        if isinstance(blocks, PairBlock):
            blocks = (blocks,)
        ids, rows, cols, z = [], [], [], []
        for block in blocks:
            if block.n != self.header.n or block.voltage != self.header.voltage:
                raise ValueError("block n or voltage differs from the header's")
            k = self._by_layout.get(np.asarray(block.category).tobytes())
            if k is None:
                raise ValueError(
                    f"block ({block.row}, {block.col})'s categories are not "
                    "declared in this file's header"
                )
            _require_stamp(block, self.header.templates[k])
            ids.append(k)
            rows.append(block.row)
            cols.append(block.col)
            z.append(block.z)
        return _encode_records(ids, rows, cols, z)

    def write(self, blocks: Blocks) -> int:
        """Append the records of ``blocks``; returns bytes written."""
        records = self._records(blocks)
        if len(records) > self.remaining:
            raise ValueError(
                f"{len(records)} record(s) past the header's "
                f"{self.header.num_records}"
            )
        data = self._pending + records.tobytes()
        self.fh.write(data)
        self._pending = b""
        self.remaining -= len(records)
        return len(data)


def write_block_binary(blocks: Blocks, out) -> int:
    """Write ``blocks``; returns bytes written.

    ``blocks`` is one :class:`PairBlock`, an iterable of them, a
    :class:`PairBlockBatch` or a :class:`WorkerShare`.  ``out`` is an
    :class:`EquationWriter`, which appends their records, or a binary
    stream, which receives a whole ``PMEQ2`` file of exactly these
    blocks (nothing for none).
    """
    if isinstance(out, EquationWriter):
        return out.write(blocks)
    listed = [blocks] if isinstance(blocks, PairBlock) else list(blocks)
    if not listed:
        return 0
    return EquationWriter(out, EquationHeader.of_blocks(listed)).write(listed)


def read_blocks_binary(fh: BinaryIO) -> Iterator[PairBlock]:
    """Stream blocks back from a binary equation file.

    The whole file is verified before the first block is yielded.
    """
    header = read_header(fh)
    if header is None:
        return
    data = fh.read()
    if len(data) != header.num_records * RECORD.itemsize:
        raise _corrupt(
            f"{len(data)} record bytes for {header.num_records} records "
            "(truncated?)"
        )
    for record in header.decode_records(data):
        yield header.stamp(record)


def save_blocks_binary(
    blocks: "Iterator[PairBlock] | list[PairBlock]", path: str | Path
) -> int:
    """Write blocks to ``path`` atomically; returns total bytes.

    The file appears under ``path`` only after a complete, fsynced
    write (tmp+rename) — readers never observe a torn equation file.
    """
    with atomic_open(path, "wb") as fh:
        return write_block_binary(blocks, fh)


def load_blocks_binary(path: str | Path) -> list[PairBlock]:
    """Read every block from a binary equation file."""
    with open(path, "rb") as fh:
        return list(read_blocks_binary(fh))


# -- text format -------------------------------------------------------------


def _node_name(code: int, n: int) -> str:
    if code == NODE_GROUND:
        return "0"
    if code == NODE_DRIVE:
        return "U"
    if code < NODE_FIRST_UA + (n - 1):
        return f"Ua_{code - NODE_FIRST_UA + 1}"
    return f"Ub_{code - NODE_FIRST_UA - (n - 1) + 1}"


def write_block_text(block: PairBlock, fh: TextIO) -> int:
    """Append one block as human-readable equations; returns chars."""
    n = block.n
    written = 0
    head = (
        f"## pair i={block.row + 1} j={block.col + 1} "
        f"U={block.voltage:g} Z={block.z:.10g}\n"
    )
    fh.write(head)
    written += len(head)
    for eq in range(block.num_equations):
        cat = Category(int(block.category[eq])).name
        terms = np.flatnonzero(block.eq_id == eq)
        parts = []
        for t in terms:
            sign = "+" if block.sign[t] > 0 else "-"
            vp = _node_name(int(block.v_plus[t]), n)
            vm = _node_name(int(block.v_minus[t]), n)
            num = vp if vm == "0" else f"({vp} - {vm})"
            parts.append(
                f"{sign} {num}/R[{block.r_row[t] + 1},{block.r_col[t] + 1}]"
            )
        line = f"{cat}: {' '.join(parts)} = {block.rhs[eq]:.10g}\n"
        fh.write(line)
        written += len(line)
    return written


def save_blocks_text(
    blocks: "Iterator[PairBlock] | list[PairBlock]", path: str | Path
) -> int:
    """Write blocks as human-readable equations, atomically; returns
    characters."""
    total = 0
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            total += write_block_text(block, fh)
    return total
