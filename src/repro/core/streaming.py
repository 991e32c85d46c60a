"""Bounded-memory streaming formation for the largest devices.

At ``n = 100`` the full term set is 2·10⁸ entries (~3.2 GB) — the
paper's memory figure shows the in-memory pipeline climbing toward
20 GB there.  When only the *serialized* system is needed (Fig. 9's
workload, or feeding an out-of-core solver), formation can stream:
form one pair block, hand it to a sink, drop it.  Peak memory is then
one block (O(n²) ≈ 320 KB at n = 100) regardless of device size.

:func:`stream_formation` is the generic driver;
:class:`FormationSink` implementations cover the common sinks
(binary file, counting/checksum only, memory sampling).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Protocol

import numpy as np

from repro.core.equations import PairBlock
from repro.core.templates import iter_pair_blocks_cached, template_of
from repro.io.equations_io import (
    EquationHeader,
    EquationWriter,
    write_block_binary,
)
from repro.observe.observer import as_observer
from repro.resilience.atomio import atomic_open
from repro.resilience.faults import as_injector
from repro.resilience.supervise import Deadline, DeadlineExceeded
from repro.utils.validation import require_positive


class FormationSink(Protocol):
    """Consumes one block at a time; must not retain references."""

    def consume(self, block: PairBlock) -> None: ...


@dataclass
class CountingSink:
    """Aggregates counts/checksums without retaining blocks."""

    terms: int = 0
    equations: int = 0
    checksum: float = 0.0

    def consume(self, block: PairBlock) -> None:
        self.terms += block.num_terms
        self.equations += block.num_equations
        self.checksum += block.checksum()


@dataclass
class BinaryFileSink:
    """Writes one device's stream to an open binary stream.

    The stream becomes one ``PMEQ2`` file (:mod:`repro.io.equations_io`)
    declaring the first block's template and ``n^2`` records; each
    block is checked against that template's stamp before its record
    is written.
    """

    fh: BinaryIO
    bytes_written: int = 0
    _out: EquationWriter | None = field(default=None, init=False, repr=False)

    def consume(self, block: PairBlock) -> None:
        if self._out is None:
            header = EquationHeader(
                block.n, block.voltage, (template_of(block),), block.n**2
            )
            self._out = EquationWriter(self.fh, header)
        self.bytes_written += write_block_binary(block, self._out)


@dataclass
class TeeSink:
    """Fans one stream out to several sinks."""

    sinks: tuple = ()

    def consume(self, block: PairBlock) -> None:
        for sink in self.sinks:
            sink.consume(block)


@dataclass
class MemoryWatermarkSink:
    """Tracks the RSS high-water mark while consuming (for tests)."""

    samples: list = field(default_factory=list)
    every: int = 50
    _count: int = 0

    def consume(self, block: PairBlock) -> None:
        self._count += 1
        if self._count % self.every == 0:
            from repro.instrument.memory import rss_bytes

            self.samples.append(rss_bytes())

    @property
    def peak(self) -> int:
        return max(self.samples, default=0)


@dataclass(frozen=True)
class StreamReport:
    n: int
    pairs_formed: int
    terms_formed: int
    elapsed_seconds: float

    def terms_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.terms_formed / self.elapsed_seconds


def stream_formation(
    z: np.ndarray,
    sink: FormationSink,
    voltage: float = 5.0,
    faults=None,
    observer=None,
    deadline: Deadline | float | None = None,
) -> StreamReport:
    """Form every pair block of ``z`` and feed it to ``sink``.

    Memory stays bounded (one fixed-size batch); the returned report
    carries throughput so benchmarks can extrapolate wall time for any
    n.  Blocks are stamped from the per-n template, and the blocks
    handed to the sink are views into the current batch — the
    no-retention contract above is what makes that safe.

    ``faults`` (a :class:`repro.resilience.FaultPlan` or injector) can
    corrupt or drop blocks before the sink, and abort the stream.  A
    corrupted block has its checksum negated (what a
    :class:`CountingSink` sees); a :class:`BinaryFileSink` refuses it
    with :class:`ValueError`, since it is not its template's stamp.
    The checkpointed writer
    (:func:`repro.resilience.checkpoint.stream_to_file_checkpointed`)
    corrupts written records instead, and detects and repairs them on
    resume.

    ``deadline`` (seconds or a running
    :class:`repro.resilience.supervise.Deadline`) is checked once per
    block; on expiry the stream raises
    :class:`repro.resilience.supervise.DeadlineExceeded` with
    ``partial`` set to the blocks-consumed count, leaving whatever the
    sink already committed intact.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be square (n, n)")
    require_positive(voltage, "voltage")
    injector = as_injector(faults)
    deadline = Deadline.coerce(deadline)
    obs = as_observer(observer)
    n = z.shape[0]
    start = time.perf_counter()
    pairs = 0
    terms = 0
    blocks = iter_pair_blocks_cached(z, voltage=voltage)
    with obs.span("stream", n=n, sink=type(sink).__name__):
        for index, block in enumerate(blocks):
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"deadline of {deadline.seconds:g}s expired after "
                    f"{pairs} streamed block(s)",
                    deadline=deadline,
                    partial=pairs,
                )
            if injector is not None:
                block = injector.mangle_block(block, index)
                if block is None:
                    obs.event("stream.block_dropped", index=index)
                    obs.count("stream.blocks_dropped")
                    continue  # dropped before the sink
            sink.consume(block)
            pairs += 1
            terms += block.num_terms
            if injector is not None:
                injector.maybe_abort_stream(pairs)
    obs.count("stream.blocks_consumed", pairs)
    obs.count("stream.terms", terms)
    return StreamReport(
        n=n,
        pairs_formed=pairs,
        terms_formed=terms,
        elapsed_seconds=time.perf_counter() - start,
    )


def stream_to_file(
    z: np.ndarray, path: str | Path, voltage: float = 5.0
) -> tuple[StreamReport, int]:
    """Stream the full system to one binary file; returns (report, bytes).

    The write is atomic (tmp+fsync+rename): an interrupted stream
    leaves no file under ``path``.  For resumable multi-gigabyte
    streams use
    :func:`repro.resilience.checkpoint.stream_to_file_checkpointed`.
    """
    with atomic_open(path, "wb") as fh:
        sink = BinaryFileSink(fh=fh)
        report = stream_formation(z, sink, voltage=voltage)
    return report, sink.bytes_written
