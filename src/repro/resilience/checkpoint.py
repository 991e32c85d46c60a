"""Checkpoint/resume for campaigns and streaming formation.

A whole wet-lab day of timepoints, or an ``n = 100`` streamed system,
must not restart from zero because the process died at hour 18.  Two
checkpoint kinds, both journaled in a JSON **manifest** that is only
ever replaced atomically (:mod:`repro.resilience.atomio`):

* :class:`CampaignCheckpoint` — one entry per completed timepoint:
  the recovered field (``.npy``, atomic write) with its SHA-256, plus
  the solve/formation metadata needed to reconstruct the result.
  Resume skips verified timepoints; a corrupted field file is
  detected by digest and simply recomputed.

* :class:`StreamCheckpoint` — journals streamed equation blocks as
  their records are appended to one ``PMEQ2`` data file
  (:mod:`repro.io.equations_io`): canonical pair index, the record's
  byte offset and the block's order-independent checksum.  On resume
  the file's header is re-read and each record verified against its
  own check, the manifest *and* the O(1) expected-checksum table of
  :mod:`repro.core.templates`; the first corrupt, missing or torn
  record truncates the file there and formation restarts from that
  block (an unreadable header restarts it from scratch).  Corrupted
  blocks are therefore **re-formed, never consumed**.

Manifest schemas are documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.templates import get_template, iter_pair_blocks_cached
from repro.io.equations_io import (
    RECORD,
    EquationHeader,
    EquationWriter,
    read_header,
    write_block_binary,
)
from repro.resilience.atomio import atomic_write_bytes, atomic_write_json
from repro.resilience.faults import FaultInjector, as_injector
from repro.utils import logging as rlog

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable for the requested run."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_manifest(path: Path, kind: str) -> dict | None:
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest {path}: {exc}") from exc
    if manifest.get("kind") != kind:
        raise CheckpointError(
            f"{path} holds a {manifest.get('kind')!r} manifest, "
            f"expected {kind!r}"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise CheckpointError(
            f"unsupported manifest version {manifest.get('version')!r}"
        )
    return manifest


# -- campaign checkpoints ----------------------------------------------------


class CampaignCheckpoint:
    """Per-timepoint persistence for :func:`repro.core.pipeline.run_pipeline`.

    The manifest's ``completed`` list is ordered by campaign position;
    each entry carries the field file name + SHA-256 and enough solve/
    formation metadata to rebuild a result without re-solving.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / MANIFEST_NAME
        manifest = _load_manifest(self.manifest_path, "campaign-checkpoint")
        self._entries: list[dict] = list(manifest["completed"]) if manifest else []
        self._n = manifest.get("n") if manifest else None

    # -- queries -------------------------------------------------------------

    @property
    def num_completed(self) -> int:
        return len(self._entries)

    def entry(self, index: int) -> dict | None:
        """Manifest entry for campaign position ``index`` (or None)."""
        if 0 <= index < len(self._entries):
            return self._entries[index]
        return None

    def matches(self, index: int, hour: float, n: int) -> bool:
        """Whether position ``index`` was completed for this campaign."""
        e = self.entry(index)
        return (
            e is not None
            and float(e["hour"]) == float(hour)
            and (self._n is None or self._n == n)
        )

    def load_field(self, index: int) -> np.ndarray:
        """Load and digest-verify the recovered field at ``index``."""
        e = self.entry(index)
        if e is None:
            raise CheckpointError(f"no checkpoint entry at position {index}")
        path = self.directory / e["field_file"]
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"missing field file {path}: {exc}") from exc
        if _sha256(data) != e["sha256"]:
            raise CheckpointError(
                f"field file {path.name} fails its SHA-256 check "
                "(corrupt checkpoint)"
            )
        return np.load(io.BytesIO(data), allow_pickle=False)

    # -- mutation ------------------------------------------------------------

    def record(self, index: int, result) -> None:
        """Persist one completed timepoint (``result``: ParmaResult).

        Recording position ``k`` discards any stale entries at ``>= k``
        (they belong to an abandoned continuation) and rewrites the
        manifest atomically, so a crash during ``record`` leaves the
        previous manifest intact.
        """
        field = np.ascontiguousarray(result.resistance)
        buf = io.BytesIO()
        np.save(buf, field)
        data = buf.getvalue()
        fname = f"field-{index:04d}.npy"
        atomic_write_bytes(self.directory / fname, data)
        entry = {
            "index": index,
            "hour": float(result.measurement.hour),
            "field_file": fname,
            "sha256": _sha256(data),
            "rung": (
                result.degradation.rung_used
                if getattr(result, "degradation", None) is not None
                else "primary"
            ),
            "solve": {
                "method": result.solve.method,
                "iterations": int(result.solve.iterations),
                "residual_norm": float(result.solve.residual_norm),
                "converged": bool(result.solve.converged),
            },
            "formation": {
                "strategy": result.formation.strategy,
                "num_workers": int(result.formation.num_workers),
                "terms_formed": int(result.formation.terms_formed),
                "checksum": float(result.formation.checksum),
            },
        }
        del self._entries[index:]
        self._entries.append(entry)
        self._n = int(field.shape[0])
        self._write_manifest()

    def invalidate_from(self, index: int) -> None:
        """Drop entries at positions >= ``index`` (corrupt/obsolete)."""
        if index < len(self._entries):
            del self._entries[index:]
            self._write_manifest()

    def _write_manifest(self) -> None:
        atomic_write_json(
            self.manifest_path,
            {
                "version": MANIFEST_VERSION,
                "kind": "campaign-checkpoint",
                "n": self._n,
                "completed": self._entries,
            },
        )


# -- streaming checkpoints ---------------------------------------------------


@dataclass(frozen=True)
class StreamResumeReport:
    """What resuming a checkpointed stream found on disk."""

    blocks_on_disk: int
    blocks_verified: int
    blocks_discarded: int
    first_bad_reason: str = ""


class StreamCheckpoint:
    """Journal for a streamed binary equation file.

    The data file ``equations.bin`` is one ``PMEQ2`` file that grows
    record-append-only after its header; the manifest lists, per
    written block: canonical pair index, pair coordinates, the
    record's byte offset/size and the block's checksum.  ``flush_every``
    controls how often the manifest is rewritten — blocks written
    after the last flush are simply re-formed on resume (formation is
    deterministic, so re-forming is always safe).
    """

    DATA_NAME = "equations.bin"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.data_path = self.directory / self.DATA_NAME
        manifest = _load_manifest(self.manifest_path, "stream-checkpoint")
        self.params: dict = manifest.get("params", {}) if manifest else {}
        self.blocks: list[dict] = list(manifest["blocks"]) if manifest else []
        self.complete: bool = bool(manifest.get("complete")) if manifest else False

    def compatible(self, n: int, voltage: float) -> bool:
        if not self.params:
            return False
        return self.params.get("n") == n and self.params.get("voltage") == voltage

    def verify_prefix(self, n: int) -> StreamResumeReport:
        """Re-read the on-disk prefix and count verifiable blocks.

        The data file's header must declare this stream (``n``, the
        voltage, the full template, ``n^2`` records).  A block then
        verifies when (a) its record sits at the journaled offset and
        passes its own check, (b) it holds the journaled pair in
        canonical order, and (c) its checksum equals both the journaled
        one and the template's expected value for the pair — the O(1)
        table of :mod:`repro.core.templates`, so verification never
        trusts the journal alone.
        """
        if not self.data_path.exists():
            return StreamResumeReport(0, 0, len(self.blocks), "no data file")
        expected_table = get_template(n).checksum_table
        verified = 0
        reason = ""
        size = self.data_path.stat().st_size
        with open(self.data_path, "rb") as fh:
            try:
                header = read_header(fh)
            except ValueError as exc:
                header, reason = None, f"unreadable header: {exc}"
            else:
                if header is None or not self._declares_stream(header, n):
                    header, reason = None, "header does not declare this stream"
            for k, entry in enumerate(self.blocks if header else ()):
                if entry["index"] != k:
                    reason = f"journal gap at block {k} (dropped block?)"
                    break
                if entry["offset"] + entry["nbytes"] > size:
                    reason = f"data file truncated inside block {k}"
                    break
                fh.seek(entry["offset"])
                try:
                    (record,) = header.decode_records(fh.read(entry["nbytes"]))
                except ValueError as exc:
                    reason = f"block {k}: {exc}"
                    break
                row, col = divmod(k, n)
                pair = (int(record["row"]), int(record["col"]))
                if pair != (row, col):
                    reason = f"block {k} holds pair {pair}"
                    break
                actual = float(header.templates[0].checksum_table[row, col])
                expected = float(expected_table[row, col])
                if actual != entry["checksum"] or actual != expected:
                    reason = (
                        f"checksum mismatch on block {k} "
                        f"(pair {row},{col}): corrupt"
                    )
                    break
                verified += 1
        return StreamResumeReport(
            blocks_on_disk=len(self.blocks),
            blocks_verified=verified,
            blocks_discarded=len(self.blocks) - verified,
            first_bad_reason=reason,
        )

    def _declares_stream(self, header: EquationHeader, n: int) -> bool:
        return (
            header.n == n
            and header.voltage == self.params.get("voltage")
            and header.num_records == n * n
            and len(header.templates) == 1
            and header.templates[0].categories == get_template(n).categories
        )

    def truncate_to(self, num_blocks: int) -> None:
        """Cut the data file and journal back to a verified prefix.

        With no block left the header goes too; the next stream writes
        it afresh.
        """
        self.blocks = self.blocks[:num_blocks]
        end = self.blocks[-1]["offset"] + self.blocks[-1]["nbytes"] if self.blocks else 0
        if self.data_path.exists():
            with open(self.data_path, "r+b") as fh:
                fh.truncate(end)
        self.complete = False
        self._write_manifest()

    def _write_manifest(self) -> None:
        atomic_write_json(
            self.manifest_path,
            {
                "version": MANIFEST_VERSION,
                "kind": "stream-checkpoint",
                "params": self.params,
                "complete": self.complete,
                "blocks": self.blocks,
            },
        )


def stream_to_file_checkpointed(
    z: np.ndarray,
    directory: str | Path,
    voltage: float = 5.0,
    faults: "FaultInjector | None" = None,
    flush_every: int = 16,
) -> tuple["StreamCheckpoint", StreamResumeReport, int]:
    """Stream the full system to ``<directory>/equations.bin``, resumably.

    Returns ``(checkpoint, resume_report, blocks_formed_this_run)``.
    Calling it again on the same directory verifies the on-disk prefix
    and forms only what is missing or corrupt; a completed, fully
    verified directory is a no-op.  ``faults`` may corrupt/drop blocks
    or abort mid-stream — exactly the failures resume must survive.
    """
    from repro.observe.observer import get_observer

    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError("z must be square (n, n)")
    injector = as_injector(faults)
    obs = get_observer()
    n = int(z.shape[0])
    cp = StreamCheckpoint(directory)

    start_block = 0
    report = StreamResumeReport(0, 0, 0)
    if cp.blocks and cp.compatible(n, float(voltage)):
        report = cp.verify_prefix(n)
        start_block = report.blocks_verified
        if report.blocks_discarded or report.first_bad_reason:
            rlog.info(
                "resilience.stream_resume",
                verified=report.blocks_verified,
                discarded=report.blocks_discarded,
                reason=report.first_bad_reason,
            )
        obs.event(
            "checkpoint.stream_resumed",
            verified=report.blocks_verified,
            discarded=report.blocks_discarded,
            reason=report.first_bad_reason,
        )
        obs.count("checkpoint.stream_resumes")
        obs.count("checkpoint.stream_blocks_discarded", report.blocks_discarded)
        cp.truncate_to(start_block)
    else:
        if cp.data_path.exists():
            cp.data_path.unlink()
        cp.blocks = []
        cp.params = {"n": n, "voltage": float(voltage)}
        cp.complete = False
        cp._write_manifest()

    total_blocks = n * n
    if start_block >= total_blocks:
        cp.complete = True
        cp._write_manifest()
        return cp, report, 0

    template = get_template(n)
    header = EquationHeader(n, float(voltage), (template,), total_blocks)
    blocks = iter_pair_blocks_cached(z, voltage=voltage)
    formed = 0
    unflushed = 0
    mode = "r+b" if cp.data_path.exists() else "w+b"
    with obs.span(
        "checkpoint.stream", n=n, start_block=start_block, total_blocks=total_blocks
    ), open(cp.data_path, mode) as fh:
        fh.seek(0, 2)
        out = EquationWriter(fh, header, written=start_block)
        for k, block in enumerate(blocks):
            if k < start_block:
                continue
            fate = "ok" if injector is None else injector.block_fate(k)
            if fate == "drop":
                continue  # dropped: the journal gap is caught on resume
            offset = fh.tell() + write_block_binary(block, out) - RECORD.itemsize
            if fate == "corrupt":
                injector.corrupt_written(fh, offset + RECORD.fields["z"][1], 8)
            row, col = divmod(k, n)
            cp.blocks.append(
                {
                    "index": k,
                    "row": row,
                    "col": col,
                    "offset": offset,
                    "nbytes": RECORD.itemsize,
                    # Journal the *intended* checksum (the O(1) template
                    # value): a record that no longer stamps this pair's
                    # block then disagrees with it on verify.
                    "checksum": float(template.checksum_table[row, col]),
                }
            )
            formed += 1
            unflushed += 1
            if unflushed >= flush_every:
                fh.flush()
                cp._write_manifest()
                unflushed = 0
            if injector is not None:
                injector.maybe_abort_stream(start_block + formed)
        fh.flush()
    cp.complete = len(cp.blocks) == total_blocks and all(
        e["index"] == i for i, e in enumerate(cp.blocks)
    )
    cp._write_manifest()
    obs.count("checkpoint.stream_blocks_formed", formed)
    return cp, report, formed


def verify_stream_directory(directory: str | Path) -> StreamResumeReport:
    """Stand-alone verification of a checkpointed stream directory."""
    cp = StreamCheckpoint(directory)
    n = cp.params.get("n")
    if n is None:
        raise CheckpointError(f"{directory} has no stream manifest")
    return cp.verify_prefix(int(n))
