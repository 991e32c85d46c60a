"""The evidence log: one fsynced JSON line per served request.

A served request leaves its evidence as a single record,
``{"manifest": {...}, "spans": [...]}``, appended to a per-process log
``evidence-<token>.jsonl`` under the service's results directory.  The
manifest is the same validated run manifest a traced CLI run writes to
``manifest.json`` (:meth:`repro.observe.Observer.build_manifest`), and
the spans are that request's trace in :meth:`Span.to_dict` form.

Writer rules (:class:`EvidenceLog`):

* the file is created lazily with ``O_CREAT | O_EXCL`` under a name
  unique to the writing process, and its directory is fsynced once, so
  a respawned executor child starts a new log instead of appending
  after a tail its killed predecessor may have torn;
* each record is one ``os.write`` on an ``O_APPEND`` descriptor,
  followed by ``fsync``, under a lock (the thread executor's slots
  share one log and never interleave lines);
* a failed write abandons the file: the next record opens a new log.

A record is addressed by a **locator**, ``"<log path>#<byte offset>"``
(what ``Response.manifest_path`` carries).  :func:`read_record` seeks
straight to it; :func:`iter_log` walks a whole log and reports a line
that does not parse — a torn tail from a killed writer — as an error
instead of raising.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Iterator, Sequence

from repro.observe.manifest import ManifestError, validate_manifest
from repro.observe.observer import new_run_id
from repro.observe.tracing import Span
from repro.resilience.atomio import _fsync_dir

EVIDENCE_PREFIX = "evidence-"
EVIDENCE_SUFFIX = ".jsonl"
#: Directory-scan pattern for evidence logs.
EVIDENCE_GLOB = f"{EVIDENCE_PREFIX}*{EVIDENCE_SUFFIX}"

_LOCATOR_RE = re.compile(r"^(?P<path>.+\.jsonl)#(?P<offset>\d+)$")


def parse_locator(text: str) -> tuple[Path, int] | None:
    """``(log path, byte offset)`` of a locator; None for a plain path."""
    match = _LOCATOR_RE.match(str(text))
    if match is None:
        return None
    return Path(match["path"]), int(match["offset"])


def encode_record(manifest: dict, spans: Sequence[Span]) -> bytes:
    """One newline-terminated record line (the manifest is validated)."""
    record = {
        "manifest": validate_manifest(manifest),
        "spans": [span.to_dict() for span in spans],
    }
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _decode_record(line: bytes, locator: str) -> dict:
    if not line.endswith(b"\n"):
        raise ManifestError(f"torn evidence record {locator}: no line end")
    try:
        record = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable evidence record {locator}: {exc}") from exc
    if not isinstance(record, dict) or not isinstance(record.get("spans"), list):
        raise ManifestError(
            f"evidence record {locator} is not a {{manifest, spans}} object"
        )
    validate_manifest(record.get("manifest"))
    return record


def read_record(locator: str) -> dict:
    """The record at ``locator``, read by one seek (never a scan)."""
    parsed = parse_locator(locator)
    if parsed is None:
        raise ManifestError(f"not an evidence locator: {locator!r}")
    path, offset = parsed
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            line = fh.readline()
    except OSError as exc:
        raise ManifestError(f"unreadable evidence log {path}: {exc}") from exc
    return _decode_record(line, locator)


def record_spans(record: dict) -> list[Span]:
    return [Span.from_dict(d) for d in record["spans"]]


def iter_log(path: str | Path) -> Iterator[tuple[str, dict | ManifestError]]:
    """``(locator, record)`` per line; a bad line yields its error."""
    path = Path(path)
    offset = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        yield str(path), ManifestError(f"unreadable evidence log {path}: {exc}")
        return
    with fh:
        for line in fh:
            locator = f"{path}#{offset}"
            offset += len(line)
            if not line.strip():
                continue
            try:
                yield locator, _decode_record(line, locator)
            except ManifestError as exc:
                yield locator, exc


class EvidenceLog:
    """Appends records to this process's log under ``directory``."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path: Path | None = None
        self._fd: int | None = None
        self._pid: int | None = None  # the process that opened _fd
        self._size = 0
        self._lock = threading.Lock()

    def append(self, manifest: dict, spans: Sequence[Span]) -> str:
        """Commit one record (written and fsynced); returns its locator."""
        data = encode_record(manifest, spans)
        with self._lock:
            if self._pid != os.getpid():
                self._open()
            offset = self._size
            try:
                written = os.write(self._fd, data)
                while written < len(data):  # short writes: full disk, signals
                    written += os.write(self._fd, data[written:])
                os.fsync(self._fd)
            except BaseException:
                self._close()  # never append after a torn tail
                raise
            self._size += len(data)
            return f"{self.path}#{offset}"

    def _open(self) -> None:
        """Create a new log; a forked child never reuses its parent's."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{EVIDENCE_PREFIX}{new_run_id()}{EVIDENCE_SUFFIX}"
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND | os.O_CLOEXEC
        self._fd = os.open(path, flags, 0o644)
        _fsync_dir(self.directory)
        self.path, self._pid, self._size = path, os.getpid(), 0

    def _close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._fd = self._pid = None

    def close(self) -> None:
        """Release the descriptor; a later append starts a new log."""
        with self._lock:
            self._close()
