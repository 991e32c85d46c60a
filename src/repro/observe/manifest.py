"""Run manifests: one JSON artifact answering "what ran, where, how long".

A manifest is written next to the trace by
:meth:`repro.observe.Observer.finalize` (or, for a served request,
appended with its spans to an evidence log, see
:mod:`repro.observe.evidence`) and records:

* identity — run id, start time, schema version;
* config — the caller's knob dict (strategy, n, workers, solver, ...);
* environment — host, platform, Python, numpy + BLAS and its live
  thread count, git describe, usable CPUs;
* phases — per-span-name wall rollups (count / total / self seconds)
  reconstructed from the trace;
* metrics — the full :class:`repro.observe.metrics.MetricsRegistry`
  snapshot (includes the formation-cache gauges, so the manifest and
  ``parma info`` agree by construction);
* totals — wall seconds, CPU seconds, and (when a
  :class:`repro.instrument.MemorySampler` ran) peak/quantile RSS.

The file is written atomically (:mod:`repro.resilience.atomio`), and
:func:`validate_manifest` is the CI gate: a manifest missing any
:data:`REQUIRED_KEYS` fails the workflow.
"""

from __future__ import annotations

import functools
import json
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any

MANIFEST_SCHEMA_VERSION = 1

#: Schema versions this build can read.  :func:`validate_manifest`
#: rejects anything else up front with a clear error, instead of
#: letting a future manifest fail later on some missing/renamed key.
SUPPORTED_SCHEMA_VERSIONS = (1,)

#: Keys every manifest must carry (CI fails a traced run without them).
REQUIRED_KEYS = (
    "schema_version",
    "kind",
    "run_id",
    "started_unix",
    "config",
    "environment",
    "phases",
    "metrics",
    "wall_seconds",
    "cpu_seconds",
)


class ManifestError(ValueError):
    """A manifest file is missing required structure."""


@functools.lru_cache(maxsize=None)
def _git_describe() -> str:
    """Best-effort ``git describe`` of the source tree (never raises).

    Run once per process: a long-lived server records the tree as it
    was when the process started.
    """
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


@functools.lru_cache(maxsize=None)
def _blas_info() -> str:
    """One-line description of numpy's BLAS backend (best effort)."""
    import numpy as np

    try:  # numpy >= 1.26 exposes the build config as a dict
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version", "")
        return f"{name} {version}".strip()
    except (TypeError, AttributeError, KeyError):
        pass
    try:  # older numpy: parse the first backend section name
        info = np.__config__.blas_opt_info  # type: ignore[attr-defined]
        libs = info.get("libraries", [])
        return ",".join(libs) if libs else "unknown"
    except AttributeError:
        return "unknown"


def environment_info() -> dict[str, Any]:
    """Host/toolchain facts pinned into every manifest.

    ``blas_threads`` is read back from the loaded OpenBLAS on every
    call, so a budgeted child reports its own count; ``cpu_count`` is
    the usable CPUs that budget divides.
    """
    import numpy as np

    from repro.parallel import blas

    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git": _git_describe(),
        "blas_threads": blas.threads(),
        "cpu_count": blas.usable_cpus(),
    }


def build_manifest(
    run_id: str,
    config: dict,
    phases: dict[str, dict[str, float]],
    metrics: dict[str, dict],
    wall_seconds: float,
    cpu_seconds: float,
    started_unix: float,
    memory: dict | None = None,
    num_spans: int = 0,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest dict (pure; no I/O)."""
    manifest: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "run_id": run_id,
        "started_unix": float(started_unix),
        "config": dict(config),
        "environment": environment_info(),
        "phases": {
            name: {
                "count": int(entry.get("count", 0)),
                "total_seconds": float(entry.get("total", 0.0)),
                "self_seconds": float(entry.get("self", 0.0)),
            }
            for name, entry in phases.items()
        },
        "metrics": metrics,
        "wall_seconds": float(wall_seconds),
        "cpu_seconds": float(cpu_seconds),
        "num_spans": int(num_spans),
    }
    if memory is not None:
        manifest["memory"] = {k: float(v) for k, v in memory.items()}
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Atomically persist a validated manifest; returns the path."""
    validate_manifest(manifest)
    from repro.resilience.atomio import atomic_write_json

    path = Path(path)
    atomic_write_json(path, manifest)
    return path


def load_manifest(path: str | Path) -> dict:
    """Read and structurally validate a manifest.

    ``path`` is a ``manifest.json`` file or an evidence-log locator
    (``<log>.jsonl#<offset>``, what a served response's
    ``manifest_path`` holds), read by one seek.
    """
    from repro.observe import evidence

    if evidence.parse_locator(str(path)) is not None:
        return evidence.read_record(str(path))["manifest"]
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: Any) -> dict:
    """Raise :class:`ManifestError` unless all required keys are present."""
    if not isinstance(manifest, dict):
        raise ManifestError(
            f"manifest must be a JSON object, got {type(manifest).__name__}"
        )
    # Schema gate first: a manifest from a newer (or corrupted) writer
    # should be rejected by version, not by whichever renamed key
    # happens to trip a confusing missing-key error below.
    if "schema_version" in manifest:
        version = manifest["schema_version"]
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
            raise ManifestError(
                f"manifest schema version {version!r} is not supported by "
                f"this build (supported: {supported}); it was written by a "
                "different parma version"
            )
    missing = [key for key in REQUIRED_KEYS if key not in manifest]
    if missing:
        raise ManifestError(
            f"manifest is missing required key(s): {', '.join(missing)}"
        )
    if manifest["kind"] != "run-manifest":
        raise ManifestError(
            f"manifest kind is {manifest['kind']!r}, expected 'run-manifest'"
        )
    if not isinstance(manifest["phases"], dict):
        raise ManifestError("manifest 'phases' must be an object")
    if not isinstance(manifest["metrics"], dict):
        raise ManifestError("manifest 'metrics' must be an object")
    return manifest


def phase_total_seconds(manifest: dict, top_level_only: bool = True) -> float:
    """Sum of phase time for the wall-coverage acceptance check.

    With ``top_level_only`` the *self* seconds are summed across all
    phases — self time partitions the trace (every traced second is
    counted exactly once), so the sum is comparable to ``wall_seconds``.
    """
    phases = manifest.get("phases", {})
    key = "self_seconds" if top_level_only else "total_seconds"
    return float(sum(entry.get(key, 0.0) for entry in phases.values()))
