"""The run catalog: SQLite-indexed run manifests with a query surface.

Every traced run — a ``parma solve``, a full ``parma monitor``
campaign, a benchmark size — ends in one :mod:`repro.observe.manifest`
JSON file, and each request a ``parma serve`` instance executes in one
record of an evidence log (:mod:`repro.observe.evidence`).
The catalog turns that pile of per-run files into a fleet-level,
queryable corpus: ``parma runs ingest`` flattens each manifest into
indexed columns (kind, n, knobs, status, degradation rung, phase
timings, cache hit rates, memory quantiles), ``parma runs
list/stats/query`` answer questions like "p95 solve seconds by n" or
"every run whose ladder went past rung 0" without reading JSON by
hand, and ``parma runs regress`` gates bench-tagged runs against the
committed ``BENCH_*.json`` trajectories.

Storage design:

* **stdlib ``sqlite3`` in WAL mode** — concurrent ingesters (several
  CLI processes, the serve dispatcher threads) coexist with readers;
  a ``busy_timeout`` absorbs writer collisions.
* **versioned schema** — ``PRAGMA user_version`` plus a
  ``catalog_migrations`` audit table; opening an older catalog applies
  the missing migrations in one transaction, opening a *newer* one
  refuses loudly instead of corrupting it.
* **idempotent ingest** — each manifest's canonical JSON is hashed
  (SHA-256) into a ``UNIQUE`` column; re-ingesting a directory (or two
  processes racing on the same one) inserts each run exactly once.
* **FTS5 free-text search** over the flattened config/environment/
  extra text when the host SQLite has the extension, with a ``LIKE``
  fallback recorded in ``catalog_meta`` when it doesn't.
* **read-only escape hatch** — :meth:`Catalog.query` runs arbitrary
  SELECTs on a ``mode=ro`` connection, so even a statement that slips
  past the SELECT/WITH gate cannot write.

The flattened row shape is produced by :func:`flatten_manifest`, the
same serializer behind ``parma trace summarize --json`` — the two
surfaces agree by construction.  See docs/OBSERVABILITY.md ("Run
catalog") for the schema table and worked queries.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.observe.evidence import EVIDENCE_GLOB, iter_log, parse_locator
from repro.observe.manifest import ManifestError, load_manifest
from repro.observe.observer import MANIFEST_FILE_NAME, Observer

#: Current catalog schema version (``PRAGMA user_version``).
CATALOG_SCHEMA_VERSION = 1

#: The solver degradation ladder, mirrored from
#: :data:`repro.resilience.degrade.LADDER_RUNGS` (kept literal here so
#: the observe layer does not import upward; the cross-check lives in
#: the test suite).
_LADDER_RUNGS = ("primary", "cold-start", "regularized", "bounded")

#: Leading-comment-tolerant matcher for read-only statements.
_SELECT_RE = re.compile(
    r"^(?:\s|--[^\n]*\n|/\*.*?\*/)*(select|with)\b", re.IGNORECASE | re.DOTALL
)


class CatalogError(ValueError):
    """The catalog refused an operation (bad schema, bad query, ...)."""


# -- manifest flattening ------------------------------------------------------


def _metric_value(metrics: dict, name: str) -> float | None:
    entry = metrics.get(name)
    if not isinstance(entry, dict) or "value" not in entry:
        return None
    return float(entry["value"])


def _hit_rate(metrics: dict, cache: str) -> float | None:
    hits = _metric_value(metrics, f"cache.{cache}.hits")
    misses = _metric_value(metrics, f"cache.{cache}.misses")
    if hits is None and misses is None:
        return None
    total = (hits or 0.0) + (misses or 0.0)
    return (hits or 0.0) / total if total > 0 else None


def _phase_seconds(phases: dict, name: str) -> float | None:
    entry = phases.get(name)
    if not isinstance(entry, dict):
        return None
    return float(entry.get("total_seconds", 0.0))


def flatten_manifest(manifest: dict, source_path: str | None = None) -> dict:
    """One manifest -> one flat, indexable row (pure; no I/O).

    This is the single serializer shared by :meth:`Catalog.ingest` and
    ``parma trace summarize --json``: the keys here are exactly the
    ``runs`` table columns (minus the catalog-assigned ``id``,
    ``content_hash`` and ``ingested_unix``).

    Derivations worth knowing:

    * ``kind`` is the manifest config's ``command``, except that a
      per-request serve manifest (``command == "serve"`` with a
      ``request_id``) becomes ``"serve-request"`` so fleet queries can
      separate the service's own manifest from its requests';
    * ``status`` prefers an explicit ``config.status`` / ``extra.status``
      stamp, falling back to ``exhausted`` when the degradation ladder
      ran dry and ``ok`` otherwise;
    * ``degradation_rung`` is the deepest ladder rung whose
      ``degrade.rung.<name>`` counter fired (0 = primary, i.e. never
      degraded);
    * ``bench`` is the ``extra.bench`` tag benchmarks (and
      ``--bench-tag`` runs) stamp, used by ``parma runs regress``.
    """
    config = manifest.get("config", {}) or {}
    metrics = manifest.get("metrics", {}) or {}
    phases = manifest.get("phases", {}) or {}
    extra = manifest.get("extra", {}) or {}
    memory = manifest.get("memory", {}) or {}
    environment = manifest.get("environment", {}) or {}

    kind = str(config.get("command", "unknown"))
    if kind == "serve" and "request_id" in config:
        kind = "serve-request"

    rung_index = 0
    rung_name = _LADDER_RUNGS[0]
    for index, rung in enumerate(_LADDER_RUNGS):
        if (_metric_value(metrics, f"degrade.rung.{rung}") or 0.0) > 0:
            rung_index, rung_name = index, rung

    status = str(config.get("status") or extra.get("status") or "")
    if not status:
        exhausted = (_metric_value(metrics, "degrade.exhausted") or 0.0) > 0
        status = "exhausted" if exhausted else "ok"

    def _int(value: Any) -> int | None:
        try:
            return int(value)
        except (TypeError, ValueError):
            return None

    def _float(value: Any) -> float | None:
        try:
            return float(value)
        except (TypeError, ValueError):
            return None

    return {
        "run_id": str(manifest["run_id"]),
        "schema_version": _int(manifest.get("schema_version")),
        "kind": kind,
        "status": status,
        "bench": str(extra.get("bench", "") or ""),
        "n": _int(config.get("n")),
        "hour": _float(config.get("hour")),
        "strategy": config.get("strategy"),
        "workers": _int(config.get("workers")),
        "solver": config.get("solver"),
        # Only manifests from before the solver had a single kernel
        # carry a backend; the column stays so old databases open as-is.
        "backend": config.get("backend"),
        "formation": config.get("formation"),
        "validate": config.get("validate"),
        "timepoints": _int(config.get("timepoints")),
        "batch_size": _int(config.get("batch_size")),
        "cache_warm": (
            None if "cache_warm" not in config else int(bool(config["cache_warm"]))
        ),
        "queue_seconds": _float(config.get("queue_seconds")),
        "degradation_rung": rung_index,
        "rung_name": rung_name,
        "started_unix": _float(manifest.get("started_unix")),
        "wall_seconds": _float(manifest.get("wall_seconds")),
        "cpu_seconds": _float(manifest.get("cpu_seconds")),
        "solve_seconds": _phase_seconds(phases, "solve"),
        "formation_seconds": _phase_seconds(phases, "formation"),
        "detect_seconds": _phase_seconds(phases, "detect"),
        "num_spans": _int(manifest.get("num_spans")),
        "template_hit_rate": _hit_rate(metrics, "pair-template"),
        "laplacian_hit_rate": _hit_rate(metrics, "laplacian-pinv"),
        # Only manifests from before the joint system left the solvers
        # carry this cache's gauges; the column stays so old databases
        # open as-is, and is NULL for every newer run.
        "jacobian_hit_rate": _hit_rate(metrics, "jacobian-structure"),
        "mem_peak_bytes": _float(memory.get("peak")),
        "mem_p50_bytes": _float(memory.get("p50")),
        "mem_p90_bytes": _float(memory.get("p90")),
        "git": environment.get("git"),
        "host": environment.get("host"),
        "source_path": source_path,
        "config_json": json.dumps(config, sort_keys=True),
        "extra_json": json.dumps(extra, sort_keys=True) if extra else None,
    }


def summarize_run(manifest: dict, source_path: str | None = None) -> dict:
    """The machine-readable run digest behind ``trace summarize --json``.

    ``run`` is the :func:`flatten_manifest` row (what the catalog
    indexes), ``phases`` the manifest's per-phase rollup verbatim.
    """
    return {
        "run": flatten_manifest(manifest, source_path=source_path),
        "phases": manifest.get("phases", {}),
    }


def manifest_content_hash(manifest: dict) -> str:
    """SHA-256 of the canonical manifest JSON (the ingest dedup key)."""
    canonical = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fts_text(manifest: dict) -> str:
    """The free-text body indexed by FTS: config + env + extra tokens."""
    parts: list[str] = [str(manifest.get("run_id", ""))]
    for section in ("config", "environment", "extra"):
        payload = manifest.get(section)
        if not isinstance(payload, dict):
            continue
        for key in sorted(payload):
            parts.append(f"{key}={payload[key]}")
    return " ".join(parts)


# -- schema / migrations ------------------------------------------------------

_RUNS_DDL = """
CREATE TABLE runs (
    id INTEGER PRIMARY KEY,
    content_hash TEXT NOT NULL UNIQUE,
    run_id TEXT NOT NULL,
    schema_version INTEGER,
    kind TEXT NOT NULL,
    status TEXT NOT NULL,
    bench TEXT NOT NULL DEFAULT '',
    n INTEGER,
    hour REAL,
    strategy TEXT,
    workers INTEGER,
    solver TEXT,
    backend TEXT,
    formation TEXT,
    validate TEXT,
    timepoints INTEGER,
    batch_size INTEGER,
    cache_warm INTEGER,
    queue_seconds REAL,
    degradation_rung INTEGER NOT NULL DEFAULT 0,
    rung_name TEXT,
    started_unix REAL,
    ingested_unix REAL NOT NULL,
    wall_seconds REAL,
    cpu_seconds REAL,
    solve_seconds REAL,
    formation_seconds REAL,
    detect_seconds REAL,
    num_spans INTEGER,
    template_hit_rate REAL,
    laplacian_hit_rate REAL,
    jacobian_hit_rate REAL,
    mem_peak_bytes REAL,
    mem_p50_bytes REAL,
    mem_p90_bytes REAL,
    git TEXT,
    host TEXT,
    source_path TEXT,
    config_json TEXT NOT NULL,
    extra_json TEXT
)
"""

#: Ordered DDL per schema version.  A new version appends an entry;
#: :func:`_migrate` replays the missing tail on older catalogs.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: (
        _RUNS_DDL,
        "CREATE INDEX runs_kind ON runs (kind)",
        "CREATE INDEX runs_n ON runs (n)",
        "CREATE INDEX runs_started ON runs (started_unix)",
        "CREATE INDEX runs_bench ON runs (bench) WHERE bench != ''",
        "CREATE INDEX runs_rung ON runs (degradation_rung)",
        """
        CREATE TABLE phases (
            run_fk INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            name TEXT NOT NULL,
            count INTEGER NOT NULL,
            total_seconds REAL NOT NULL,
            self_seconds REAL NOT NULL
        )
        """,
        "CREATE INDEX phases_run ON phases (run_fk)",
        """
        CREATE TABLE metrics (
            run_fk INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            name TEXT NOT NULL,
            type TEXT NOT NULL,
            value REAL,
            sum REAL,
            count INTEGER
        )
        """,
        "CREATE INDEX metrics_run ON metrics (run_fk)",
        "CREATE INDEX metrics_name ON metrics (name)",
        """
        CREATE TABLE catalog_meta (
            key TEXT PRIMARY KEY,
            value TEXT NOT NULL
        )
        """,
        """
        CREATE TABLE catalog_migrations (
            version INTEGER PRIMARY KEY,
            applied_unix REAL NOT NULL
        )
        """,
    ),
}

#: Attempted per catalog; failure (SQLite built without FTS5) degrades
#: to LIKE search and is recorded in ``catalog_meta``.
_FTS_DDL = "CREATE VIRTUAL TABLE runs_fts USING fts5(body)"


@dataclass
class IngestReport:
    """What one :meth:`Catalog.ingest` call did."""

    scanned: int = 0
    ingested: int = 0
    duplicates: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        line = (
            f"scanned {self.scanned} manifest(s): {self.ingested} ingested, "
            f"{self.duplicates} already cataloged"
        )
        if self.errors:
            line += f", {len(self.errors)} rejected"
        return line


@dataclass(frozen=True)
class RegressCheck:
    """One bench-tagged catalog run judged against a trajectory point."""

    bench: str
    n: int
    run_id: str
    observed_seconds: float
    baseline_seconds: float
    threshold: float

    @property
    def ratio(self) -> float:
        return (
            self.observed_seconds / self.baseline_seconds
            if self.baseline_seconds > 0
            else float("inf")
        )

    @property
    def ok(self) -> bool:
        return self.ratio <= self.threshold


@dataclass
class RegressReport:
    """All regression checks for one ``parma runs regress`` invocation."""

    threshold: float
    checks: list[RegressCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[RegressCheck]:
        return [check for check in self.checks if not check.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"== regression gate (threshold {self.threshold:g}x) ==",
        ]
        for check in self.checks:
            verdict = "ok  " if check.ok else "FAIL"
            lines.append(
                f"  [{verdict}] {check.bench} n={check.n}: "
                f"{check.observed_seconds:.4g}s vs baseline "
                f"{check.baseline_seconds:.4g}s ({check.ratio:.2f}x) "
                f"[run {check.run_id}]"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        if not self.checks:
            lines.append("  no bench-tagged runs matched any trajectory")
        return "\n".join(lines)


@dataclass(frozen=True)
class BenchKind:
    """What one committed ``BENCH_*.json`` kind gates, and how.

    Runs tagged ``extra.bench = tag`` have their ``phase`` seconds
    (catalog column :attr:`column`) judged against each size row's
    ``key``; ``gauge``, when set, names a row value the bench
    manifests also record as the ``bench.<gauge>`` gauge.
    """

    tag: str
    phase: str
    key: str
    file: str
    gauge: str | None = None

    @property
    def column(self) -> str:
        return f"{self.phase}_seconds"


#: The ``benchmark`` field of each committed trajectory -> its kind.
#: ``solver`` gates against the cold time (a fresh CLI process never
#: has warm caches); ``scaling`` against the quiet + churn campaign
#: interval of ``parma scale``'s ``formation`` span; ``serve`` against
#: the measured single-host warm p95, the SLO the fleet front promises.
BENCH_KINDS: dict[str, BenchKind] = {
    "solver_fastpath": BenchKind(
        "solver", "solve", "fast_cold_seconds", "BENCH_solver.json",
        gauge="iterations",
    ),
    "formation_cache": BenchKind(
        "formation", "formation", "cached_seconds", "BENCH_formation.json",
        gauge="speedup",
    ),
    "elastic_scaling": BenchKind(
        "scaling", "formation", "elastic_formation_seconds",
        "BENCH_scaling.json",
    ),
    "serve_slo": BenchKind(
        "serve", "solve", "warm_p95_seconds", "BENCH_serve.json",
        gauge="cold_seconds",
    ),
}


def bench_kind(report: dict, source: object = "report") -> BenchKind:
    """The :data:`BENCH_KINDS` entry of a bench report's ``benchmark``."""
    benchmark = report.get("benchmark", "")
    try:
        return BENCH_KINDS[benchmark]
    except KeyError:
        raise CatalogError(
            f"{source}: unknown benchmark kind {benchmark!r} (expected "
            f"one of {', '.join(BENCH_KINDS)})"
        ) from None


def load_bench_trajectory(path: str | Path) -> tuple[str, str, dict[int, float]]:
    """Read a committed ``BENCH_*.json`` into a regression baseline.

    Returns ``(bench_tag, phase_column, {n: baseline_seconds})`` from
    the file's :data:`BENCH_KINDS` entry.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CatalogError(f"unreadable benchmark trajectory {path}: {exc}")
    kind = bench_kind(data, path)
    baselines: dict[int, float] = {}
    for size in data.get("sizes", []):
        if size.get(kind.key) is not None:
            baselines[int(size["n"])] = float(size[kind.key])
    if not baselines:
        raise CatalogError(f"{path}: trajectory has no usable sizes")
    return kind.tag, kind.column, baselines


def write_bench_manifests(
    report: dict,
    directory: str | Path,
    *,
    config: Callable[[dict], dict] = lambda row: {"status": "ok"},
    catalog_db: str | Path | None = None,
) -> None:
    """One bench-tagged run manifest per size row of a bench report.

    Each row becomes ``bench-<tag>-n<N>/manifest.json`` under
    ``directory``: one ``<phase>`` span lasting the row's trajectory
    value, ``extra.bench = <tag>`` (what ``parma runs regress``
    matches against the committed trajectory) and the config
    ``{"command": "bench-<tag>", "n": N, **config(row)}``.  With
    ``catalog_db`` the manifests are also ingested there.
    """
    kind = bench_kind(report)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for row in report["sizes"]:
        obs = Observer(trace_dir=directory / f"bench-{kind.tag}-n{row['n']}")
        # Span timestamps are perf_counter coordinates; anchor the
        # synthesized span so the manifest wall equals the bench time.
        seconds = row[kind.key]
        obs.add_span(
            kind.phase, ts=time.perf_counter() - seconds, dur=seconds,
            n=row["n"],
        )
        if kind.gauge is not None:
            obs.gauge(f"bench.{kind.gauge}", row[kind.gauge])
        obs.finalize(
            config={"command": f"bench-{kind.tag}", "n": row["n"],
                    **config(row)},
            extra={"bench": kind.tag},
        )
    print(f"wrote {len(report['sizes'])} bench manifest(s) under {directory}")
    if catalog_db is not None:
        with Catalog(catalog_db) as catalog:
            print(f"catalog: {catalog.ingest([directory]).summary()} "
                  f"-> {catalog_db}")


def parse_since(text: str, *, now: float | None = None) -> float:
    """``--since`` argument -> unix seconds.

    Accepts a relative age (``90s``, ``30m``, ``12h``, ``7d``, ``2w``)
    or an ISO date/datetime (``2026-08-01``, ``2026-08-01T12:00``).
    """
    text = text.strip()
    match = re.fullmatch(r"(\d+(?:\.\d+)?)([smhdw])", text)
    if match:
        scale = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
        age = float(match.group(1)) * scale[match.group(2)]
        return (time.time() if now is None else now) - age
    from datetime import datetime

    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError:
        raise CatalogError(
            f"cannot parse --since {text!r}: use a relative age like "
            "'12h'/'7d' or an ISO date like '2026-08-01'"
        ) from None


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    frac = pos - low
    return float(sorted_values[low] * (1 - frac) + sorted_values[high] * frac)


# -- the catalog --------------------------------------------------------------


class Catalog:
    """One SQLite run-catalog database.

    Thread-safe for ingest (a single internal connection guarded by a
    lock — the serve dispatchers share one instance), multi-process
    safe through WAL + the content-hash unique constraint.  Use as a
    context manager or call :meth:`close`.

    ``readonly=True`` opens with ``mode=ro`` and skips migrations —
    useful for querying a catalog owned by another user.
    """

    def __init__(self, path: str | Path, *, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self._lock = threading.Lock()
        if readonly:
            if not self.path.exists():
                raise CatalogError(f"no run catalog at {self.path}")
            self._conn = self._connect_ro()
            self._check_version(self._conn)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(
                str(self.path),
                timeout=30.0,
                isolation_level=None,  # explicit BEGIN/COMMIT below
                check_same_thread=False,
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._migrate()
        self._fts = self._probe_fts()

    # -- connections / schema ------------------------------------------------

    def _connect_ro(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            f"file:{self.path}?mode=ro",
            uri=True,
            timeout=30.0,
            check_same_thread=False,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _check_version(self, conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version > CATALOG_SCHEMA_VERSION:
            raise CatalogError(
                f"catalog {self.path} has schema version {version}, newer "
                f"than this build supports ({CATALOG_SCHEMA_VERSION}); "
                "upgrade parma to read it"
            )
        if version == 0 and self.readonly:
            raise CatalogError(f"{self.path} is not an initialized run catalog")

    def _migrate(self) -> None:
        """Apply any missing schema versions inside one write lock."""
        self._check_version(self._conn)
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            # Re-read under the write lock: another process may have
            # migrated between the unlocked check and our BEGIN.
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
            for target in range(version + 1, CATALOG_SCHEMA_VERSION + 1):
                for statement in _MIGRATIONS[target]:
                    self._conn.execute(statement)
                self._conn.execute(
                    "INSERT INTO catalog_migrations (version, applied_unix) "
                    "VALUES (?, ?)",
                    (target, time.time()),
                )
            if version < CATALOG_SCHEMA_VERSION:
                self._conn.execute(
                    f"PRAGMA user_version = {CATALOG_SCHEMA_VERSION}"
                )
                try:
                    self._conn.execute(_FTS_DDL)
                    fts = "1"
                except sqlite3.OperationalError:
                    fts = "0"  # SQLite built without FTS5: LIKE fallback
                self._conn.execute(
                    "INSERT OR REPLACE INTO catalog_meta (key, value) "
                    "VALUES ('fts', ?)",
                    (fts,),
                )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def _probe_fts(self) -> bool:
        row = self._conn.execute(
            "SELECT value FROM catalog_meta WHERE key = 'fts'"
        ).fetchone()
        return bool(row and row[0] == "1")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def schema_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    # -- ingest --------------------------------------------------------------

    def _iter_manifests(
        self, paths: Iterable[str | Path]
    ) -> Iterator[tuple[str, dict | ManifestError]]:
        """``(source, manifest or its load error)`` for every run found."""
        for path in paths:
            if parse_locator(str(path)) is not None:
                sources: list = [str(path)]  # one record, read by seek
            else:
                path = Path(path)
                if path.is_dir():
                    sources = sorted(
                        [*path.rglob(MANIFEST_FILE_NAME), *path.rglob(EVIDENCE_GLOB)]
                    )
                elif path.name == MANIFEST_FILE_NAME or path.suffix in (
                    ".json",
                    ".jsonl",
                ):
                    sources = [path]
                else:
                    sources = [path / MANIFEST_FILE_NAME]
            for source in sources:
                if isinstance(source, Path) and source.suffix == ".jsonl":
                    for locator, record in iter_log(source):
                        if not isinstance(record, ManifestError):
                            record = record["manifest"]
                        yield locator, record
                    continue
                try:
                    yield str(source), load_manifest(source)
                except ManifestError as exc:
                    yield str(source), exc

    def ingest(self, paths: Iterable[str | Path]) -> IngestReport:
        """Index every manifest under ``paths`` (idempotent).

        A path is a ``manifest.json`` file, an evidence log
        (``evidence-*.jsonl``, one record per served request), a
        record locator (``<log>.jsonl#<offset>``) or a directory,
        scanned recursively for the first two.  A manifest whose
        content hash is already cataloged counts as a duplicate and
        changes nothing; an invalid manifest, or a log line that does
        not parse (the torn tail of a killed writer), lands in
        ``report.errors`` without aborting the rest of the scan.
        """
        if self.readonly:
            raise CatalogError("catalog opened read-only; cannot ingest")
        report = IngestReport()
        for source, manifest in self._iter_manifests(paths):
            report.scanned += 1
            if isinstance(manifest, ManifestError):
                report.errors.append((source, str(manifest)))
                continue
            if self.ingest_manifest(manifest, source_path=source):
                report.ingested += 1
            else:
                report.duplicates += 1
        return report

    def ingest_manifest(
        self, manifest: dict, source_path: str | None = None
    ) -> bool:
        """Index one already-loaded manifest; False when deduplicated."""
        if self.readonly:
            raise CatalogError("catalog opened read-only; cannot ingest")
        content_hash = manifest_content_hash(manifest)
        row = flatten_manifest(manifest, source_path=source_path)
        row["content_hash"] = content_hash
        row["ingested_unix"] = time.time()
        columns = sorted(row)
        placeholders = ", ".join("?" for _ in columns)
        column_sql = ", ".join(f'"{c}"' for c in columns)
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    f"INSERT OR IGNORE INTO runs ({column_sql}) "
                    f"VALUES ({placeholders})",
                    [row[c] for c in columns],
                )
                if cursor.rowcount == 0:
                    self._conn.execute("COMMIT")
                    return False
                run_fk = cursor.lastrowid
                self._conn.executemany(
                    "INSERT INTO phases (run_fk, name, count, total_seconds, "
                    "self_seconds) VALUES (?, ?, ?, ?, ?)",
                    [
                        (
                            run_fk,
                            name,
                            int(entry.get("count", 0)),
                            float(entry.get("total_seconds", 0.0)),
                            float(entry.get("self_seconds", 0.0)),
                        )
                        for name, entry in manifest.get("phases", {}).items()
                    ],
                )
                metric_rows = []
                for name, entry in manifest.get("metrics", {}).items():
                    if not isinstance(entry, dict):
                        continue
                    metric_rows.append(
                        (
                            run_fk,
                            name,
                            str(entry.get("type", "?")),
                            (
                                float(entry["value"])
                                if "value" in entry
                                else None
                            ),
                            float(entry.get("sum", 0.0)) if "sum" in entry else None,
                            int(entry.get("count", 0)) if "count" in entry else None,
                        )
                    )
                self._conn.executemany(
                    "INSERT INTO metrics (run_fk, name, type, value, sum, "
                    "count) VALUES (?, ?, ?, ?, ?, ?)",
                    metric_rows,
                )
                if self._fts:
                    self._conn.execute(
                        "INSERT INTO runs_fts (rowid, body) VALUES (?, ?)",
                        (run_fk, _fts_text(manifest)),
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return True

    # -- queries -------------------------------------------------------------

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def _filters(
        self,
        *,
        kind: str | None = None,
        status: str | None = None,
        bench: str | None = None,
        since: float | None = None,
        min_rung: int | None = None,
        search: str | None = None,
        where: str | None = None,
    ) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        params: list[Any] = []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if bench is not None:
            clauses.append("bench = ?")
            params.append(bench)
        if since is not None:
            clauses.append("started_unix >= ?")
            params.append(float(since))
        if min_rung is not None:
            clauses.append("degradation_rung >= ?")
            params.append(int(min_rung))
        if search is not None:
            if self._fts:
                clauses.append(
                    "id IN (SELECT rowid FROM runs_fts WHERE runs_fts MATCH ?)"
                )
                params.append(search)
            else:
                clauses.append(
                    "(config_json LIKE ? OR IFNULL(extra_json, '') LIKE ?)"
                )
                params.extend([f"%{search}%", f"%{search}%"])
        if where is not None:
            clauses.append(f"({where})")
        sql = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return sql, params

    def list_runs(self, *, limit: int | None = 50, **filters: Any) -> list[sqlite3.Row]:
        """Filtered run rows, newest first (see :meth:`_filters` knobs)."""
        where_sql, params = self._filters(**filters)
        sql = (
            "SELECT * FROM runs" + where_sql
            + " ORDER BY started_unix DESC, id DESC"
        )
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        try:
            return list(self._conn.execute(sql, params))
        except sqlite3.OperationalError as exc:
            raise CatalogError(f"bad filter: {exc}") from exc

    def get_run(self, run_id: str) -> tuple[sqlite3.Row, list, list]:
        """One run (matched by full or prefix run_id) + phases + metrics."""
        rows = list(
            self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ? OR run_id LIKE ? "
                "ORDER BY started_unix DESC",
                (run_id, f"{run_id}%"),
            )
        )
        if not rows:
            raise CatalogError(f"no cataloged run matches {run_id!r}")
        if len(rows) > 1 and rows[0]["run_id"] != run_id:
            matches = ", ".join(sorted(r["run_id"] for r in rows)[:5])
            raise CatalogError(
                f"run id prefix {run_id!r} is ambiguous ({matches}, ...)"
            )
        run = rows[0]
        phases = list(
            self._conn.execute(
                "SELECT name, count, total_seconds, self_seconds FROM phases "
                "WHERE run_fk = ? ORDER BY self_seconds DESC",
                (run["id"],),
            )
        )
        metrics = list(
            self._conn.execute(
                "SELECT name, type, value, sum, count FROM metrics "
                "WHERE run_fk = ? ORDER BY name",
                (run["id"],),
            )
        )
        return run, phases, metrics

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> tuple[list[str], list[tuple]]:
        """Read-only SQL escape hatch: SELECT/WITH statements only.

        The statement gate is cosmetic UX; the real guarantee is the
        ``mode=ro`` connection the statement runs on — even a writing
        CTE that slips past the regex cannot modify the catalog.
        """
        if not _SELECT_RE.match(sql or ""):
            raise CatalogError(
                "only SELECT (or WITH ... SELECT) statements are allowed; "
                "use `parma runs ingest` to write"
            )
        conn = self._connect_ro()
        try:
            try:
                cursor = conn.execute(sql, tuple(params))
            except sqlite3.OperationalError as exc:
                raise CatalogError(f"query failed: {exc}") from exc
            columns = (
                [d[0] for d in cursor.description] if cursor.description else []
            )
            return columns, [tuple(row) for row in cursor.fetchall()]
        finally:
            conn.close()

    def stats(
        self,
        *,
        group_by: Sequence[str] = ("n", "solver"),
        metric: str = "solve_seconds",
        **filters: Any,
    ) -> list[dict]:
        """Percentile aggregates of one runs column, grouped.

        Returns one dict per group: the group keys plus ``count``,
        ``p50``, ``p95``, ``mean`` and ``max`` of ``metric`` (rows
        where the column is NULL are excluded).  ``metric`` and
        ``group_by`` must name ``runs`` columns.
        """
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        for name in (*group_by, metric):
            if name not in columns:
                raise CatalogError(
                    f"{name!r} is not a runs column (see PRAGMA "
                    "table_info(runs), or `parma runs query`)"
                )
        where_sql, params = self._filters(**filters)
        null_guard = f'"{metric}" IS NOT NULL'
        where_sql = (
            f"{where_sql} AND {null_guard}" if where_sql else f" WHERE {null_guard}"
        )
        group_sql = ", ".join(f'"{g}"' for g in group_by) or "1"
        rows = self._conn.execute(
            f'SELECT {group_sql}, "{metric}" FROM runs{where_sql}',
            params,
        ).fetchall()
        groups: dict[tuple, list[float]] = {}
        for row in rows:
            key = tuple(row[: len(group_by)] if group_by else ())
            groups.setdefault(key, []).append(float(row[-1]))
        out = []
        for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
            values = sorted(groups[key])
            entry = dict(zip(group_by, key))
            entry.update(
                count=len(values),
                p50=_percentile(values, 0.50),
                p95=_percentile(values, 0.95),
                mean=sum(values) / len(values),
                max=values[-1],
            )
            out.append(entry)
        return out

    def regress(
        self,
        bench_paths: Iterable[str | Path],
        *,
        threshold: float = 1.5,
    ) -> RegressReport:
        """Gate the latest bench-tagged runs against trajectories.

        For every ``(bench tag, n)`` a trajectory defines, the most
        recent cataloged run carrying that tag at that size is checked:
        its phase seconds must stay within ``threshold`` times the
        committed baseline.  Sizes with no cataloged run are noted, not
        failed — the gate judges the runs you have.
        """
        report = RegressReport(threshold=float(threshold))
        for path in bench_paths:
            tag, column, baselines = load_bench_trajectory(path)
            for n, baseline in sorted(baselines.items()):
                row = self._conn.execute(
                    f'SELECT run_id, "{column}" AS observed FROM runs '
                    f'WHERE bench = ? AND n = ? AND "{column}" IS NOT NULL '
                    "ORDER BY started_unix DESC, id DESC LIMIT 1",
                    (tag, n),
                ).fetchone()
                if row is None:
                    report.notes.append(
                        f"{tag} n={n}: no bench-tagged run cataloged"
                    )
                    continue
                report.checks.append(
                    RegressCheck(
                        bench=tag,
                        n=n,
                        run_id=row["run_id"],
                        observed_seconds=float(row["observed"]),
                        baseline_seconds=baseline,
                        threshold=float(threshold),
                    )
                )
        return report
