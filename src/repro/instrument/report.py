"""Plain-text result tables for the benchmark harnesses.

Every benchmark prints its figure's data as an aligned text table (the
"same rows/series the paper reports"), via :class:`ResultTable`.  No
plotting dependency: the series are the artifact; EXPERIMENTS.md
records them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ResultTable:
    """An aligned text table with a title and typed columns."""

    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(c)), *(len(r[i]) for r in cells)) if cells else len(str(c))
            for i, c in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def human_bytes(nbytes: float) -> str:
    """1536 -> '1.5 KiB' (for memory tables)."""
    units = ["B", "KiB", "MiB", "GiB", "TiB"]
    value = float(nbytes)
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} TiB"  # pragma: no cover


def cache_stats_table(stats_list: Sequence[Any]) -> ResultTable:
    """Tabulate formation-template and Laplacian cache statistics.

    Accepts any objects exposing ``name``, ``entries``, ``hits``,
    ``misses``, ``bytes_resident`` and ``build_seconds`` (the shape of
    :func:`repro.core.templates.cache_stats` and
    :func:`repro.kirchhoff.forward.laplacian_cache_stats`).
    """
    table = ResultTable(
        title="formation/assembly caches",
        columns=("cache", "entries", "hits", "misses", "resident", "build"),
    )
    for stats in stats_list:
        table.add_row(
            stats.name,
            stats.entries,
            stats.hits,
            stats.misses,
            human_bytes(stats.bytes_resident),
            human_seconds(stats.build_seconds),
        )
    return table


def ladder_table(results: Sequence[Any]) -> ResultTable:
    """Tabulate which degradation rung each parametrization used.

    Accepts :class:`repro.core.engine.ParmaResult`-shaped objects
    (``measurement.hour``, ``solve``, optional ``degradation`` and
    ``events``); rows show the rung, the ladder path walked, and any
    resilience events — the §II-C monitoring operator's view of how
    degraded the day's answers are.
    """
    table = ResultTable(
        title="solver degradation / resilience events",
        columns=("hour", "solver", "converged", "rung", "path", "events"),
    )
    for r in results:
        deg = getattr(r, "degradation", None)
        table.add_row(
            f"{float(r.measurement.hour):g}",
            r.solve.method,
            bool(r.solve.converged),
            deg.rung_used if deg is not None else "-",
            deg.describe() if deg is not None and deg.degraded else "-",
            "; ".join(getattr(r, "events", ())) or "-",
        )
    return table


def human_seconds(seconds: float) -> str:
    """Pretty duration: µs/ms/s/min ranges; '0 s' for zero, sign-safe."""
    if seconds == 0:
        return "0 s"
    if seconds < 0:
        return "-" + human_seconds(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120:
        return f"{seconds:.2f} s"
    return f"{seconds / 60:.1f} min"


def _phase_field(entry: dict, *keys: str) -> float:
    """First present key: tolerates rollup ('self') and manifest
    ('self_seconds') spellings of the same phase dict."""
    for key in keys:
        if key in entry:
            return float(entry[key])
    return 0.0


def trace_phase_table(phases: dict) -> ResultTable:
    """Tabulate a phase rollup, heaviest self-time first.

    Accepts either :func:`repro.observe.tracing.phase_rollup` output
    (``count``/``total``/``self``) or the ``phases`` object of a run
    manifest (``count``/``total_seconds``/``self_seconds``).
    """
    table = ResultTable(
        title="trace phases (self-time ordered)",
        columns=("phase", "count", "total", "self"),
    )
    ordered = sorted(
        phases.items(),
        key=lambda kv: -_phase_field(kv[1], "self", "self_seconds"),
    )
    for name, entry in ordered:
        table.add_row(
            name,
            int(_phase_field(entry, "count")),
            human_seconds(_phase_field(entry, "total", "total_seconds")),
            human_seconds(_phase_field(entry, "self", "self_seconds")),
        )
    return table


def metrics_table(snapshot: dict) -> ResultTable:
    """Tabulate a :meth:`MetricsRegistry.snapshot` dict.

    Counters and gauges show their value; histograms collapse to
    ``n=<count> mean=<mean>`` (the buckets stay in the manifest JSON).
    """
    table = ResultTable(title="metrics", columns=("metric", "type", "value"))
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            count = int(entry.get("count", 0))
            mean = entry.get("sum", 0.0) / count if count else 0.0
            value = f"n={count} mean={human_seconds(float(mean))}"
        else:
            value = entry.get("value", "?")
        table.add_row(name, kind, value)
    return table
