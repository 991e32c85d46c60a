"""Process-local metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per run (the :class:`repro.observe.Observer`
owns it) aggregates everything the pipeline wants counted — pair
blocks formed, template-cache hits/misses, retry attempts, degradation
rung transitions, checkpoint writes/resumes, bytes committed by
:mod:`repro.resilience.atomio` — and snapshots to a plain dict that the
run manifest embeds verbatim.

The registry is intentionally *process-local*: forked formation
workers report their share through the existing shared-memory
reductions (``FormationReport.per_worker_terms`` etc.), and the parent
feeds the reduced totals into the registry after the join
(:func:`record_formation`), so no cross-process metric merging is ever
needed.

Canonical metric names are dotted lowercase (``formation.terms``,
``retry.attempts``, ``degrade.rung.bounded``, ``checkpoint.writes``,
``atomio.bytes_committed``, ``cache.pair-template.hits``).  The solve
service adds the ``serve.*`` family — ``serve.requests``,
``serve.queue_depth`` (total plus per-class
``serve.queue_depth.{interactive,batch}`` gauges),
``serve.queue_wait_seconds``, ``serve.latency.{cold,warm}_seconds``,
``serve.rejected.{queue_full,draining,invalid,quota}``,
``serve.responses.{ok,failed,deadline,worker_lost}``,
``serve.shed.{interactive,batch}``, ``serve.idempotent_hits``,
``serve.drains``, and the executor-supervision counters
``serve.worker_respawns`` / ``serve.requests_salvaged`` /
``serve.worker_lost`` — and the per-request ``serve.dispatch`` span
(carrying ``n``), documented in ``docs/SERVING.md``.  The solver fast
path adds the ``solver.*`` family — ``solver.iteration.seconds``
(per-Gauss–Newton-iteration histogram), ``solver.gn.cg_iterations``
(preconditioned-CG iterations of the matrix-free steps, summed per
solve), ``solver.gn.krylov_fallbacks`` (matrix-free CG step missed its
true-residual limit, dense step taken instead),
``solver.gn.cholesky_fallbacks`` (Cholesky factorisation of
the dense step failed, Jacobian solved by LU instead),
``solver.gn.lm_rescues`` (line search exhausted, Levenberg normal
equations assembled) — documented in ``docs/OBSERVABILITY.md``.

One cross-registry operation exists for the serving path:
:meth:`MetricsRegistry.merge` folds a *snapshot* of another registry
into this one, so the long-lived service registry can aggregate each
per-request registry after the request's manifest is finalized — and,
with subprocess executors, the snapshots that each executor child
ships back alongside its result frames.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Sequence

#: Default histogram buckets for durations in seconds (upper edges).
DURATION_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        return self.value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-write-wins level (cache residency, queue depth, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bucket histogram: counts per upper-edge bucket + overflow.

    ``buckets`` are the inclusive upper edges; one extra overflow
    bucket catches everything above the last edge.  Also tracks sum
    and count so means survive the snapshot.
    """

    name: str
    buckets: tuple[float, ...] = DURATION_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        edges = tuple(float(b) for b in self.buckets)
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {self.name}: buckets must be sorted")
        self.buckets = edges
        if not self.counts:
            self.counts = [0] * (len(edges) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, float(value))] += 1
        self.total += float(value)
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Thread-safe name -> metric map with typed get-or-create access."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name=name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DURATION_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets=tuple(buckets))

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> dict[str, dict]:
        """A JSON-safe copy of every metric, sorted by name."""
        with self._lock:
            return {
                name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)
            }

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` of another registry into this one.

        Counters add, gauges take the incoming value, histograms merge
        bucket-by-bucket when the edges agree (and are skipped with no
        error when they don't — two registries disagreeing on buckets
        is a configuration drift the caller can see in its own
        snapshot, not a reason to corrupt counts).  Unknown metric
        types are ignored so newer snapshots stay mergeable.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(float(entry.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(entry.get("value", 0.0)))
            elif kind == "histogram":
                edges = tuple(float(b) for b in entry.get("buckets", ()))
                hist = self.histogram(name, buckets=edges or DURATION_BUCKETS)
                counts = entry.get("counts", [])
                if hist.buckets != edges or len(counts) != len(hist.counts):
                    continue
                with self._lock:
                    for i, c in enumerate(counts):
                        hist.counts[i] += int(c)
                    hist.total += float(entry.get("sum", 0.0))
                    hist.count += int(entry.get("count", 0))


def histogram_quantile(entry: dict, q: float) -> float:
    """Estimate a quantile from a snapshot histogram dict.

    Linear interpolation inside the winning bucket, the standard
    fixed-bucket estimator (same convention as Prometheus'
    ``histogram_quantile``): the true value is within one bucket width.
    Values in the overflow bucket clamp to the last edge.  Accepts the
    :meth:`Histogram.to_dict` shape; returns 0.0 for empty histograms.
    """
    buckets = [float(b) for b in entry.get("buckets", ())]
    counts = [int(c) for c in entry.get("counts", ())]
    total = sum(counts)
    if total == 0 or not buckets:
        return 0.0
    target = max(1.0, q * total)
    cumulative = 0
    lower = 0.0
    for index, count in enumerate(counts):
        upper = buckets[index] if index < len(buckets) else buckets[-1]
        if cumulative + count >= target:
            if index >= len(buckets):  # overflow bucket: clamp
                return buckets[-1]
            fraction = (target - cumulative) / count
            return lower + fraction * (upper - lower)
        cumulative += count
        lower = upper
    return buckets[-1]


# -- pipeline-specific recorders ----------------------------------------------


def record_formation(registry: MetricsRegistry, report: Any) -> None:
    """Fold one ``FormationReport`` into the registry."""
    registry.counter("formation.runs").inc()
    registry.counter("formation.terms").inc(float(report.terms_formed))
    registry.counter("formation.pair_blocks").inc(float(report.n) ** 2)
    registry.counter("formation.bytes_written").inc(
        float(getattr(report, "bytes_written", 0))
    )
    registry.histogram("formation.elapsed_seconds").observe(
        float(report.elapsed_seconds)
    )
    salvaged = float(getattr(report, "blocks_salvaged", 0))
    reformed = float(getattr(report, "blocks_reformed", 0))
    if salvaged:
        registry.counter("formation.blocks_salvaged").inc(salvaged)
    if reformed:
        registry.counter("formation.blocks_reformed").inc(reformed)


def record_degradation(registry: MetricsRegistry, report: Any) -> None:
    """Fold one ``DegradationReport`` into the registry."""
    if report is None:
        return
    if report.rung_used:
        registry.counter(f"degrade.rung.{report.rung_used}").inc()
    transitions = max(0, len(report.rungs_tried) - 1)
    if transitions:
        registry.counter("degrade.rung_transitions").inc(transitions)
    if report.exhausted:
        registry.counter("degrade.exhausted").inc()


def all_cache_stats() -> list[Any]:
    """The two formation/solver cache stats, one authoritative list.

    This is the *single source* consumed by ``parma info``'s
    :func:`repro.instrument.report.cache_stats_table`, by
    :func:`sync_cache_gauges` (metrics registry), and hence by the run
    manifest — all three surfaces show the same numbers.
    """
    # Imported here: the core/kirchhoff layers sit above this module.
    from repro.core.templates import cache_stats
    from repro.kirchhoff.forward import laplacian_cache_stats

    return [cache_stats(), laplacian_cache_stats()]


def sync_cache_gauges(registry: MetricsRegistry) -> list[Any]:
    """Mirror the cache stats into ``cache.<name>.*`` gauges.

    Every numeric field of each stats dataclass becomes one gauge, so
    cache-specific counters (the Laplacian cache's
    ``pinv_materializations``, say) flow into manifests without this
    function enumerating them.  Returns the stats list so callers can
    also tabulate it.
    """
    stats_list = all_cache_stats()
    for stats in stats_list:
        prefix = f"cache.{stats.name}"
        for field_name, value in vars(stats).items():
            if field_name == "name" or not isinstance(value, (int, float)):
                continue
            registry.gauge(f"{prefix}.{field_name}").set(value)
    return stats_list
