"""The :class:`Observer` — one handle bundling tracer + metrics + manifest.

An ``Observer`` rides through the whole pipeline (engine, strategies,
streaming, MPI dispatch, resilience hooks).  Everything is optional:
the default is the module-global observer, which starts as
:data:`NULL_OBSERVER` — a no-op whose ``span()`` returns one shared
do-nothing context manager, so instrumented hot paths cost a single
attribute lookup and an empty ``with`` when observability is off
(benchmarked < 2 % in ``benchmarks/bench_observer_overhead.py``).

Enable per run::

    from repro.observe import Observer, set_observer

    obs = Observer(trace_dir="runs/today")
    set_observer(obs)           # resilience/atomio layers pick it up
    engine = ParmaEngine(observer=obs)
    engine.parametrize(meas)
    obs.finalize(config={"n": 20})   # trace.jsonl + trace.chrome.json
                                     # + manifest.json under trace_dir

Fork protocol (used by the PyMP strategies): the parent calls
``obs.ensure_spool()`` *before* the region and ``obs.merge_workers()``
after the join; each forked worker calls
``obs.worker_flush(mark, worker=r)`` in its region ``finally`` with the
``mark = obs.mark()`` taken before the fork, so only region-local
spans are spooled (never the inherited pre-fork buffer).
"""

from __future__ import annotations

import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any

from repro.observe.metrics import MetricsRegistry, sync_cache_gauges
from repro.observe.tracing import (
    Tracer,
    phase_rollup,
    write_chrome_trace,
    write_jsonl,
)

#: Canonical artifact names written by :meth:`Observer.finalize`.
TRACE_JSONL_NAME = "trace.jsonl"
TRACE_CHROME_NAME = "trace.chrome.json"
MANIFEST_FILE_NAME = "manifest.json"


def new_run_id() -> str:
    """A run id unique to this process lifetime: time, pid, random."""
    return (
        time.strftime("%Y%m%dT%H%M%S")
        + f"-{os.getpid():x}-{uuid.uuid4().hex[:6]}"
    )


class _NullSpan:
    """Shared do-nothing context manager (singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Public no-op span for hot loops that want to skip even keyword-dict
#: construction: ``with obs.span(...) if obs.enabled else NULL_SPAN:``.
NULL_SPAN = _NULL_SPAN


class NullObserver:
    """Zero-overhead stand-in used when observability is off.

    Every method is a no-op returning a neutral value; ``enabled`` is
    False so hot loops can skip even attr-dict construction with a
    single boolean check.
    """

    __slots__ = ()

    enabled = False
    metrics = None
    trace_dir = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe_hist(self, name: str, value: float) -> None:
        return None

    def record_formation(self, report: Any) -> None:
        return None

    def record_degradation(self, report: Any) -> None:
        return None

    def add_span(self, name: str, ts: float, dur: float, **kwargs: Any) -> None:
        return None

    # fork protocol ----------------------------------------------------------

    def mark(self) -> int:
        return 0

    def ensure_spool(self) -> None:
        return None

    def worker_flush(self, since: int = 0, worker: int | None = None) -> int:
        return 0

    def merge_workers(self) -> int:
        return 0

    def finalize(self, **kwargs: Any) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullObserver()"


#: The shared no-op observer (also the initial global observer).
NULL_OBSERVER = NullObserver()


class Observer:
    """Live tracing + metrics for one run.

    Parameters
    ----------
    trace_dir:
        Where :meth:`finalize` writes ``trace.jsonl``,
        ``trace.chrome.json`` and ``manifest.json`` (created on
        demand).  None keeps everything in memory — spans and metrics
        are still queryable, nothing touches disk unless a fork region
        needs a spool (which then lands in a temp directory).
    """

    enabled = True

    def __init__(self, trace_dir: str | Path | None = None) -> None:
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.run_id = new_run_id()
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        self._t0_cpu = time.process_time()
        self._tmp_spool: tempfile.TemporaryDirectory | None = None

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.tracer.event(name, **attrs)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe_hist(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def record_formation(self, report: Any) -> None:
        """Fold a ``FormationReport`` into the metrics registry."""
        from repro.observe.metrics import record_formation

        record_formation(self.metrics, report)

    def record_degradation(self, report: Any) -> None:
        """Fold a ``DegradationReport`` into the metrics registry."""
        from repro.observe.metrics import record_degradation

        record_degradation(self.metrics, report)

    def add_span(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int | None = None,
        tid: int = 0,
        **attrs: Any,
    ):
        """Append a synthesized span (see :meth:`Tracer.add_span`)."""
        return self.tracer.add_span(name, ts, dur, pid=pid, tid=tid, **attrs)

    @property
    def spans(self):
        return self.tracer.spans

    # -- fork protocol -------------------------------------------------------

    def mark(self) -> int:
        return self.tracer.mark()

    def ensure_spool(self) -> None:
        """Pick/create the spool directory (call before forking)."""
        if self.tracer.spool_dir is not None:
            return
        if self.trace_dir is not None:
            self.tracer.ensure_spool(self.trace_dir / "spool")
        else:
            self._tmp_spool = tempfile.TemporaryDirectory(prefix="parma-spool-")
            self.tracer.ensure_spool(self._tmp_spool.name)

    def worker_flush(self, since: int = 0, worker: int | None = None) -> int:
        return self.tracer.flush_to_spool(since=since, worker=worker)

    def merge_workers(self) -> int:
        return self.tracer.merge_spool()

    # -- finalize ------------------------------------------------------------

    def elapsed_wall(self) -> float:
        return time.perf_counter() - self._t0_perf

    def elapsed_cpu(self) -> float:
        return time.process_time() - self._t0_cpu

    def phase_rollup(self) -> dict[str, dict[str, float]]:
        return phase_rollup(self.tracer.spans)

    def build_manifest(
        self,
        config: dict | None = None,
        memory: dict | None = None,
        extra: dict | None = None,
    ) -> dict:
        """Snapshot the run into a manifest dict (no I/O).

        Merges any straggler spool files and mirrors the cache stats
        into gauges (so the manifest and ``parma info`` report the
        same numbers from the same source).  :meth:`finalize` writes
        the result to ``manifest.json``; a served request appends it
        to the evidence log (:mod:`repro.observe.evidence`).
        """
        # Deferred import: manifest -> atomio -> this module.
        from repro.observe.manifest import build_manifest

        # Snapshot the clocks before any export work so the reported
        # wall covers the observed run, not the export itself.
        end_perf = time.perf_counter()
        cpu_seconds = self.elapsed_cpu()
        self.merge_workers()
        if self._tmp_spool is not None:
            self._tmp_spool.cleanup()
            self._tmp_spool = None
            self.tracer.spool_dir = None
        sync_cache_gauges(self.metrics)
        spans = self.tracer.spans
        # Manifest wall covers the *observed* window: from the first
        # recorded span to this call (ctor time when nothing was
        # traced), so phase coverage is judged against traced activity
        # rather than importer/CLI setup outside any span.
        t0 = min((s.ts for s in spans), default=self._t0_perf)
        return build_manifest(
            run_id=self.run_id,
            config=config or {},
            phases=self.phase_rollup(),
            metrics=self.metrics.snapshot(),
            wall_seconds=end_perf - min(t0, end_perf),
            cpu_seconds=cpu_seconds,
            started_unix=self._t0_wall,
            memory=memory,
            num_spans=len(spans),
            extra=extra,
        )

    def finalize(
        self,
        config: dict | None = None,
        memory: dict | None = None,
        extra: dict | None = None,
    ) -> dict:
        """Write the run artifacts and return the manifest dict.

        Requires ``trace_dir``: writes ``trace.jsonl``,
        ``trace.chrome.json`` and :meth:`build_manifest`'s
        ``manifest.json`` atomically.
        """
        if self.trace_dir is None:
            raise ValueError("Observer was created without a trace_dir")
        from repro.observe.manifest import write_manifest

        manifest = self.build_manifest(config=config, memory=memory, extra=extra)
        spans = self.tracer.spans
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        write_jsonl(spans, self.trace_dir / TRACE_JSONL_NAME)
        write_chrome_trace(spans, self.trace_dir / TRACE_CHROME_NAME)
        write_manifest(self.trace_dir / MANIFEST_FILE_NAME, manifest)
        return manifest

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Observer(run_id={self.run_id!r}, spans={len(self.tracer)}, "
            f"trace_dir={str(self.trace_dir) if self.trace_dir else None!r})"
        )


# -- the module-global observer ----------------------------------------------

_GLOBAL: NullObserver | Observer = NULL_OBSERVER


def set_observer(observer: "Observer | NullObserver | None") -> None:
    """Install the global observer (None resets to the no-op)."""
    global _GLOBAL
    _GLOBAL = observer if observer is not None else NULL_OBSERVER


def get_observer() -> "Observer | NullObserver":
    """The currently installed global observer (never None)."""
    return _GLOBAL


def as_observer(
    observer: "Observer | NullObserver | None",
) -> "Observer | NullObserver":
    """Explicit observer if given, else the global one."""
    return observer if observer is not None else _GLOBAL
