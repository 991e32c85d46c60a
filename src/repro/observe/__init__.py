"""Observability: unified tracing, metrics and run manifests.

The observability spine of the library (DESIGN.md §7): every
substantive phase — formation (per strategy, per worker, per pair
block), solve (per degradation rung), detection, checkpoint I/O,
streaming — can emit **spans** and **events** onto one stream, and
every interesting count (pair blocks formed, cache hits, retries,
rung transitions, checkpoint writes, bytes committed) lands in one
**metrics registry**; a traced run ends with a **manifest** tying it
all together next to the results.

* :mod:`repro.observe.tracing` — span API, JSONL + Chrome
  ``trace_event`` export (Perfetto-loadable), span-tree
  reconstruction;
* :mod:`repro.observe.metrics` — counters / gauges / fixed-bucket
  histograms, snapshot-able to a dict;
* :mod:`repro.observe.manifest` — run manifests (config, environment,
  phase rollups, metric snapshot) with CI-gated required keys;
* :mod:`repro.observe.observer` — the :class:`Observer` bundle and
  the global no-op default (:data:`NULL_OBSERVER`), which keeps hot
  paths at < 2 % overhead when tracing is off;
* :mod:`repro.observe.evidence` — the per-process evidence log:
  one fsynced ``{manifest, spans}`` line per served request, read
  back by ``<log>#<offset>`` locator;
* :mod:`repro.observe.catalog` — the SQLite run catalog indexing
  manifest directories and evidence logs for ``parma runs``
  (list/query/stats/regress/watch).

``manifest`` is imported lazily (PEP 562): it depends on
:mod:`repro.resilience.atomio`, which itself reports byte counts
through this package's global observer.
"""

from __future__ import annotations

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    all_cache_stats,
    histogram_quantile,
    record_degradation,
    record_formation,
    sync_cache_gauges,
)
from repro.observe.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    as_observer,
    get_observer,
    set_observer,
)
from repro.observe.tracing import (
    Span,
    SpanNode,
    Tracer,
    build_span_tree,
    chrome_trace_events,
    phase_rollup,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

_LAZY = {
    "ManifestError": "manifest",
    "REQUIRED_KEYS": "manifest",
    "SUPPORTED_SCHEMA_VERSIONS": "manifest",
    "build_manifest": "manifest",
    "load_manifest": "manifest",
    "phase_total_seconds": "manifest",
    "validate_manifest": "manifest",
    "write_manifest": "manifest",
    # catalog pulls in sqlite3 + manifest; keep it off the hot import path
    "Catalog": "catalog",
    "CatalogError": "catalog",
    "IngestReport": "catalog",
    "RegressReport": "catalog",
    "flatten_manifest": "catalog",
    "summarize_run": "catalog",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    return getattr(module, name)


__all__ = [
    "NULL_OBSERVER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "Span",
    "SpanNode",
    "Tracer",
    "all_cache_stats",
    "as_observer",
    "build_span_tree",
    "chrome_trace_events",
    "get_observer",
    "histogram_quantile",
    "phase_rollup",
    "read_jsonl",
    "record_degradation",
    "record_formation",
    "set_observer",
    "sync_cache_gauges",
    "write_chrome_trace",
    "write_jsonl",
    *sorted(_LAZY),
]
