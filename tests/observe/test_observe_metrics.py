"""Tests for the metrics registry and the pipeline recorders."""

import json

import numpy as np
import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    all_cache_stats,
    record_degradation,
    record_formation,
    sync_cache_gauges,
)


class TestPrimitives:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(5)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_buckets(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # one per bucket + overflow
        assert h.count == 3
        assert h.mean == pytest.approx(5.55 / 3)

    def test_histogram_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", buckets=(1.0, 0.1))


class TestRegistry:
    def test_get_or_create_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_type_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            r.gauge("a")

    def test_snapshot_sorted_and_json_safe(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.gauge("a").set(1)
        r.histogram("c").observe(0.5)
        snap = r.snapshot()
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)
        assert snap["c"]["type"] == "histogram"

    def test_clear(self):
        r = MetricsRegistry()
        r.counter("a")
        r.clear()
        assert r.names() == ()


class TestRecorders:
    def test_record_formation(self):
        from repro.core.strategies import FormationReport

        report = FormationReport(
            strategy="single-thread",
            n=4,
            num_workers=1,
            elapsed_seconds=0.25,
            terms_formed=512,
            checksum=1.0,
            per_worker_terms=np.array([512]),
            bytes_written=100,
        )
        r = MetricsRegistry()
        record_formation(r, report)
        snap = r.snapshot()
        assert snap["formation.terms"]["value"] == 512
        assert snap["formation.pair_blocks"]["value"] == 16
        assert snap["formation.bytes_written"]["value"] == 100
        assert snap["formation.elapsed_seconds"]["count"] == 1

    def test_record_degradation(self):
        from repro.resilience.degrade import DegradationReport

        report = DegradationReport(
            rung_used="bounded",
            rungs_tried=("primary", "regularized", "bounded"),
            reasons=("err", "err", ""),
        )
        r = MetricsRegistry()
        record_degradation(r, report)
        snap = r.snapshot()
        assert snap["degrade.rung.bounded"]["value"] == 1
        assert snap["degrade.rung_transitions"]["value"] == 2

    def test_record_degradation_none_is_noop(self):
        r = MetricsRegistry()
        record_degradation(r, None)
        assert r.names() == ()


class TestCacheGauges:
    def test_single_source_agrees(self):
        from repro.core.templates import get_template

        get_template(5)  # ensure at least one cache entry exists
        stats_list = all_cache_stats()
        r = MetricsRegistry()
        returned = sync_cache_gauges(r)
        assert [s.name for s in returned] == [s.name for s in stats_list]
        snap = r.snapshot()
        for stats in stats_list:
            assert (
                snap[f"cache.{stats.name}.entries"]["value"] == stats.entries
            )

    def test_no_joint_jacobian_cache(self):
        """The joint system is a test oracle; its cache reports nothing."""
        assert [s.name for s in all_cache_stats()] == [
            "pair-template",
            "laplacian-pinv",
        ]
        r = MetricsRegistry()
        sync_cache_gauges(r)
        assert not any(
            name.startswith("cache.jacobian-structure.")
            for name in r.snapshot()
        )
