"""Observer tests: null path, globals, finalize, and pipeline integration."""

import json

import numpy as np
import pytest

from repro.observe import (
    NULL_OBSERVER,
    Observer,
    as_observer,
    get_observer,
    set_observer,
)
from repro.observe.observer import (
    MANIFEST_FILE_NAME,
    NULL_SPAN,
    TRACE_CHROME_NAME,
    TRACE_JSONL_NAME,
)


@pytest.fixture(autouse=True)
def _reset_global_observer():
    yield
    set_observer(None)


@pytest.fixture(scope="module")
def measurement():
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import WetLabConfig, run_campaign

    run = run_campaign(
        paper_like_spec(8, seed=13), WetLabConfig(noise_rel=0.0), seed=13
    )
    return run.campaign.measurements[0]


class TestNullObserver:
    def test_disabled_and_inert(self):
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.span("x", a=1) is NULL_SPAN
        with NULL_OBSERVER.span("x"):
            pass
        NULL_OBSERVER.event("e")
        NULL_OBSERVER.count("c", 5)
        NULL_OBSERVER.gauge("g", 1)
        NULL_OBSERVER.record_formation(None)
        NULL_OBSERVER.record_degradation(None)
        assert NULL_OBSERVER.mark() == 0
        assert NULL_OBSERVER.worker_flush() == 0
        assert NULL_OBSERVER.merge_workers() == 0
        assert NULL_OBSERVER.finalize() == {}

    def test_globals_default_to_null(self):
        assert get_observer() is NULL_OBSERVER
        assert as_observer(None) is NULL_OBSERVER

    def test_set_and_reset(self):
        obs = Observer()
        set_observer(obs)
        assert get_observer() is obs
        assert as_observer(None) is obs
        other = Observer()
        assert as_observer(other) is other  # explicit beats global
        set_observer(None)
        assert get_observer() is NULL_OBSERVER


class TestFinalize:
    def test_writes_three_artifacts(self, tmp_path):
        obs = Observer(trace_dir=tmp_path / "run")
        with obs.span("formation", n=6):
            obs.count("formation.runs")
        manifest = obs.finalize(config={"n": 6})
        for name in (TRACE_JSONL_NAME, TRACE_CHROME_NAME, MANIFEST_FILE_NAME):
            assert (tmp_path / "run" / name).exists()
        on_disk = json.loads(
            (tmp_path / "run" / MANIFEST_FILE_NAME).read_text()
        )
        assert on_disk["run_id"] == manifest["run_id"]
        assert on_disk["config"] == {"n": 6}
        assert "formation" in on_disk["phases"]
        assert on_disk["metrics"]["formation.runs"]["value"] == 1.0

    def test_finalize_requires_trace_dir(self):
        obs = Observer()
        with obs.span("s"):
            pass
        with pytest.raises(ValueError, match="trace_dir"):
            obs.finalize()

    def test_manifest_embeds_memory(self, tmp_path):
        obs = Observer(trace_dir=tmp_path)
        manifest = obs.finalize(memory={"peak": 123.0, "p50": 100.0})
        assert manifest["memory"]["peak"] == 123.0


class TestEngineIntegration:
    def test_single_thread_trace(self, measurement, tmp_path):
        from repro.core.engine import ParmaEngine

        obs = Observer()
        engine = ParmaEngine(strategy="single", observer=obs)
        result = engine.parametrize(measurement, output_dir=tmp_path)
        assert result.solve.converged
        names = {s.name for s in obs.spans}
        assert {"formation", "solve", "detect"} <= names
        snap = obs.metrics.snapshot()
        assert snap["formation.terms"]["value"] == result.formation.terms_formed

    def test_no_formation_span_without_output_dir(self, measurement):
        from repro.core.engine import ParmaEngine

        obs = Observer()
        ParmaEngine(strategy="single", observer=obs).parametrize(measurement)
        names = {s.name for s in obs.spans}
        assert {"solve", "detect"} <= names
        assert not any(name.startswith("formation") for name in names)
        assert not any(
            key.startswith("formation.") for key in obs.metrics.snapshot()
        )

    def test_phase_rollup_tracks_laps(self, measurement):
        from repro.core.engine import ParmaEngine

        obs = Observer()
        engine = ParmaEngine(strategy="single", observer=obs)
        result = engine.parametrize(measurement)
        rollup = obs.phase_rollup()
        # The solve span and the Stopwatch lap measure the same region.
        assert rollup["solve"]["total"] == pytest.approx(
            result.laps["solve"], rel=0.5, abs=0.05
        )

    def test_fork_strategy_merges_worker_spans(self, tmp_path, measurement):
        from repro.core.strategies import make_strategy
        from repro.parallel.pymp import fork_available

        if not fork_available():
            pytest.skip("no fork on this platform")
        obs = Observer(trace_dir=tmp_path)
        strategy = make_strategy("pymp", 2)
        strategy.run(measurement.z_kohm, observer=obs)
        workers = [s for s in obs.spans if s.name == "formation.worker"]
        assert len(workers) == 2
        pids = {s.pid for s in workers}
        assert len(pids) == 2  # parent rank 0 + one forked child
        # worker spans nest under the formation span
        formation = next(s for s in obs.spans if s.name == "formation")
        assert all(w.parent_id == formation.span_id for w in workers)

    def test_injected_rung_failure_is_an_event(self, measurement):
        from repro.core.engine import ParmaEngine
        from repro.resilience.faults import FaultPlan

        obs = Observer()
        engine = ParmaEngine(
            strategy="single",
            faults=FaultPlan(seed=1, fail_rungs=("primary",)),
            observer=obs,
        )
        engine.parametrize(measurement)
        events = [s for s in obs.spans if s.kind == "event"]
        failed = [e for e in events if e.name == "degrade.rung_failed"]
        assert failed and failed[0].attrs["rung"] == "primary"
        snap = obs.metrics.snapshot()
        assert snap["degrade.rung_transitions"]["value"] >= 1

    def test_atomio_reports_through_global(self, tmp_path):
        from repro.resilience.atomio import atomic_write_text

        obs = Observer()
        set_observer(obs)
        atomic_write_text(tmp_path / "x.txt", "hello")
        snap = obs.metrics.snapshot()
        assert snap["atomio.commits"]["value"] == 1
        assert snap["atomio.bytes_committed"]["value"] == 5
