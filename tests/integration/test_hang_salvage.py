"""Acceptance: hung workers, watchdog salvage, deadlines end to end.

The PR's acceptance criteria, as tests:

* an injected hang at n = 20 with ``stall_timeout=2`` completes
  *bit-identical* to the fault-free run in bounded wall-clock;
* a blown ``--deadline`` returns the dedicated exit code while the
  run manifest still records ``formation.blocks_salvaged > 0``.
"""

import json
import time

import numpy as np
import pytest

from repro import cli
from repro.core.engine import ParmaEngine
from repro.core.pipeline import run_pipeline
from repro.io.textformat import save_campaign
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import run_campaign
from repro.observe import Observer
from repro.parallel.pymp import fork_available
from repro.resilience.faults import FaultPlan
from repro.resilience.supervise import DEADLINE_EXIT_CODE, DeadlineExceeded

pytestmark = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


@pytest.fixture(scope="module")
def campaign20():
    return run_campaign(paper_like_spec(20, seed=7), seed=7).campaign


class TestHangSalvageBitIdentical:
    def test_hang_at_n20_is_bit_identical_and_bounded(self, campaign20, tmp_path):
        meas = campaign20.measurements[0]
        clean_dir = tmp_path / "clean"
        hang_dir = tmp_path / "hang"
        clean = ParmaEngine(strategy="pymp", num_workers=4).form(
            meas, output_dir=clean_dir
        )

        engine = ParmaEngine(
            strategy="pymp",
            num_workers=4,
            faults=FaultPlan(seed=7, hang_workers=(1,), hang_after_items=3),
            stall_timeout=2.0,
        )
        start = time.monotonic()
        faulted = engine.form(meas, output_dir=hang_dir)
        elapsed = time.monotonic() - start

        # Bounded: stall detection (2s) + salvage, nowhere near a hang.
        assert elapsed < 30.0
        # Identical formation output.
        assert faulted.terms_formed == clean.terms_formed
        assert faulted.checksum == pytest.approx(clean.checksum, rel=1e-12)
        np.testing.assert_array_equal(
            faulted.per_worker_terms, clean.per_worker_terms
        )
        # The loss really happened and was salvaged, not retried away.
        assert faulted.stalled_ranks == (1,)
        assert faulted.blocks_salvaged > 0
        assert faulted.blocks_reformed > 0
        # Salvaged + re-formed covers the whole item set (4n^2 pairs).
        assert faulted.blocks_salvaged + faulted.blocks_reformed == 4 * 20 * 20
        # Part files are byte-identical, including the dead rank's
        # (re-written by the parent in original item order).
        clean_parts = sorted(p.name for p in clean_dir.iterdir())
        hang_parts = sorted(p.name for p in hang_dir.iterdir())
        assert clean_parts == hang_parts
        for name in clean_parts:
            assert (hang_dir / name).read_bytes() == (
                clean_dir / name
            ).read_bytes(), f"part file {name} differs after salvage"

    def test_salvage_survives_full_parametrize_with_events(
        self, campaign20, tmp_path
    ):
        meas = campaign20.measurements[0]
        engine = ParmaEngine(
            strategy="pymp",
            num_workers=4,
            faults=FaultPlan(seed=7, hang_workers=(2,), hang_after_items=1),
            stall_timeout=1.0,
        )
        # Formation (and so the watchdog) runs when equations persist.
        result = engine.parametrize(meas, output_dir=tmp_path / "eq")
        assert result.solve.converged
        assert result.formation.stalled_ranks == (2,)
        assert any("watchdog" in e for e in result.events)
        assert any("salvaged" in e for e in result.events)
        assert "salvage" in result.summary()


class TestDeadlineExitAndManifest:
    def test_deadline_exceeded_with_salvage_in_manifest(self, tmp_path):
        # Every timepoint hangs a worker, so each costs >= stall_timeout
        # and the 4-timepoint day cannot finish inside the deadline;
        # timepoint 0 finishes comfortably, so salvage counters are in
        # the manifest even though the run as a whole timed out.
        campaign = run_campaign(paper_like_spec(12, seed=3), seed=3).campaign
        trace_dir = tmp_path / "trace"
        obs = Observer(trace_dir=trace_dir)
        engine = ParmaEngine(
            strategy="pymp",
            num_workers=4,
            faults=FaultPlan(seed=3, hang_workers=(1,), hang_after_items=1),
            stall_timeout=0.6,
            observer=obs,
        )
        with pytest.raises(DeadlineExceeded) as err:
            run_pipeline(
                campaign,
                engine=engine,
                output_dir=tmp_path / "eq",
                deadline=2.3,
                observer=obs,
            )
        # Partial results ride on the exception instead of being lost.
        assert err.value.partial is not None
        assert len(err.value.partial.results) >= 1
        first = err.value.partial.results[0]
        assert first.formation.blocks_salvaged > 0

        manifest = obs.finalize(config={"test": "deadline"})
        path = trace_dir / "manifest.json"
        recorded = json.loads(path.read_text())
        assert recorded["run_id"] == manifest["run_id"]
        metrics = recorded["metrics"]
        assert metrics["formation.blocks_salvaged"]["value"] > 0
        assert metrics["supervise.workers_killed"]["value"] >= 1

    def test_cli_returns_dedicated_exit_code(self, tmp_path, capsys):
        camp_path = tmp_path / "campaign.txt"
        campaign = run_campaign(paper_like_spec(10, seed=5), seed=5).campaign
        save_campaign(campaign, camp_path)

        code = cli.main(["monitor", str(camp_path), "--deadline", "0.001"])
        assert code == DEADLINE_EXIT_CODE
        err = capsys.readouterr().err
        assert "deadline" in err

        code = cli.main(
            ["solve", str(camp_path), "--strategy", "single",
             "--deadline", "0.001"]
        )
        assert code == DEADLINE_EXIT_CODE

    def test_deadline_exit_code_distinct_from_worker_failure(self):
        assert DEADLINE_EXIT_CODE not in (0, 1, 2, 75, 124)
