"""Acceptance tests: interrupted runs resume to fault-free answers.

These are the PR's two hard acceptance criteria:

* a campaign killed mid-run and resumed from its checkpoint produces
  the **identical** final resistance fields as a fault-free run;
* corrupted pair blocks in a streamed formation are detected by
  checksum and re-formed — never silently consumed.
"""

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.core.pipeline import run_pipeline
from repro.core.streaming import stream_to_file
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import WetLabConfig, run_campaign
from repro.parallel.pymp import fork_available
from repro.resilience import (
    FaultPlan,
    InjectedAbort,
    RetryPolicy,
    stream_to_file_checkpointed,
)

N = 6
SEED = 7


@pytest.fixture(scope="module")
def day():
    return run_campaign(
        paper_like_spec(N, seed=SEED),
        config=WetLabConfig(hours=(0.0, 6.0, 12.0)),
        seed=SEED,
    )


@pytest.fixture(scope="module")
def fault_free(day):
    return run_pipeline(day.campaign, engine=ParmaEngine(strategy="single"))


class TestCampaignKillAndResume:
    def test_resume_reproduces_fault_free_fields(
        self, tmp_path, day, fault_free
    ):
        ck = tmp_path / "ck"
        with pytest.raises(InjectedAbort):
            run_pipeline(
                day.campaign,
                engine=ParmaEngine(strategy="single"),
                checkpoint_dir=ck,
                faults=FaultPlan(seed=SEED, abort_after_timepoints=2),
            )
        assert (ck / "manifest.json").exists()

        resumed = run_pipeline(
            day.campaign,
            engine=ParmaEngine(strategy="single"),
            checkpoint_dir=ck,
        )
        assert len(resumed.results) == len(fault_free.results)
        for ref, got in zip(fault_free.results, resumed.results):
            assert np.array_equal(ref.resistance, got.resistance)

        restored = [
            r
            for r in resumed.results
            if r.formation.strategy.startswith("resumed:")
        ]
        assert len(restored) == 2
        assert all(
            any("resumed from checkpoint" in e for e in r.events)
            for r in restored
        )

    def test_corrupt_checkpoint_entry_is_recomputed(
        self, tmp_path, day, fault_free
    ):
        ck = tmp_path / "ck"
        run_pipeline(
            day.campaign,
            engine=ParmaEngine(strategy="single"),
            checkpoint_dir=ck,
        )
        # Flip one byte of a checkpointed field: the digest check must
        # catch it and recompute rather than serve the corrupt field.
        victim = ck / "field-0001.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))

        resumed = run_pipeline(
            day.campaign,
            engine=ParmaEngine(strategy="single"),
            checkpoint_dir=ck,
        )
        for ref, got in zip(fault_free.results, resumed.results):
            assert np.array_equal(ref.resistance, got.resistance)
        # Position 0 restores; 1 (corrupt) and everything after recompute.
        assert resumed.results[0].formation.strategy.startswith("resumed:")
        assert not resumed.results[1].formation.strategy.startswith("resumed:")

    def test_no_resume_flag_recomputes_everything(self, tmp_path, day):
        ck = tmp_path / "ck"
        run_pipeline(
            day.campaign,
            engine=ParmaEngine(strategy="single"),
            checkpoint_dir=ck,
        )
        rerun = run_pipeline(
            day.campaign,
            engine=ParmaEngine(strategy="single"),
            checkpoint_dir=ck,
            resume=False,
        )
        assert not any(
            r.formation.strategy.startswith("resumed:") for r in rerun.results
        )


class TestStreamCorruptionNeverConsumed:
    def test_corrupt_and_dropped_blocks_reformed_byte_identically(
        self, tmp_path, day
    ):
        z = day.campaign.measurements[0].z_kohm
        ref_path = tmp_path / "clean.bin"
        stream_to_file(z, ref_path)

        chaos_dir = tmp_path / "stream"
        plan = FaultPlan(
            seed=SEED,
            corrupt_blocks=(N + 2,),
            drop_blocks=(3 * N + 1,),
            abort_after_blocks=(N * N) // 2,
        )
        with pytest.raises(InjectedAbort):
            stream_to_file_checkpointed(z, chaos_dir, faults=plan)

        cp, report, formed = stream_to_file_checkpointed(z, chaos_dir)
        assert cp.complete
        assert report.blocks_discarded > 0, (
            "corruption must be detected, not consumed"
        )
        assert "checksum mismatch" in report.first_bad_reason
        assert formed > 0
        assert cp.data_path.read_bytes() == ref_path.read_bytes()


@pytest.mark.skipif(not fork_available(), reason="requires os.fork")
class TestWorkerKillRecovery:
    def test_killed_worker_retried_to_clean_checksum(self, day, tmp_path):
        meas = day.campaign.measurements[0]
        clean = ParmaEngine(strategy="pymp", num_workers=3).form(meas)
        engine = ParmaEngine(
            strategy="pymp",
            num_workers=3,
            faults=FaultPlan(seed=SEED, kill_workers=(1,), kill_attempts=1),
            retry=RetryPolicy(max_retries=2),
        )
        result = engine.parametrize(meas, output_dir=tmp_path)
        assert result.formation.checksum == pytest.approx(clean.checksum)
        assert any("attempt 1 failed" in e for e in result.events)
