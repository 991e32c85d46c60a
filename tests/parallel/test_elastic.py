"""Elastic campaign dispatch: ledger, pool, churn and the sweep."""

import signal

import numpy as np
import pytest

from repro.observe import Observer
from repro.parallel.elastic import (
    ElasticError,
    ElasticPool,
    LeaseVerificationError,
    WorkLedger,
    part_files_identical,
    plan_chunks,
    run_elastic_formation,
    scaling_strategy_schedulers,
    sweep_scaling_curves,
)
from repro.parallel.pymp import fork_available
from repro.resilience.faults import FaultPlan

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


def _device(n, seed=123):
    rng = np.random.default_rng(seed)
    return rng.uniform(500.0, 1500.0, (n, n))


class TestPlanChunks:
    def test_covers_every_item_exactly_once(self):
        chunks = plan_chunks(8, chunk_items=10)
        spans = [(c.item_lo, c.item_hi) for c in chunks]
        assert spans[0][0] == 0
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        assert spans[-1][1] == 4 * 8 * 8  # 4 n^2 items

    def test_chunk_ids_are_dense(self):
        chunks = plan_chunks(6, chunk_items=7)
        assert [c.chunk_id for c in chunks] == list(range(len(chunks)))

    def test_expectations_match_a_real_formation(self):
        """The O(1) planning expectations equal actually-formed totals."""
        from repro.core.partition import make_items
        from repro.core.templates import form_worker_share

        n = 6
        z = _device(n)
        items = make_items(n)
        chunks = plan_chunks(n, chunk_items=50, items=items)
        chunk = chunks[0]
        indices = np.arange(chunk.item_lo, chunk.item_hi)
        terms = 0
        checksum = 0.0
        for block in form_worker_share(n, items, indices, z, 5.0):
            terms += int(block.num_terms)
            checksum += block.checksum()
        assert terms == chunk.expected_terms
        assert checksum == pytest.approx(chunk.expected_checksum, rel=1e-9)

    def test_rejects_bad_chunk_items(self):
        with pytest.raises(ValueError):
            plan_chunks(5, chunk_items=0)


class TestWorkLedger:
    def _ledger(self, n=4):
        chunks = plan_chunks(n, chunk_items=16)
        return WorkLedger(chunks), chunks

    def test_lease_complete_lifecycle(self):
        ledger, chunks = self._ledger()
        chunk = ledger.lease(1)
        assert chunk is chunks[0]
        assert ledger.lease_of(1) == chunk.chunk_id
        assert ledger.complete(
            1, chunk.chunk_id, chunk.expected_terms, chunk.expected_checksum
        )
        assert ledger.lease_of(1) is None
        assert ledger.completed_count == 1

    def test_one_lease_per_worker(self):
        ledger, _ = self._ledger()
        ledger.lease(1)
        with pytest.raises(ElasticError, match="already holds"):
            ledger.lease(1)

    def test_forfeit_requeues_at_front_once(self):
        ledger, chunks = self._ledger()
        first = ledger.lease(1)
        assert ledger.forfeit(1) == first.chunk_id
        # Idempotent: the second observer of the same loss is a no-op.
        assert ledger.forfeit(1) is None
        assert ledger.requeues[first.chunk_id] == 1
        # The lost chunk comes back before untouched work.
        assert ledger.lease(2) is first

    def test_stale_duplicate_discarded(self):
        ledger, _ = self._ledger()
        chunk = ledger.lease(1)
        ledger.forfeit(1)
        release = ledger.lease(2)
        assert release is chunk
        # Worker 1's late result must not complete worker 2's lease.
        assert not ledger.complete(
            1, chunk.chunk_id, chunk.expected_terms, chunk.expected_checksum
        )
        assert ledger.stale_results == 1
        assert ledger.lease_of(2) == chunk.chunk_id

    def test_verification_failure_keeps_the_lease(self):
        ledger, _ = self._ledger()
        chunk = ledger.lease(1)
        with pytest.raises(LeaseVerificationError):
            ledger.complete(
                1, chunk.chunk_id, chunk.expected_terms + 1,
                chunk.expected_checksum,
            )
        with pytest.raises(LeaseVerificationError):
            ledger.complete(
                1, chunk.chunk_id, chunk.expected_terms,
                chunk.expected_checksum + 1.0,
            )
        assert ledger.lease_of(1) == chunk.chunk_id
        assert ledger.completed_count == 0

    def test_done_after_all_complete(self):
        ledger, chunks = self._ledger()
        for chunk in chunks:
            got = ledger.lease(9)
            ledger.complete(
                9, got.chunk_id, got.expected_terms, got.expected_checksum
            )
        assert ledger.done
        assert ledger.lease(9) is None

    def test_duplicate_chunk_ids_rejected(self):
        chunks = plan_chunks(4, chunk_items=16)
        with pytest.raises(ValueError):
            WorkLedger(list(chunks) + [chunks[0]])


@needs_fork
class TestElasticPool:
    def test_quiet_run_completes_everything(self, tmp_path):
        report = run_elastic_formation(
            _device(8), workers=2, chunk_items=16, output_dir=tmp_path
        )
        assert report.chunks_completed == report.chunks_total
        assert report.leases_reassigned == 0
        assert report.workers_respawned == 0
        assert len(report.part_files) == report.chunks_total

    def test_killed_worker_lease_reassigned(self, tmp_path):
        obs = Observer()
        report = run_elastic_formation(
            _device(8),
            workers=2,
            chunk_items=16,
            output_dir=tmp_path,
            faults=FaultPlan(
                seed=3, kill_workers=(1,), kill_signal=int(signal.SIGKILL)
            ),
            observer=obs,
        )
        assert report.chunks_completed == report.chunks_total
        assert report.leases_reassigned >= 1
        assert report.workers_respawned >= 1
        snapshot = obs.metrics.snapshot()
        assert snapshot["elastic.lease_reassigned"]["value"] >= 1
        assert snapshot["elastic.workers_respawned"]["value"] >= 1

    def test_churn_output_is_bit_identical(self, tmp_path):
        z = _device(8)
        quiet = run_elastic_formation(
            z, workers=2, chunk_items=16, output_dir=tmp_path / "quiet"
        )
        chunks = quiet.chunks_total
        churn = run_elastic_formation(
            z,
            workers=3,
            chunk_items=16,
            output_dir=tmp_path / "churn",
            faults=FaultPlan(
                seed=3, kill_workers=(1,), kill_signal=int(signal.SIGKILL)
            ),
            resize_schedule=[(max(1, chunks // 3), 2),
                             (max(2, 2 * chunks // 3), 3)],
        )
        assert churn.pool_resizes == 2
        identical, detail = part_files_identical(
            tmp_path / "quiet", tmp_path / "churn"
        )
        assert identical, detail

    def test_hung_worker_expires_and_recovers(self, tmp_path):
        report = run_elastic_formation(
            _device(8),
            workers=2,
            chunk_items=16,
            output_dir=tmp_path,
            lease_timeout=0.5,
            faults=FaultPlan(seed=3, hang_workers=(1,), hang_after_items=1),
        )
        assert report.chunks_completed == report.chunks_total
        assert report.leases_reassigned >= 1

    def test_repeat_offender_quarantined(self, tmp_path):
        obs = Observer()
        # Every worker dies on every chunk forever: after
        # quarantine_after losses per slot nothing is spawnable.
        with pytest.raises(ElasticError, match="no live workers"):
            run_elastic_formation(
                _device(8),
                workers=2,
                chunk_items=16,
                output_dir=tmp_path,
                quarantine_after=2,
                faults=FaultPlan(
                    seed=3,
                    kill_probability=1.0,
                    kill_attempts=10**9,
                    kill_signal=int(signal.SIGKILL),
                ),
                observer=obs,
            )
        snapshot = obs.metrics.snapshot()
        assert snapshot["elastic.quarantined"]["value"] >= 2

    def test_worker_dying_before_its_first_lease_is_quarantined(
        self, monkeypatch
    ):
        # Each worker exits before it asks for a lease.  The deadline
        # turns a slot that is never quarantined into a failure
        # (DeadlineExceeded) instead of endless respawns.
        monkeypatch.setattr(ElasticPool, "_child_main", lambda *args: None)
        pool = ElasticPool(
            2, lambda chunk, ctx: (0, 0.0, 0), quarantine_after=3, deadline=10.0
        )
        with pytest.raises(ElasticError, match="no live workers"):
            pool.run(WorkLedger(plan_chunks(4, chunk_items=16)))
        assert pool.quarantined_slots == 2
        assert pool.workers_spawned <= 6
        assert pool.leases_reassigned == 0

    def test_resize_events_counted(self, tmp_path):
        obs = Observer()
        report = run_elastic_formation(
            _device(8),
            workers=3,
            chunk_items=16,
            output_dir=tmp_path,
            resize_schedule=[(1, 2), (2, 3)],
            observer=obs,
        )
        assert report.pool_resizes == 2
        assert obs.metrics.snapshot()["elastic.pool_resized"]["value"] == 2

    def test_pool_validates_arguments(self):
        runner = lambda chunk, ctx: (0, 0.0, 0)  # noqa: E731
        with pytest.raises(ValueError):
            ElasticPool(0, runner)
        with pytest.raises(ValueError):
            ElasticPool(2, runner, lease_timeout=0.0)
        with pytest.raises(ValueError):
            ElasticPool(2, runner, quarantine_after=0)


class TestPartFilesIdentical:
    def test_empty_dirs_are_not_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        identical, detail = part_files_identical(
            tmp_path / "a", tmp_path / "b"
        )
        assert not identical
        assert "no part files" in detail

    def test_tmp_orphans_ignored(self, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "equations-chunk00000.bin").write_bytes(b"same")
        (tmp_path / "a" / "equations-chunk00001.bin.tmp").write_bytes(b"junk")
        identical, _ = part_files_identical(tmp_path / "a", tmp_path / "b")
        assert identical

    def test_differing_bytes_detected(self, tmp_path):
        for d, payload in (("a", b"x"), ("b", b"y")):
            (tmp_path / d).mkdir()
            (tmp_path / d / "equations-chunk00000.bin").write_bytes(payload)
        identical, detail = part_files_identical(
            tmp_path / "a", tmp_path / "b"
        )
        assert not identical
        assert "differs" in detail


class TestScalingSweep:
    def test_strategies_present(self):
        schedulers = scaling_strategy_schedulers(6)
        assert set(schedulers) == {
            "contiguous", "balanced", "betti", "category"
        }

    def test_curves_have_matching_lengths(self):
        curves = sweep_scaling_curves(
            6, [1, 2, 4, 8], sec_per_term=1e-6
        )
        for curve in curves.values():
            assert (
                len(curve.rank_counts)
                == len(curve.total_seconds)
                == len(curve.speedup)
                == len(curve.efficiency)
            )
            assert curve.speedup[0] == pytest.approx(1.0)
            assert curve.efficiency[0] == pytest.approx(1.0)

    def test_category_needs_four_ranks(self):
        curves = sweep_scaling_curves(6, [1, 2], sec_per_term=1e-6)
        assert "category" not in curves
        curves = sweep_scaling_curves(6, [2, 4, 8], sec_per_term=1e-6)
        assert curves["category"].rank_counts == (4, 8)

    def test_empty_rank_counts_rejected(self):
        with pytest.raises(ValueError):
            sweep_scaling_curves(6, [], sec_per_term=1e-6)

    def test_deterministic(self):
        a = sweep_scaling_curves(6, [1, 4, 16], sec_per_term=1e-6)
        b = sweep_scaling_curves(6, [1, 4, 16], sec_per_term=1e-6)
        assert a == b


class TestScalingExperiment:
    def test_report_has_the_committed_key_set(self):
        import json
        from pathlib import Path

        from repro.parallel.elastic import run_scaling_experiment

        committed = json.loads(
            (Path(__file__).resolve().parents[2] / "BENCH_scaling.json")
            .read_text()
        )
        report = run_scaling_experiment(
            [6], max_ranks=8, chunk_items=8
        )
        assert set(report) == set(committed)
        assert set(report["sweep"]) == set(committed["sweep"])
        assert report["sweep"]["curves"]["balanced"]["rank_counts"] == [
            1, 2, 4, 8
        ]
        if fork_available():
            (row,) = report["sizes"]
            assert set(row) == set(committed["sizes"][0])
            assert row["n"] == 6 and row["part_files_identical"] is True
            assert row["leases_reassigned"] >= 1
            assert row["pool_resizes"] >= 2

    @needs_fork
    def test_diverged_churn_raises(self, monkeypatch):
        from repro.parallel import elastic

        monkeypatch.setattr(
            elastic, "part_files_identical",
            lambda a, b: (False, "equations-chunk00000.bin differs"),
        )
        with pytest.raises(ElasticError, match="n=6: churn campaign diverged"):
            elastic.run_scaling_experiment(
                [6], max_ranks=4, chunk_items=8
            )
