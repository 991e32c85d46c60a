"""Regression tests for the Gauss–Newton fast path.

These pin the behaviors the solver rewrite introduced: factorization
reuse within an iteration (residual and Jacobian share one cached
Cholesky factor), lazy pinv materialization, robustness to non-finite
trial costs, and agreement with the reference solver oracle.
"""

import numpy as np
import pytest

from repro.core.solver import solve, solve_nested
from repro.kirchhoff import forward
from repro.observe.observer import Observer
from tests.oracles.solver_reference import solve_nested_reference


def _field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(np.log(8.0), 0.35, (n, n)))


class TestFactorReuse:
    """One Laplacian factorization per visited field, not per use."""

    def test_residual_and_jacobian_share_factor(self):
        r_true = _field(5, seed=1)
        z = forward.measure(r_true)
        forward.clear_laplacian_cache()
        result = solve_nested(z)
        assert result.converged
        stats = forward.laplacian_cache_stats()
        # Each GN iteration visits at most a couple of candidate fields
        # (accepted step + line-search trials).  The forward residual
        # and the Jacobian of an accepted field must share one factor:
        # misses therefore count *fields*, never uses.  Every Jacobian
        # assembly is a cache hit on the factor its residual built.
        # (The final iteration detects convergence before assembling a
        # Jacobian, hence ``iterations - 1`` working iterations.)
        assert stats.misses <= result.iterations * 2 + 2
        assert stats.hits >= result.iterations - 1

    def test_drive_only_workload_never_materializes_pinv(self):
        r = _field(6, seed=2)
        forward.clear_laplacian_cache()
        forward.solve_all_drives(r)
        forward.solve_drive(r, 0, 0)
        stats = forward.laplacian_cache_stats()
        # Drives run through factor.solve() only; the dense pinv stays
        # unmaterialized.  (measure/effective_resistance_matrix DO
        # materialize it — that is their documented O(N³) route.)
        assert stats.pinv_materializations == 0

    def test_solver_materializes_one_pinv_per_field(self):
        r_true = _field(4, seed=3)
        z = forward.measure(r_true)
        forward.clear_laplacian_cache()
        result = solve_nested(z)
        assert result.converged
        stats = forward.laplacian_cache_stats()
        # The Jacobian needs the dense pinv once per *accepted* field;
        # rejected line-search trials only run the batched drives.
        assert 1 <= stats.pinv_materializations <= result.iterations + 1

    def test_repeat_solve_hits_warm_cache(self):
        r_true = _field(4, seed=4)
        z = forward.measure(r_true)
        forward.clear_laplacian_cache()
        solve_nested(z)
        cold = forward.laplacian_cache_stats()
        solve_nested(z)
        warm = forward.laplacian_cache_stats()
        # The second solve walks the identical iterate sequence, so
        # every factorization it needs is already cached.
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits


class TestRobustness:
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_nonfinite_trial_cost_is_rejected_not_raised(self):
        # Heavy noise used to push line-search trials into exp()
        # overflow, where forward.measure raised ValueError from deep
        # inside the drive solve.  The fast path treats a non-finite
        # trial as infinite cost and keeps halving the step.
        rng = np.random.default_rng(11)
        r_true = _field(6, seed=11)
        z = forward.measure(r_true) * np.exp(rng.normal(0.0, 0.6, (6, 6)))
        result = solve_nested(z, max_iter=30)
        assert np.isfinite(result.residual_norm)
        assert np.all(np.isfinite(result.r_estimate))
        assert np.all(result.r_estimate > 0)

    def test_result_records_backend(self):
        # One kernel path serves every solver, so the result records
        # only which solver ran; there is no backend field any more.
        z = forward.measure(_field(4, seed=6))
        result = solve_nested(z)
        assert result.method == "nested"
        assert solve(z, method="nested").method == "nested"
        assert not hasattr(result, "backend")


class TestReferenceAgreement:
    """The fast path must land on the reference solver's answer."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_noise_free_agreement(self, n):
        r_true = _field(n, seed=20 + n)
        z = forward.measure(r_true)
        fast = solve_nested(z)
        ref = solve_nested_reference(z)
        assert fast.converged and ref.converged
        for result in (fast, ref):
            max_rel = np.max(np.abs(result.r_estimate - r_true) / r_true)
            assert max_rel < 1e-8
        cross = np.max(np.abs(fast.r_estimate - ref.r_estimate) / r_true)
        assert cross < 1e-10

    def test_fast_path_is_not_slower_in_iterations(self):
        r_true = _field(8, seed=30)
        z = forward.measure(r_true)
        fast = solve_nested(z)
        ref = solve_nested_reference(z)
        # The refined direct solve yields near-exact GN steps, so the
        # fast path converges in no more iterations than the
        # normal-equations reference.
        assert fast.iterations <= ref.iterations


class TestObservability:
    def test_iteration_histogram_recorded(self):
        obs = Observer()
        z = forward.measure(_field(4, seed=7))
        result = solve_nested(z, observer=obs)
        snapshot = obs.metrics.snapshot()
        hist = snapshot["solver.iteration.seconds"]
        # The final iteration detects convergence and breaks before
        # the timing observation, so a converged solve records one
        # fewer sample than ``iterations``.
        assert result.converged
        assert hist["count"] == result.iterations - 1

    def test_cache_gauges_include_pinv_materializations(self):
        from repro.observe.metrics import MetricsRegistry, sync_cache_gauges

        forward.clear_laplacian_cache()
        z = forward.measure(_field(4, seed=8))
        solve_nested(z)
        registry = MetricsRegistry()
        sync_cache_gauges(registry)
        snapshot = registry.snapshot()
        key = "cache.laplacian-pinv.pinv_materializations"
        assert snapshot[key]["value"] >= 1.0
