"""Tests for Tikhonov-regularized recovery (ill-posedness remedy)."""

import numpy as np
import pytest

from repro.core.regularized import (
    l_curve,
    log_laplacian_operator,
    pick_lambda_by_discrepancy,
    solve_regularized,
)
from repro.core.solver import solve_nested
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import WetLabConfig, quick_device_data, run_campaign


class TestLaplacianOperator:
    def test_constant_in_null_space(self):
        lop = log_laplacian_operator(4, 5)
        np.testing.assert_allclose(lop @ np.ones(20), 0.0, atol=1e-12)

    def test_symmetric_psd(self):
        lop = log_laplacian_operator(3, 3)
        np.testing.assert_allclose(lop, lop.T)
        eigs = np.linalg.eigvalsh(lop)
        assert eigs.min() > -1e-12

    def test_interior_degree(self):
        lop = log_laplacian_operator(3, 3)
        center = 1 * 3 + 1
        assert lop[center, center] == 4.0
        corner = 0
        assert lop[corner, corner] == 2.0

    def test_penalizes_variation(self):
        lop = log_laplacian_operator(3, 3)
        spiky = np.zeros(9)
        spiky[4] = 1.0
        assert np.linalg.norm(lop @ spiky) > 0


class TestSolveRegularized:
    def test_lambda_zero_matches_nested(self):
        r_true, z = quick_device_data(6, seed=51)
        a = solve_regularized(z, lam=0.0)
        b = solve_nested(z)
        np.testing.assert_allclose(a.r_estimate, b.r_estimate, rtol=1e-6)
        assert a.method == "regularized"

    def test_noise_free_small_lambda_still_accurate(self):
        r_true, z = quick_device_data(6, seed=52)
        result = solve_regularized(z, lam=1e-8)
        assert result.max_relative_error(r_true) < 1e-3

    def test_regularization_reduces_noise_amplification(self):
        """The headline: with 1 % instrument noise, a moderate λ beats
        the unregularized solve on field error."""
        r_true, z = quick_device_data(10, seed=53, noise_rel=0.01)
        plain = solve_nested(z, tol=1e-9)
        reg = solve_regularized(z, lam=3e-3)
        assert (
            reg.mean_relative_error(r_true)
            < plain.mean_relative_error(r_true)
        )

    def test_large_lambda_flattens_field(self):
        r_true, z = quick_device_data(8, seed=54)
        result = solve_regularized(z, lam=100.0)
        spread = result.r_estimate.max() / result.r_estimate.min()
        assert spread < r_true.max() / r_true.min()

    def test_negative_lambda_rejected(self):
        _, z = quick_device_data(4, seed=55)
        with pytest.raises(ValueError):
            solve_regularized(z, lam=-1.0)

    def test_estimates_positive(self):
        _, z = quick_device_data(5, seed=56, noise_rel=0.02)
        result = solve_regularized(z, lam=1e-2)
        assert np.all(result.r_estimate > 0)


class TestStallConvergence:
    """A solve that stalls at its float64 optimum reports converged."""

    @pytest.fixture(scope="class")
    def campaign(self):
        spec = paper_like_spec(8, num_anomalies=1, seed=3)
        return run_campaign(spec, WetLabConfig(noise_rel=0.0), seed=3).campaign

    def test_noise_free_timepoints_converge(self, campaign):
        # Noise-free data leaves the λ-optimum with a nonzero cost, so
        # the absolute gradient tolerance is never met; the stall floor
        # is what declares these solves converged.
        for meas in campaign.measurements:
            assert solve_regularized(meas.z_kohm, lam=1e-3).converged

    def test_stop_far_from_stationarity_stays_unconverged(self, campaign):
        for meas in campaign.measurements:
            result = solve_regularized(meas.z_kohm, lam=1e-3, max_iter=1)
            assert not result.converged


class TestLCurve:
    def test_monotone_trade_off(self):
        _, z = quick_device_data(6, seed=57, noise_rel=0.01)
        lams = [1e-6, 1e-4, 1e-2, 1.0]
        points = l_curve(z, lams)
        misfits = [p.data_misfit for p in points]
        priors = [p.prior_norm for p in points]
        # Misfit grows with lambda; prior norm shrinks.
        assert all(b >= a - 1e-9 for a, b in zip(misfits, misfits[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(priors, priors[1:]))

    def test_discrepancy_principle_picks_reasonable_lambda(self):
        noise = 0.01
        _, z = quick_device_data(6, seed=58, noise_rel=noise)
        lams = [1e-6, 1e-4, 1e-3, 1e-2, 1e-1]
        points = l_curve(z, lams)
        chosen = pick_lambda_by_discrepancy(points, noise, z.size)
        assert chosen.lam in lams
        # The chosen misfit does not exceed the noise target wildly.
        assert chosen.data_misfit <= 3 * noise * np.sqrt(z.size)

    def test_discrepancy_fallback(self):
        _, z = quick_device_data(4, seed=59, noise_rel=0.05)
        points = l_curve(z, [10.0, 100.0])
        chosen = pick_lambda_by_discrepancy(points, 1e-9, z.size)
        assert chosen.lam == 10.0  # nothing qualifies -> smallest λ
