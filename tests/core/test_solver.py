"""Tests for the R-recovery solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import (
    nested_jacobian,
    predict_z,
    solve,
    solve_nested,
)
from repro.kirchhoff.forward import measure
from repro.mea.wetlab import quick_device_data
from tests.oracles.joint_system import solve_full


class TestNestedJacobian:
    @given(st.integers(2, 5), st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_matches_finite_differences(self, n, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(1000, 8000, size=(n, n))
        jac = nested_jacobian(r)
        theta = np.log(r)
        eps = 1e-6
        for col in rng.choice(n * n, min(8, n * n), replace=False):
            tp = theta.ravel().copy()
            tm = theta.ravel().copy()
            tp[col] += eps
            tm[col] -= eps
            zp = predict_z(np.exp(tp).reshape(n, n)).ravel()
            zm = predict_z(np.exp(tm).reshape(n, n)).ravel()
            fd = (zp - zm) / (2 * eps)  # central: O(eps^2) truncation
            # atol covers FD round-off: Z ~ 1e3, so differences carry
            # ~1e-4 absolute cancellation noise at eps = 1e-6.
            np.testing.assert_allclose(jac[:, col], fd, rtol=2e-4, atol=1e-3)

    def test_jacobian_nonnegative(self):
        """dZ/dθ >= 0: raising any resistance raises every Z."""
        rng = np.random.default_rng(1)
        r = rng.uniform(1000, 8000, size=(4, 4))
        assert np.all(nested_jacobian(r) >= -1e-15)


class TestSolveNested:
    @given(st.integers(2, 8), st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_exact_recovery_noise_free(self, n, seed):
        r_true, z = quick_device_data(n, seed=seed)
        result = solve_nested(z)
        assert result.converged
        assert result.max_relative_error(r_true) < 1e-8

    def test_recovers_strong_anomaly(self):
        r_true = np.full((6, 6), 3000.0)
        r_true[2, 3] = 11000.0  # a hot spot
        result = solve_nested(measure(r_true))
        assert result.max_relative_error(r_true) < 1e-8

    def test_custom_initial_point(self):
        r_true, z = quick_device_data(4, seed=2)
        result = solve_nested(z, r0=np.full((4, 4), 5000.0))
        assert result.max_relative_error(r_true) < 1e-8

    def test_rejects_bad_r0(self):
        _, z = quick_device_data(4, seed=2)
        with pytest.raises(ValueError):
            solve_nested(z, r0=np.zeros((4, 4)))

    def test_noise_robustness_degrades_gracefully(self):
        """With 0.5 % instrument noise the field error stays bounded
        (the ill-posedness amplifies noise ~15x, not unboundedly)."""
        r_true, z = quick_device_data(8, seed=4, noise_rel=0.005)
        result = solve_nested(z, tol=1e-9)
        assert result.mean_relative_error(r_true) < 0.25

    def test_estimates_positive(self):
        _, z = quick_device_data(5, seed=1)
        result = solve_nested(z)
        assert np.all(result.r_estimate > 0)

    def test_result_metadata(self):
        r_true, z = quick_device_data(3, seed=1)
        result = solve_nested(z)
        assert result.method == "nested"
        assert result.iterations >= 1
        assert result.elapsed_seconds >= 0.0


class TestSolveFull:
    def test_exact_recovery_small(self):
        r_true, z = quick_device_data(4, seed=3)
        result = solve_full(z)
        assert result.max_relative_error(r_true) < 1e-5

    def test_agrees_with_nested(self):
        _, z = quick_device_data(4, seed=8)
        r_a = solve_nested(z).r_estimate
        r_b = solve_full(z).r_estimate
        np.testing.assert_allclose(r_a, r_b, rtol=1e-4)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            solve_full(np.ones((2, 3)))

    def test_method_field(self):
        _, z = quick_device_data(3, seed=1)
        assert solve_full(z).method == "full"


class TestDispatch:
    def test_solve_by_name(self):
        _, z = quick_device_data(3, seed=1)
        assert solve(z, method="nested").method == "nested"
        with pytest.raises(ValueError, match="unknown method 'full'"):
            solve(z, method="full")

    def test_unknown_method(self):
        _, z = quick_device_data(3, seed=1)
        with pytest.raises(ValueError):
            solve(z, method="alchemy")
