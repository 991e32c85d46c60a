"""The matrix-free Gauss–Newton step above the dense-step crossover.

Above :data:`repro.core.solver.DENSE_STEP_MAX` resistors the nested
solver never assembles its Jacobian: :class:`TransferOperator` applies
it through separable n×n products and the step is preconditioned
GMRES.  The operator must reproduce the dense kernel to rounding, the
solves must land on the reference oracle's answer with the same
iteration counts and verdicts, and a Krylov miss must fall back to the
dense step exactly.
"""

import numpy as np
import pytest
import scipy.sparse.linalg

from repro.core import solver
from repro.core.solver import TransferOperator, solve_nested
from repro.kirchhoff import forward
from repro.mea.wetlab import quick_device_data
from repro.observe.observer import Observer
from repro.resilience.degrade import solve_with_degradation
from tests.oracles.solver_reference import solve_nested_reference


def _field(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(np.log(8.0), 0.35, (m, n)))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


_SHAPES = [(3, 3), (5, 5), (17, 17), (4, 7), (7, 4)]


class TestOperator:
    """Products with the operator match the dense kernel to rounding."""

    @pytest.fixture(params=_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def case(self, request):
        m, n = request.param
        r = _field(m, n, seed=m * 10 + n)
        rng = np.random.default_rng(m + n)
        # Off-field measurements, so the row scaling is not Ẑ itself.
        z = forward.measure(r) * np.exp(rng.normal(0.0, 0.01, (m, n)))
        pinv = forward.laplacian_pinv_cached(r)
        dense = solver._transfer_jacobian(pinv, r, z=z)
        return TransferOperator(pinv, r, z), dense, rng

    def test_matvec(self, case):
        op, dense, rng = case
        for _ in range(3):
            v = rng.normal(size=op.shape[1])
            assert _rel(op.matvec(v), dense @ v) <= 1e-13

    def test_rmatvec(self, case):
        op, dense, rng = case
        for _ in range(3):
            w = rng.normal(size=op.shape[0])
            assert _rel(op.rmatvec(w), dense.T @ w) <= 1e-13

    def test_diagonal(self, case):
        op, dense, _ = case
        diag = np.diag(dense)
        assert np.max(np.abs(op.diagonal() - diag) / diag) <= 1e-13

    def test_dense_is_the_blocked_kernel(self, case):
        op, dense, _ = case
        assert np.array_equal(op.dense(), dense)

    def test_size_selects_representation(self, monkeypatch):
        r = _field(4, 4, seed=1)
        z = forward.measure(r)
        assert isinstance(solver._scaled_jacobian(r, z), np.ndarray)
        monkeypatch.setattr(solver, "DENSE_STEP_MAX", r.size - 1)
        assert isinstance(solver._scaled_jacobian(r, z), TransferOperator)


class TestSolveParity:
    """Matrix-free solves agree with the reference solver."""

    def _check(self, m: int, n: int, seed: int) -> None:
        r_true = _field(m, n, seed=seed)
        z = forward.measure(r_true)
        fast = solve_nested(z)
        ref = solve_nested_reference(z)
        assert fast.converged == ref.converged
        assert fast.converged
        assert fast.iterations == ref.iterations
        cross = np.max(np.abs(fast.r_estimate - ref.r_estimate) / r_true)
        assert cross <= 1e-10

    def test_above_crossover(self):
        assert 24 * 24 > solver.DENSE_STEP_MAX
        self._check(24, 24, seed=40)

    # Non-square and tiny devices give Krylov spaces that exhaust
    # (GMRES breakdown) before the restart length.
    @pytest.mark.parametrize("shape", [(8, 8), (6, 3), (1, 5)])
    def test_forced_matrix_free_small_device(self, monkeypatch, shape):
        monkeypatch.setattr(solver, "DENSE_STEP_MAX", 0)
        self._check(*shape, seed=41)


class TestKrylovFallback:
    def test_gmres_miss_takes_the_dense_step(self, monkeypatch):
        r_true = _field(6, 6, seed=42)
        z = forward.measure(r_true)
        dense = solve_nested(z)

        def no_progress(op, rhs, **kwargs):
            return np.zeros_like(rhs), 1

        monkeypatch.setattr(solver, "DENSE_STEP_MAX", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "gmres", no_progress)
        obs = Observer()
        fallback = solve_nested(z, observer=obs)
        counter = obs.metrics.snapshot()["solver.gn.krylov_fallbacks"]
        # Every iteration but the final (converged) one takes a step.
        assert counter["value"] == fallback.iterations - 1
        assert fallback.iterations == dense.iterations
        assert np.array_equal(fallback.r_estimate, dense.r_estimate)

    def test_no_fallback_on_smooth_fields(self):
        z = forward.measure(_field(24, 24, seed=43))
        obs = Observer()
        assert solve_nested(z, observer=obs).converged
        assert "solver.gn.krylov_fallbacks" not in obs.metrics.snapshot()


class TestLadderAboveCrossover:
    def test_poisoned_warm_start_recovers_via_cold_start(self):
        r_true, z = quick_device_data(24, seed=5)
        assert z.size > solver.DENSE_STEP_MAX
        poisoned = np.full_like(z, np.nan)
        result, report = solve_with_degradation(
            z, solver_kwargs={"r0": poisoned}
        )
        assert report.rungs_tried == ("primary", "cold-start")
        assert report.rung_used == "cold-start"
        assert result.converged
        assert np.all(np.isfinite(result.r_estimate))
        clean, _ = solve_with_degradation(z)
        assert np.array_equal(result.r_estimate, clean.r_estimate)
