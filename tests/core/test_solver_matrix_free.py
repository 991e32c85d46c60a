"""The Gauss–Newton step as an SPD solve, on both sides of the crossover.

``J = diag(1/Z)·S·diag(1/R)`` with ``S`` symmetric positive definite.
Above :data:`repro.core.solver.DENSE_STEP_MAX` resistors the nested
solver never assembles anything n²×n²: :class:`TransferOperator`
applies ``S`` through separable n×n products and the step is CG
preconditioned by the inverse of the uniform crossbar's ``S``; at or
below it the step is a Cholesky factorisation of the assembled ``S``.
The operator must reproduce the dense kernel to rounding, the
preconditioner must be the exact inverse on a uniform field, both
steps must solve ``J s = -res`` to
:data:`repro.core.solver._REFINE_LIMIT`, the solves must land on the
reference oracle's answer with the same iteration counts and verdicts,
and a CG miss must fall back to the dense step exactly.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
        dense = solver._transfer_squares(pinv, r.shape, r=r, z=z)
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
        op, _, _ = case
        diag = np.diag(op.square())
        assert np.max(np.abs(op.square_diagonal() - diag) / diag) <= 1e-13

    def test_dense_is_the_blocked_kernel(self, case):
        op, dense, _ = case
        assert np.array_equal(op.dense(), dense)

    def test_size_selects_representation(self, monkeypatch):
        """``S`` is assembled up to the crossover and never above it."""
        r = _field(4, 4, seed=1)
        z = forward.measure(r)
        assert solver._scaled_jacobian(r, z)._square is not None
        monkeypatch.setattr(solver, "DENSE_STEP_MAX", r.size - 1)
        assert solver._scaled_jacobian(r, z)._square is None


class TestSquareIsSPD:
    """``diag(Z)·J·diag(R)`` is the symmetric positive definite ``S``."""

    @pytest.mark.parametrize("n", [3, 8, 14, 24])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_symmetric_and_cholesky_factorable(self, n, seed):
        r = np.random.default_rng(seed).uniform(2000.0, 11000.0, (n, n))
        z = forward.measure(r)
        jac = solver._dense_scaled_jacobian(r, z)
        square = z.ravel()[:, None] * jac * r.ravel()[None, :]
        asym = np.max(np.abs(square - square.T)) / np.max(np.abs(square))
        assert asym <= 1e-14
        scipy.linalg.cholesky(square, lower=True)


def _dense_preconditioner(scale: np.ndarray) -> np.ndarray:
    """The preconditioner as a matrix, column by column."""
    apply = solver._crossbar_preconditioner(scale)
    basis = np.eye(scale.size)
    return np.stack(
        [apply(e.reshape(scale.shape)).ravel() for e in basis], axis=1
    )


class TestCrossbarPreconditioner:
    """``M⁻¹ = D^{-½}·C̄⁻¹·D^{-½}`` from the uniform crossbar's ``S``."""

    @pytest.mark.parametrize("shape", [(3, 5), (8, 8), (6, 11)])
    def test_inverts_the_normalised_uniform_square(self, shape):
        r = np.full(shape, 5000.0)
        square = TransferOperator(
            forward.laplacian_pinv_cached(r), r, forward.measure(r)
        ).square()
        d = np.sqrt(np.diag(square))
        normalised = square / d[:, None] / d[None, :]
        inverse = _dense_preconditioner(np.ones(shape))
        assert np.allclose(
            inverse @ normalised, np.eye(r.size), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 5), (4, 9)])
    def test_pcg_takes_one_iteration_on_a_uniform_field(self, shape):
        r = np.full(shape, 5000.0)
        rng = np.random.default_rng(r.size)
        # Off-field measurements, as at the uniform start of a solve.
        z = forward.measure(r) * np.exp(rng.normal(0.0, 0.2, shape))
        op = TransferOperator(forward.laplacian_pinv_cached(r), r, z)
        rhs = rng.normal(size=r.size)
        obs = Observer()
        step = solver._krylov_step(op, rhs, float(np.linalg.norm(rhs)), obs)
        assert step is not None
        assert obs.metrics.snapshot()["solver.gn.cg_iterations"]["value"] == 1

    @pytest.mark.parametrize("n", [3, 8, 14])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_symmetric_positive_definite(self, n, seed):
        r = np.random.default_rng(seed).uniform(2000.0, 11000.0, (n, n))
        op = TransferOperator(
            forward.laplacian_pinv_cached(r), r, forward.measure(r)
        )
        scale = (1.0 / np.sqrt(op.square_diagonal())).reshape(r.shape)
        inverse = _dense_preconditioner(scale)
        asym = np.max(np.abs(inverse - inverse.T)) / np.max(np.abs(inverse))
        assert asym <= 1e-14
        scipy.linalg.cholesky(inverse, lower=True)


class TestStepAccuracy:
    """Cholesky and PCG steps both solve ``J s = -res`` to the limit."""

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("path", ["cholesky", "pcg"])
    def test_step_meets_refine_limit(self, monkeypatch, n, path):
        monkeypatch.setattr(
            solver, "DENSE_STEP_MAX", n * n if path == "cholesky" else 0
        )
        r_true = _field(n, n, seed=50 + n)
        z = forward.measure(r_true)
        # An iterate off the answer, so the residual is not tiny.
        rng = np.random.default_rng(n)
        r = r_true * np.exp(rng.normal(0.0, 0.2, (n, n)))
        res = (forward.measure(r) - z).ravel() / z.ravel()
        jac = solver._scaled_jacobian(r, z)
        obs = Observer()
        step = solver._gn_step(jac, -res, obs)
        resid = np.linalg.norm(-res - jac.dense() @ step)
        assert resid <= solver._REFINE_LIMIT * np.linalg.norm(res)
        # No fallback: the only counter is the PCG iteration count.
        assert set(obs.metrics.snapshot()) <= {"solver.gn.cg_iterations"}


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

    @pytest.mark.parametrize("n", [12, 16])
    def test_parity_across_the_crossover(self, n):
        """Cholesky (n = 12) and PCG (n = 16) land on the oracle; n = 24
        is :meth:`test_above_crossover`, n = 40 :meth:`test_n40`."""
        self._check(n, n, seed=60 + n)

    def test_n40(self, monkeypatch):
        """At n = 40 the oracle's normal equations, which square the
        condition number, need one to four more iterations than any
        square-system step on every field tried, so iteration parity
        is checked against the Cholesky step instead, which takes the
        same Gauss–Newton path; the field and verdict must match both."""
        r_true = _field(40, 40, seed=100)
        z = forward.measure(r_true)
        fast = solve_nested(z)
        ref = solve_nested_reference(z)
        assert fast.converged and ref.converged
        assert fast.iterations <= ref.iterations
        assert np.max(np.abs(fast.r_estimate - ref.r_estimate) / r_true) <= 1e-10
        monkeypatch.setattr(solver, "DENSE_STEP_MAX", r_true.size)
        dense = solve_nested(z)
        assert dense.converged
        assert fast.iterations == dense.iterations
        cross = np.max(np.abs(fast.r_estimate - dense.r_estimate) / r_true)
        assert cross <= 1e-10

    # Non-square and tiny devices: CG's Krylov space is exhausted
    # within m·n iterations.
    @pytest.mark.parametrize("shape", [(8, 8), (6, 3), (1, 5)])
    def test_forced_matrix_free_small_device(self, monkeypatch, shape):
        monkeypatch.setattr(solver, "DENSE_STEP_MAX", 0)
        self._check(*shape, seed=41)


class TestKrylovFallback:
    def test_cg_miss_takes_the_dense_step(self, monkeypatch):
        r_true = _field(6, 6, seed=42)
        z = forward.measure(r_true)
        dense = solve_nested(z)

        def no_progress(scale):
            return np.zeros_like

        monkeypatch.setattr(solver, "DENSE_STEP_MAX", 0)
        monkeypatch.setattr(solver, "_crossbar_preconditioner", no_progress)
        obs = Observer()
        fallback = solve_nested(z, observer=obs)
        counter = obs.metrics.snapshot()["solver.gn.krylov_fallbacks"]
        # Every iteration but the final (converged) one takes a step.
        assert counter["value"] == fallback.iterations - 1
        assert fallback.iterations == dense.iterations
        assert np.array_equal(fallback.r_estimate, dense.r_estimate)

    def test_true_residual_miss_takes_the_dense_step(self, monkeypatch):
        """The recurrence reaching its target is not enough: a step
        whose true residual misses the limit is a miss as well."""
        r_true = _field(6, 6, seed=45)
        z = forward.measure(r_true)
        dense = solve_nested(z)

        monkeypatch.setattr(solver, "DENSE_STEP_MAX", 0)
        monkeypatch.setattr(solver, "_REFINE_LIMIT", 0.0)
        obs = Observer()
        fallback = solve_nested(z, observer=obs)
        snap = obs.metrics.snapshot()
        steps = fallback.iterations - 1
        assert snap["solver.gn.krylov_fallbacks"]["value"] == steps
        # The recurrences stopped on their target, within the m·n
        # iterations that exhaust the Krylov space, not at the cap.
        assert z.size < solver._KRYLOV_MAXITER
        assert snap["solver.gn.cg_iterations"]["value"] <= steps * z.size
        assert fallback.iterations == dense.iterations
        assert np.array_equal(fallback.r_estimate, dense.r_estimate)

    def test_cholesky_failure_solves_the_jacobian(self, monkeypatch):
        r_true = _field(6, 6, seed=44)
        z = forward.measure(r_true)
        dense = solve_nested(z)

        square = TransferOperator.square
        monkeypatch.setattr(
            TransferOperator, "square", lambda self: -square(self)
        )
        obs = Observer()
        fallback = solve_nested(z, observer=obs)
        counter = obs.metrics.snapshot()["solver.gn.cholesky_fallbacks"]
        assert counter["value"] == fallback.iterations - 1
        assert fallback.iterations == dense.iterations
        assert fallback.converged == dense.converged
        cross = np.max(np.abs(fallback.r_estimate - dense.r_estimate) / r_true)
        assert cross <= 1e-10

    def test_no_fallback_on_smooth_fields(self):
        z = forward.measure(_field(24, 24, seed=43))
        obs = Observer()
        assert solve_nested(z, observer=obs).converged
        snap = obs.metrics.snapshot()
        assert "solver.gn.krylov_fallbacks" not in snap
        assert snap["solver.gn.cg_iterations"]["value"] > 0


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
