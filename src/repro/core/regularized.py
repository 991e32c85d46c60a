"""Tikhonov-regularized recovery for noisy measurements.

The paper's introduction names the field's core numerical difficulty:
the inverse problem is *ill-posed* — "the solution is largely
dependent on the input and results in an unacceptable variance" — and
cites Tikhonov regularization among the conventional responses
[12-14].  The plain nested solver inherits that sensitivity: our
measurements show ~10x noise amplification into the recovered field
(EXPERIMENTS.md E9).

:func:`solve_regularized` adds the classical remedy on top of the
variable-projection formulation: a smoothness prior on ``θ = log R``
penalising the discrete Laplacian of the log-field,

    minimize ‖(Z̃(θ) − Z)/Z‖² + λ ‖L θ‖²,

solved by damped Gauss–Newton on the stacked system.  λ = 0 recovers
the exact solver; :func:`l_curve` sweeps λ and reports the data-misfit
/ prior-norm trade-off so callers can pick the corner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.solver import SolveResult, _dense_scaled_jacobian, predict_z
from repro.utils.validation import require_positive_array

#: Stationarity floor for a stalled solve: when no damped step lowers
#: the cost and ``max|grad| <= _STALL_GRAD_FLOOR * cost``, the solve
#: reports converged.  Measured on noise-free n = 8 campaigns at
#: λ = 1e-3, stalls sit at ``max|grad|/cost <= 2.4e-8``, where the
#: Gauss–Newton model's predicted decrease ``½ gᵀ(JᵀJ)⁻¹g`` is already
#: below the cost's float64 resolution ``eps·cost``; four iterations
#: short of the optimum the ratio is still ~1e-3.
_STALL_GRAD_FLOOR = 1e-6


def log_laplacian_operator(m: int, n: int) -> np.ndarray:
    """Discrete 5-point Laplacian on the ``m x n`` resistor lattice.

    Rows = lattice sites (row-major), columns = sites; Neumann
    boundary (degree-adjusted diagonal), so constant fields are in the
    null space — the prior penalizes *variation*, not level.
    """
    size = m * n
    lap = np.zeros((size, size), dtype=np.float64)
    for r in range(m):
        for c in range(n):
            i = r * n + c
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < m and 0 <= cc < n:
                    j = rr * n + cc
                    lap[i, i] += 1.0
                    lap[i, j] -= 1.0
    return lap


@dataclass(frozen=True)
class LCurvePoint:
    """One λ sample of the regularization trade-off."""

    lam: float
    data_misfit: float  # ||(Z̃ - Z)/Z||
    prior_norm: float  # ||L θ||
    result: SolveResult


def solve_regularized(
    z: np.ndarray,
    lam: float,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
    observer=None,
) -> SolveResult:
    """Smoothness-regularized variable-projection solve.

    ``lam`` is the Tikhonov weight (0 = unregularized).  Returns a
    :class:`~repro.core.solver.SolveResult` with method
    ``"regularized"``.

    The data block of the stacked system ``[J_data; √λ L]`` is
    assembled by the solver's blocked kernel with the row scaling
    fused in — bit identical to the historical two-pass assembly, so
    the Levenberg trajectory is unchanged.  The normal equations
    deliberately stay
    in stacked form: splitting them as ``J_dataᵀJ_data + λ LᵀL``
    perturbs the last bits of ``JᵀJ``, and near the optimum the
    accept-on-cost-decrease test resolves below double precision, so
    last-bit perturbations flip razor-edge convergence verdicts.

    Convergence is ``max|grad| < tol``, a negligible accepted step, or
    — when no damped step lowers the cost — a gradient within
    :data:`_STALL_GRAD_FLOOR` of the cost: at that point no
    cost-decreasing step exists in float64.
    """
    from repro.observe.observer import as_observer

    z = require_positive_array(z, "z")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    obs = as_observer(observer)
    m, n = z.shape
    start = time.perf_counter()
    if r0 is None:
        r_unif = float(np.median(z) * m * n / (m + n - 1))
        r0 = np.full((m, n), r_unif)
    theta = np.log(require_positive_array(r0, "r0")).ravel()
    z_flat = z.ravel()
    lop = log_laplacian_operator(m, n)
    sqrt_lam = np.sqrt(lam)

    def cost_parts(th):
        r = np.exp(th).reshape(m, n)
        res = (predict_z(r).ravel() - z_flat) / z_flat
        prior = sqrt_lam * (lop @ th)
        return res, prior, r

    res, prior, r_cur = cost_parts(theta)
    cost = 0.5 * float(res @ res + prior @ prior)
    damping = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        iter_start = time.perf_counter()
        jac_data = _dense_scaled_jacobian(r_cur, z)
        jac = np.concatenate([jac_data, sqrt_lam * lop], axis=0)
        full_res = np.concatenate([res, prior])
        grad = jac.T @ full_res
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        jtj = jac.T @ jac
        diag_base = np.diag(jtj).copy()
        diag_idx = np.diag_indices_from(jtj)
        accepted = False
        for _ in range(25):
            jtj[diag_idx] = diag_base + damping * diag_base + 1e-300
            try:
                step = np.linalg.solve(jtj, -grad)
            except np.linalg.LinAlgError:
                damping = max(damping * 10.0, 1e-8)
                continue
            new_res, new_prior, new_r = cost_parts(theta + step)
            new_cost = 0.5 * float(new_res @ new_res + new_prior @ new_prior)
            if new_cost < cost:
                theta = theta + step
                res, prior, r_cur = new_res, new_prior, new_r
                cost = new_cost
                damping = damping / 3.0 if damping > 1e-12 else 0.0
                accepted = True
                break
            damping = max(damping * 10.0, 1e-8)
        obs.observe_hist(
            "solver.iteration.seconds", time.perf_counter() - iter_start
        )
        if not accepted:
            converged = bool(np.max(np.abs(grad)) <= _STALL_GRAD_FLOOR * cost)
            break
        if np.max(np.abs(step)) < 1e-14:
            converged = True
            break
    return SolveResult(
        r_estimate=r_cur,
        method="regularized",
        iterations=iterations,
        residual_norm=float(np.linalg.norm(res)),
        elapsed_seconds=time.perf_counter() - start,
        converged=converged,
    )


def l_curve(
    z: np.ndarray,
    lams: np.ndarray | list[float],
    voltage: float = 5.0,
) -> list[LCurvePoint]:
    """Sweep λ and collect (misfit, prior-norm) points.

    The classical L-curve: pick the corner where misfit stops
    improving and the prior norm starts exploding.
    """
    z = require_positive_array(z, "z")
    m, n = z.shape
    lop = log_laplacian_operator(m, n)
    out: list[LCurvePoint] = []
    for lam in lams:
        result = solve_regularized(z, float(lam), voltage=voltage)
        theta = np.log(result.r_estimate).ravel()
        misfit = float(
            np.linalg.norm((predict_z(result.r_estimate) - z) / z)
        )
        out.append(
            LCurvePoint(
                lam=float(lam),
                data_misfit=misfit,
                prior_norm=float(np.linalg.norm(lop @ theta)),
                result=result,
            )
        )
    return out


def pick_lambda_by_discrepancy(
    points: list[LCurvePoint], noise_rel: float, n_measurements: int
) -> LCurvePoint:
    """Morozov discrepancy principle: the largest λ whose misfit stays
    within the expected noise level ``noise_rel * sqrt(#measurements)``.

    Falls back to the smallest-λ point if none qualifies.
    """
    target = noise_rel * np.sqrt(n_measurements)
    qualifying = [p for p in points if p.data_misfit <= target]
    if not qualifying:
        return min(points, key=lambda p: p.lam)
    return max(qualifying, key=lambda p: p.lam)
