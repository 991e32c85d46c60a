"""R-recovery solvers: invert the measurement map Z(R).

Two complementary solvers, both enforcing R > 0 via ``θ = log R``:

* :func:`solve_nested` — *variable projection*: the per-pair voltages
  are always the exact solution of the inner linear circuit, so the
  outer problem is just ``Z̃(R) = Z`` over the ``n^2`` resistances.
  The outer Jacobian is analytic and beautifully compact: with
  ``P = L^+`` (Laplacian pseudo-inverse) and incidence vector ``b_ab``
  of resistor (a, b),

      ``∂Z_st / ∂R_ab = (x_st^T P b_ab)^2 / R_ab^2``

  (the squared transfer potential), computed for *all* pair/resistor
  combinations with a blocked broadcast kernel.  This is the scalable,
  recommended solver.

* :func:`solve_full` — the paper's formulation taken literally: one
  joint nonlinear system over the ``(2n-1) n^2`` unknowns
  ``(θ, Ua, Ub)``, solved by trust-region least squares with the
  analytic sparse Jacobian of :mod:`repro.core.residual`.

Both return a :class:`SolveResult`; the test suite checks they agree
with each other and with the ground truth on noise-free data.

Fast path
---------
:func:`solve_nested` computes the Gauss–Newton step by solving the
*square* system ``J s = -res`` directly instead of the normal
equations: normal equations square the condition number
(``cond(JᵀJ) = cond(J)²``), which stalls the late iterations near
``tol``; the direct step — a single-precision LU factorisation
polished by iterative refinement against the double-precision
Jacobian — is accurate to ~1e-13, restoring quadratic convergence
(fewer iterations *and* tighter recoveries).  Rejected steps fall to a
backtracking line search whose trial evaluations are single forward
solves (~1 ms), not new factorisations; only when the line search
exhausts does the solver assemble the Levenberg normal equations as a
rescue, with the damping ridge hoisted out of the retry loop and
applied to the diagonal in place.

The Jacobian is assembled in row blocks over measurement pairs so the
O(n⁴) transfer tensor never materialises at once (see
:func:`_jacobian_row_block`); at ``n = 100`` peak extra memory is one
~64 MB block instead of an 800 MB tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from repro.core.residual import JointSystem
from repro.kirchhoff.forward import (
    effective_resistance_matrix,
    laplacian_factor_cached,
    laplacian_pinv_cached,
)
from repro.utils.validation import require_positive, require_positive_array

#: Relative residual at which an iteratively-refined GN step is
#: accepted as exact for stepping purposes (~100x float64 epsilon).
_REFINE_TARGET = 1e-13
#: Relative residual beyond which the float32-factored step is deemed
#: unusable and the solver re-factorises in double precision.
_REFINE_LIMIT = 1e-10
#: Maximum refinement sweeps before giving up on the float32 factor.
_REFINE_SWEEPS = 6
#: Maximum step halvings in the backtracking line search.
_LINESEARCH_HALVINGS = 20
#: Target bytes for one Jacobian assembly row block: the blocked
#: kernel's peak intermediate is one ``(block, n, n, n)`` float64
#: tensor, so ``block = TARGET / (8 n³)`` keeps assembly under ~64 MB
#: of scratch at any device size.
JACOBIAN_BLOCK_TARGET_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an R-recovery solve."""

    r_estimate: np.ndarray
    method: str
    iterations: int
    residual_norm: float
    elapsed_seconds: float
    converged: bool

    def max_relative_error(self, r_true: np.ndarray) -> float:
        r_true = np.asarray(r_true, dtype=np.float64)
        return float(np.max(np.abs(self.r_estimate - r_true) / r_true))

    def mean_relative_error(self, r_true: np.ndarray) -> float:
        r_true = np.asarray(r_true, dtype=np.float64)
        return float(np.mean(np.abs(self.r_estimate - r_true) / r_true))


def predict_z(r: np.ndarray) -> np.ndarray:
    """The forward map Z(R) (alias of the exact crossbar solver)."""
    return effective_resistance_matrix(r)


def nested_jacobian(r: np.ndarray) -> np.ndarray:
    """Analytic ``∂Z_st/∂θ_ab`` (θ = log R), shape (n^2, n^2).

    Rows index measurement pairs (s, t) row-major; columns index
    resistors (a, b) row-major.  Derivation: ``Z = x^T L^+ x``,
    ``∂L/∂G_ab = b b^T`` ⇒ ``∂Z/∂G_ab = -(x^T L^+ b)^2``; with
    ``G = e^{-θ}``, ``∂Z/∂θ_ab = (x^T L^+ b)^2 G_ab``.

    Assembly is blocked over measurement-pair rows so the O(n⁴)
    transfer tensor never materialises at once (peak scratch one
    ~64 MB block; see :func:`_jacobian_row_block`) — values are
    bit-identical to the full-broadcast expression.
    """
    r = require_positive_array(r, "r")
    # Cached: within one Gauss-Newton iteration the residual already
    # factorised this same field, so this is usually a cache hit.
    pinv = laplacian_pinv_cached(r)
    return _transfer_jacobian(pinv, r)


def _jacobian_row_block(m: int, n: int) -> int:
    """Rows of measurement pairs per Jacobian assembly block.

    One block holds ``block * n * m * n`` float64 transfer values;
    this picks the largest block under
    :data:`JACOBIAN_BLOCK_TARGET_BYTES` (always at least one row).
    """
    per_row = 8 * n * m * n
    return int(np.clip(JACOBIAN_BLOCK_TARGET_BYTES // max(1, per_row), 1, m))


def _transfer_jacobian(
    pinv: np.ndarray, r: np.ndarray, z: np.ndarray | None = None
) -> np.ndarray:
    """Dense ``∂Z_st/∂θ_ab`` from the Laplacian pseudo-inverse.

    With the transfer potential
    ``T = P[Hs,Ha] - P[Hs,Vb] - P[Vt,Ha] + P[Vt,Vb]`` each entry is
    ``T² / R_ab``; when ``z`` is given every row ``(s, t)`` is
    additionally divided by ``z[s, t]`` (the relative-residual scaling
    fused into assembly instead of a second full-matrix pass).
    """
    m, n = r.shape
    hh = pinv[:m, :m]
    hv = pinv[:m, m:]
    vv = pinv[m:, m:]
    out = np.empty((m * n, m * n), dtype=np.float64)
    hvt = hv.T
    block = _jacobian_row_block(m, n)
    for s0 in range(0, m, block):
        s1 = min(s0 + block, m)
        t = (
            hh[s0:s1, None, :, None]
            - hv[s0:s1, None, None, :]
            - hvt[None, :, :, None]
            + vv[None, :, None, :]
        )
        np.multiply(t, t, out=t)
        t /= r[None, None, :, :]
        if z is not None:
            t /= z[s0:s1, :, None, None]
        out[s0 * n : s1 * n] = t.reshape((s1 - s0) * n, m * n)
    return out


def _scaled_jacobian(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The relative-residual Jacobian ``nested_jacobian(r) / z`` rows.

    The per-row ``1/z_st`` scaling is fused into the blocked assembly
    (same division, so bit-identical to the two-pass expression)
    instead of a second full-matrix pass.  Reuses the factorisation
    the residual evaluation left in the cache.
    """
    pinv = laplacian_factor_cached(r).pinv
    return _transfer_jacobian(pinv, r, z=z)


def _gn_step(jac: np.ndarray, rhs: np.ndarray, obs) -> np.ndarray | None:
    """Solve the square system ``jac @ step = rhs`` to ~1e-13.

    Factorise once in float32 (half the memory traffic of dgetrf on
    this n²×n² matrix), then polish by iterative refinement against
    the double-precision ``jac``.  If refinement cannot reach
    :data:`_REFINE_LIMIT` — ill-conditioned or overflowed float32
    factor — re-factorise in double precision; ``None`` only when even
    that is singular.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    step = None
    try:
        lu32 = scipy.linalg.lu_factor(
            jac.astype(np.float32), check_finite=False
        )
        step = scipy.linalg.lu_solve(
            lu32, rhs.astype(np.float32), check_finite=False
        ).astype(np.float64)
        for _ in range(_REFINE_SWEEPS):
            resid = rhs - jac @ step
            relres = float(np.linalg.norm(resid)) / rhs_norm
            if not np.isfinite(relres) or relres <= _REFINE_TARGET:
                break
            step = step + scipy.linalg.lu_solve(
                lu32, resid.astype(np.float32), check_finite=False
            ).astype(np.float64)
        resid = rhs - jac @ step
        relres = float(np.linalg.norm(resid)) / rhs_norm
        if np.isfinite(relres) and relres <= _REFINE_LIMIT:
            return step
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        pass
    obs.count("solver.gn.refine_fallbacks")
    try:
        return scipy.linalg.solve(jac, rhs, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return None


def solve_nested(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
    observer=None,
) -> SolveResult:
    """Variable-projection solve of Z(R) = Z_measured.

    Gauss–Newton on ``θ = log R`` with residuals ``(Z̃ - Z)/Z``, the
    analytic blocked Jacobian, and the direct refined step of
    :func:`_gn_step`; rejected steps backtrack along the GN direction
    (cheap forward evaluations) before escalating to a Levenberg
    rescue.  Per-iteration wall time lands in the
    ``solver.iteration.seconds`` histogram of the active observer.
    """
    from repro.observe.observer import as_observer

    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    obs = as_observer(observer)
    m, n = z.shape
    start = time.perf_counter()
    if r0 is None:
        r_unif = float(np.median(z) * m * n / (m + n - 1))
        r0 = np.full((m, n), r_unif)
    theta = np.log(require_positive_array(r0, "r0")).ravel()
    z_flat = z.ravel()

    def cost_and_res(th: np.ndarray):
        """(cost, res, r) at θ — (inf, None, None) for unusable trials.

        A large trial step can overflow ``exp`` (non-finite field) or
        produce a non-finite cost; both read as "worse than anything"
        so the line search / rescue rejects them instead of crashing.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.exp(th).reshape(m, n)
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            return np.inf, None, None
        pred = predict_z(r).ravel()
        res = (pred - z_flat) / z_flat
        cost = 0.5 * float(res @ res)
        if not np.isfinite(cost):
            return np.inf, None, None
        return cost, res, r

    cost, res, r_cur = cost_and_res(theta)
    if res is None:
        raise ValueError("r0 produces a non-finite forward prediction")
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(res)) < tol:
            converged = True
            break
        iter_start = time.perf_counter()
        jac = _scaled_jacobian(r_cur, z)
        step = _gn_step(jac, -res, obs)
        accepted_step = None
        if step is not None:
            alpha = 1.0
            for _ in range(_LINESEARCH_HALVINGS):
                trial = theta + alpha * step
                new_cost, new_res, new_r = cost_and_res(trial)
                if new_cost < cost:
                    theta = trial
                    cost, res, r_cur = new_cost, new_res, new_r
                    accepted_step = alpha * step
                    break
                alpha *= 0.5
        if accepted_step is None:
            obs.count("solver.gn.lm_rescues")
            rescue = _lm_rescue(jac, res, theta, cost, cost_and_res)
            if rescue is not None:
                accepted_step, cost, res, r_cur, theta = rescue
        obs.observe_hist(
            "solver.iteration.seconds", time.perf_counter() - iter_start
        )
        if accepted_step is None:
            break  # no acceptable step found
        if np.max(np.abs(accepted_step)) < 1e-15:
            converged = True
            break
    if np.max(np.abs(res)) < tol:
        converged = True
    return SolveResult(
        r_estimate=r_cur,
        method="nested",
        iterations=iterations,
        residual_norm=float(np.linalg.norm(res)),
        elapsed_seconds=time.perf_counter() - start,
        converged=converged,
    )


def _lm_rescue(jac, res, theta, cost, cost_and_res):
    """Levenberg fallback when the GN direction yields no decrease.

    Assembles the normal equations lazily (only this path pays the
    JᵀJ gemm) and retries with an escalating damping ridge written
    onto the diagonal in place — diagonal values identical to the
    historical ``jtj + lam·diag(diag(jtj)) + 1e-300·I`` expression,
    without re-allocating two dense n²×n² matrices per retry.
    """
    # Contiguous transpose, then gemm: a fresh ``jtj`` the damping
    # ridge may overwrite in place.
    jt = jac.T.copy()
    jtj, grad = np.dot(jt, jac), np.dot(jt, res)
    diag_base = np.diag(jtj).copy()
    diag_idx = np.diag_indices_from(jtj)
    lam = 1e-4
    for _ in range(25):
        jtj[diag_idx] = diag_base + lam * diag_base + 1e-300
        try:
            step = np.linalg.solve(jtj, -grad)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-8)
            continue
        new_cost, new_res, new_r = cost_and_res(theta + step)
        if new_cost < cost:
            return step, new_cost, new_res, new_r, theta + step
        lam = max(lam * 10.0, 1e-8)
    return None


def solve_full(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_nfev: int = 60,
    observer=None,
) -> SolveResult:
    """Joint solve over (θ, Ua, Ub) — the paper's literal formulation.

    Trust-region reflective least squares with the analytic sparse
    Jacobian; ``tr_solver='lsmr'`` keeps memory at the Jacobian's
    O(n^4) nonzeros.  ``observer`` is accepted so :func:`solve` can
    dispatch uniformly; this path records no solver metrics.
    """
    del observer
    z = require_positive_array(z, "z")
    if z.shape[0] != z.shape[1]:
        raise ValueError("full solver requires a square device")
    n = z.shape[0]
    system = JointSystem(n=n, z=z, voltage=voltage)
    start = time.perf_counter()
    x0 = system.initial_state(r0)
    result = scipy.optimize.least_squares(
        system.residual,
        x0,
        jac=system.jacobian,
        method="trf",
        tr_solver="lsmr",
        xtol=tol,
        ftol=tol,
        gtol=tol,
        max_nfev=max_nfev,
    )
    r_est, _, _ = system.unpack(result.x)
    return SolveResult(
        r_estimate=r_est,
        method="full",
        iterations=int(result.nfev),
        residual_norm=float(np.linalg.norm(result.fun)),
        elapsed_seconds=time.perf_counter() - start,
        converged=bool(result.success),
    )


def solve_bounded(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_nfev: int = 200,
    spread: float = 6.0,
    observer=None,
) -> SolveResult:
    """Box-bounded trust-region solve on ``θ = log R`` (safety net).

    The last rung of the degradation ladder
    (:mod:`repro.resilience.degrade`): when Gauss–Newton diverges —
    wildly inconsistent measurements, a poisoned warm start — this
    solve cannot run away, because every iterate is confined to
    ``θ ∈ [θ_unif - spread, θ_unif + spread]`` around the uniform-field
    estimate (±``spread`` natural-log units ≈ a factor ``e^spread`` in
    resistance, generous for any physical device).  Slower and less
    accurate than :func:`solve_nested`, but it always returns a finite
    field.  ``observer`` is accepted so :func:`solve` can dispatch
    uniformly; this path records no solver metrics.
    """
    del observer
    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    m, n = z.shape
    start = time.perf_counter()
    theta_unif = float(np.log(np.median(z) * m * n / (m + n - 1)))
    lo = theta_unif - spread
    hi = theta_unif + spread
    if r0 is None:
        theta0 = np.full(m * n, theta_unif)
    else:
        theta0 = np.log(require_positive_array(r0, "r0")).ravel()
    # least_squares requires a strictly interior start.
    margin = 1e-9 * max(1.0, abs(hi - lo))
    theta0 = np.clip(theta0, lo + margin, hi - margin)
    z_flat = z.ravel()

    def residual(th: np.ndarray) -> np.ndarray:
        r = np.exp(th).reshape(m, n)
        return (predict_z(r).ravel() - z_flat) / z_flat

    def jacobian(th: np.ndarray) -> np.ndarray:
        r = np.exp(th).reshape(m, n)
        return _scaled_jacobian(require_positive_array(r, "r"), z)

    result = scipy.optimize.least_squares(
        residual,
        theta0,
        jac=jacobian,
        bounds=(lo, hi),
        method="trf",
        xtol=tol,
        ftol=tol,
        gtol=tol,
        max_nfev=max_nfev,
    )
    r_est = np.exp(result.x).reshape(m, n)
    return SolveResult(
        r_estimate=r_est,
        method="bounded",
        iterations=int(result.nfev),
        residual_norm=float(np.linalg.norm(result.fun)),
        elapsed_seconds=time.perf_counter() - start,
        converged=bool(result.success) and bool(np.all(np.isfinite(r_est))),
    )


def solve(
    z: np.ndarray,
    voltage: float = 5.0,
    method: str = "nested",
    observer=None,
    **kwargs,
) -> SolveResult:
    """Dispatch to a solver by name.

    ``"nested"`` (recommended), ``"full"`` (the paper's joint system),
    ``"regularized"`` (Tikhonov-smoothed nested; pass ``lam=...``,
    default 1e-3 — see :mod:`repro.core.regularized`), or ``"bounded"``
    (box-constrained trust region, the degradation ladder's safety
    net).
    """
    if method == "nested":
        return solve_nested(
            z, voltage=voltage, observer=observer, **kwargs
        )
    if method == "full":
        return solve_full(
            z, voltage=voltage, observer=observer, **kwargs
        )
    if method == "regularized":
        from repro.core.regularized import solve_regularized

        kwargs.setdefault("lam", 1e-3)
        return solve_regularized(
            z, voltage=voltage, observer=observer, **kwargs
        )
    if method == "bounded":
        return solve_bounded(
            z, voltage=voltage, observer=observer, **kwargs
        )
    raise ValueError(
        f"unknown method {method!r}; use 'nested', 'full', 'regularized' "
        "or 'bounded'"
    )
