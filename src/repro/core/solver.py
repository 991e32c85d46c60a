"""R-recovery solvers: invert the measurement map Z(R).

:func:`solve_nested` — *variable projection*, enforcing R > 0 via
``θ = log R``: the per-pair voltages are always the exact solution of
the inner linear circuit, so the outer problem is just ``Z̃(R) = Z``
over the ``n^2`` resistances.  The outer Jacobian is analytic and
beautifully compact: with ``P = L^+`` (Laplacian pseudo-inverse) and
incidence vector ``b_ab`` of resistor (a, b),

    ``∂Z_st / ∂R_ab = (x_st^T P b_ab)^2 / R_ab^2``

(the squared transfer potential), computed for *all* pair/resistor
combinations with a blocked broadcast kernel.  This is the scalable,
recommended solver; :func:`solve` dispatches to it and to the
degradation ladder's fallback rungs by the names in
:data:`SOLVER_METHODS`.

The paper's formulation taken literally — one joint nonlinear system
over the ``(2n-1) n^2`` unknowns ``(θ, Ua, Ub)`` — is a test oracle,
``tests/oracles/joint_system.py``: the test suite checks that both
agree with each other and with the ground truth on noise-free data.

Fast path
---------
:func:`solve_nested` takes each Gauss–Newton step from the *square*
system ``J s = -res``, not the normal equations, which square the
condition number and stall the late iterations near ``tol``.
``J = diag(1/Z)·S·diag(1/R)`` with ``S = T∘T`` for the transfer
potentials ``T = BᵀL⁺B``, a Gram matrix over the incidence vectors
that measurement pairs and resistors share; so ``S`` is symmetric
positive definite (Schur product theorem), and the step is the SPD
solve ``S w = Z∘(-res)``, ``s = R∘w``:

* up to :data:`DENSE_STEP_MAX` resistors, one float64 Cholesky
  factorisation of the assembled ``S`` (relative residual ~1e-15);
* above it ``S`` is never formed.  Expanding the square of
  ``T = hh[s,a] - hv[s,b] - hv[a,t] + vv[t,b]`` over the blocks of
  ``P = L⁺`` gives ten separable terms, so :class:`TransferOperator`
  applies ``S`` in five n×n matmuls (O(n³) time, O(n²) memory instead
  of the dense path's O(n⁶) and O(n⁴)), and the step is one
  hand-written preconditioned-CG loop on ``(m, n)`` arrays
  (:func:`_krylov_step`).  Its preconditioner is the exact inverse of
  the uniform crossbar's ``S``, rescaled to this field's diagonal
  ``diag S = Ẑ²`` (:func:`_crossbar_preconditioner`): on a uniform
  field ``S`` has only four eigenvalues, on the mean, row, column and
  remaining parts of the weights, so its inverse costs two small
  matmuls.  A step that misses :data:`_REFINE_LIMIT` on ``J s = -res``
  (rough fields, e.g. lognormal σ ≥ 2) is replaced by the dense step
  and counted as ``solver.gn.krylov_fallbacks``; the PCG iterations
  of a solve add up in ``solver.gn.cg_iterations``.

At n = 40 nearly all of a step's cost is the fixed numpy dispatch of
each ``S`` product, so the lever is how many products run: the
structured preconditioner takes about 10 PCG iterations per step on
the e2ebench pools where the Jacobi preconditioner ``diag S`` it
replaced took about 21, and exactly one from the uniform start.
Below the crossover one small Cholesky is still cheaper than those
products.  Fields above the crossover are not bit-identical to the
Jacobi-preconditioned solver's: on the e2ebench seed-1 and seed-7
pools (n = 8–40, including n = 13–15, which that solver stepped by
Cholesky) all fields agree with it to 1.1e-13 relative, with
identical iteration counts and ladder verdicts.

Rejected steps fall to a backtracking line search whose trial
evaluations are single forward solves (~1 ms), not new
factorisations; only when the line search exhausts does the solver
assemble the dense Levenberg normal equations as a rescue, with the
damping ridge hoisted out of the retry loop and applied to the
diagonal in place.

The dense Jacobian is assembled in row blocks over measurement pairs
so the O(n⁴) transfer tensor never materialises at once (see
:func:`_jacobian_row_block`); at ``n = 100`` peak extra memory is one
~64 MB block instead of an 800 MB tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg

from repro.kirchhoff.forward import (
    effective_resistance_matrix,
    laplacian_factor_cached,
    laplacian_pinv_cached,
)
from repro.utils.validation import require_positive, require_positive_array

#: The solvers :func:`solve` dispatches to, by name: the one list that
#: ``solve()``, :class:`repro.core.engine.ParmaEngine`, the wire
#: ``Request`` and the CLI's ``--solver`` flags all check against.
SOLVER_METHODS = ("nested", "regularized", "bounded")
#: Relative residual the matrix-free CG step iterates to (~1000x
#: float64 epsilon).
_KRYLOV_TARGET = 1e-13
#: Relative residual of ``J s = -res`` beyond which a matrix-free step
#: is rejected and the dense step taken instead.
_REFINE_LIMIT = 1e-10
#: Iteration cap of the matrix-free PCG step.  On lognormal
#: σ ∈ {1, 1.5, 2} fields at n = 18–40 (seeds 0–2), every step of every
#: field whose solve converged needed at most 55 iterations (most need
#: 25–45); steps that needed more came only from runaway iterates,
#: where the dense step is cheaper than hundreds of products.
_KRYLOV_MAXITER = 100
#: Largest device, in resistors ``m * n``, whose Gauss–Newton step is
#: a Cholesky factorisation of the assembled ``S``; larger devices take
#: the matrix-free PCG step.  Median cold solve on 2 vCPUs (e2ebench
#: seed-7 pool, 16 fields per size, Laplacian cache cleared before each
#: solve, 12 alternating pairs), dense vs all-PCG, and the pairs the
#: dense step won: 2.19 vs 3.10 ms (12/12) at n = 11, 3.02 vs 3.62 ms
#: (12/12) at n = 12, 4.05 vs 3.77 ms (3/12) at n = 13, 5.22 vs
#: 3.82 ms (0/12) at n = 14, 7.17 vs 4.10 ms (0/12) at n = 15, 12.7
#: vs 6.9 ms (0/12) at n = 16.  A second run of 16 pairs read 2.93 vs
#: 3.71 ms (16/16) at n = 12 and 3.85 vs 3.74 ms (1/16) at n = 13.
DENSE_STEP_MAX = 144
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
    return _transfer_squares(pinv, r.shape, r=r)


def _jacobian_row_block(m: int, n: int) -> int:
    """Rows of measurement pairs per Jacobian assembly block.

    One block holds ``block * n * m * n`` float64 transfer values;
    this picks the largest block under
    :data:`JACOBIAN_BLOCK_TARGET_BYTES` (always at least one row).
    """
    per_row = 8 * n * m * n
    return int(np.clip(JACOBIAN_BLOCK_TARGET_BYTES // max(1, per_row), 1, m))


def _transfer_squares(
    pinv: np.ndarray,
    shape: tuple[int, int],
    r: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> np.ndarray:
    """Dense squared transfer potentials from the Laplacian pseudo-inverse.

    With the transfer potential
    ``T = P[Hs,Ha] - P[Hs,Vb] - P[Vt,Ha] + P[Vt,Vb]`` each entry is
    ``T²``: the symmetric ``S`` of the Gauss–Newton step.  With ``r``
    every column ``(a, b)`` is divided by ``r[a, b]``, giving
    ``∂Z_st/∂θ_ab``; with ``z`` as well every row ``(s, t)`` is then
    divided by ``z[s, t]`` (the relative-residual scaling fused into
    assembly instead of a second full-matrix pass).
    """
    m, n = shape
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
        if r is not None:
            t /= r[None, None, :, :]
        if z is not None:
            t /= z[s0:s1, :, None, None]
        out[s0 * n : s1 * n] = t.reshape((s1 - s0) * n, m * n)
    return out


class TransferOperator(scipy.sparse.linalg.LinearOperator):
    """Matrix-free relative-residual Jacobian ``∂Z_st/∂θ_ab / Z_st``.

    Entry ``((s, t), (a, b))`` is ``T² / (R_ab Z_st)`` with the
    transfer potential ``T = hh[s,a] - hv[s,b] - hv[a,t] + vv[t,b]``
    over the blocks of the Laplacian pseudo-inverse.  ``T`` is
    symmetric under ``(s, t) ↔ (a, b)``, so ``J = diag(1/Z) S
    diag(1/R)`` with one symmetric ``S = T²`` and both ``J·v`` and
    ``Jᵀ·w`` are scaled products with ``S`` (:meth:`_square_product`).
    Works for non-square ``m × n`` devices.
    """

    def __init__(self, pinv: np.ndarray, r: np.ndarray, z: np.ndarray):
        m, n = r.shape
        super().__init__(np.float64, (m * n, m * n))
        self.pinv, self.r, self.z = pinv, r, z
        self.hh, self.hv, self.vv = pinv[:m, :m], pinv[:m, m:], pinv[m:, m:]
        self.hh2, self.hv2, self.vv2 = self.hh**2, self.hv**2, self.vv**2
        self._square: np.ndarray | None = None
        self._dense: np.ndarray | None = None

    def _square_product(self, w: np.ndarray) -> np.ndarray:
        """``Σ_ab T[s,t,a,b]² w[a,b]`` for an ``(m, n)`` weight ``w``.

        Expanding ``T²`` gives four squares and six cross terms, each
        a product of factors indexed by at most two of (s, a), (s, b),
        (a, t), (t, b): the squares and the two cross terms that share
        only ``s`` (only ``t``) reduce to one vector over ``s`` (over
        ``t``), the other four pair up into two n×n matmuls.
        """
        hh, hv, vv = self.hh, self.hv, self.vv
        wa, wb = w.sum(axis=1), w.sum(axis=0)
        hw, wv = hh @ w, w @ vv
        per_s = self.hh2 @ wa + self.hv2 @ wb - 2.0 * (hw * hv).sum(1)
        per_t = self.hv2.T @ wa + self.vv2 @ wb - 2.0 * (wv * hv).sum(0)
        hw -= hv * wb
        out = hw @ vv + (hv @ w.T - hh * wa) @ hv
        out *= 2.0
        out += per_s[:, None]
        out += per_t[None, :]
        return out

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        w = v.reshape(self.r.shape) / self.r
        return (self._square_product(w) / self.z).ravel()

    def _rmatvec(self, u: np.ndarray) -> np.ndarray:
        w = u.reshape(self.z.shape) / self.z
        return (self._square_product(w) / self.r).ravel()

    def square_diagonal(self) -> np.ndarray:
        """``diag S = Ẑ²``: a pair's transfer potential onto its own
        resistor is the predicted effective resistance ``Ẑ``."""
        hh, hv, vv = self.hh, self.hv, self.vv
        z_hat = np.diag(hh)[:, None] - 2.0 * hv + np.diag(vv)[None, :]
        return (z_hat * z_hat).ravel()

    def square(self) -> np.ndarray:
        """``S`` assembled (blocked kernel, memoised)."""
        if self._square is None:
            self._square = _transfer_squares(self.pinv, self.r.shape)
        return self._square

    def dense(self) -> np.ndarray:
        """The assembled matrix (blocked kernel, memoised)."""
        if self._dense is None:
            self._dense = _transfer_squares(
                self.pinv, self.r.shape, r=self.r, z=self.z
            )
        return self._dense


def _scaled_jacobian(r: np.ndarray, z: np.ndarray) -> TransferOperator:
    """The relative-residual Jacobian ``nested_jacobian(r) / z`` rows.

    A :class:`TransferOperator` over the factorisation the residual
    evaluation left in the cache, with ``S`` assembled up to
    :data:`DENSE_STEP_MAX` resistors for the Cholesky step.
    """
    op = TransferOperator(laplacian_factor_cached(r).pinv, r, z)
    if r.size <= DENSE_STEP_MAX:
        op.square()
    return op


def _dense_scaled_jacobian(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`_scaled_jacobian` assembled densely at every size."""
    pinv = laplacian_factor_cached(r).pinv
    return _transfer_squares(pinv, r.shape, r=r, z=z)


def _crossbar_preconditioner(scale: np.ndarray):
    """``u ↦ scale∘C̄⁻¹(scale∘u)``, with ``C̄`` the unit-diagonal ``S``
    of a uniform crossbar of the shape of ``scale``.

    On a uniform ``m × n`` field ``T`` is ``R`` times the orthogonal
    projector ``Π[(s,t),(a,b)] = δ_sa/n + δ_tb/m − 1/(mn)`` onto the
    node-potential differences ``h_s − v_t`` (the cut space of the
    K_{m,n} graph), so ``S = R²·Π∘Π``.  ``Π∘Π`` is ``2/(mn)`` times the
    identity plus row, column and total sums, so it acts by one scalar
    on each of four parts of an ``(m, n)`` array: the mean, the row
    deviations, the column deviations and the rest, with eigenvalues
    ``(m+n−1)/(mn)``, ``1/n``, ``1/m`` and ``2/(mn)``.  Its diagonal is
    ``((m+n−1)/(mn))²``, so ``C̄⁻¹`` scales those parts by
    ``k/(m+n−1)``, ``k/m``, ``k/n`` and ``k/2`` with
    ``k = (m+n−1)²/(mn)``.  The last three are ``(k/2)·A u B`` with
    ``A = F_m + (2/n)·E_m`` and ``B = F_n + (2/m)·E_n`` (``E`` the
    averaging matrix, ``F = I − E``), which scales the mean by
    ``2k/(mn)``; one correction of the mean makes it exact.  Two small
    matmuls and a sum, O(mn²) to apply.
    """
    m, n = scale.shape
    k = (m + n - 1) ** 2 / (m * n)
    left = np.full((m, m), 0.5 * k * (2.0 / n - 1.0) / m)
    left.flat[:: m + 1] += 0.5 * k
    right = np.full((n, n), (2.0 / m - 1.0) / n)
    right.flat[:: n + 1] += 1.0
    mean_fix = (k / (m + n - 1) - 2.0 * k / (m * n)) / (m * n)

    def apply(u: np.ndarray) -> np.ndarray:
        v = scale * u
        out = left @ v @ right
        out += mean_fix * v.sum()
        out *= scale
        return out

    return apply


def _krylov_step(
    op: TransferOperator, rhs: np.ndarray, rhs_norm: float, obs
) -> np.ndarray | None:
    """Preconditioned CG on ``S w = Z∘rhs`` over ``(m, n)`` arrays, then ``R∘w``.

    The preconditioner is ``M⁻¹ = D^{-½}·C̄⁻¹·D^{-½}`` with
    ``D = diag S = Ẑ²`` (:func:`_crossbar_preconditioner`): exact on a
    uniform field (one iteration from the uniform start), and about 10
    iterations per step on the e2ebench pools.  Each iteration is one
    :meth:`TransferOperator._square_product`.
    The recurrence stops at :data:`_KRYLOV_TARGET` relative residual,
    or after :data:`_KRYLOV_MAXITER` iterations, and the iterations
    land in ``solver.gn.cg_iterations``.  The step is accepted when
    the true residual of ``op @ step = rhs`` reaches
    :data:`_REFINE_LIMIT` relative to ``rhs``, and is ``None``
    otherwise, wherever the recurrence stopped.
    """
    shape = op.r.shape
    precondition = _crossbar_preconditioner(
        (1.0 / np.sqrt(op.square_diagonal())).reshape(shape)
    )
    with np.errstate(all="ignore"):
        res = op.z * rhs.reshape(shape)
        stop = _KRYLOV_TARGET * float(np.linalg.norm(res))
        w = np.zeros(shape)
        p = precondition(res)
        ry = np.vdot(res, p)
        for iterations in range(1, _KRYLOV_MAXITER + 1):
            q = op._square_product(p)
            alpha = ry / np.vdot(p, q)
            w += alpha * p
            res -= alpha * q
            # ``not >`` also stops on a NaN recurrence.
            if not np.linalg.norm(res) > stop:
                break
            y = precondition(res)
            ry, ry_old = np.vdot(res, y), ry
            p = y + (ry / ry_old) * p
        obs.count("solver.gn.cg_iterations", iterations)
        step = (op.r * w).ravel()
        relres = float(np.linalg.norm(rhs - op.matvec(step))) / rhs_norm
    if np.isfinite(relres) and relres <= _REFINE_LIMIT:
        return step
    return None


def _gn_step(jac: TransferOperator, rhs: np.ndarray, obs) -> np.ndarray | None:
    """Solve ``jac @ step = rhs`` as the SPD ``S w = Z∘rhs``, ``R∘w``.

    Above :data:`DENSE_STEP_MAX` resistors the step is the matrix-free
    preconditioned CG of :func:`_krylov_step`; if its true residual
    misses :data:`_REFINE_LIMIT`, whether the recurrence reached its
    target or its iteration cap, the step counts
    ``solver.gn.krylov_fallbacks`` and is taken densely: a float64
    Cholesky factorisation of the assembled ``S``.  If rounding leaves
    ``S`` numerically indefinite, the step counts
    ``solver.gn.cholesky_fallbacks`` and solves ``jac.dense()`` by LU;
    ``None`` only when even that is singular.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    if jac.shape[0] > DENSE_STEP_MAX:
        step = _krylov_step(jac, rhs, rhs_norm, obs)
        if step is not None:
            return step
        obs.count("solver.gn.krylov_fallbacks")
    try:
        factor = scipy.linalg.cho_factor(jac.square(), check_finite=False)
    except scipy.linalg.LinAlgError:
        obs.count("solver.gn.cholesky_fallbacks")
        try:
            return scipy.linalg.solve(jac.dense(), rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            return None
    w = scipy.linalg.cho_solve(factor, jac.z.ravel() * rhs, check_finite=False)
    return jac.r.ravel() * w


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
    analytic Jacobian (dense or matrix-free by size, see
    :func:`_scaled_jacobian`), and the step of :func:`_gn_step`;
    rejected steps backtrack along the GN direction (cheap forward
    evaluations) before escalating to a dense Levenberg rescue.
    Per-iteration wall time lands in the ``solver.iteration.seconds``
    histogram of the active observer.
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

    def evaluate(th: np.ndarray):
        """(cost, res, r) at θ — (inf, None, None) for a non-finite
        field or cost; errors from factorising the Laplacian raise."""
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.exp(th).reshape(m, n)
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            return np.inf, None, None
        res = (predict_z(r).ravel() - z_flat) / z_flat
        cost = 0.5 * float(res @ res)
        if not np.isfinite(cost):
            return np.inf, None, None
        return cost, res, r

    def cost_and_res(th: np.ndarray):
        """:func:`evaluate` for trial points, which never raise.

        A large trial step can overflow ``exp``, leave a Laplacian too
        ill-conditioned to Cholesky-factor (``LinAlgError``) or whose
        conductance sums overflow (``ValueError`` from the
        non-finite-input check), or produce a non-finite cost; all
        read as "worse than anything" so the line search / rescue
        rejects them instead of crashing.
        """
        try:
            return evaluate(th)
        except (np.linalg.LinAlgError, ValueError):
            return np.inf, None, None

    # The start point's errors propagate: a warm start the Laplacian
    # cannot factorise is the caller's to handle (the degradation
    # ladder steps down to ``cold-start`` on it).
    cost, res, r_cur = evaluate(theta)
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
            rescue = _lm_rescue(jac.dense(), res, theta, cost, cost_and_res)
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


#: Half-width, in natural-log units, of the box :func:`solve_bounded`
#: confines ``θ = log R`` to around :func:`uniform_log_field` (a factor
#: ``e^6 ≈ 400`` in resistance either way).
BOUNDED_SPREAD = 6.0


def uniform_log_field(z: np.ndarray) -> float:
    """``log R`` of the uniform field that best explains ``z``."""
    m, n = z.shape
    return float(np.log(np.median(z) * m * n / (m + n - 1)))


def solve_bounded(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_nfev: int = 200,
    spread: float = BOUNDED_SPREAD,
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
    theta_unif = uniform_log_field(z)
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
        return _dense_scaled_jacobian(require_positive_array(r, "r"), z)

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
    """Dispatch to a solver by name (one of :data:`SOLVER_METHODS`).

    ``"nested"`` (recommended), ``"regularized"`` (Tikhonov-smoothed
    nested; pass ``lam=...``, default 1e-3 — see
    :mod:`repro.core.regularized`), or ``"bounded"`` (box-constrained
    trust region, the degradation ladder's safety net).
    """
    if method == "nested":
        return solve_nested(
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
        f"unknown method {method!r}; use one of {SOLVER_METHODS}"
    )
