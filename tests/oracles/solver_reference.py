"""The pre-fast-path nested solver, kept as a test and benchmark oracle.

:func:`nested_jacobian_reference` materialises the full O(n⁴)
transfer tensor in one broadcast; the blocked assembly in
:mod:`repro.core.solver` must stay bit-identical to it.
:func:`solve_nested_reference` is the normal-equation
Levenberg–Marquardt solver that :func:`repro.core.solver.solve_nested`
replaced: the regression suite compares recoveries against it and
``benchmarks/bench_solver.py`` measures speedups against it.  Neither
is wired into any production path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.solver import SolveResult, predict_z
from repro.kirchhoff.forward import laplacian_pinv_cached
from repro.utils.validation import require_positive, require_positive_array


def nested_jacobian_reference(r: np.ndarray) -> np.ndarray:
    """The historical one-shot broadcast ``∂Z_st/∂θ_ab``, shape (n², n²)."""
    r = require_positive_array(r, "r")
    m, n = r.shape
    pinv = laplacian_pinv_cached(r)
    hh = pinv[:m, :m]  # P[H_s, H_a]
    hv = pinv[:m, m:]  # P[H_s, V_b]
    vv = pinv[m:, m:]  # P[V_t, V_b]
    # t[s, t, a, b] = P[Hs,Ha] - P[Hs,Vb] - P[Vt,Ha] + P[Vt,Vb]
    transfer = (
        hh[:, None, :, None]
        - hv[:, None, None, :]
        - hv.T[None, :, :, None]
        + vv[None, :, None, :]
    )
    jac = transfer**2 / r[None, None, :, :]
    return jac.reshape(m * n, m * n)


def solve_nested_reference(
    z: np.ndarray,
    voltage: float = 5.0,
    r0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolveResult:
    """Damped Gauss–Newton over the full-broadcast Jacobian, verbatim."""
    z = require_positive_array(z, "z")
    require_positive(voltage, "voltage")
    m, n = z.shape
    start = time.perf_counter()
    if r0 is None:
        r_unif = float(np.median(z) * m * n / (m + n - 1))
        r0 = np.full((m, n), r_unif)
    theta = np.log(require_positive_array(r0, "r0")).ravel()
    z_flat = z.ravel()

    def cost_and_res(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        r = np.exp(th).reshape(m, n)
        pred = predict_z(r).ravel()
        res = (pred - z_flat) / z_flat
        return 0.5 * float(res @ res), res, r

    cost, res, r_cur = cost_and_res(theta)
    iterations = 0
    converged = False
    lam = 0.0  # Levenberg damping, raised on rejected steps
    for iterations in range(1, max_iter + 1):
        jac = nested_jacobian_reference(r_cur) / z_flat[:, None]
        grad = jac.T @ res
        if np.max(np.abs(res)) < tol:
            converged = True
            break
        jtj = jac.T @ jac
        step = None
        for _ in range(25):
            try:
                step = np.linalg.solve(
                    jtj + lam * np.diag(np.diag(jtj)) + 1e-300 * np.eye(len(grad)),
                    -grad,
                )
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-8)
                continue
            new_cost, new_res, new_r = cost_and_res(theta + step)
            if new_cost < cost:
                theta = theta + step
                cost, res, r_cur = new_cost, new_res, new_r
                lam = lam / 3.0 if lam > 1e-12 else 0.0
                break
            lam = max(lam * 10.0, 1e-8)
        else:
            break  # no acceptable step found
        if step is not None and np.max(np.abs(step)) < 1e-15:
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
