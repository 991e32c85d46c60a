"""The from-scratch joint Jacobian, kept as a test oracle.

:meth:`tests.oracles.joint_system.JointSystem.jacobian` fetches the COO
sparsity pattern of the joint Jacobian from a per-``n`` cache and only
recomputes values.  This module assembles the same matrix from scratch
with one ``add(rows, cols, vals)`` per derivative block, in the order
the cached emitter mirrors, so the tests can pin the cached pattern and
values to it.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from tests.oracles.joint_system import JointSystem, _others


def jacobian_reference(
    system: JointSystem, x: np.ndarray
) -> scipy.sparse.csr_matrix:
    """Jacobian of ``system`` at ``x`` by full from-scratch COO assembly."""
    n = system.n
    r, ua_flat, ub_flat = system.unpack(x)
    g = 1.0 / r
    u = system.voltage
    pairs = np.arange(system.num_pairs)
    i_of = pairs // n
    j_of = pairs % n
    # ks[p] = the n-1 vertical wires != j; ms[p] = horizontals != i.
    ks = _others(j_of, n)  # (p, n-1)
    ms = _others(i_of, n)  # (p, n-1)
    ua = ua_flat  # (p, n-1)
    ub = ub_flat
    g_ik = g[i_of[:, None], ks]  # (p, n-1)
    g_mj = g[ms, j_of[:, None]]  # (p, n-1)
    g_mk = g[ms[:, :, None], ks[:, None, :]]  # (p, m', k')
    g_ij = g[i_of, j_of]  # (p,)
    scale = (system.z[i_of, j_of] / u).ravel()  # per-pair row scale

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    base = 2 * n * pairs  # first residual row of each pair

    def add(rr, cc, vv):
        rr, cc, vv = np.broadcast_arrays(
            np.asarray(rr), np.asarray(cc), np.asarray(vv)
        )
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(vv.astype(np.float64).ravel())

    nm1 = n - 1
    # --- SOURCE row (base + 0): f = U G_ij + Σ (U - Ua) G_ik - drive,
    # ∂/∂θ = -G ∂/∂G.
    r_src = base
    add(r_src, system.theta_index(i_of, j_of), -scale * u * g_ij)
    add(
        np.repeat(r_src, nm1),
        system.theta_index(np.repeat(i_of, nm1), ks.ravel()),
        (-scale[:, None] * (u - ua) * g_ik).ravel(),
    )
    add(
        np.repeat(r_src, nm1),
        system.ua_index(np.repeat(pairs, nm1), np.tile(np.arange(nm1), len(pairs))),
        (-scale[:, None] * g_ik).ravel(),
    )
    # --- DEST row (base + 1): f = U G_ij + Σ Ub G_mj - drive -----------
    r_dst = base + 1
    add(r_dst, system.theta_index(i_of, j_of), -scale * u * g_ij)
    add(
        np.repeat(r_dst, nm1),
        system.theta_index(ms.ravel(), np.repeat(j_of, nm1)),
        (-scale[:, None] * ub * g_mj).ravel(),
    )
    add(
        np.repeat(r_dst, nm1),
        system.ub_index(np.repeat(pairs, nm1), np.tile(np.arange(nm1), len(pairs))),
        (scale[:, None] * g_mj).ravel(),
    )
    # --- UA rows (base + 2 + k') ---------------------------------------
    r_ua = base[:, None] + 2 + np.arange(nm1)[None, :]  # (p, k')
    # θ_ik: -(U - Ua_k) G_ik
    add(
        r_ua,
        system.theta_index(i_of[:, None], ks),
        -scale[:, None] * (u - ua) * g_ik,
    )
    # θ_mk: +(Ua_k - Ub_m) G_mk   (summed term, one entry per (m,k))
    cross = ua[:, None, :] - ub[:, :, None]  # (p, m', k')
    add(
        np.broadcast_to(r_ua[:, None, :], g_mk.shape),
        system.theta_index(
            np.broadcast_to(ms[:, :, None], g_mk.shape),
            np.broadcast_to(ks[:, None, :], g_mk.shape),
        ),
        scale[:, None, None] * cross * g_mk,
    )
    # Ua_k: -(G_ik + Σ_m G_mk)
    add(
        r_ua,
        system.ua_index(pairs[:, None], np.arange(nm1)[None, :]),
        -scale[:, None] * (g_ik + g_mk.sum(axis=1)),
    )
    # Ub_m: +G_mk  (entry per (m', k'): row = UA_k, col = Ub_m)
    add(
        np.broadcast_to(r_ua[:, None, :], g_mk.shape),
        system.ub_index(pairs[:, None, None], np.arange(nm1)[None, :, None]),
        scale[:, None, None] * g_mk,
    )
    # --- UB rows (base + n + 1 + m') --------------------------------------
    r_ub = base[:, None] + n + 1 + np.arange(nm1)[None, :]  # (p, m')
    # θ_mk: -(Ua_k - Ub_m) G_mk
    add(
        np.broadcast_to(r_ub[:, :, None], g_mk.shape),
        system.theta_index(
            np.broadcast_to(ms[:, :, None], g_mk.shape),
            np.broadcast_to(ks[:, None, :], g_mk.shape),
        ),
        -scale[:, None, None] * cross * g_mk,
    )
    # θ_mj: +Ub_m G_mj
    add(
        r_ub,
        system.theta_index(ms, j_of[:, None]),
        scale[:, None] * ub * g_mj,
    )
    # Ua_k: +G_mk (row = UB_m, col = Ua_k)
    add(
        np.broadcast_to(r_ub[:, :, None], g_mk.shape),
        system.ua_index(pairs[:, None, None], np.arange(nm1)[None, None, :]),
        scale[:, None, None] * g_mk,
    )
    # Ub_m: -(Σ_k G_mk + G_mj)
    add(
        r_ub,
        system.ub_index(pairs[:, None], np.arange(nm1)[None, :]),
        -scale[:, None] * (g_mk.sum(axis=2) + g_mj),
    )

    mat = scipy.sparse.coo_matrix(
        (
            np.concatenate(vals),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(system.num_residuals, system.num_unknowns),
    )
    return mat.tocsr()
