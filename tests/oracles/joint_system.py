"""The paper's joint system and its literal solver, kept as a test oracle.

The §IV-A reformulation — ``2 n^3`` Kirchhoff equations in
``(2n-1) n^2`` unknowns — is what Parma forms and persists; no solver
rung reads it, because :func:`repro.core.solver.solve_nested` inverts
``Z(R)`` over the ``n^2`` resistances directly.  This module keeps the
joint system as an independent check on that solver:
:class:`JointSystem` (global residual and analytic sparse Jacobian)
and :func:`solve_full`, trust-region least squares over every unknown
at once.  The tests pin the joint residual to the formed pair blocks
and the nested solver's recoveries to :func:`solve_full`, and
``benchmarks/bench_ablations.py`` (E10.3) compares the two formulations'
cost.  Nothing in ``src/`` imports this module.

The *full* Parma solve treats every unknown jointly: the state vector
is ``x = [θ, Ua, Ub]`` with ``θ = log R`` (length ``n^2``; the log
parametrization enforces R > 0 for free) and the per-pair voltages
``Ua``/``Ub`` (each ``n^2 * (n-1)``).  Residuals are the ``2 n^3``
Kirchhoff balances of :mod:`repro.core.equations`, normalised per pair
by the drive current ``U / Z`` so rows are dimensionless and O(1).

Equation order: for pair ``p`` (row-major), the ``2n`` rows
``[SOURCE, DEST, UA_0.., UB_0..]`` — identical to
:func:`repro.core.equations.form_pair_block`.

The Jacobian is assembled analytically in COO form.  Per pair there
are at most ``6 n^2`` nonzeros, so the full matrix has O(n^4) nonzeros
— sparse at density ``~3/n^2`` — and ``scipy.optimize.least_squares``
with ``tr_solver="lsmr"`` scales to the sizes the solver benchmarks
use.  The COO sparsity pattern depends only on ``n``, never on ``x``,
so it is computed once and cached (:func:`jacobian_cache_stats`
observes the cache): each solver iteration only recomputes values into
the preallocated ``data`` buffer and converts through a precomputed
COO→CSR mapping.  The from-scratch assembly is kept as a test oracle,
``tests/oracles/residual_reference.py``.

All rows use the LHS - RHS convention of
:meth:`repro.core.equations.PairBlock.residuals`, so the global vector
restricted to one pair equals that pair's block residuals (up to the
per-pair normalisation ``z/U``).  Derivatives (G = e^{-θ}, so
``∂/∂θ = -G ∂/∂G``):

=========  ==================================================================
row        nonzero columns
=========  ==================================================================
SOURCE     θ_ij: -U G_ij;  θ_ik: -(U - Ua_k) G_ik;  Ua_k: -G_ik
DEST       θ_ij: -U G_ij;  θ_mj: -Ub_m G_mj;  Ub_m: +G_mj
UA_k       θ_ik: -(U - Ua_k) G_ik;  θ_mk: +(Ua_k - Ub_m) G_mk;
           Ua_k: -(G_ik + Σ_m G_mk);  Ub_m: +G_mk
UB_m       θ_mk: -(Ua_k - Ub_m) G_mk;  θ_mj: +Ub_m G_mj;
           Ua_k: +G_mk;  Ub_m: -(Σ_k G_mk + G_mj)
=========  ==================================================================
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize
import scipy.sparse

from repro.core.solver import SolveResult
from repro.utils.validation import require_positive, require_positive_array


@dataclass(frozen=True)
class JointSystem:
    """Index bookkeeping for the full joint system of one device."""

    n: int
    z: np.ndarray  # (n, n) measured
    voltage: float

    def __post_init__(self) -> None:
        z = require_positive_array(self.z, "z")
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("z must be square")
        object.__setattr__(self, "z", z)
        require_positive(self.voltage, "voltage")
        if z.shape[0] != self.n:
            raise ValueError(f"z side {z.shape[0]} != n = {self.n}")

    # -- layout ------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        return self.n * self.n

    @property
    def num_theta(self) -> int:
        return self.n * self.n

    @property
    def num_voltage_unknowns(self) -> int:
        return 2 * self.num_pairs * (self.n - 1)

    @property
    def num_unknowns(self) -> int:
        return self.num_theta + self.num_voltage_unknowns

    @property
    def num_residuals(self) -> int:
        return 2 * self.n * self.num_pairs

    def theta_index(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        return row * self.n + col

    def ua_index(self, pair: np.ndarray, k_prime: np.ndarray) -> np.ndarray:
        return self.num_theta + pair * (self.n - 1) + k_prime

    def ub_index(self, pair: np.ndarray, m_prime: np.ndarray) -> np.ndarray:
        return (
            self.num_theta
            + self.num_pairs * (self.n - 1)
            + pair * (self.n - 1)
            + m_prime
        )

    # -- state packing -----------------------------------------------------

    def pack(self, r: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """Pack (R (n,n), Ua (p, n-1), Ub (p, n-1)) into the x vector."""
        n, p = self.n, self.num_pairs
        if r.shape != (n, n) or ua.shape != (p, n - 1) or ub.shape != (p, n - 1):
            raise ValueError("state shapes do not match the device")
        return np.concatenate(
            [np.log(np.asarray(r, dtype=np.float64)).ravel(), ua.ravel(), ub.ravel()]
        )

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, p = self.n, self.num_pairs
        if x.shape != (self.num_unknowns,):
            raise ValueError(
                f"x has length {x.shape}, expected {self.num_unknowns}"
            )
        theta = x[: self.num_theta].reshape(n, n)
        ua = x[self.num_theta : self.num_theta + p * (n - 1)].reshape(p, n - 1)
        ub = x[self.num_theta + p * (n - 1) :].reshape(p, n - 1)
        return np.exp(theta), ua, ub

    # -- residual -----------------------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        """All ``2 n^3`` normalised residuals, fully vectorised.

        Works on whole-device tensors: ``UA``/``UB`` are reshaped to
        ``(n, n, n-1)`` (pair row, pair col, intermediate index) and the
        category sums become einsum/matmul contractions.
        """
        n = self.n
        r, ua_flat, ub_flat = self.unpack(x)
        g = 1.0 / r
        u = self.voltage
        ua = ua_flat.reshape(n, n, n - 1)  # [i, j, k']
        ub = ub_flat.reshape(n, n, n - 1)  # [i, j, m']
        drive = u / self.z  # (n, n)

        # Gathered conductance tables.
        g_ik = _delete_cols_per_j(g)  # [i, j, k'] = G[i, k(k')]
        g_mj = _delete_rows_per_i(g)  # [i, j, m'] = G[m(m'), j]
        g_mk = _delete_both(g)  # [i, j, m', k'] = G[m, k]

        # SOURCE: U G_ij + Σ_k (U - Ua) G_ik - drive   (LHS - RHS, the
        # same convention as PairBlock.residuals).
        f_src = u * g + ((u - ua) * g_ik).sum(axis=2) - drive
        # DEST: U G_ij + Σ_m Ub G_mj - drive
        f_dst = u * g + (ub * g_mj).sum(axis=2) - drive
        # UA_k: (U - Ua_k) G_ik - Σ_m (Ua_k - Ub_m) G_mk
        cross = ua[:, :, None, :] - ub[:, :, :, None]  # [i,j,m',k']
        f_ua = (u - ua) * g_ik - (cross * g_mk).sum(axis=2)
        # UB_m: Σ_k (Ua_k - Ub_m) G_mk - Ub_m G_mj
        f_ub = (cross * g_mk).sum(axis=3) - ub * g_mj

        # Normalise and interleave into per-pair order
        # [SOURCE, DEST, UA.., UB..].
        scale = 1.0 / drive
        out = np.empty((n * n, 2 * n), dtype=np.float64)
        out[:, 0] = (f_src * scale).ravel()
        out[:, 1] = (f_dst * scale).ravel()
        out[:, 2 : n + 1] = (f_ua * scale[:, :, None]).reshape(n * n, n - 1)
        out[:, n + 1 :] = (f_ub * scale[:, :, None]).reshape(n * n, n - 1)
        return out.ravel()

    # -- Jacobian --------------------------------------------------------------

    @cached_property
    def _row_scale(self) -> np.ndarray:
        """Per-pair row normalisation ``z/U`` (x-independent)."""
        pairs = np.arange(self.num_pairs)
        return (self.z[pairs // self.n, pairs % self.n] / self.voltage).ravel()

    def jacobian(self, x: np.ndarray) -> scipy.sparse.csr_matrix:
        """Analytic sparse Jacobian at ``x`` (CSR, rows = residuals).

        Fast path: the sparsity structure is fetched from the
        process-wide per-``n`` cache (built once), so each call only
        evaluates the nonzero *values* and scatters them through the
        precomputed COO→CSR mapping.  Output matches the from-scratch
        assembly in ``tests/oracles/residual_reference.py`` to machine
        precision.
        """
        struct = _get_jac_structure(self.n)
        vals = self._jacobian_values(x, struct)
        data = np.add.reduceat(vals[struct.perm], struct.starts)
        return scipy.sparse.csr_matrix(
            (data, struct.indices, struct.indptr),
            shape=(self.num_residuals, self.num_unknowns),
        )

    def _jacobian_values(
        self, x: np.ndarray, struct: "_JacobianStructure"
    ) -> np.ndarray:
        """Nonzero values in the canonical COO emission order.

        Mirrors block-for-block the ``add(...)`` sequence of the
        from-scratch oracle assembly; the block order here and the
        row/col order of :func:`_build_jac_structure` must stay in
        lockstep (property-tested).
        """
        r, ua, ub = self.unpack(x)
        g = 1.0 / r
        u = self.voltage
        i_of, j_of, ks, ms = struct.i_of, struct.j_of, struct.ks, struct.ms
        g_ik = g[i_of[:, None], ks]  # (p, n-1)
        g_mj = g[ms, j_of[:, None]]  # (p, n-1)
        g_mk = g[ms[:, :, None], ks[:, None, :]]  # (p, m', k')
        g_ij = g[i_of, j_of]  # (p,)
        scale = self._row_scale
        cross = ua[:, None, :] - ub[:, :, None]  # (p, m', k')
        blocks = (
            # SOURCE row: θ_ij, θ_ik, Ua_k.
            -scale * u * g_ij,
            (-scale[:, None] * (u - ua) * g_ik),
            (-scale[:, None] * g_ik),
            # DEST row: θ_ij, θ_mj, Ub_m.
            -scale * u * g_ij,
            (-scale[:, None] * ub * g_mj),
            (scale[:, None] * g_mj),
            # UA rows: θ_ik, θ_mk, Ua_k, Ub_m.
            -scale[:, None] * (u - ua) * g_ik,
            scale[:, None, None] * cross * g_mk,
            -scale[:, None] * (g_ik + g_mk.sum(axis=1)),
            scale[:, None, None] * g_mk,
            # UB rows: θ_mk, θ_mj, Ua_k, Ub_m.
            -scale[:, None, None] * cross * g_mk,
            scale[:, None] * ub * g_mj,
            scale[:, None, None] * g_mk,
            -scale[:, None] * (g_mk.sum(axis=2) + g_mj),
        )
        return np.concatenate(
            [np.asarray(b, dtype=np.float64).ravel() for b in blocks]
        )

    def initial_state(self, r0: np.ndarray | None = None) -> np.ndarray:
        """A physically consistent starting vector.

        Defaults to ``R0 = n * Z`` scaled so the uniform-field forward
        model roughly reproduces Z, with Ua/Ub from the exact forward
        solve under ``R0`` — so the initial residual only reflects the
        R-error, not arbitrary voltages.  All ``n^2`` drive solutions
        come from one shared (and cached) Laplacian factorisation.
        """
        from repro.kirchhoff.forward import solve_all_drives

        n = self.n
        if r0 is None:
            # For a uniform field R, Z = R * (2n - 1) / n^2; invert that
            # estimate around the median measurement.
            r_unif = float(np.median(self.z) * n * n / (2 * n - 1))
            r0 = np.full((n, n), r_unif)
        r0 = np.asarray(r0, dtype=np.float64)
        ua = np.empty((self.num_pairs, n - 1))
        ub = np.empty((self.num_pairs, n - 1))
        for sol in solve_all_drives(r0, voltage=self.voltage):
            p = sol.row * n + sol.col
            ua[p] = sol.ua()
            ub[p] = sol.ub()
        return self.pack(r0, ua, ub)


def _others_table(n: int) -> np.ndarray:
    """Cached ``(n, n-1)`` table: row ``d`` = sorted indices != d.

    The single index structure behind every "delete row/column d"
    gather below — computed once per ``n`` for the whole process.
    """
    with _JAC_LOCK:
        table = _OTHERS_TABLES.get(n)
        if table is None:
            grid = np.broadcast_to(np.arange(n), (n, n))
            table = grid[grid != np.arange(n)[:, None]].reshape(n, n - 1)
            table.setflags(write=False)
            _OTHERS_TABLES[n] = table
    return table


def _others(idx: np.ndarray, n: int) -> np.ndarray:
    """For each entry of ``idx``, the sorted other indices in [0, n)."""
    return _others_table(n)[np.asarray(idx)]


def _delete_cols_per_j(g: np.ndarray) -> np.ndarray:
    """[i, j, k'] = G[i, k] with column j removed, k ascending."""
    return np.ascontiguousarray(g[:, _others_table(g.shape[0])])


def _delete_rows_per_i(g: np.ndarray) -> np.ndarray:
    """[i, j, m'] = G[m, j] with row i removed, m ascending."""
    return np.ascontiguousarray(
        g[_others_table(g.shape[0])].transpose(0, 2, 1)
    )


def _delete_both(g: np.ndarray) -> np.ndarray:
    """[i, j, m', k'] = G[m, k], row i and column j removed."""
    table = _others_table(g.shape[0])
    return g[table[:, None, :, None], table[None, :, None, :]]


# -- persistent Jacobian-structure cache -------------------------------------


@dataclass
class JacobianCacheStats:
    """Observable counters of the Jacobian-structure cache."""

    name: str = "jacobian-structure"
    entries: int = 0
    hits: int = 0
    misses: int = 0
    bytes_resident: int = 0
    build_seconds: float = 0.0

    def snapshot(self) -> "JacobianCacheStats":
        return JacobianCacheStats(
            name=self.name,
            entries=self.entries,
            hits=self.hits,
            misses=self.misses,
            bytes_resident=self.bytes_resident,
            build_seconds=self.build_seconds,
        )


@dataclass(frozen=True)
class _JacobianStructure:
    """x-independent COO pattern + COO→CSR mapping for one ``n``.

    ``perm`` sorts the canonical COO emission order into CSR order;
    ``starts`` are the ``np.add.reduceat`` segment heads that fold
    duplicate coordinates; ``indices``/``indptr`` are the final CSR
    structure, shared (read-only) by every value update.
    """

    n: int
    i_of: np.ndarray
    j_of: np.ndarray
    ks: np.ndarray
    ms: np.ndarray
    perm: np.ndarray
    starts: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    nnz_coo: int

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.i_of,
                self.j_of,
                self.ks,
                self.ms,
                self.perm,
                self.starts,
                self.indices,
                self.indptr,
            )
        )


_JAC_LOCK = threading.Lock()
_JAC_STRUCTURES: dict[int, _JacobianStructure] = {}
_OTHERS_TABLES: dict[int, np.ndarray] = {}
_JAC_STATS = JacobianCacheStats()


def _build_jac_structure(n: int) -> _JacobianStructure:
    """Emit the canonical COO rows/cols and derive the CSR mapping.

    Block order mirrors the from-scratch oracle assembly (and
    must stay in lockstep with
    :meth:`JointSystem._jacobian_values`).
    """
    system = JointSystem(n=n, z=np.ones((n, n)), voltage=1.0)
    num_pairs = n * n
    nm1 = n - 1
    pairs = np.arange(num_pairs)
    i_of = pairs // n
    j_of = pairs % n
    ks = _others(j_of, n)
    ms = _others(i_of, n)
    base = 2 * n * pairs
    kp = np.arange(nm1)
    tile_kp = np.tile(kp, num_pairs)
    shape3 = (num_pairs, nm1, nm1)

    r_src = base
    r_dst = base + 1
    r_ua = base[:, None] + 2 + kp[None, :]  # (p, k')
    r_ub = base[:, None] + n + 1 + kp[None, :]  # (p, m')

    def bc(arr, shape):
        return np.broadcast_to(arr, shape)

    blocks: list[tuple[np.ndarray, np.ndarray]] = [
        # SOURCE row: θ_ij, θ_ik, Ua_k.
        (r_src, system.theta_index(i_of, j_of)),
        (
            np.repeat(r_src, nm1),
            system.theta_index(np.repeat(i_of, nm1), ks.ravel()),
        ),
        (np.repeat(r_src, nm1), system.ua_index(np.repeat(pairs, nm1), tile_kp)),
        # DEST row: θ_ij, θ_mj, Ub_m.
        (r_dst, system.theta_index(i_of, j_of)),
        (
            np.repeat(r_dst, nm1),
            system.theta_index(ms.ravel(), np.repeat(j_of, nm1)),
        ),
        (np.repeat(r_dst, nm1), system.ub_index(np.repeat(pairs, nm1), tile_kp)),
        # UA rows: θ_ik, θ_mk, Ua_k, Ub_m.
        (r_ua, system.theta_index(i_of[:, None], ks)),
        (
            bc(r_ua[:, None, :], shape3),
            system.theta_index(
                bc(ms[:, :, None], shape3), bc(ks[:, None, :], shape3)
            ),
        ),
        (r_ua, system.ua_index(pairs[:, None], kp[None, :])),
        (
            bc(r_ua[:, None, :], shape3),
            bc(system.ub_index(pairs[:, None, None], kp[None, :, None]), shape3),
        ),
        # UB rows: θ_mk, θ_mj, Ua_k, Ub_m.
        (
            bc(r_ub[:, :, None], shape3),
            system.theta_index(
                bc(ms[:, :, None], shape3), bc(ks[:, None, :], shape3)
            ),
        ),
        (r_ub, system.theta_index(ms, j_of[:, None])),
        (
            bc(r_ub[:, :, None], shape3),
            bc(system.ua_index(pairs[:, None, None], kp[None, None, :]), shape3),
        ),
        (r_ub, system.ub_index(pairs[:, None], kp[None, :])),
    ]
    rows = np.concatenate([np.asarray(r).ravel() for r, _ in blocks])
    cols = np.concatenate([np.asarray(c).ravel() for _, c in blocks])

    perm = np.lexsort((cols, rows))
    rs = rows[perm]
    cs = cols[perm]
    fresh = np.empty(len(rs), dtype=bool)
    fresh[0] = True
    fresh[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    starts = np.flatnonzero(fresh)
    indices = np.ascontiguousarray(cs[starts])
    counts = np.bincount(rs[starts], minlength=system.num_residuals)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return _JacobianStructure(
        n=n,
        i_of=i_of,
        j_of=j_of,
        ks=ks,
        ms=ms,
        perm=perm,
        starts=starts,
        indices=indices,
        indptr=indptr,
        nnz_coo=len(rows),
    )


def _get_jac_structure(n: int) -> _JacobianStructure:
    """Cached structure for ``n`` (persistent across solver iterations,
    systems and measurements — the pattern depends on nothing else)."""
    with _JAC_LOCK:
        struct = _JAC_STRUCTURES.get(n)
        if struct is not None:
            _JAC_STATS.hits += 1
            return struct
    start = time.perf_counter()
    struct = _build_jac_structure(n)
    elapsed = time.perf_counter() - start
    with _JAC_LOCK:
        raced = _JAC_STRUCTURES.get(n)
        if raced is not None:  # pragma: no cover - build race
            _JAC_STATS.hits += 1
            return raced
        _JAC_STRUCTURES[n] = struct
        _JAC_STATS.misses += 1
        _JAC_STATS.entries = len(_JAC_STRUCTURES)
        _JAC_STATS.bytes_resident += struct.nbytes()
        _JAC_STATS.build_seconds += elapsed
    return struct


def jacobian_cache_stats() -> JacobianCacheStats:
    """Snapshot of the structure-cache counters for this process."""
    with _JAC_LOCK:
        return _JAC_STATS.snapshot()


def clear_jacobian_cache() -> None:
    """Drop cached structures and reset the counters (tests)."""
    with _JAC_LOCK:
        _JAC_STRUCTURES.clear()
        _OTHERS_TABLES.clear()
        _JAC_STATS.entries = 0
        _JAC_STATS.hits = 0
        _JAC_STATS.misses = 0
        _JAC_STATS.bytes_resident = 0
        _JAC_STATS.build_seconds = 0.0


# -- the joint solver --------------------------------------------------------


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
    O(n^4) nonzeros.  ``observer`` is accepted like every solver's and
    ignored; this path records no solver metrics.
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
