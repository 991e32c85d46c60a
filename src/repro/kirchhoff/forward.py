"""Exact forward solver for crossbar MEAs (the ground-truth oracle).

Electrically, an ``m x n`` crossbar with ideal wires collapses to a
graph with one node per wire and one conductance ``G_ij = 1/R_ij`` per
crossing (see :func:`repro.mea.graph.wire_graph`).  Everything the
device can measure is then classical linear circuit theory:

* the measured pairwise resistance ``Z_ij`` is the *effective
  resistance* between nodes ``H_i`` and ``V_j``, computed from the
  pseudo-inverse of the weighted graph Laplacian:
  ``Z_ij = L+_ii + L+_jj - 2 L+_ij``;
* the internal wire voltages for a drive ``U_ij`` across ``(H_i, V_j)``
  come from the same solve, and are exactly the paper's ``Ua``/``Ub``
  unknowns (§IV-A).

This module is the *forward* direction (R -> Z); Parma inverts it.
Because the collapsed graph has only ``m + n`` nodes (≤ 200 for the
paper's largest device), a dense symmetric solve is both exact and
cheap; a sparse path is provided for very wide devices.

The linear algebra is organised around one object per resistance
field: a :class:`LaplacianFactor` — the Cholesky factorisation of the
rank-repaired Laplacian ``A = L + J/N``.  Every consumer draws from
it:

* drive solves are multi-RHS triangular back-substitutions against the
  shared factor (``A⁻¹ b = L⁺ b`` *exactly* for any zero-sum ``b``, so
  no shift correction is needed for pair drives);
* the dense pseudo-inverse — needed only by the solver's analytic
  Jacobian — is materialised lazily from the same factor and memoised
  on it, so forward-only workloads never pay for it.

Factors live in a small process-wide LRU keyed on the field bytes
(:func:`laplacian_factor_cached`); hit/miss/materialisation counters
are exported through :func:`laplacian_cache_stats` into
``repro.observe`` dashboards.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.utils.validation import require_positive, require_positive_array


def crossbar_laplacian(resistance: np.ndarray) -> np.ndarray:
    """Weighted Laplacian of the collapsed wire graph.

    ``resistance`` is the ``(m, n)`` array of ``R_ij`` (any consistent
    unit).  Node order: ``H_0..H_{m-1}, V_0..V_{n-1}``.  The Laplacian
    has the block form ``[[diag(Gr), -G], [-G^T, diag(Gc)]]`` with
    ``G = 1/R`` — assembled fully vectorised.
    """
    r = require_positive_array(resistance, "resistance")
    m, n = r.shape
    g = 1.0 / r
    lap = np.zeros((m + n, m + n), dtype=np.float64)
    lap[:m, m:] = -g
    lap[m:, :m] = -g.T
    lap[np.arange(m), np.arange(m)] = g.sum(axis=1)
    lap[np.arange(m, m + n), np.arange(m, m + n)] = g.sum(axis=0)
    return lap


def effective_resistance_matrix(resistance: np.ndarray) -> np.ndarray:
    """All ``m * n`` pairwise measured resistances ``Z`` in one solve.

    Uses the Moore–Penrose pseudo-inverse of the Laplacian; with
    ``P = L^+``, ``Z_ij = P[H_i, H_i] + P[V_j, V_j] - 2 P[H_i, V_j]``,
    evaluated for every pair with broadcasting (no Python loops).  The
    pseudo-inverse comes from the process-wide factorisation cache, so
    repeated evaluations at the same field (e.g. residual + Jacobian
    within one solver iteration, or warm-started consecutive campaign
    timepoints) factorise only once.
    """
    r = np.asarray(resistance, dtype=np.float64)
    m, n = r.shape
    pinv = laplacian_pinv_cached(r)
    dh = np.diag(pinv)[:m]
    dv = np.diag(pinv)[m:]
    cross = pinv[:m, m:]
    return dh[:, None] + dv[None, :] - 2.0 * cross


class LaplacianFactor:
    """Cholesky factorisation of the rank-repaired Laplacian.

    A connected-graph Laplacian has the all-ones null vector; the
    shifted matrix ``A = L + J/N`` (``J`` all-ones, ``N`` nodes) is
    symmetric positive definite and satisfies ``A⁻¹ = L⁺ + J/N``.  Two
    consequences this class exploits:

    * for any *zero-sum* right-hand side ``b`` (every pair drive
      ``e_i - e_{m+j}`` is one), ``A⁻¹ b = L⁺ b`` **exactly** — drive
      solves are plain ``cho_solve`` calls with no shift correction;
    * the dense pseudo-inverse is ``A⁻¹ - J/N``, recoverable from the
      factor on demand.  It is materialised lazily (first access to
      :attr:`pinv`) and memoised, so forward-only consumers never pay
      the O(N³) inverse or its O(N²) residency.
    """

    __slots__ = (
        "shape", "shift", "_cho", "_shifted", "_pinv", "_pinv_lock",
        "_in_cache",
    )

    def __init__(self, lap: np.ndarray) -> None:
        nnodes = lap.shape[0]
        self.shape = (nnodes, nnodes)
        self.shift = 1.0 / nnodes
        shifted = lap + self.shift
        self._cho = scipy.linalg.cho_factor(
            shifted, lower=False, check_finite=False
        )
        self._cho[0].setflags(write=False)
        # Kept until the pinv is materialised: the dense inverse is
        # computed from the shifted matrix with the exact historical
        # expression so measured Z values stay bit-identical across
        # the factorisation rewrite (downstream convergence verdicts
        # sit on razor-edge tolerances).
        self._shifted: np.ndarray | None = shifted
        self._pinv: np.ndarray | None = None
        self._pinv_lock = threading.Lock()
        self._in_cache = False

    @property
    def nbytes(self) -> int:
        """Resident bytes: factor, shifted matrix until the pinv
        replaces it, and the pinv once materialised."""
        total = self._cho[0].nbytes
        shifted = self._shifted
        if shifted is not None:
            total += shifted.nbytes
        pinv = self._pinv
        if pinv is not None:
            total += pinv.nbytes
        return total

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A⁻¹ rhs`` (multi-RHS); equals ``L⁺ rhs`` for zero-sum columns."""
        return scipy.linalg.cho_solve(self._cho, rhs, check_finite=False)

    @property
    def pinv(self) -> np.ndarray:
        """The dense ``L⁺``, materialised on first access (read-only)."""
        pinv = self._pinv
        if pinv is None:
            with self._pinv_lock:
                pinv = self._pinv
                if pinv is None:
                    shifted = self._shifted
                    # inv(A) - J/N, the historical expression: LU-based
                    # inv keeps the materialised pinv (and everything
                    # measured through it) bit-identical to the
                    # pre-factorisation implementation.
                    pinv = scipy.linalg.inv(shifted, overwrite_a=False)
                    pinv -= self.shift
                    pinv.setflags(write=False)
                    self._pinv = pinv
                    self._shifted = None  # pinv supersedes it
                    with _PINV_LOCK:
                        _PINV_STATS.pinv_materializations += 1
                        if self._in_cache:
                            _PINV_STATS.bytes_resident += (
                                pinv.nbytes - shifted.nbytes
                            )
        return pinv


def _laplacian_pinv(lap: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a connected-graph Laplacian (uncached path).

    Exploits the known one-dimensional null space (the all-ones
    vector): ``L^+ = (L + J/N)^{-1} - J/N`` with ``J`` the all-ones
    matrix.  The shifted matrix is symmetric positive definite, so the
    inverse comes from a Cholesky factorisation — faster and better
    conditioned than a generic SVD ``pinv`` or an LU inverse.
    """
    return LaplacianFactor(lap).pinv


# -- factorisation cache ------------------------------------------------------


@dataclass
class LaplacianCacheStats:
    """Observable counters of the Laplacian-factorisation cache.

    ``pinv_materializations`` counts lazy dense-pinv builds: forward
    drive solves use only the triangular factor, so this stays at one
    per *solver-visited* field (the Jacobian's consumer) and at zero
    for pure measurement workloads.
    """

    name: str = "laplacian-pinv"
    entries: int = 0
    hits: int = 0
    misses: int = 0
    bytes_resident: int = 0
    build_seconds: float = 0.0
    pinv_materializations: int = 0

    def snapshot(self) -> "LaplacianCacheStats":
        return LaplacianCacheStats(
            name=self.name,
            entries=self.entries,
            hits=self.hits,
            misses=self.misses,
            bytes_resident=self.bytes_resident,
            build_seconds=self.build_seconds,
            pinv_materializations=self.pinv_materializations,
        )


_PINV_LOCK = threading.Lock()
_PINV_CACHE: "OrderedDict[tuple, LaplacianFactor]" = OrderedDict()
_PINV_MAXSIZE = 8
_PINV_STATS = LaplacianCacheStats()


def laplacian_factor_cached(resistance: np.ndarray) -> LaplacianFactor:
    """The :class:`LaplacianFactor` for a field, memoised on its bytes.

    A small LRU (size 8): the solvers evaluate residual and Jacobian
    at the *same* field within an iteration, and warm-started campaign
    timepoints start exactly where the previous solve ended, so one
    factorisation serves several O(n^3) consumers.
    """
    r = np.ascontiguousarray(resistance, dtype=np.float64)
    key = (r.shape, hashlib.blake2b(r.tobytes(), digest_size=16).digest())
    with _PINV_LOCK:
        factor = _PINV_CACHE.get(key)
        if factor is not None:
            _PINV_CACHE.move_to_end(key)
            _PINV_STATS.hits += 1
            return factor
    start = time.perf_counter()
    factor = LaplacianFactor(crossbar_laplacian(r))
    elapsed = time.perf_counter() - start
    with _PINV_LOCK:
        if key not in _PINV_CACHE:
            _PINV_CACHE[key] = factor
            factor._in_cache = True
            _PINV_STATS.bytes_resident += factor.nbytes
            while len(_PINV_CACHE) > _PINV_MAXSIZE:
                _, evicted = _PINV_CACHE.popitem(last=False)
                evicted._in_cache = False
                _PINV_STATS.bytes_resident -= evicted.nbytes
        _PINV_STATS.misses += 1
        _PINV_STATS.entries = len(_PINV_CACHE)
        _PINV_STATS.build_seconds += elapsed
        return _PINV_CACHE[key]


def laplacian_pinv_cached(resistance: np.ndarray) -> np.ndarray:
    """``L^+`` of the crossbar Laplacian, memoised on the field bytes.

    Draws from the same cache as :func:`laplacian_factor_cached`; the
    dense pinv is materialised lazily on the cached factor, so callers
    that only need drive solves never trigger it.  The returned array
    is read-only and must not be mutated.
    """
    return laplacian_factor_cached(resistance).pinv


def laplacian_cache_stats() -> LaplacianCacheStats:
    """Snapshot of the factorisation-cache counters for this process."""
    with _PINV_LOCK:
        return _PINV_STATS.snapshot()


def clear_laplacian_cache() -> None:
    """Drop cached factorisations and reset the counters (tests)."""
    with _PINV_LOCK:
        _PINV_CACHE.clear()
        _PINV_STATS.entries = 0
        _PINV_STATS.hits = 0
        _PINV_STATS.misses = 0
        _PINV_STATS.bytes_resident = 0
        _PINV_STATS.build_seconds = 0.0
        _PINV_STATS.pinv_materializations = 0


@dataclass(frozen=True)
class DriveSolution:
    """Internal state for one driven endpoint pair.

    Voltages follow the paper's convention for pair ``(i, j)``: the
    driven vertical wire is ground (``V_j = 0``) and the driven
    horizontal wire sits at ``U_ij = voltage``.

    Attributes
    ----------
    h_voltages, v_voltages:
        Potentials of every horizontal / vertical wire (length m / n).
    total_current:
        Current delivered by the source.
    z:
        Measured resistance ``voltage / total_current``.
    """

    row: int
    col: int
    voltage: float
    h_voltages: np.ndarray
    v_voltages: np.ndarray
    total_current: float

    @property
    def z(self) -> float:
        return self.voltage / self.total_current

    def ua(self) -> np.ndarray:
        """The paper's ``Ua_{ij k'}``: voltages of vertical wires k != j,
        in k-ascending order (k' = k for k < j, k-1 for k > j)."""
        return np.delete(self.v_voltages, self.col)

    def ub(self) -> np.ndarray:
        """The paper's ``Ub_{ij m'}``: voltages of horizontal wires
        m != i, in m-ascending order."""
        return np.delete(self.h_voltages, self.row)


def _drive_solution_from_potential(
    x: np.ndarray, row: int, col: int, m: int, voltage: float
) -> DriveSolution:
    """Scale and ground one ``L⁺ (e_i - e_{m+j})`` column into a drive.

    ``x`` is the unit-current potential profile; the pair resistance
    is ``x[row] - x[m+col]``, so injecting ``I = U / Z`` and shifting
    the driven vertical wire to ground reproduces the paper's
    Dirichlet convention.  By ``L L⁺ b = b`` (exact on a connected
    graph for zero-sum ``b``), Kirchhoff L1 holds at every node to
    factorisation precision.
    """
    z = float(x[row] - x[m + col])
    total_current = voltage / z
    potentials = (x - x[m + col]) * total_current
    return DriveSolution(
        row=row,
        col=col,
        voltage=voltage,
        h_voltages=np.ascontiguousarray(potentials[:m]),
        v_voltages=np.ascontiguousarray(potentials[m:]),
        total_current=total_current,
    )


def solve_drive(
    resistance: np.ndarray, row: int, col: int, voltage: float = 5.0
) -> DriveSolution:
    """Solve the network with ``voltage`` applied across ``(H_row, V_col)``.

    One triangular back-substitution against the cached
    :class:`LaplacianFactor`: the zero-sum drive ``b = e_row - e_{m+col}``
    satisfies ``A⁻¹ b = L⁺ b`` exactly, so the unit-current potentials
    come straight from ``factor.solve(b)`` and are scaled/grounded to
    the Dirichlet convention.  Kirchhoff L1 holds to factorisation
    precision at every node — the property tests rely on this.
    """
    r = require_positive_array(resistance, "resistance")
    voltage = require_positive(voltage, "voltage")
    m, n = r.shape
    if not (0 <= row < m and 0 <= col < n):
        raise IndexError(f"pair ({row}, {col}) out of range for {m}x{n}")
    factor = laplacian_factor_cached(r)
    b = np.zeros(m + n, dtype=np.float64)
    b[row] = 1.0
    b[m + col] = -1.0
    x = factor.solve(b)
    return _drive_solution_from_potential(x, row, col, m, voltage)


def _batched_drive_solutions(
    resistance: np.ndarray, voltage: float
) -> list[DriveSolution]:
    """Every drive from ONE factorisation and ONE stacked multi-RHS solve."""
    r = require_positive_array(resistance, "resistance")
    voltage = require_positive(voltage, "voltage")
    m, n = r.shape
    factor = laplacian_factor_cached(r)
    pairs_i = np.repeat(np.arange(m), n)
    pairs_j = np.tile(np.arange(n), m)
    cols = np.arange(m * n)
    # rhs[:, k] = e_i - e_{m+j} for pair k = i*n + j (row-major).
    rhs = np.zeros((m + n, m * n), dtype=np.float64)
    rhs[pairs_i, cols] = 1.0
    rhs[m + pairs_j, cols] = -1.0
    x = factor.solve(rhs)
    return [
        _drive_solution_from_potential(x[:, k], int(pairs_i[k]), int(pairs_j[k]), m, voltage)
        for k in cols
    ]


def solve_all_drives(
    resistance: np.ndarray, voltage: float = 5.0
) -> list[DriveSolution]:
    """``solve_drive`` for every endpoint pair (row-major order).

    All ``m * n`` drives share one cached factorisation and one
    stacked multi-RHS back-substitution — no Python loop over pairs
    touches the linear algebra.
    """
    return _batched_drive_solutions(resistance, voltage)


def measure(resistance: np.ndarray, voltage: float = 5.0) -> np.ndarray:
    """The device's measurement: the ``(m, n)`` matrix of ``Z_ij``.

    Equivalent to ``effective_resistance_matrix`` (one global solve);
    ``voltage`` does not affect Z for a linear network but is accepted
    to mirror the physical protocol.
    """
    del voltage  # linear network: Z is drive-independent
    return effective_resistance_matrix(resistance)


def residual_current_at_wires(
    resistance: np.ndarray, sol: DriveSolution
) -> np.ndarray:
    """Kirchhoff-L1 residual (net current) at every wire node.

    Zero (to numerical precision) except at the two driven nodes,
    where it equals ±total_current.  Used by tests as the definition
    of "the solution satisfies Kirchhoff's first law".
    """
    lap = crossbar_laplacian(resistance)
    potentials = np.concatenate([sol.h_voltages, sol.v_voltages])
    return lap @ potentials
