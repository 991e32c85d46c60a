"""Bit-parity of the solver's single kernel path, and its knobs.

The blocked assembly in :mod:`repro.core.solver` must reproduce the
historical full-broadcast Jacobian (:mod:`tests.oracles.solver_reference`)
exactly, so the parity tests assert array equality and identical
iteration counts, not tolerances.  There is one solve path: no
``backend`` knob and no numba dependency, which the last two classes
pin down (stale ``backend`` keywords fail loudly in Python and are
ignored on the wire; nothing imports numba).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import solver
from repro.core.regularized import solve_regularized
from repro.core.solver import (
    nested_jacobian,
    solve,
    solve_bounded,
    solve_nested,
)
from repro.kirchhoff import forward
from tests.oracles.solver_reference import nested_jacobian_reference

_SRC = Path(__file__).resolve().parents[2] / "src"
_METHODS = ("nested", "regularized", "bounded")


def _field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(np.log(8.0), 0.35, (n, n)))


@pytest.fixture
def no_numba(monkeypatch):
    """Make ``import numba`` fail, whatever the machine has installed."""
    monkeypatch.setitem(sys.modules, "numba", None)


class TestKnobValidation:
    """``method`` is the solver's one knob; ``backend`` is gone."""

    def test_accepts_known_modes(self):
        z = forward.measure(_field(4, 0))
        for method in _METHODS:
            result = solve(z, method=method)
            assert result.method == method
            assert np.all(np.isfinite(result.r_estimate))

    def test_rejects_unknown_mode(self):
        z = forward.measure(_field(4, 0))
        with pytest.raises(ValueError, match="method"):
            solve(z, method="fortran")

    def test_solve_rejects_unknown_backend(self):
        # ``solve`` forwards **kwargs, so a stale keyword must surface
        # as an error from the solver instead of being dropped.
        z = forward.measure(_field(4, 0))
        with pytest.raises(TypeError, match="backend"):
            solve(z, backend="compiled")

    def test_engine_rejects_unknown_backend(self):
        from repro.core.engine import ParmaEngine

        with pytest.raises(TypeError, match="backend"):
            ParmaEngine(backend="compiled")


class TestBlockedJacobianParity:
    """The blocked kernel must be bit-identical to the historical one."""

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_blocked_matches_reference_exactly(self, n):
        r = _field(n, seed=n)
        assert np.array_equal(nested_jacobian(r), nested_jacobian_reference(r))

    def test_blocked_matches_when_blocks_split_rows(self, monkeypatch):
        # Shrink the block target so even n=6 assembles in many blocks.
        monkeypatch.setattr(solver, "JACOBIAN_BLOCK_TARGET_BYTES", 8 * 6 * 6 * 6)
        r = _field(6, seed=3)
        assert solver._jacobian_row_block(6, 6) == 1
        assert np.array_equal(nested_jacobian(r), nested_jacobian_reference(r))

    def test_fused_row_scaling_matches_two_pass(self):
        r = _field(5, seed=9)
        z = forward.measure(r)
        fused = solver._scaled_jacobian(r, z).dense()
        two_pass = nested_jacobian_reference(r) / z.ravel()[:, None]
        assert np.array_equal(fused, two_pass)

    def test_row_block_bounds(self):
        assert solver._jacobian_row_block(100, 100) >= 1
        # One block must stay under the documented byte target unless
        # even a single row exceeds it.
        block = solver._jacobian_row_block(60, 60)
        assert block * 8 * 60 * 60 * 60 <= solver.JACOBIAN_BLOCK_TARGET_BYTES
        # Tiny devices take the whole matrix in one block.
        assert solver._jacobian_row_block(4, 4) == 4


class TestCompiledBackendParity:
    """The one kernel path every solver shares stays bit-stable.

    These replace the former numpy-vs-compiled parity suite: the
    compiled kernels are gone, so parity is now checked between the
    kernel's entry points, the ``solve`` dispatcher and the direct
    solvers, and cold versus warm factor caches.
    """

    @pytest.mark.parametrize("n", [3, 5])
    def test_jacobian_bit_identical(self, n):
        r = _field(n, seed=n)
        z = forward.measure(r)
        pinv = forward.laplacian_pinv_cached(r)
        reference = nested_jacobian_reference(r)
        assert np.array_equal(
            solver._transfer_squares(pinv, r.shape, r=r), reference
        )
        assert np.array_equal(
            solver._transfer_squares(pinv, r.shape, r=r, z=z),
            solver._scaled_jacobian(r, z).dense(),
        )
        assert np.array_equal(
            solver._scaled_jacobian(r, z).dense(),
            reference / z.ravel()[:, None],
        )

    def test_fused_jtj_grad_close(self):
        """The Levenberg rescue's ``JᵀJ``/``Jᵀr`` matches the plain products.

        On a linear model the rescue's first trial step must be the
        damped normal-equation step built from ``jac.T @ jac`` and
        ``jac.T @ res`` (up to gemm rounding).
        """
        rng = np.random.default_rng(0)
        jac = rng.normal(size=(16, 16))
        res = rng.normal(size=16)
        theta = np.zeros(16)

        def cost_and_res(th):
            new_res = res + jac @ (th - theta)
            return 0.5 * float(new_res @ new_res), new_res, th

        cost = 0.5 * float(res @ res)
        step, new_cost, _, _, new_theta = solver._lm_rescue(
            jac, res, theta, cost, cost_and_res
        )
        jtj = jac.T @ jac
        damped = jtj + 1e-4 * np.diag(np.diag(jtj)) + 1e-300 * np.eye(16)
        expected = np.linalg.solve(damped, -(jac.T @ res))
        np.testing.assert_allclose(step, expected, rtol=1e-10, atol=1e-12)
        assert new_cost < cost
        assert np.array_equal(new_theta, theta + step)

    @pytest.mark.parametrize("method", ["nested", "regularized", "bounded"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_solve_parity_across_methods(self, method, n):
        """The dispatcher is bit-identical to the direct solver call."""
        r_true = _field(n, seed=10 + n)
        z = forward.measure(r_true)
        kwargs = {"lam": 1e-3} if method == "regularized" else {}
        direct = {
            "nested": solve_nested,
            "regularized": solve_regularized,
            "bounded": solve_bounded,
        }[method]
        a = direct(z, **kwargs)
        b = solve(z, method=method, **kwargs)
        assert a.method == b.method == method
        assert a.iterations == b.iterations
        assert np.array_equal(a.r_estimate, b.r_estimate)

    def test_solve_parity_with_warm_cache(self):
        """Results are identical whether or not the factor cache is warm."""
        r_true = _field(5, seed=21)
        z = forward.measure(r_true)
        forward.clear_laplacian_cache()
        cold = solve_nested(z)
        warm = solve_nested(z)
        forward.clear_laplacian_cache()
        baseline = solve_nested(z)
        for result in (cold, warm):
            assert result.iterations == baseline.iterations
            assert np.array_equal(result.r_estimate, baseline.r_estimate)


class TestNumbaFallback:
    """The solve path runs, quietly, with numba unimportable."""

    def test_solve_compiled_without_numba_is_not_an_error(
        self, no_numba, tmp_path
    ):
        """An old client's ``"backend": "compiled"`` frame is served ok."""
        from repro.serve.protocol import STATUS_OK, Request
        from repro.serve.runner import RequestRunner

        z = forward.measure(_field(4, seed=2)).tolist()
        runner = RequestRunner(tmp_path)
        fields = []
        for extra in ({"backend": "compiled"}, {}):
            request = Request.from_dict(
                {"kind": "solve", "z": z, "id": f"r{len(fields)}", **extra}
            )
            assert "backend" not in request.to_dict()
            response = runner.run(
                request, batch_size=1, warm=False, queue_seconds=0.0
            )
            assert response.status == STATUS_OK, response.error
            fields.append(np.asarray(response.resistance))
        assert np.array_equal(fields[0], fields[1])

    def test_import_error_is_cached_and_quiet(self):
        """Importing every solve-path module never asks for numba."""
        probe = (
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numba':\n"
            "            raise AssertionError('numba import attempted')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import repro.cli, repro.core.engine, repro.core.solver\n"
            "import repro.serve.runner, repro.resilience.degrade\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(_SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_numpy_backend_never_touches_numba(self, no_numba):
        z = forward.measure(_field(4, seed=5))
        result = solve_nested(z)
        assert result.converged and result.method == "nested"
        assert sys.modules["numba"] is None
