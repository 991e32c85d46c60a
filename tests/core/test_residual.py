"""Tests for the global joint-system residual and sparse Jacobian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import total_equations, total_unknowns
from repro.kirchhoff.forward import solve_all_drives
from repro.mea.wetlab import quick_device_data
from tests.oracles.joint_system import JointSystem
from tests.oracles.residual_reference import jacobian_reference


def ground_truth_state(n, seed=3):
    r, z = quick_device_data(n, seed=seed)
    system = JointSystem(n=n, z=z, voltage=5.0)
    ua = np.empty((n * n, n - 1))
    ub = np.empty((n * n, n - 1))
    for sol in solve_all_drives(r, voltage=5.0):
        p = sol.row * n + sol.col
        ua[p] = sol.ua()
        ub[p] = sol.ub()
    return system, system.pack(r, ua, ub), r


class TestLayout:
    def test_sizes_match_paper_formulas(self):
        system = JointSystem(n=6, z=np.full((6, 6), 500.0), voltage=5.0)
        assert system.num_residuals == total_equations(6)
        assert system.num_unknowns == total_unknowns(6)

    def test_pack_unpack_roundtrip(self):
        system, x, r = ground_truth_state(4)
        r2, ua2, ub2 = system.unpack(x)
        np.testing.assert_allclose(r2, r)
        x2 = system.pack(r2, ua2, ub2)
        np.testing.assert_allclose(x, x2)

    def test_pack_shape_validation(self):
        system = JointSystem(n=3, z=np.full((3, 3), 500.0), voltage=5.0)
        with pytest.raises(ValueError):
            system.pack(np.ones((2, 2)), np.ones((9, 2)), np.ones((9, 2)))

    def test_unpack_length_validation(self):
        system = JointSystem(n=3, z=np.full((3, 3), 500.0), voltage=5.0)
        with pytest.raises(ValueError):
            system.unpack(np.zeros(7))

    def test_z_validation(self):
        with pytest.raises(ValueError):
            JointSystem(n=3, z=np.full((3, 4), 500.0), voltage=5.0)
        with pytest.raises(ValueError):
            JointSystem(n=3, z=-np.ones((3, 3)), voltage=5.0)

    def test_index_spaces_disjoint(self):
        system = JointSystem(n=4, z=np.full((4, 4), 500.0), voltage=5.0)
        pairs = np.arange(16)
        kp = np.zeros(16, dtype=int)
        theta_max = system.theta_index(np.array([3]), np.array([3]))[0]
        ua_min = system.ua_index(pairs, kp).min()
        ua_max = system.ua_index(pairs, kp + 2).max()
        ub_min = system.ub_index(pairs, kp).min()
        assert theta_max < ua_min
        assert ua_max < ub_min
        assert system.ub_index(pairs, kp + 2).max() == system.num_unknowns - 1


class TestResidual:
    @given(st.integers(2, 6), st.integers(0, 50))
    @settings(max_examples=12, deadline=None)
    def test_zero_at_ground_truth(self, n, seed):
        system, x, _ = ground_truth_state(n, seed=seed)
        res = system.residual(x)
        assert res.shape == (system.num_residuals,)
        assert np.max(np.abs(res)) < 1e-9

    def test_residual_matches_pair_blocks(self):
        """Global residual agrees with per-pair PairBlock residuals."""
        from repro.core.equations import form_pair_block

        n = 4
        system, x, r = ground_truth_state(n, seed=9)
        rng = np.random.default_rng(1)
        x_perturbed = x * (1 + 0.05 * rng.standard_normal(x.shape))
        res = system.residual(x_perturbed)
        r_p, ua_p, ub_p = system.unpack(x_perturbed)
        for pair in (0, 5, 15):
            i, j = divmod(pair, n)
            blk = form_pair_block(n, i, j, z=system.z[i, j], voltage=5.0)
            blk_res = blk.residuals(r_p, ua_p[pair], ub_p[pair])
            scale = system.z[i, j] / 5.0
            lo = 2 * n * pair
            np.testing.assert_allclose(
                res[lo : lo + 2 * n], blk_res * scale, rtol=1e-9, atol=1e-12
            )

    def test_nonzero_when_perturbed(self):
        system, x, _ = ground_truth_state(3)
        x2 = x.copy()
        x2[0] += 0.3  # bump one theta
        assert np.max(np.abs(system.residual(x2))) > 1e-3


class TestJacobian:
    @given(st.integers(2, 5), st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_matches_finite_differences(self, n, seed):
        system, x, _ = ground_truth_state(n, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = x * (1 + 0.02 * rng.standard_normal(x.shape))
        jac = system.jacobian(x0).toarray()
        f0 = system.residual(x0)
        eps = 1e-7
        cols = rng.choice(len(x0), min(20, len(x0)), replace=False)
        for c in cols:
            xp = x0.copy()
            xp[c] += eps
            fd = (system.residual(xp) - f0) / eps
            np.testing.assert_allclose(jac[:, c], fd, atol=5e-5, rtol=5e-4)

    def test_sparsity(self):
        system, x, _ = ground_truth_state(5)
        jac = system.jacobian(x)
        assert jac.shape == (system.num_residuals, system.num_unknowns)
        # Per pair at most ~6 n^2 nonzeros; density is O(1/n^2).
        density = jac.nnz / (jac.shape[0] * jac.shape[1])
        assert density < 0.1

    def test_initial_state_is_feasible(self):
        n = 4
        _, z = quick_device_data(n, seed=5)
        system = JointSystem(n=n, z=z, voltage=5.0)
        x0 = system.initial_state()
        res = system.residual(x0)
        # Voltages consistent with R0: the only residual sources are
        # the SOURCE/DEST drive mismatches, bounded by the Z misfit.
        assert np.isfinite(res).all()
        r0, ua0, ub0 = system.unpack(x0)
        assert np.all(r0 > 0)
        interior = np.abs(res[np.arange(len(res)) % (2 * n) >= 2])
        assert np.max(interior) < 1e-9


class TestJacobianStructureCache:
    def test_cached_equals_reference_across_value_updates(self):
        from tests.oracles.joint_system import clear_jacobian_cache

        clear_jacobian_cache()
        for n in (2, 3, 5):
            system, x, _ = ground_truth_state(n, seed=n)
            rng = np.random.default_rng(n)
            # Several value-only updates against the one cached pattern.
            for trial in range(4):
                xt = x * (1 + 0.05 * rng.standard_normal(x.shape))
                cached = system.jacobian(xt)
                ref = jacobian_reference(system, xt)
                assert cached.shape == ref.shape
                diff = (cached - ref).toarray()
                scale = max(1.0, np.abs(ref.toarray()).max())
                assert np.max(np.abs(diff)) <= 1e-12 * scale

    def test_pattern_is_identical_to_reference(self):
        system, x, _ = ground_truth_state(4, seed=2)
        cached = system.jacobian(x)
        ref = jacobian_reference(system, x).tocsr()
        ref.sum_duplicates()
        ref.sort_indices()
        np.testing.assert_array_equal(cached.indptr, ref.indptr)
        np.testing.assert_array_equal(cached.indices, ref.indices)

    def test_structure_cached_once_per_n(self):
        from tests.oracles.joint_system import (
            clear_jacobian_cache,
            jacobian_cache_stats,
        )

        clear_jacobian_cache()
        system, x, _ = ground_truth_state(3, seed=1)
        system.jacobian(x)
        system.jacobian(x * 1.01)
        stats = jacobian_cache_stats()
        assert stats.entries == 1
        assert stats.misses == 1
        assert stats.hits >= 1
        assert stats.bytes_resident > 0
