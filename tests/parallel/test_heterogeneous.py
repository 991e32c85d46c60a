"""Tests for heterogeneous-cluster scheduling (paper §VII extension)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel.heterogeneous import (
    HeterogeneousCluster,
    blind_schedule_speeds,
    ideal_heterogeneous_time,
    lpt_schedule_speeds,
)
from repro.parallel.simcluster import HPC_FDR
from repro.parallel.workstealing import lpt_schedule

cost_lists = st.lists(st.floats(0.1, 50.0), min_size=1, max_size=50)
#: Instances small enough to find the optimal makespan by trying every
#: assignment (at most 6**7 of them).
small_cost_lists = st.lists(st.floats(0.1, 50.0), min_size=1, max_size=7)


def optimal_makespan(costs, speeds) -> float:
    """Exact optimum over every job-to-worker assignment."""
    costs = np.asarray(costs, dtype=np.float64)
    speeds = np.asarray(speeds, dtype=np.float64)
    jobs, workers = len(costs), len(speeds)
    codes = np.arange(workers**jobs)[:, None]
    worker_of = codes // workers ** np.arange(jobs) % workers
    loads = np.stack(
        [((worker_of == w) * costs).sum(axis=1) for w in range(workers)]
    )
    return float((loads / speeds[:, None]).max(axis=0).min())


class TestSpeedAwareLPT:
    def test_reduces_to_plain_lpt_for_uniform_speeds(self):
        costs = [5.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        aware = lpt_schedule_speeds(costs, [1.0, 1.0])
        plain = lpt_schedule(costs, 2)
        assert aware.makespan == pytest.approx(plain.makespan)
        np.testing.assert_array_equal(aware.worker_of, plain.worker_of)

    def test_fast_worker_gets_more_work(self):
        costs = [1.0] * 30
        aware = lpt_schedule_speeds(costs, [1.0, 3.0])
        counts = np.bincount(aware.worker_of, minlength=2)
        assert counts[1] > 2 * counts[0]

    def test_loads_are_wall_clock(self):
        aware = lpt_schedule_speeds([4.0], [2.0])
        assert aware.loads[0] == pytest.approx(2.0)  # 4 units at 2x

    @given(cost_lists, st.lists(st.floats(0.5, 4.0), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_never_below_ideal_bound(self, costs, speeds):
        aware = lpt_schedule_speeds(costs, speeds)
        ideal = ideal_heterogeneous_time(costs, speeds)
        assert aware.makespan >= ideal - 1e-9

    @given(
        small_cost_lists, st.lists(st.floats(0.5, 4.0), min_size=2, max_size=6)
    )
    @example(costs=[1.0, 1.0, 1.0], speeds=[1.5, 0.5, 0.5, 0.5, 0.5])
    @settings(max_examples=40, deadline=None)
    def test_aware_within_2x_of_optimal(self, costs, speeds):
        """Gonzalez–Ibarra–Sahni: LPT on uniform machines <= 2 OPT.

        OPT is found exactly, by trying every assignment: a lower bound
        in its place is not a bound on LPT (the ``@example`` is optimal
        at 2.0, against an ideal bound of 0.857).  (Aware is NOT always
        <= blind pointwise — hypothesis found costs [2,2,3] / speeds
        [3,4] where blind wins 1.0 vs 1.25 — the guarantee is against
        OPT, and the *systematic* gain on skewed clusters is asserted
        separately below.)
        """
        aware = lpt_schedule_speeds(costs, speeds)
        assert aware.makespan <= 2.0 * optimal_makespan(costs, speeds) + 1e-9

    def test_optimal_makespan_is_exact(self):
        assert optimal_makespan([1.0, 1.0, 1.0], [1.5, 1.0]) == pytest.approx(
            4.0 / 3.0
        )
        assert optimal_makespan([3.0, 2.0, 2.0], [1.0, 1.0]) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lpt_schedule_speeds([1.0], [])
        with pytest.raises(ValueError):
            lpt_schedule_speeds([1.0], [0.0])
        with pytest.raises(ValueError):
            lpt_schedule_speeds([-1.0], [1.0])

    def test_deterministic(self):
        costs = list(np.random.default_rng(0).uniform(1, 10, 20))
        a = lpt_schedule_speeds(costs, [1.0, 2.0, 1.5])
        b = lpt_schedule_speeds(costs, [1.0, 2.0, 1.5])
        np.testing.assert_array_equal(a.worker_of, b.worker_of)


class TestHeterogeneousCluster:
    def cluster(self):
        return HeterogeneousCluster(
            classes={"old": (8, 1.0), "new": (8, 2.0)},
            model=HPC_FDR,
        )

    def test_rank_accounting(self):
        c = self.cluster()
        assert c.num_ranks == 16
        assert c.total_speed() == pytest.approx(24.0)
        assert len(c.speeds()) == 16

    def test_simulate_totals(self):
        c = self.cluster()
        costs = np.full(400, 1e-2)
        point = c.simulate(costs)
        assert point.total > point.compute_time
        # Close to the ideal work/total-speed bound.
        ideal = ideal_heterogeneous_time(
            costs * (1 - HPC_FDR.serial_fraction), c.speeds()
        )
        assert point.compute_time < 1.3 * ideal

    def test_awareness_gain_with_skewed_classes(self):
        c = HeterogeneousCluster(
            classes={"slow": (4, 1.0), "fast": (4, 4.0)},
            model=HPC_FDR,
        )
        costs = np.full(64, 1.0)
        gain = c.awareness_gain(costs)
        assert gain > 1.2  # blind scheduling wastes the fast nodes

    def test_uniform_cluster_has_no_gain(self):
        c = HeterogeneousCluster(
            classes={"only": (8, 1.0)}, model=HPC_FDR
        )
        assert c.awareness_gain(np.full(64, 1.0)) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousCluster(classes={}, model=HPC_FDR)
        with pytest.raises(ValueError):
            HeterogeneousCluster(classes={"x": (0, 1.0)}, model=HPC_FDR)
        with pytest.raises(ValueError):
            HeterogeneousCluster(classes={"x": (2, -1.0)}, model=HPC_FDR)
