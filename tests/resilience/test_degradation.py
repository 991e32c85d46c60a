"""The solver degradation ladder engages in order and reports its rung."""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.core.solver import (
    BOUNDED_SPREAD,
    SolveResult,
    solve_bounded,
    uniform_log_field,
)
from repro.kirchhoff import forward
from repro.mea.dataset import Measurement
from repro.mea.wetlab import quick_device_data
from repro.resilience.degrade import (
    LADDER_RUNGS,
    SolverDegradationError,
    _acceptable,
    solve_with_degradation,
)
from repro.resilience.faults import FaultInjector, FaultPlan


@pytest.fixture(scope="module")
def z6():
    _, z = quick_device_data(6, seed=5)
    return z


class TestLadderOrder:
    def test_clean_solve_uses_primary(self, z6):
        result, report = solve_with_degradation(z6)
        assert report.rung_used == "primary"
        assert not report.degraded
        assert result.converged

    def test_each_injected_failure_steps_down_in_order(self, z6):
        # Fail a growing prefix of rungs; the ladder must land on the
        # next rung each time, in the documented order.
        r0 = np.full_like(z6, 5.0)
        ladder = list(LADDER_RUNGS)
        for depth in range(1, len(ladder)):
            faults = FaultInjector(FaultPlan(fail_rungs=tuple(ladder[:depth])))
            result, report = solve_with_degradation(
                z6, solver_kwargs={"r0": r0}, faults=faults
            )
            assert report.rung_used == ladder[depth]
            assert report.rungs_tried == tuple(ladder[: depth + 1])
            assert report.degraded
            assert np.all(np.isfinite(result.r_estimate))

    def test_all_rungs_failing_raises_with_full_path(self, z6):
        faults = FaultInjector(FaultPlan(fail_rungs=LADDER_RUNGS))
        with pytest.raises(SolverDegradationError) as err:
            solve_with_degradation(
                z6, solver_kwargs={"r0": np.full_like(z6, 5.0)}, faults=faults
            )
        assert err.value.report.exhausted
        assert err.value.report.rungs_tried == LADDER_RUNGS

    def test_cold_start_rung_only_with_warm_start(self, z6):
        faults = FaultInjector(FaultPlan(fail_rungs=("primary",)))
        _, report = solve_with_degradation(z6, faults=faults)
        assert "cold-start" not in report.rungs_tried
        assert report.rung_used == "regularized"

    def test_poisoned_warm_start_recovers(self, z6):
        # A NaN warm start makes the primary rung blow up numerically;
        # the cold-start rung discards it and succeeds.
        poisoned = np.full_like(z6, np.nan)
        result, report = solve_with_degradation(
            z6, solver_kwargs={"r0": poisoned}
        )
        assert report.rung_used != "primary"
        assert np.all(np.isfinite(result.r_estimate))

    def test_config_errors_propagate(self, z6):
        with pytest.raises(ValueError, match="unknown"):
            solve_with_degradation(z6, method="does-not-exist")


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
class TestDivergedPrimary:
    """An unconverged primary whose field ran off steps down the ladder."""

    @pytest.fixture(scope="class")
    def rough(self):
        # Lognormal σ = 2 around 5 MΩ on 20×20: Gauss–Newton from the
        # uniform start stalls unconverged with R ~ 1e240 kΩ.
        rng = np.random.default_rng(1)
        r_true = np.exp(rng.normal(np.log(5000.0), 2.0, (20, 20)))
        z = forward.measure(r_true)
        return z, ParmaEngine(strategy="single").parametrize(Measurement(z_kohm=z))

    def test_primary_rejected_as_outside_physical_range(self, rough):
        _, result = rough
        report = result.degradation
        assert report.rungs_tried[0] == "primary"
        assert report.reasons[0] == "unconverged field outside the physical range"
        assert report.rung_used != "primary"

    def test_not_reported_ok(self, rough):
        # `parma solve` and the serve runner report `ok` only for an
        # undegraded result.
        z, result = rough
        assert result.degradation.degraded
        spread = np.max(np.abs(np.log(result.resistance) - uniform_log_field(z)))
        assert result.solve.converged or spread <= BOUNDED_SPREAD

    def test_unconverged_field_on_the_box_edge_is_accepted(self):
        z = np.full((4, 4), 3000.0)
        edge = SolveResult(
            r_estimate=np.full((4, 4), np.exp(uniform_log_field(z) + BOUNDED_SPREAD)),
            method="bounded",
            iterations=1,
            residual_norm=1.0,
            elapsed_seconds=0.0,
            converged=False,
        )
        assert _acceptable(edge, z) == ""
        beyond = dataclasses.replace(edge, r_estimate=edge.r_estimate * 1.01)
        assert _acceptable(beyond, z) == "unconverged field outside the physical range"


class TestBoundedSolver:
    def test_bounded_always_finite(self, z6):
        result = solve_bounded(z6)
        assert result.method == "bounded"
        assert np.all(np.isfinite(result.r_estimate))
        assert np.all(result.r_estimate > 0)


class TestRungVisibility:
    def test_rung_in_result_summary(self, z6):
        engine = ParmaEngine(
            strategy="single",
            faults=FaultPlan(fail_rungs=("primary", "regularized")),
        )
        from repro.mea.dataset import Measurement

        result = engine.parametrize(Measurement(z_kohm=z6))
        assert result.degradation is not None
        assert result.degradation.rung_used == "bounded"
        assert "rung=bounded" in result.summary()

    def test_clean_summary_reports_primary(self, z6):
        from repro.mea.dataset import Measurement

        result = ParmaEngine(strategy="single").parametrize(
            Measurement(z_kohm=z6)
        )
        assert "rung=primary" in result.summary()

    def test_ladder_in_parma_info(self, capsys):
        from repro.cli import main

        assert main(["info", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "degradation ladder" in out
        assert "primary -> cold-start -> regularized -> bounded" in out

    def test_ladder_table_renders_rung(self, z6):
        from repro.instrument.report import ladder_table
        from repro.mea.dataset import Measurement

        engine = ParmaEngine(
            strategy="single", faults=FaultPlan(fail_rungs=("primary",))
        )
        result = engine.parametrize(Measurement(z_kohm=z6))
        rendered = ladder_table([result]).render()
        assert "regularized" in rendered
