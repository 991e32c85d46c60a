"""ParmaEngine — the library's front door.

Binds together everything §V's prototype does: take a measurement,
recover the resistance field, and localize anomalies.  When an output
directory is given, the §IV-A joint-constraint system is first formed
with the chosen parallelization strategy and persisted there (the
Fig. 9 I/O path); no solver reads the formed equations, so without an
output directory the formation stage does not run at all.

    >>> from repro import ParmaEngine
    >>> from repro.mea import run_campaign, paper_like_spec
    >>> run = run_campaign(paper_like_spec(10, seed=7), seed=7)
    >>> engine = ParmaEngine(strategy="pymp", num_workers=4)
    >>> meas = run.campaign.measurements[0]
    >>> result = engine.parametrize(meas, output_dir="equations")
    >>> result.detection.num_regions
    ...

The engine is stateless between calls (strategies hold no run state),
so one engine can serve a whole campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.anomaly.detect import DetectionResult, detect_anomalies
from repro.core.solver import SolveResult, solve
from repro.core.strategies import FormationReport, make_strategy
from repro.mea.dataset import Measurement, repair_z, validate_z
from repro.observe.observer import as_observer
from repro.resilience.degrade import DegradationReport, solve_with_degradation
from repro.resilience.faults import as_injector
from repro.resilience.retry import RetryPolicy, form_with_recovery
from repro.resilience.supervise import Deadline, Supervisor
from repro.utils import logging as rlog
from repro.utils.timing import Stopwatch

#: Accepted values for :class:`ParmaEngine`'s ``validate`` knob.
VALIDATE_MODES = ("strict", "repair", "off")


@dataclass(frozen=True)
class ParmaResult:
    """Everything one parametrization produced.

    ``degradation`` records the solver-ladder walk when the engine ran
    with degradation enabled (the default); ``events`` lists
    human-readable resilience events — formation retries, fallbacks,
    measurement repairs — that occurred on the way to this result.
    """

    measurement: Measurement
    formation: FormationReport
    solve: SolveResult
    detection: DetectionResult
    laps: dict[str, float]
    degradation: DegradationReport | None = None
    events: tuple[str, ...] = ()

    @property
    def resistance(self) -> np.ndarray:
        return self.solve.r_estimate

    def summary(self) -> str:
        n = self.measurement.z_kohm.shape[0]
        formed = (
            f"formed {self.formation.terms_formed} terms "
            f"({self.formation.strategy}, k={self.formation.num_workers}) "
            f"in {self.laps.get('formation', 0.0):.3f}s"
            if self.formation.terms_formed
            else "no equations formed"
        )
        text = (
            f"Parma {n}x{n}: {formed}; solve "
            f"{self.solve.method} converged={self.solve.converged} in "
            f"{self.laps.get('solve', 0.0):.3f}s; "
            f"{self.detection.num_regions} anomaly region(s)"
        )
        if self.degradation is not None:
            text += f"; rung={self.degradation.rung_used}"
        if self.formation.stalled_ranks:
            text += (
                f"; watchdog killed rank(s) "
                f"{tuple(self.formation.stalled_ranks)}"
            )
        if self.formation.blocks_salvaged or self.formation.blocks_reformed:
            text += (
                f"; salvage: {self.formation.blocks_salvaged} block(s) kept, "
                f"{self.formation.blocks_reformed} re-formed"
            )
        if self.events:
            text += f"; {len(self.events)} resilience event(s)"
        return text


class ParmaEngine:
    """High-level MEA parametrization pipeline.

    Parameters
    ----------
    strategy:
        Formation strategy name: ``"single"``, ``"parallel"``,
        ``"balanced"``, ``"pymp"`` or ``"pymp-dynamic"``.  Formation
        runs only when :meth:`parametrize` persists equations (or
        :meth:`form` is called directly).
    num_workers:
        Region width for the multi-worker strategies (ignored by
        ``single``; forced to 4 by ``parallel``).
    solver:
        ``"nested"`` (recommended) or ``"full"``.
    threshold_sigmas / min_region_size:
        Anomaly-detection knobs (see :mod:`repro.anomaly.detect`).
    degradation:
        When True (default) the solve walks the resilience ladder
        (primary → cold-start → regularized → bounded) instead of
        crashing on numerical failure; the rung used is recorded in
        :attr:`ParmaResult.degradation`.
    validate:
        Boundary policy for raw measurements: ``"strict"`` rejects
        non-finite / non-positive / saturated / non-square Z with an
        error naming the offending channel; ``"repair"`` imputes bad
        sites from healthy neighbours and records the repair as a
        resilience event; ``"off"`` skips the audit.
    faults:
        A :class:`repro.resilience.FaultPlan` (or injector) for chaos
        testing — worker kills, dirty measurements, forced rung
        failures.  None (default) injects nothing.
    retry:
        A :class:`repro.resilience.RetryPolicy` for the formation
        stage.  When set (or when ``faults`` is), formation runs under
        bounded retries with a serial re-dispatch fallback.  Applies
        only when equations are persisted.
    observer:
        A :class:`repro.observe.Observer` receiving spans, metrics and
        resilience events from every stage.  None (default) defers to
        the global observer (:func:`repro.observe.get_observer`),
        which is a zero-overhead no-op unless installed.
    deadline:
        Wall-clock budget in seconds (or a started
        :class:`repro.resilience.supervise.Deadline`) for everything
        this engine runs.  The budget starts ticking at construction
        and is shared by every stage — formation regions, salvage,
        solve — raising
        :class:`repro.resilience.supervise.DeadlineExceeded` (and
        killing any in-flight workers) when spent.
    stall_timeout:
        Seconds a region worker may go without a heartbeat before the
        watchdog declares it hung (SIGTERM → SIGKILL) and the parent
        salvages its share.  None (default) disables the watchdog.
        Applies only when equations are persisted (formation is the
        only stage with workers).
    supervise:
        A preconfigured :class:`repro.resilience.supervise.Supervisor`
        overriding the one built from ``deadline``/``stall_timeout``.
    """

    def __init__(
        self,
        strategy: str = "pymp",
        num_workers: int = 4,
        solver: str = "nested",
        threshold_sigmas: float = 4.0,
        min_region_size: int = 1,
        degradation: bool = True,
        validate: str = "strict",
        faults=None,
        retry: RetryPolicy | None = None,
        saturation_kohm: float = 1e6,
        observer=None,
        deadline: Deadline | float | None = None,
        stall_timeout: float | None = None,
        supervise: Supervisor | None = None,
    ) -> None:
        self._strategy = make_strategy(strategy, num_workers)
        self.solver = solver
        self.threshold_sigmas = threshold_sigmas
        self.min_region_size = min_region_size
        self.degradation = bool(degradation)
        if validate not in VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
            )
        self.validate = validate
        self._injector = as_injector(faults)
        self.retry = retry
        self.saturation_kohm = float(saturation_kohm)
        self.observer = observer
        self.deadline = Deadline.coerce(deadline)
        self.stall_timeout = stall_timeout
        if supervise is not None:
            self.supervisor: Supervisor | None = supervise
            if self.deadline is None:
                self.deadline = supervise.deadline
        elif stall_timeout is not None or self.deadline is not None:
            self.supervisor = Supervisor(
                stall_timeout=stall_timeout,
                deadline=self.deadline,
                observer=observer,
            )
        else:
            self.supervisor = None

    @property
    def strategy_name(self) -> str:
        return self._strategy.name

    def _prepare_measurement(
        self,
        measurement: Measurement | np.ndarray,
        voltage: float | None = None,
        hour: float | None = None,
    ) -> tuple[Measurement, tuple[str, ...]]:
        """Apply fault injection and the boundary-validation policy.

        Accepts either a finished :class:`Measurement` or a raw Z
        ndarray (dirty acquisitions cannot survive Measurement's own
        invariants, so raw arrays are the entry point for repair).
        ``voltage``/``hour`` annotate the raw-array case — e.g. a
        serve request whose dirty payload could not be wrapped in a
        Measurement client-side — and are ignored for finished
        measurements, which already carry their own.
        """
        events: list[str] = []
        if isinstance(measurement, Measurement):
            z = measurement.z_kohm
            voltage, hour, meta = (
                measurement.voltage,
                measurement.hour,
                dict(measurement.meta),
            )
        else:
            z = np.asarray(measurement, dtype=np.float64)
            voltage = 5.0 if voltage is None else float(voltage)
            hour = 0.0 if hour is None else float(hour)
            meta = {}
        dirtied = False
        if self._injector is not None and self._injector.plan.any_measurement_faults():
            z = self._injector.dirty_measurement(z)
            dirtied = True
        if self.validate == "strict":
            z = validate_z(z, saturation_kohm=self.saturation_kohm)
        elif self.validate == "repair":
            z, audit = repair_z(z, saturation_kohm=self.saturation_kohm)
            if not audit.clean:
                events.append(f"repaired measurement: {audit.describe()}")
                obs = as_observer(self.observer)
                obs.event(
                    "measurement.repaired",
                    bad_sites=audit.num_bad_sites,
                    detail=audit.describe(),
                )
                obs.count("measurement.repairs")
                rlog.info(
                    "resilience.measurement_repaired",
                    bad_sites=audit.num_bad_sites,
                    detail=audit.describe(),
                )
        if isinstance(measurement, Measurement) and not dirtied and not events:
            return measurement, tuple(events)
        return (
            Measurement(z_kohm=z, voltage=voltage, hour=hour, meta=meta),
            tuple(events),
        )

    def form(
        self,
        measurement: Measurement,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
    ) -> FormationReport:
        """Run only the equation-formation stage."""
        return self._strategy.run(
            measurement.z_kohm,
            voltage=measurement.voltage,
            output_dir=output_dir,
            fmt=fmt,
            faults=self._injector,
            observer=self.observer,
            supervise=self.supervisor,
            deadline=self.deadline,
        )

    def parametrize(
        self,
        measurement: Measurement | np.ndarray,
        output_dir: str | Path | None = None,
        fmt: str = "binary",
        solver_kwargs: dict | None = None,
        voltage: float | None = None,
        hour: float | None = None,
    ) -> ParmaResult:
        """Full pipeline: validate → (form → persist) → solve → detect.

        The formation stage runs only when ``output_dir`` is given: it
        forms the §IV-A equations with the engine's strategy (under
        retry, fault injection, the watchdog and salvage as configured)
        and writes them there.  Without ``output_dir`` no worker is
        forked and :attr:`ParmaResult.formation` is an all-zero report
        with ``strategy="none"``; the recovered field is the same either
        way, because the solver inverts the forward map directly.

        ``measurement`` may be a raw Z ndarray, which goes through the
        engine's ``validate`` policy before entering the pipeline;
        ``voltage``/``hour`` annotate that raw-array case (ignored for
        a finished :class:`Measurement`).
        """
        measurement, events = self._prepare_measurement(
            measurement, voltage=voltage, hour=hour
        )
        events = list(events)
        obs = as_observer(self.observer)
        sw = Stopwatch()
        n = measurement.z_kohm.shape[0]
        if self.deadline is not None:
            self.deadline.check("parametrization")
        if output_dir is None:
            formation = FormationReport(
                strategy="none",
                n=n,
                num_workers=0,
                elapsed_seconds=0.0,
                terms_formed=0,
                checksum=0.0,
                per_worker_terms=np.zeros(0, dtype=np.int64),
            )
        else:
            with sw.lap("formation"), rlog.log_span(
                "parma.formation", n=n, strategy=self.strategy_name
            ):
                if self.retry is not None or self._injector is not None:
                    formation, form_events = form_with_recovery(
                        self._strategy,
                        measurement.z_kohm,
                        voltage=measurement.voltage,
                        output_dir=output_dir,
                        fmt=fmt,
                        policy=self.retry,
                        faults=self._injector,
                        observer=obs,
                        supervise=self.supervisor,
                        deadline=self.deadline,
                    )
                    events.extend(form_events)
                else:
                    formation = self.form(
                        measurement, output_dir=output_dir, fmt=fmt
                    )
            if formation.stalled_ranks:
                events.append(
                    f"watchdog killed hung worker(s) "
                    f"{tuple(formation.stalled_ranks)} after heartbeat stall"
                )
            if formation.blocks_salvaged or formation.blocks_reformed:
                events.append(
                    f"salvaged {formation.blocks_salvaged} completed "
                    f"block(s), re-formed {formation.blocks_reformed} in "
                    "the parent"
                )
        if self.deadline is not None:
            self.deadline.check("solve")
        degradation = None
        with sw.lap("solve"), obs.span(
            "solve",
            n=n,
            method=self.solver,
            degradation=self.degradation,
        ):
            if self.degradation:
                solve_result, degradation = solve_with_degradation(
                    measurement.z_kohm,
                    voltage=measurement.voltage,
                    method=self.solver,
                    solver_kwargs=solver_kwargs,
                    faults=self._injector,
                    observer=obs,
                )
            else:
                solve_result = solve(
                    measurement.z_kohm,
                    voltage=measurement.voltage,
                    method=self.solver,
                    observer=obs,
                    **(solver_kwargs or {}),
                )
        obs.record_degradation(degradation)
        rlog.info(
            "parma.solved",
            n=n,
            method=solve_result.method,
            converged=solve_result.converged,
            iterations=solve_result.iterations,
        )
        if self.deadline is not None:
            self.deadline.check("anomaly detection")
        with sw.lap("detect"), obs.span("detect", n=n):
            detection = detect_anomalies(
                solve_result.r_estimate,
                threshold_sigmas=self.threshold_sigmas,
                min_size=self.min_region_size,
            )
        return ParmaResult(
            measurement=measurement,
            formation=formation,
            solve=solve_result,
            detection=detection,
            laps=dict(sw.laps),
            degradation=degradation,
            events=tuple(events),
        )
