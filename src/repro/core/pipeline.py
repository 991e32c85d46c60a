"""Campaign-level pipelines: whole wet-lab days through Parma.

Glues the engine to time-series inputs: each timepoint is
parametrized, fields are compared across hours, and growth-based
anomaly drift is reported — the "(almost) real-time anomaly
detection" workload of §II-C.

This is the *batch* shape of the repeated-query workload: one process,
one campaign, timepoints in order (warm-started, checkpointable,
deadline-bounded).  The *online* shape — many independent requests
arriving concurrently, sharing warm caches across processes' lifetimes
— is :mod:`repro.serve` (``parma serve``); see ``docs/ARCHITECTURE.md``
for how the two sit on the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.anomaly.detect import DetectionResult, detect_anomalies, detect_drift_anomalies
from repro.core.engine import ParmaEngine, ParmaResult
from repro.core.solver import SolveResult
from repro.core.strategies import FormationReport
from repro.mea.dataset import Measurement, MeasurementCampaign
from repro.observe.observer import as_observer
from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointError
from repro.resilience.faults import as_injector
from repro.resilience.supervise import Deadline, DeadlineExceeded
from repro.utils import logging as rlog


@dataclass(frozen=True)
class CampaignResult:
    """Per-timepoint parametrizations plus the drift analysis."""

    results: tuple[ParmaResult, ...]
    drift_detection: DetectionResult | None

    @property
    def hours(self) -> tuple[float, ...]:
        return tuple(r.measurement.hour for r in self.results)

    def resistance_series(self) -> np.ndarray:
        """Stacked recovered fields, shape (timepoints, n, n)."""
        return np.stack([r.resistance for r in self.results])

    def total_formation_terms(self) -> int:
        return sum(r.formation.terms_formed for r in self.results)

    def summary(self) -> str:
        lines = [f"Campaign over hours {self.hours}:"]
        for r in self.results:
            lines.append("  " + r.summary())
        if self.drift_detection is not None:
            lines.append(
                f"  drift: {self.drift_detection.num_regions} growing "
                "region(s) between first and last timepoint"
            )
        return "\n".join(lines)


def _resumed_result(
    meas: Measurement, field: np.ndarray, entry: dict, engine: ParmaEngine
) -> ParmaResult:
    """Rebuild a ParmaResult for a checkpointed timepoint.

    The field comes off disk (digest-verified); solve/formation
    metadata comes from the manifest entry; detection is recomputed
    from the field (cheap, and keeps detector knobs live).  The
    formation strategy is prefixed ``resumed:`` so reports show which
    timepoints were not re-formed.
    """
    solve_meta = entry["solve"]
    form_meta = entry["formation"]
    n = int(field.shape[0])
    solve_result = SolveResult(
        r_estimate=field,
        method=str(solve_meta["method"]),
        iterations=int(solve_meta["iterations"]),
        residual_norm=float(solve_meta["residual_norm"]),
        elapsed_seconds=0.0,
        converged=bool(solve_meta["converged"]),
    )
    formation = FormationReport(
        strategy=f"resumed:{form_meta['strategy']}",
        n=n,
        num_workers=int(form_meta["num_workers"]),
        elapsed_seconds=0.0,
        terms_formed=int(form_meta["terms_formed"]),
        checksum=float(form_meta["checksum"]),
        per_worker_terms=np.zeros(max(1, int(form_meta["num_workers"])), dtype=np.int64),
    )
    detection = detect_anomalies(
        field,
        threshold_sigmas=engine.threshold_sigmas,
    )
    return ParmaResult(
        measurement=meas,
        formation=formation,
        solve=solve_result,
        detection=detection,
        laps={"formation": 0.0, "solve": 0.0, "detect": 0.0},
        degradation=None,
        events=(f"resumed from checkpoint (rung={entry.get('rung', 'primary')})",),
    )


def run_pipeline(
    campaign: MeasurementCampaign,
    engine: ParmaEngine | None = None,
    output_dir: str | Path | None = None,
    growth_threshold: float = 0.25,
    warm_start: bool = True,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    faults=None,
    observer=None,
    deadline: Deadline | float | None = None,
) -> CampaignResult:
    """Parametrize every timepoint and analyse anomaly drift.

    With ``output_dir`` set, each timepoint's equations are written to
    ``<output_dir>/hour-<h>/`` (the Fig. 9 I/O path).

    ``warm_start`` seeds each solve with the previous timepoint's
    recovered field: consecutive readings differ only by anomaly
    growth and noise, so the solver converges in fewer iterations —
    the natural optimization for the §II-C "(almost) real-time"
    monitoring loop.  Warm starting also reuses the forward solver's
    Laplacian factorisation across timepoints: each solve begins at
    the field where the previous solve's last evaluation ended, so the
    first inner-circuit solve is served from the pseudo-inverse cache
    (:func:`repro.kirchhoff.forward.laplacian_pinv_cached`) instead of
    being refactorised.

    With ``checkpoint_dir`` set, each completed timepoint is persisted
    (field + metadata, atomically, digest-protected) to a
    :class:`repro.resilience.CampaignCheckpoint`.  A rerun with
    ``resume=True`` (default) skips verified timepoints — including
    seeding the warm start from the last checkpointed field — so an
    interrupted day continues from where it died instead of
    re-solving from hour 0.  A corrupt field file fails its digest and
    that timepoint (plus everything after it) is recomputed.

    ``faults`` (a :class:`repro.resilience.FaultPlan` or injector)
    drives chaos testing at the campaign level — currently
    ``abort_after_timepoints``, which raises
    :class:`repro.resilience.InjectedAbort` *after* the checkpoint
    record, simulating a crash between timepoints.  Measurement/
    formation/solver faults belong on the engine.

    ``observer`` (a :class:`repro.observe.Observer`) traces the
    campaign: one ``timepoint`` span per measurement with
    formation/solve/detect children from the engine, plus
    checkpoint-resume events.  When given, it is also installed on the
    engine so the per-stage spans land on the same stream.

    ``deadline`` (seconds, or a started
    :class:`repro.resilience.supervise.Deadline`) bounds the whole
    campaign on one shared monotonic budget — it is installed on the
    engine so formation regions and supervision drain the same clock.
    When it expires, :class:`repro.resilience.supervise.
    DeadlineExceeded` is raised with ``partial`` set to a
    :class:`CampaignResult` of the timepoints that did finish
    (checkpointed ones included), so callers salvage instead of
    discard.
    """
    engine = engine or ParmaEngine()
    obs = as_observer(observer)
    if observer is not None:
        engine.observer = observer
    deadline = Deadline.coerce(deadline)
    if deadline is not None:
        engine.deadline = deadline
        if engine.supervisor is not None and engine.supervisor.deadline is None:
            engine.supervisor.deadline = deadline
    elif engine.deadline is not None:
        deadline = engine.deadline
    injector = as_injector(faults)
    checkpoint = (
        CampaignCheckpoint(checkpoint_dir) if checkpoint_dir is not None else None
    )
    results: list[ParmaResult] = []
    previous_field = None
    with obs.span(
        "campaign", timepoints=len(campaign), strategy=engine.strategy_name
    ):
        for index, meas in enumerate(campaign):
            n = meas.z_kohm.shape[0]
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"deadline of {deadline.seconds:g}s expired after "
                    f"{len(results)} of {len(campaign)} timepoint(s)",
                    deadline=deadline,
                    partial=CampaignResult(
                        results=tuple(results), drift_detection=None
                    ),
                )
            if (
                checkpoint is not None
                and resume
                and checkpoint.matches(index, meas.hour, n)
            ):
                entry = checkpoint.entry(index)
                try:
                    field = checkpoint.load_field(index)
                except CheckpointError as exc:
                    rlog.info(
                        "resilience.checkpoint_invalid", index=index, error=str(exc)
                    )
                    obs.event(
                        "checkpoint.invalidated", index=index, error=str(exc)
                    )
                    obs.count("checkpoint.invalidations")
                    checkpoint.invalidate_from(index)
                else:
                    result = _resumed_result(meas, field, entry, engine)
                    previous_field = field
                    results.append(result)
                    obs.event(
                        "checkpoint.resumed", index=index, hour=float(meas.hour)
                    )
                    obs.count("checkpoint.resumes")
                    continue
            tp_dir = None
            if output_dir is not None:
                tp_dir = Path(output_dir) / f"hour-{meas.hour:g}"
            solver_kwargs = {}
            if warm_start and previous_field is not None:
                solver_kwargs["r0"] = previous_field
            with obs.span("timepoint", index=index, hour=float(meas.hour), n=n):
                try:
                    result = engine.parametrize(
                        meas, output_dir=tp_dir, solver_kwargs=solver_kwargs
                    )
                except DeadlineExceeded as exc:
                    if exc.partial is None:
                        exc.partial = CampaignResult(
                            results=tuple(results), drift_detection=None
                        )
                    raise
            previous_field = result.resistance
            results.append(result)
            if checkpoint is not None:
                checkpoint.record(index, result)
                obs.count("checkpoint.writes")
            if injector is not None:
                injector.maybe_abort_campaign(len(results))
        drift = None
        if len(results) >= 2:
            with obs.span("drift", timepoints=len(results)):
                drift = detect_drift_anomalies(
                    results[0].resistance,
                    results[-1].resistance,
                    growth_threshold=growth_threshold,
                )
    return CampaignResult(results=tuple(results), drift_detection=drift)
