"""Graceful solver degradation: never crash where you can step down.

The recovery solve is the one stage of the pipeline that can *diverge*
rather than merely fail: a poisoned warm start, a near-singular
Jacobian or wildly inconsistent measurements make Gauss–Newton walk
off to non-finite territory.  Instead of killing the campaign, the
engine walks a ladder of progressively more conservative solves:

1. ``primary``     — the caller's solver with its warm start;
2. ``cold-start``  — same solver, warm start discarded (a corrupted
   previous field is the most common poison);
3. ``regularized`` — Tikhonov-smoothed Gauss–Newton (stabilises the
   ill-posed problem the paper's introduction warns about);
4. ``bounded``     — box-constrained trust region
   (:func:`repro.core.solver.solve_bounded`): cannot diverge, always
   returns a finite field.

A rung is *accepted* when it produced a finite field and residual —
degradation is for **divergence** (raised numerical errors,
non-finite results), not for slow convergence: a finite
``converged=False`` result is the requested solver's honest answer
and is returned as-is (callers and the CLI's exit status inspect
``SolveResult.converged``).  If no rung produced anything finite,
:class:`SolverDegradationError` names every rung and why it failed.

The rung actually used is recorded in
:class:`DegradationReport` and surfaces in
``ParmaResult.summary()`` / ``parma info``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.solver import SolveResult, solve
from repro.resilience.faults import FaultInjector, InjectedSolverFault
from repro.utils import logging as rlog

#: Rung names in ladder order (``cold-start`` only exists with a warm
#: start to discard; ``regularized`` is skipped when it *is* the
#: primary solver).
LADDER_RUNGS = ("primary", "cold-start", "regularized", "bounded")

#: Numerical failures a rung may raise that mean "step down", as
#: opposed to programming/configuration errors, which propagate.
DEGRADABLE_ERRORS = (
    ArithmeticError,  # includes FloatingPointError, InjectedSolverFault
    np.linalg.LinAlgError,
)


class SolverDegradationError(RuntimeError):
    """Every rung of the ladder failed to produce a finite field."""

    def __init__(self, message: str, report: "DegradationReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DegradationReport:
    """Which rungs ran, why they were rejected, and which one won."""

    rung_used: str
    rungs_tried: tuple[str, ...]
    reasons: tuple[str, ...]  # aligned with rungs_tried; "" = accepted
    exhausted: bool = False  # True when even the last rung was rejected

    @property
    def degraded(self) -> bool:
        return self.rung_used != "primary" or self.exhausted

    def describe(self) -> str:
        parts = []
        for rung, reason in zip(self.rungs_tried, self.reasons):
            parts.append(rung if not reason else f"{rung} ({reason})")
        tail = " -> ".join(parts)
        status = "exhausted" if self.exhausted else f"used {self.rung_used}"
        return f"{status}: {tail}"


def _acceptable(result: SolveResult) -> str:
    """'' when the rung's result is usable, else the rejection reason."""
    if not np.all(np.isfinite(result.r_estimate)):
        return "non-finite field"
    if not np.isfinite(result.residual_norm):
        return "non-finite residual"
    return ""


def solve_with_degradation(
    z: np.ndarray,
    voltage: float = 5.0,
    method: str = "nested",
    solver_kwargs: dict | None = None,
    faults: FaultInjector | None = None,
    observer=None,
) -> tuple[SolveResult, DegradationReport]:
    """Solve ``Z(R) = z`` walking the degradation ladder.

    ``solver_kwargs`` are the primary rung's keywords (``r0`` marks a
    warm start and is dropped from rung 2 on; ``lam`` feeds the
    regularized rung).  Configuration errors — e.g. an unknown
    ``method`` — propagate immediately; only numerical failures
    (:data:`DEGRADABLE_ERRORS` or a non-converged/non-finite result)
    step down the ladder.  Each rejected rung lands on the observer
    stream as a ``degrade.rung_failed`` event; each rung runs inside a
    ``solve.rung`` span.
    """
    from repro.observe.observer import as_observer

    obs = as_observer(observer)
    kwargs = dict(solver_kwargs or {})
    warm = kwargs.get("r0") is not None
    cold_kwargs = {k: v for k, v in kwargs.items() if k != "r0"}

    rungs: list[tuple[str, str, dict]] = [("primary", method, kwargs)]
    if warm:
        rungs.append(("cold-start", method, cold_kwargs))
    if method != "regularized":
        rungs.append(
            ("regularized", "regularized", {"lam": cold_kwargs.get("lam", 1e-3)})
        )
    rungs.append(("bounded", "bounded", {}))

    tried: list[str] = []
    reasons: list[str] = []
    for rung, rung_method, rung_kwargs in rungs:
        tried.append(rung)
        r0 = rung_kwargs.get("r0")
        if r0 is not None and not np.all(np.isfinite(r0)):
            # A corrupted warm start (e.g. restored from a damaged
            # checkpoint) is precisely what the cold-start rung is
            # for — don't let input validation turn it into a crash.
            reasons.append("non-finite warm start")
            obs.event("degrade.rung_failed", rung=rung, reason="non-finite warm start")
            continue
        try:
            if faults is not None:
                faults.maybe_fail_rung(rung)
            with np.errstate(all="ignore"), obs.span(
                "solve.rung", rung=rung, method=rung_method
            ):
                result = solve(
                    z,
                    voltage=voltage,
                    method=rung_method,
                    observer=obs,
                    **rung_kwargs,
                )
        except InjectedSolverFault as exc:
            reasons.append(str(exc))
            obs.event("degrade.rung_failed", rung=rung, reason=str(exc), injected=True)
            continue
        except DEGRADABLE_ERRORS as exc:
            reasons.append(f"{type(exc).__name__}: {exc}")
            obs.event(
                "degrade.rung_failed",
                rung=rung,
                reason=f"{type(exc).__name__}: {exc}",
            )
            continue
        reason = _acceptable(result)
        reasons.append(reason)
        if reason:
            obs.event("degrade.rung_failed", rung=rung, reason=reason)
        if not reason:
            report = DegradationReport(
                rung_used=rung,
                rungs_tried=tuple(tried),
                reasons=tuple(reasons),
            )
            if report.degraded:
                rlog.info(
                    "resilience.degraded_solve",
                    rung=rung,
                    path=report.describe(),
                )
                obs.event("degrade.rung_used", rung=rung, path=report.describe())
            return result, report

    report = DegradationReport(
        rung_used="",
        rungs_tried=tuple(tried),
        reasons=tuple(reasons),
        exhausted=True,
    )
    obs.event("degrade.exhausted", path=report.describe())
    raise SolverDegradationError(
        f"solver degradation ladder exhausted: {report.describe()}", report
    )
