"""Bounded retries with backoff, and formation-level recovery.

Worker death in a fork region surfaces as
:class:`repro.parallel.pymp.ParallelError`; a transient filesystem
hiccup as :class:`OSError`.  Both are worth one more try before a
whole campaign is abandoned.  :func:`run_with_retry` is the generic
bounded-retry driver; :func:`form_with_recovery` applies it to
equation formation and adds the last rung of the formation ladder —
re-dispatching the work onto the in-process single-thread strategy,
which cannot lose workers because it never forks.

Backoff is deterministic by default (exponential, no jitter): two runs
of the same plan retry at the same instants, keeping chaos tests
exactly reproducible.  Fleets that retry many regions simultaneously
can opt into *seeded* jitter — still a pure function of
``(jitter_seed, attempt)``, so reproducibility is kept while the
thundering herd is broken up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.parallel.pymp import ParallelError
from repro.resilience.faults import FaultInjector
from repro.utils import logging as rlog
from repro.utils.rng import default_rng, derive_seed

T = TypeVar("T")

#: Exception types that indicate a transient, retryable failure.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (ParallelError, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between tries."""

    max_retries: int = 2
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based).

        With ``jitter`` > 0 the exponential delay is scaled by a
        deterministic factor in ``[1 - jitter, 1]`` drawn from
        ``(jitter_seed, attempt)`` — jitter only ever *shortens* the
        wait, so the delay never exceeds ``max_backoff_seconds``.
        """
        if self.backoff_seconds <= 0.0:
            return 0.0
        base = min(
            self.backoff_seconds * self.backoff_factor**attempt,
            self.max_backoff_seconds,
        )
        if self.jitter <= 0.0:
            return base
        u = default_rng(
            derive_seed(self.jitter_seed, "retry-jitter", attempt)
        ).random()
        return base * (1.0 - self.jitter * u)


@dataclass(frozen=True)
class RetryOutcome:
    """What the retry loop did to get (or fail to get) a result."""

    attempts: int
    succeeded: bool
    errors: tuple[str, ...]
    total_delay_seconds: float

    def events(self) -> tuple[str, ...]:
        """Human-readable event strings for result reports."""
        out = []
        for i, err in enumerate(self.errors):
            out.append(f"attempt {i + 1} failed: {err}")
        return tuple(out)


class RetryExhausted(RuntimeError):
    """All attempts failed; ``outcome`` holds the per-attempt errors."""

    def __init__(self, message: str, outcome: RetryOutcome) -> None:
        super().__init__(message)
        self.outcome = outcome


def run_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    retry_on: Sequence[type[BaseException]] = TRANSIENT_ERRORS,
    faults: FaultInjector | None = None,
    sleep: Callable[[float], None] = time.sleep,
    observer=None,
) -> tuple[T, RetryOutcome]:
    """Call ``fn`` with up to ``policy.max_retries`` retries.

    ``faults.note_attempt()`` is invoked before each retry so "die
    once" fault plans stop firing.  Raises :class:`RetryExhausted`
    (chained to the last error) when every attempt fails.  Each failed
    attempt lands on the observer stream as a ``retry.attempt_failed``
    event plus a ``retry.attempts`` count.
    """
    from repro.observe.observer import as_observer

    obs = as_observer(observer)
    policy = policy or RetryPolicy()
    retry_on = tuple(retry_on)
    errors: list[str] = []
    delay_total = 0.0
    last_exc: BaseException | None = None
    for attempt in range(policy.max_retries + 1):
        try:
            result = fn()
        except retry_on as exc:
            last_exc = exc
            errors.append(f"{type(exc).__name__}: {exc}")
            rlog.info(
                "resilience.retry",
                attempt=attempt + 1,
                max_attempts=policy.max_retries + 1,
                error=str(exc),
            )
            obs.event(
                "retry.attempt_failed",
                attempt=attempt + 1,
                max_attempts=policy.max_retries + 1,
                error=f"{type(exc).__name__}: {exc}",
            )
            obs.count("retry.attempts")
            if attempt == policy.max_retries:
                break
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)
                delay_total += delay
            if faults is not None:
                faults.note_attempt()
            continue
        return result, RetryOutcome(
            attempts=attempt + 1,
            succeeded=True,
            errors=tuple(errors),
            total_delay_seconds=delay_total,
        )
    outcome = RetryOutcome(
        attempts=policy.max_retries + 1,
        succeeded=False,
        errors=tuple(errors),
        total_delay_seconds=delay_total,
    )
    raise RetryExhausted(
        f"all {outcome.attempts} attempt(s) failed; last error: {errors[-1]}",
        outcome,
    ) from last_exc


def form_with_recovery(
    strategy,
    z,
    voltage: float = 5.0,
    output_dir=None,
    fmt: str = "binary",
    policy: RetryPolicy | None = None,
    faults: FaultInjector | None = None,
    sleep: Callable[[float], None] = time.sleep,
    observer=None,
    supervise=None,
    deadline=None,
):
    """Run a formation strategy with retries, then a serial fallback.

    Returns ``(FormationReport, events)`` where ``events`` is a tuple
    of human-readable resilience events ("" when the first attempt
    succeeded).  If every parallel attempt loses a worker, the work is
    re-dispatched to :class:`repro.core.strategies.SingleThread` —
    formation is deterministic, so the fallback's output (including
    part files, which collapse to one part) is equivalent; only the
    parallel speedup is sacrificed.

    ``supervise`` (a :class:`repro.resilience.supervise.Supervisor`)
    usually absorbs worker loss *below* this ladder via salvage; when
    it cannot (salvage disabled), the resulting ``WorkerStalled`` is a
    :class:`ParallelError` and retries here.
    ``deadline`` is never retried: running out of wall-clock is not
    transient.
    """
    from repro.core.strategies import SingleThread
    from repro.observe.observer import as_observer

    obs = as_observer(observer)

    def attempt():
        return strategy.run(
            z,
            voltage=voltage,
            output_dir=output_dir,
            fmt=fmt,
            faults=faults,
            observer=observer,
            supervise=supervise,
            deadline=deadline,
        )

    try:
        report, outcome = run_with_retry(
            attempt, policy=policy, faults=faults, sleep=sleep, observer=observer
        )
        return report, outcome.events()
    except RetryExhausted as exc:
        if isinstance(strategy, SingleThread):
            raise  # nothing left to degrade to
        rlog.info(
            "resilience.formation_degraded",
            strategy=getattr(strategy, "name", "?"),
            attempts=exc.outcome.attempts,
        )
        obs.event(
            "formation.degraded",
            strategy=getattr(strategy, "name", "?"),
            attempts=exc.outcome.attempts,
        )
        obs.count("formation.fallbacks")
        fallback = SingleThread()
        report = fallback.run(
            z,
            voltage=voltage,
            output_dir=output_dir,
            fmt=fmt,
            observer=observer,
            deadline=deadline,
        )
        events = exc.outcome.events() + (
            f"formation degraded to single-thread after "
            f"{exc.outcome.attempts} failed attempt(s)",
        )
        return report, events
