""":class:`RequestRunner` — the per-request solve pipeline, host-agnostic.

Both execution hosts — the in-process executor threads of
:class:`repro.serve.server.SolveService` and the forked subprocess
workers of :class:`repro.serve.executor.ExecutorPool` — run requests
through this one class, which is what makes the two paths
bit-identical: same engine construction, same ``Measurement``
fallback for dirty payloads, same per-request
:class:`repro.observe.Observer` manifest, same status mapping.

Every request that reaches the engine — ok, degraded, failed or
deadline — leaves one record (its manifest plus spans) appended and
fsynced to the host's evidence log under ``results_dir``
(:mod:`repro.observe.evidence`) before its response exists;
``Response.manifest_path`` is that record's locator,
``<log>.jsonl#<offset>``.  ``Response.elapsed_seconds`` is stamped
after the commit, so it covers the runner's whole work.

Each request gets its own :class:`repro.core.engine.ParmaEngine`
(construction costs microseconds); the Laplacian-pinv LRU the
solver uses is process-global and stays warm across requests.  Served
requests never persist equations, so the engines never run the
formation stage.  The runner also owns the warm/cold label: a request
is warm when this runner has already run a request of the same ``n``.

Service-level counters (``serve.responses.*``, ``serve.latency.*``)
and each request's merged metric registry land in the runner's
``observer`` — the service observer in-process, or a plain registry
the executor child snapshots back over its pipe.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.core.engine import ParmaEngine
from repro.observe import Observer
from repro.observe.evidence import EvidenceLog
from repro.observe.observer import as_observer
from repro.resilience.supervise import Deadline, DeadlineExceeded
from repro.serve.protocol import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    Request,
    Response,
)


class RequestRunner:
    """Executes solve requests, one engine per request.

    One instance per execution host (service process or executor
    child).  :meth:`run` never raises: every outcome — converged,
    failed, deadline-exceeded, unexpected exception — comes back as a
    :class:`repro.serve.protocol.Response`.
    """

    def __init__(
        self,
        results_dir: str | Path,
        *,
        # Unused; kept because e2ebench/workloads.py passes them.
        strategy: str = "single",
        num_workers: int = 4,
        max_deadline: float | None = None,
        # Unused (engines are per request); kept because
        # e2ebench/workloads.py passes it.
        pool_engines: bool = True,
        observer: object | None = None,
    ) -> None:
        self.results_dir = Path(results_dir)
        self.evidence = EvidenceLog(self.results_dir)
        self.max_deadline = max_deadline
        self.observer = as_observer(observer)
        self._sizes_run: set[int] = set()
        self._sizes_lock = threading.Lock()  # runners may be shared by threads

    def run(
        self,
        request: Request,
        *,
        batch_size: int = 1,
        warm: bool | None = None,
        queue_seconds: float,
    ) -> Response:
        """Execute one request; always returns a :class:`Response`.

        ``warm`` labels the request for ``Response.cache_warm`` and the
        ``serve.latency.{warm,cold}_seconds`` split.  Left as None, the
        runner decides: warm when it has already run a request of the
        same ``n``.  ``batch_size`` is only echoed into the response
        and manifest; the serve stack runs one request per dispatch,
        so it is always 1 there.
        """
        started = time.perf_counter()
        try:
            with self._sizes_lock:
                if warm is None:
                    warm = request.n in self._sizes_run
                self._sizes_run.add(request.n)
            return self._run(request, batch_size, warm, queue_seconds, started)
        except Exception as exc:  # noqa: BLE001 - hosts need a response
            self.observer.count("serve.responses.failed")
            return Response(
                id=request.id or "",
                status=STATUS_FAILED,
                error=f"{type(exc).__name__}: {exc}",
                batch_size=batch_size,
                cache_warm=bool(warm),
                queue_seconds=queue_seconds,
                elapsed_seconds=time.perf_counter() - started,
            )

    def _fold_request_metrics(self, request_observer: Observer) -> None:
        """Aggregate a finished request's registry into the runner's.

        Per-request observers own their solve/cache counters
        (they land in that request's manifest); merging them here keeps
        the host's running totals covering every request served.
        """
        if self.observer.metrics is not None:
            self.observer.metrics.merge(request_observer.metrics.snapshot())

    def close(self) -> None:
        """Release the evidence log (a later request opens a new one)."""
        self.evidence.close()

    def _run(
        self,
        request: Request,
        batch_size: int,
        warm: bool,
        queue_seconds: float,
        started: float,
    ) -> Response:
        """The per-request pipeline: engine, observer, record, response."""
        from repro.mea.dataset import Measurement, MeasurementValidationError
        from repro.resilience.degrade import SolverDegradationError

        engine = ParmaEngine(
            solver=request.solver,
            threshold_sigmas=request.threshold_sigmas,
            validate=request.validate,
            deadline=Deadline.capped(request.deadline, self.max_deadline),
        )
        obs = Observer()
        engine.observer = obs
        config = {
            "command": "serve",
            "request_id": request.id,
            "n": request.n,
            "hour": request.hour,
            "solver": request.solver,
            "validate": request.validate,
            "batch_size": batch_size,
            "cache_warm": warm,
            "queue_seconds": queue_seconds,
        }
        result = None
        try:
            z = request.z_array()
            measurement: Measurement | object
            try:
                measurement = Measurement(
                    z_kohm=z, voltage=request.voltage, hour=request.hour
                )
            except ValueError:
                # Dirty acquisitions cannot satisfy Measurement's own
                # invariants; hand the raw array to the engine's
                # validate policy (strict will name the channel).
                measurement = z
            with obs.span("run", command="serve", n=request.n):
                result = engine.parametrize(
                    measurement,
                    solver_kwargs=request.solver_kwargs or None,
                    voltage=request.voltage,
                    hour=request.hour,
                )
        except DeadlineExceeded as exc:
            status, outcome, error = STATUS_DEADLINE, "deadline", str(exc)
        except (SolverDegradationError, MeasurementValidationError) as exc:
            status, outcome, error = STATUS_FAILED, "failed", str(exc)
        except Exception as exc:  # noqa: BLE001 - still leaves a record
            status, outcome = STATUS_FAILED, "failed"
            error = f"{type(exc).__name__}: {exc}"
        else:
            degraded = (
                result.degradation is not None and result.degradation.degraded
            )
            failed = degraded and not result.solve.converged
            status = STATUS_FAILED if failed else STATUS_OK
            outcome = "failed" if failed else "degraded" if degraded else "ok"
            error = (
                "solve did not converge even after degradation" if failed else ""
            )
        # Recorded in the manifest, so the run catalog's `status` column
        # carries the request's outcome.
        config["status"] = outcome
        locator = self.evidence.append(
            obs.build_manifest(config=config), obs.spans
        )
        self._fold_request_metrics(obs)
        elapsed = time.perf_counter() - started
        solved = {}
        if result is not None:
            bucket = (
                "serve.latency.warm_seconds"
                if warm
                else "serve.latency.cold_seconds"
            )
            self.observer.observe_hist(bucket, elapsed)
            solved = {
                "summary": result.summary(),
                "num_regions": result.detection.num_regions,
                "resistance": (
                    result.resistance.tolist() if request.want_field else None
                ),
                "events": result.events,
            }
        self.observer.count(
            "serve.responses." + ("ok" if outcome == "degraded" else outcome)
        )
        return Response(
            id=request.id or "",
            status=status,
            error=error,
            manifest_path=locator,
            batch_size=batch_size,
            cache_warm=warm,
            queue_seconds=queue_seconds,
            elapsed_seconds=elapsed,
            **solved,
        )
