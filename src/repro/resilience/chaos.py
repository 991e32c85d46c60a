"""The ``parma chaos`` checks: one named fault drill per recovery path.

Each check injects a specific fault and asserts the recovered output
equals the fault-free reference — recovery that silently changes
answers is worse than crashing.  :data:`CHAOS_CHECKS` maps each
``parma chaos --include`` name to its check function, so the CLI, the
tests and the CI jobs run any subset by name through
:func:`run_chaos`::

    results = run_chaos(["dirty", "ladder"], n=6, seed=7)
    assert all(ok for _, ok, _ in results)

Checks in :data:`NEEDS_FORK` fork real worker processes; where fork
is missing they report one skipped PASS instead of running.

Nothing here is imported on a workload's path: the module is loaded
by ``parma chaos`` (and by ``parma --help`` for the check names).
"""

from __future__ import annotations

import signal
import tempfile
import time
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

__all__ = ["CHAOS_CHECKS", "NEEDS_FORK", "ChaosRun", "run_chaos"]


class ChaosRun:
    """The device, observer and results one chaos run shares."""

    def __init__(self, n: int, seed: int, observer=None) -> None:
        from repro.mea.synthetic import paper_like_spec
        from repro.mea.wetlab import run_campaign
        from repro.observe import Observer

        self.n, self.seed = n, seed
        self.campaign = run_campaign(
            paper_like_spec(n, seed=seed), seed=seed
        ).campaign
        self.meas = self.campaign.measurements[0]
        # Supervision checks assert on observer counters, so they need
        # a live metrics registry even when the caller wants no
        # artifacts.
        self.observer = observer if observer is not None else Observer()
        self.name = ""
        self.results: list[tuple[str, bool, str]] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """Record and print one verdict under the running check's name."""
        label = f"{self.name}: {label}"
        self.results.append((label, bool(ok), detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}"
              + (f": {detail}" if detail else ""))

    def counter(self, name: str) -> float:
        return self.observer.metrics.snapshot().get(name, {}).get("value", 0.0)

    @cached_property
    def clean_checksum(self) -> float:
        """Checksum of a fault-free PyMP formation of the device."""
        from repro.core.engine import ParmaEngine

        return ParmaEngine(strategy="pymp", num_workers=3).form(self.meas).checksum

    def persisted(self, engine):
        """``engine.parametrize`` with formation on (it needs an output)."""
        with tempfile.TemporaryDirectory() as eq:
            return engine.parametrize(self.meas, output_dir=eq)

    def standalone_resistance(self) -> np.ndarray:
        """The field a fault-free single-process solve recovers."""
        from repro.core.engine import ParmaEngine

        return ParmaEngine(
            strategy="single", threshold_sigmas=3.0
        ).parametrize(self.meas).resistance


def _kill(run: ChaosRun) -> None:
    """Worker kill mid-formation -> bounded retry, same checksum."""
    from repro.core.engine import ParmaEngine
    from repro.resilience import FaultPlan, RetryPolicy

    result = run.persisted(ParmaEngine(
        strategy="pymp",
        num_workers=3,
        faults=FaultPlan(seed=run.seed, kill_workers=(1,), kill_attempts=1),
        retry=RetryPolicy(max_retries=2),
    ))
    run.check(
        "worker kill -> retry",
        bool(result.events)
        and np.isclose(result.formation.checksum, run.clean_checksum),
        f"{len(result.events)} event(s), checksum matches",
    )


def _hang(run: ChaosRun) -> None:
    """Hung worker -> heartbeat watchdog kills it, the parent salvages
    its completed blocks and re-forms only the missing tail."""
    from repro.core.engine import ParmaEngine
    from repro.resilience import FaultPlan

    f = run.persisted(ParmaEngine(
        strategy="pymp",
        num_workers=3,
        faults=FaultPlan(seed=run.seed, hang_workers=(1,), hang_after_items=1),
        stall_timeout=1.5,
        observer=run.observer,
    )).formation
    run.check(
        "hung worker -> watchdog + salvage",
        np.isclose(f.checksum, run.clean_checksum)
        and f.stalled_ranks == (1,)
        and f.blocks_salvaged > 0
        and f.blocks_reformed > 0,
        f"rank 1 killed after heartbeat stall; {f.blocks_salvaged} "
        f"block(s) salvaged, {f.blocks_reformed} re-formed; "
        "checksum matches",
    )


def _slow(run: ChaosRun) -> None:
    """Slow worker -> straggler speculation re-forms its tail in the
    parent while the worker itself survives to completion."""
    from repro.core.engine import ParmaEngine
    from repro.resilience import FaultPlan
    from repro.resilience.supervise import Supervisor

    before = run.counter("supervise.stragglers")
    result = run.persisted(ParmaEngine(
        strategy="pymp",
        num_workers=3,
        faults=FaultPlan(
            seed=run.seed, slow_workers=(1,), slow_seconds_per_item=0.5
        ),
        supervise=Supervisor(
            stall_timeout=30.0, straggler_age=0.25, observer=run.observer
        ),
        observer=run.observer,
    ))
    fired = run.counter("supervise.stragglers") - before
    run.check(
        "slow worker -> straggler speculation",
        np.isclose(result.formation.checksum, run.clean_checksum)
        and fired >= 1
        and not result.formation.stalled_ranks,
        f"speculation fired for {int(fired)} rank(s); no worker killed; "
        "checksum matches",
    )


def _signal(run: ChaosRun) -> None:
    """Signal death -> the join reports *negative* exit codes (the
    signal number), on both the raising and serial-degraded paths."""
    from repro.core.engine import ParmaEngine
    from repro.parallel.pymp import ParallelError
    from repro.resilience import FaultPlan, RetryPolicy

    sig = int(signal.SIGTERM)
    plan = FaultPlan(
        seed=run.seed, kill_workers=(1,), kill_signal=sig, kill_attempts=99
    )
    try:
        ParmaEngine(strategy="pymp", num_workers=3, faults=plan).form(run.meas)
        run.check("signal death -> negative exit code", False,
                  "no ParallelError raised")
    except ParallelError as exc:
        print(f"  worker death report: ranks {exc.failed_ranks}, "
              f"exit codes {exc.exit_codes}")
        run.check(
            "signal death -> negative exit code",
            exc.failed_ranks == (1,) and exc.exit_codes == (-sig,),
            f"exit code {exc.exit_codes[0]} = -SIGTERM",
        )
    result = run.persisted(ParmaEngine(
        strategy="pymp",
        num_workers=3,
        faults=plan,
        retry=RetryPolicy(max_retries=1),
    ))
    run.check(
        "signal death -> serial degradation",
        result.formation.strategy == "single-thread"
        and np.isclose(result.formation.checksum, run.clean_checksum)
        and any(str(-sig) in e for e in result.events),
        f"degraded to single-thread; events record exit code {-sig}",
    )


def _stream(run: ChaosRun) -> None:
    """Corrupt + dropped stream blocks -> checksum verification
    re-forms them; the resumed file is byte-identical."""
    from repro.core.streaming import stream_to_file
    from repro.resilience import (
        FaultPlan,
        InjectedAbort,
        stream_to_file_checkpointed,
    )

    meas, n = run.meas, run.n
    with tempfile.TemporaryDirectory() as td:
        ref_path = Path(td) / "clean.bin"
        stream_to_file(meas.z_kohm, ref_path, voltage=meas.voltage)
        chaos_dir = Path(td) / "stream"
        plan = FaultPlan(
            seed=run.seed,
            corrupt_blocks=(n + 2,),
            drop_blocks=(3 * n + 1,),
            abort_after_blocks=(n * n) // 2,
        )
        try:
            stream_to_file_checkpointed(
                meas.z_kohm, chaos_dir, voltage=meas.voltage, faults=plan
            )
        except InjectedAbort:
            pass
        cp, resumed, _ = stream_to_file_checkpointed(
            meas.z_kohm, chaos_dir, voltage=meas.voltage
        )
        identical = cp.data_path.read_bytes() == ref_path.read_bytes()
    run.check(
        "block corruption/drop -> checkpointed resume",
        cp.complete and identical and resumed.blocks_discarded > 0,
        f"discarded {resumed.blocks_discarded} "
        f"({resumed.first_bad_reason}); file byte-identical",
    )


def _campaign(run: ChaosRun) -> None:
    """Campaign abort between timepoints -> resume from the manifest,
    fields identical to the fault-free day."""
    from repro.core.engine import ParmaEngine
    from repro.core.pipeline import run_pipeline
    from repro.resilience import FaultPlan, InjectedAbort

    def pipeline(**kwargs):
        return run_pipeline(
            run.campaign, engine=ParmaEngine(strategy="single"), **kwargs
        )

    ref = pipeline()
    with tempfile.TemporaryDirectory() as ck:
        try:
            pipeline(
                checkpoint_dir=ck,
                faults=FaultPlan(seed=run.seed, abort_after_timepoints=2),
            )
        except InjectedAbort:
            pass
        resumed = pipeline(checkpoint_dir=ck)
    fields_equal = all(
        np.array_equal(a.resistance, b.resistance)
        for a, b in zip(ref.results, resumed.results)
    )
    restored = sum(
        1 for r in resumed.results
        if r.formation.strategy.startswith("resumed:")
    )
    run.check(
        "campaign kill -> resume",
        fields_equal and restored == 2,
        f"{restored} timepoint(s) restored, fields identical",
    )


def _dirty(run: ChaosRun) -> None:
    """Dirty measurement: strict rejects naming the channel; repair
    imputes and completes."""
    from repro.core.engine import ParmaEngine
    from repro.mea.dataset import MeasurementValidationError
    from repro.resilience import FaultPlan

    plan = FaultPlan(seed=run.seed, nan_sites=((1, 2),), dead_rows=(0,))
    strict = ParmaEngine(strategy="single", faults=plan, validate="strict")
    try:
        strict.parametrize(run.meas)
        run.check("dirty measurement -> strict reject", False,
                  "no error raised")
    except MeasurementValidationError as exc:
        run.check("dirty measurement -> strict reject",
                  "z_kohm[" in str(exc), str(exc)[:80])
    repair = ParmaEngine(strategy="single", faults=plan, validate="repair")
    result = repair.parametrize(run.meas)
    run.check(
        "dirty measurement -> repair",
        any("repaired" in e for e in result.events)
        and np.all(np.isfinite(result.resistance)),
        "imputed bad sites, solve finished",
    )


def _ladder(run: ChaosRun) -> None:
    """Forced rung failures engage the solver ladder in order."""
    from repro.core.engine import ParmaEngine
    from repro.resilience import FaultPlan

    deg = ParmaEngine(
        strategy="single",
        faults=FaultPlan(seed=run.seed, fail_rungs=("primary", "regularized")),
    ).parametrize(run.meas).degradation
    run.check(
        "solver ladder",
        deg is not None
        and deg.rung_used == "bounded"
        and deg.rungs_tried == ("primary", "regularized", "bounded"),
        deg.describe() if deg else "no degradation report",
    )


def _elastic(run: ChaosRun) -> None:
    """A churn campaign (one worker SIGKILLed, the pool shrunk then
    grown mid-run) commits part files byte-identical to a quiet run's,
    with the lease reassignment and both resizes counted."""
    from repro.parallel.elastic import (
        part_files_identical,
        run_elastic_formation,
    )
    from repro.resilience import FaultPlan

    z = run.meas.z_kohm
    with tempfile.TemporaryDirectory() as ed:
        ed = Path(ed)
        quiet = run_elastic_formation(
            z, workers=3, chunk_items=16, output_dir=ed / "quiet",
            lease_timeout=30.0,
        )
        chunks = quiet.chunks_total
        reassigned = run.counter("elastic.lease_reassigned")
        resized = run.counter("elastic.pool_resized")
        run_elastic_formation(
            z, workers=3, chunk_items=16, output_dir=ed / "churn",
            lease_timeout=30.0,
            faults=FaultPlan(
                seed=run.seed,
                kill_workers=(1,),
                kill_signal=int(signal.SIGKILL),
            ),
            resize_schedule=[
                (max(1, chunks // 3), 2),
                (max(2, 2 * chunks // 3), 3),
            ],
            observer=run.observer,
        )
        identical, detail = part_files_identical(ed / "quiet", ed / "churn")
    reassigned = run.counter("elastic.lease_reassigned") - reassigned
    resized = run.counter("elastic.pool_resized") - resized
    run.check(
        "churn -> bit-identical part files",
        identical and reassigned >= 1 and resized >= 2,
        f"{detail}; {int(reassigned)} lease(s) reassigned, "
        f"{int(resized)} resize(s)",
    )


def _serve(run: ChaosRun) -> None:
    """Kill/hang/corrupt/drop an executor worker under the solve
    service: every recovered answer is bit-identical to a standalone
    solve, and the service stays up throughout."""
    from repro.resilience import FaultPlan
    from repro.serve import ServiceConfig, SolveClient, SolveService

    reference = run.standalone_resistance()

    def drill(label: str, plan: FaultPlan, *, requests: int = 1,
              max_salvage: int = 1, stall_timeout: float = 30.0) -> None:
        with tempfile.TemporaryDirectory() as sd:
            sd = Path(sd)
            config = ServiceConfig(
                socket_path=sd / "chaos.sock",
                results_dir=sd / "results",
                executor="subprocess",
                serve_workers=1,
                term_grace=0.2,
                stall_timeout=stall_timeout,
                max_salvage=max_salvage,
                faults=plan,
            )
            svc = SolveService(config)
            svc.start()
            try:
                client = SolveClient(
                    config.socket_path, timeout=120.0, retries=3,
                    backoff=0.05,
                )
                client.wait_ready(timeout=10.0)
                identical = all(
                    r.ok and np.array_equal(r.resistance_array(), reference)
                    for r in (
                        client.solve(run.meas.z_kohm, id=f"{label}-{i}")
                        for i in range(requests)
                    )
                )
                alive = client.ping()["kind"] == "pong"
                respawns, salvaged = svc.pool.respawns, svc.pool.salvaged
            finally:
                svc.stop()
        run.check(
            label,
            identical and alive and respawns >= 1,
            f"{respawns} respawn(s), {salvaged} salvaged; service up; "
            "recovered fields bit-identical to standalone",
        )

    seed = run.seed
    drill("executor kill -> salvage",
          FaultPlan(seed=seed, serve_kill_requests=(1,)), requests=3)
    drill("worker lost -> client retry",
          FaultPlan(seed=seed, serve_kill_requests=(0,)), max_salvage=0)
    drill("hung executor -> stall watchdog",
          FaultPlan(seed=seed, serve_hang_requests=(0,)), stall_timeout=1.0)
    drill("corrupt result frame -> respawn",
          FaultPlan(seed=seed, serve_corrupt_frames=(0,)))
    drill("dropped executor connection -> respawn",
          FaultPlan(seed=seed, serve_drop_connections=(0,)))


def _fleet(run: ChaosRun) -> None:
    """SIGKILL the routed shard right before a forward: the front walks
    the ring to another shard, the watchdog respawns the dead one, and
    every answer stays bit-identical to a standalone solve."""
    from repro.resilience import FaultPlan
    from repro.serve import ServiceConfig, SolveClient
    from repro.serve.fleet import FleetConfig, SolveFleet

    reference = run.standalone_resistance()
    with tempfile.TemporaryDirectory() as fd:
        fd = Path(fd)
        fleet = SolveFleet(FleetConfig(
            listen=fd / "front.sock",
            results_dir=fd / "results",
            shards=2,
            faults=FaultPlan(seed=run.seed, fleet_kill_requests=(2,)),
            service=ServiceConfig(
                socket_path=fd / "results" / "shard.sock",
                results_dir=fd / "results",
                executor="thread",
                term_grace=0.2,
            ),
        ))
        fleet.start()
        try:
            client = SolveClient(
                fd / "front.sock", timeout=120.0, retries=3, backoff=0.05
            )
            identical = all(
                r.ok and np.array_equal(r.resistance_array(), reference)
                for r in (
                    client.solve(run.meas.z_kohm, id=f"fleet-{i}")
                    for i in range(3)
                )
            )
            respawned = False
            wait_until = time.monotonic() + 10.0
            while not respawned and time.monotonic() < wait_until:
                fstats = client.stats()["fleet"]
                respawned = (
                    fstats["shard_respawns"] >= 1 and len(fstats["alive"]) == 2
                )
                if not respawned:
                    time.sleep(0.2)
            reroutes = client.stats()["fleet"]["reroutes"]
        finally:
            fleet.stop()
    run.check(
        "shard kill -> reroute + respawn",
        identical and respawned and reroutes >= 1,
        f"{reroutes} reroute(s), shard respawned; recovered fields "
        "bit-identical to standalone",
    )


#: Every ``parma chaos --include`` name, in run order, to its check.
CHAOS_CHECKS: dict[str, Callable[[ChaosRun], None]] = {
    "kill": _kill,
    "hang": _hang,
    "slow": _slow,
    "signal": _signal,
    "stream": _stream,
    "campaign": _campaign,
    "dirty": _dirty,
    "ladder": _ladder,
    "elastic": _elastic,
    "serve": _serve,
    "fleet": _fleet,
}

#: The checks that fork worker processes (skipped where fork is missing).
NEEDS_FORK = frozenset(
    {"kill", "hang", "slow", "signal", "elastic", "serve", "fleet"}
)


def run_chaos(
    names: Iterable[str], *, n: int, seed: int, observer=None
) -> list[tuple[str, bool, str]]:
    """Run the named checks in table order; ``(label, ok, detail)`` each.

    Unknown names raise :class:`ValueError` listing the known ones.
    ``observer`` receives the supervision and elastic counters the
    checks assert on (a private one is used when None).
    """
    from repro.parallel.pymp import fork_available

    wanted = set(names)
    unknown = sorted(wanted - set(CHAOS_CHECKS))
    if unknown:
        raise ValueError(
            f"unknown chaos check(s) {', '.join(unknown)} "
            f"(known: {', '.join(CHAOS_CHECKS)})"
        )
    selected = [name for name in CHAOS_CHECKS if name in wanted]
    print(f"chaos smoke on a {n}x{n} device (seed {seed}; "
          f"checks: {', '.join(selected)})")
    run = ChaosRun(n, seed, observer)
    for name in selected:
        run.name = name
        if name in NEEDS_FORK and not fork_available():
            run.check("skipped (no fork)", True)  # pragma: no cover
        else:
            CHAOS_CHECKS[name](run)
    return run.results
