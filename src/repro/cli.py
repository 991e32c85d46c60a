"""Command-line interface: ``parma <subcommand>``.

Subcommands mirror the wet-lab workflow:

``simulate``
    Generate a synthetic measurement campaign (the wet-lab stand-in)
    and write it as a measurement text file.
``solve``
    Parametrize one timepoint of a campaign file: recover R and
    report anomalies; with ``--equations-dir`` the joint constraints
    are formed and persisted first.
``monitor``
    Run the whole campaign with drift analysis (§II-C monitoring).
``screen``
    Quality-control screening: recover R for one timepoint and flag
    open/shorted crossings (manufacturing defects).
``convert``
    Convert a lab workbook directory (CSV sheets) to the measurement
    text format — the paper's "Excel files converted into text".
``selftest``
    Run the library's core-invariant checks (installation sanity).
``chaos``
    Fault-injection smoke: kill workers, corrupt streamed blocks,
    dirty measurements, force solver rungs — and verify every
    recovery path produces the fault-free answer.
``scale``
    Elastic campaign dispatch + the strategy × rank scaling sweep:
    run a quiet and a churn formation campaign (SIGKILL one worker,
    shrink then grow the pool mid-run), verify bit-identical part
    files, then sweep the simulated cluster clock to ``--ranks``
    (default 1,024) and optionally write the ``BENCH_scaling.json``
    shape with ``--out``.
``info``
    Print device/topology/accounting facts for a given n.
``trace``
    Inspect observability artifacts: ``parma trace summarize DIR``
    prints the phase rollup, metrics and environment of a traced run
    (``parma solve/monitor --trace DIR``); ``--json`` emits the same
    flattened record the run catalog ingests.
``runs``
    The SQLite run catalog (docs/OBSERVABILITY.md): ``ingest``
    manifest directories, ``list``/``show``/``query``/``stats`` them,
    ``regress`` bench-tagged runs against the committed BENCH_*.json
    trajectories, and ``watch`` a live ``parma serve`` instance.
``serve``
    Run the persistent solve service on a unix-domain socket: a
    long-lived engine pool with warm solver/pinv caches, priority
    dispatch, bounded admission and graceful SIGTERM drain
    (docs/SERVING.md).
``submit``
    Submit one timepoint to a running ``parma serve`` instance and
    print its result; exit status mirrors ``parma solve`` (plus 75
    for retriable admission rejections).

All output is plain text; exit status is nonzero on failure.  Invoke
as ``parma ...`` (console script) or ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np


def _make_observer(args: argparse.Namespace):
    """Build + install the run Observer for ``--trace`` / ``--metrics``.

    Returns None when neither flag was given (the global observer stays
    the zero-overhead no-op).
    """
    trace_dir = getattr(args, "trace", None)
    if trace_dir is None:
        if getattr(args, "catalog", None) is not None:
            raise ValueError(
                "--catalog requires --trace DIR (the catalog ingests the "
                "run manifest written there)"
            )
        if getattr(args, "bench_tag", None):
            raise ValueError(
                "--bench-tag requires --trace DIR (the tag is stamped into "
                "the run manifest)"
            )
    if trace_dir is None and not getattr(args, "metrics", False):
        return None
    from repro.observe import Observer, set_observer

    obs = Observer(trace_dir=trace_dir)
    set_observer(obs)  # low layers (atomio, checkpoint) report globally
    return obs


def _finish_observer(obs, args: argparse.Namespace, config: dict, memory=None) -> None:
    """Finalize artifacts and/or print the metrics table, then uninstall."""
    if obs is None:
        return
    from repro.observe import set_observer
    from repro.observe.observer import MANIFEST_FILE_NAME

    try:
        if obs.trace_dir is not None:
            extra = None
            if getattr(args, "bench_tag", None):
                extra = {"bench": args.bench_tag}
            manifest = obs.finalize(config=config, memory=memory, extra=extra)
            print(
                f"trace: {manifest['num_spans']} span(s) -> {obs.trace_dir} "
                f"(run {manifest['run_id']}; open trace.chrome.json in "
                "Perfetto, or `parma trace summarize "
                f"{obs.trace_dir}`)"
            )
            print(f"manifest: {obs.trace_dir / MANIFEST_FILE_NAME}")
            catalog_path = getattr(args, "catalog", None)
            if catalog_path is not None:
                from repro.observe.catalog import Catalog

                with Catalog(catalog_path) as catalog:
                    report = catalog.ingest([obs.trace_dir])
                    print(
                        f"catalog: {report.summary()} -> {catalog_path} "
                        f"({catalog.count()} run(s) total)"
                    )
        if getattr(args, "metrics", False):
            from repro.instrument.report import metrics_table
            from repro.observe.metrics import sync_cache_gauges

            if obs.trace_dir is None:
                # finalize() already mirrored the cache gauges above.
                sync_cache_gauges(obs.metrics)
            print(metrics_table(obs.metrics.snapshot()).render())
    finally:
        set_observer(None)


def _drop_observer(obs) -> None:
    """Uninstall the global observer on an error path (no artifacts)."""
    if obs is not None:
        from repro.observe import set_observer

        set_observer(None)


def _add_observe_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="write trace.jsonl, trace.chrome.json and "
                             "manifest.json for this run to DIR")
    parser.add_argument("--metrics", action="store_true",
                        help="print the run's metrics table")
    parser.add_argument("--catalog", type=Path, default=None, metavar="DB",
                        help="also ingest this run's manifest into the "
                             "SQLite run catalog at DB (requires --trace; "
                             "query it with `parma runs`)")
    parser.add_argument("--bench-tag", default=None, metavar="NAME",
                        help="stamp extra.bench=NAME into the manifest so "
                             "`parma runs regress` gates this run against "
                             "the committed BENCH_*.json trajectory "
                             "(requires --trace)")


def _add_deadline_args(
    parser: argparse.ArgumentParser, *, stall_help: str | None = None
) -> None:
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole run; on "
                             "expiry in-flight workers are killed and the "
                             f"exit status is {_DEADLINE_EXIT} (partial "
                             "results are reported, not discarded)")
    if stall_help is not None:
        parser.add_argument("--stall-timeout", type=float, default=None,
                            metavar="SECONDS", help=stall_help)


# Mirrored from repro.resilience.supervise.DEADLINE_EXIT_CODE without
# importing it at module load (the CLI keeps imports lazy per command).
_DEADLINE_EXIT = 94


def _deadline_failure(exc, obs, args, config) -> None:
    """Report a blown deadline: finalize artifacts, print the salvage."""
    _finish_observer(obs, args, {**config, "status": "deadline"})
    print(f"error: {exc}", file=sys.stderr)
    partial = getattr(exc, "partial", None)
    if partial is not None and hasattr(partial, "summary"):
        print("partial results before the deadline:")
        print(partial.summary())


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io.textformat import save_campaign
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import WetLabConfig, run_campaign

    spec = paper_like_spec(args.n, num_anomalies=args.anomalies, seed=args.seed)
    config = WetLabConfig(noise_rel=args.noise)
    run = run_campaign(spec, config, seed=args.seed)
    save_campaign(run.campaign, args.out)
    if args.truth_out:
        np.save(args.truth_out, np.stack(run.ground_truth))
    print(
        f"wrote {len(run.campaign)} timepoints of a {args.n}x{args.n} "
        f"campaign (noise {args.noise:.3%}) to {args.out}"
    )
    if args.truth_out:
        print(f"wrote ground-truth fields to {args.truth_out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.engine import ParmaEngine
    from repro.io.textformat import load_campaign
    from repro.mea.dataset import MeasurementValidationError
    from repro.resilience.degrade import SolverDegradationError
    from repro.resilience.faults import FaultPlan
    from repro.resilience.supervise import DEADLINE_EXIT_CODE, DeadlineExceeded

    campaign = load_campaign(args.campaign)
    try:
        meas = campaign.at_hour(args.hour)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    faults = None
    if args.inject_fail_rungs:
        faults = FaultPlan(
            fail_rungs=tuple(
                r.strip() for r in args.inject_fail_rungs.split(",") if r.strip()
            )
        )
    obs = _make_observer(args)
    engine = ParmaEngine(
        strategy=args.strategy,
        num_workers=args.workers,
        solver=args.solver,
        threshold_sigmas=args.threshold,
        validate=args.validate,
        faults=faults,
        observer=obs,
        deadline=args.deadline,
        stall_timeout=args.stall_timeout,
    )
    solver_kwargs = (
        {"lam": args.lam} if args.solver == "regularized" else None
    )
    config = {
        "command": "solve",
        "n": int(meas.z_kohm.shape[0]),
        "hour": float(meas.hour),
        "strategy": args.strategy,
        "workers": args.workers,
        "solver": args.solver,
        "validate": args.validate,
    }
    memory = None
    try:
        if obs is not None:
            from repro.instrument.memory import MemorySampler

            with MemorySampler(interval=0.02) as sampler, obs.span(
                "run", command="solve", n=int(meas.z_kohm.shape[0])
            ):
                result = engine.parametrize(
                    meas,
                    output_dir=args.equations_dir,
                    solver_kwargs=solver_kwargs,
                )
            memory = sampler.summary()
        else:
            result = engine.parametrize(
                meas, output_dir=args.equations_dir, solver_kwargs=solver_kwargs
            )
    except DeadlineExceeded as exc:
        # Finalize (don't drop) so the manifest records the salvage
        # counters accumulated before the budget ran out.
        _deadline_failure(exc, obs, args, config)
        return DEADLINE_EXIT_CODE
    except SolverDegradationError as exc:
        _drop_observer(obs)
        print(
            f"error: solve failed on every degradation rung: {exc}",
            file=sys.stderr,
        )
        return 1
    except MeasurementValidationError as exc:
        _drop_observer(obs)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    degraded = result.degradation is not None and result.degradation.degraded
    unconverged = degraded and not result.solve.converged
    # Stamped before finalize so the manifest (and the run catalog's
    # `status` column) records the outcome, not just the knobs.
    config["status"] = (
        "unconverged" if unconverged else "degraded" if degraded else "ok"
    )
    _finish_observer(obs, args, config, memory=memory)
    print(result.summary())
    for event in result.events:
        print(f"  resilience: {event}")
    if result.degradation is not None and result.degradation.degraded:
        print(f"  degradation: {result.degradation.describe()}")
        if not result.solve.converged:
            print(
                "error: solve did not converge even after degradation "
                f"({result.degradation.describe()})",
                file=sys.stderr,
            )
            return 1
    if args.show:
        from repro.instrument.heatmap import render_field

        print(render_field(result.resistance, mask=result.detection.mask))
    for region in result.detection.regions:
        print(
            f"  region {region.label}: {region.size} site(s), centroid "
            f"({region.centroid[0]:.1f}, {region.centroid[1]:.1f}), "
            f"peak {region.peak_resistance:.0f} kΩ"
        )
    if args.field_out:
        np.save(args.field_out, result.resistance)
        print(f"wrote recovered field to {args.field_out}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.engine import ParmaEngine
    from repro.core.pipeline import run_pipeline
    from repro.io.textformat import load_campaign
    from repro.resilience.supervise import DEADLINE_EXIT_CODE, DeadlineExceeded

    campaign = load_campaign(args.campaign)
    obs = _make_observer(args)
    # monitor persists no equations, so it runs no formation stage.
    engine = ParmaEngine(threshold_sigmas=args.threshold, observer=obs)
    config = {
        "command": "monitor",
        "timepoints": len(campaign),
        "warm_start": not args.no_warm_start,
    }
    memory = None
    try:
        if obs is not None:
            from repro.instrument.memory import MemorySampler

            with MemorySampler(interval=0.02) as sampler, obs.span(
                "run", command="monitor", timepoints=len(campaign)
            ):
                out = run_pipeline(
                    campaign,
                    engine=engine,
                    growth_threshold=args.growth,
                    warm_start=not args.no_warm_start,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=not args.no_resume,
                    observer=obs,
                    deadline=args.deadline,
                )
            memory = sampler.summary()
        else:
            out = run_pipeline(
                campaign,
                engine=engine,
                growth_threshold=args.growth,
                warm_start=not args.no_warm_start,
                checkpoint_dir=args.checkpoint_dir,
                resume=not args.no_resume,
                deadline=args.deadline,
            )
    except DeadlineExceeded as exc:
        _deadline_failure(exc, obs, args, config)
        return DEADLINE_EXIT_CODE
    config["status"] = (
        "degraded"
        if any(
            r.degradation is not None and r.degradation.degraded
            for r in out.results
        )
        else "ok"
    )
    _finish_observer(obs, args, config, memory=memory)
    print(out.summary())
    resumed = sum(
        1 for r in out.results if r.formation.strategy.startswith("resumed:")
    )
    if resumed:
        print(f"  {resumed} timepoint(s) restored from checkpoint "
              f"{args.checkpoint_dir}")
    if args.show and out.drift_detection is not None:
        from repro.instrument.heatmap import render_comparison

        print(render_comparison(
            out.results[0].resistance,
            out.results[-1].resistance,
            labels=(f"{out.hours[0]:g} h", f"{out.hours[-1]:g} h"),
        ))
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    from repro.core.solver import solve_nested
    from repro.instrument.heatmap import render_mask
    from repro.io.textformat import load_campaign
    from repro.mea.defects import classify_crossings, healthy_band_violations

    campaign = load_campaign(args.campaign)
    try:
        meas = campaign.at_hour(args.hour)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = solve_nested(meas.z_kohm, voltage=meas.voltage, max_iter=200)
    defects = classify_crossings(result.r_estimate)
    print(
        f"screened {meas.z_kohm.shape[0]}x{meas.z_kohm.shape[1]} device at "
        f"hour {meas.hour:g}: {defects.num_opens} open(s), "
        f"{defects.num_shorts} short(s)"
    )
    for site in defects.open_sites():
        print(f"  OPEN  at crossing {site}")
    for site in defects.short_sites():
        print(f"  SHORT at crossing {site}")
    suspects = healthy_band_violations(result.r_estimate)
    suspects &= defects.codes == 0
    if suspects.any():
        print(f"  {int(suspects.sum())} crossing(s) outside the healthy "
              "band (suspect calibration):")
        print(render_mask(suspects, on="?"))
    return 0 if defects.num_defects == 0 else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.io.workbook import convert_workbook

    campaign = convert_workbook(args.workbook, args.out)
    print(
        f"converted {args.workbook} -> {args.out}: "
        f"{len(campaign)} timepoints at hours {campaign.hours}"
    )
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.core.selftest import run_selftest

    report = run_selftest(n=args.n)
    print(report.render())
    return 0 if report.passed else 1


#: ``parma chaos --include`` keys, in execution order.
CHAOS_CHECKS = (
    "kill", "hang", "slow", "signal", "stream", "campaign", "dirty", "ladder",
    "elastic", "serve", "fleet",
)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection smoke test: every recovery path, one command.

    Each check injects a specific fault and asserts the recovered
    output equals the fault-free reference — recovery that silently
    changes answers is worse than crashing.
    """
    import signal as signal_mod
    import tempfile

    import numpy as np

    from repro.core.engine import ParmaEngine
    from repro.core.pipeline import run_pipeline
    from repro.core.streaming import stream_to_file
    from repro.mea.dataset import MeasurementValidationError
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import run_campaign
    from repro.observe import Observer
    from repro.parallel.pymp import ParallelError, fork_available
    from repro.resilience import (
        FaultPlan,
        InjectedAbort,
        RetryPolicy,
        stream_to_file_checkpointed,
    )
    from repro.resilience.supervise import Supervisor

    include = None
    if args.include:
        include = tuple(
            name.strip() for name in args.include.split(",") if name.strip()
        )
        unknown = sorted(set(include) - set(CHAOS_CHECKS))
        if unknown:
            print(
                f"error: unknown chaos check(s) {', '.join(unknown)} "
                f"(known: {', '.join(CHAOS_CHECKS)})",
                file=sys.stderr,
            )
            return 2

    def want(name: str) -> bool:
        return include is None or name in include

    n, seed = args.n, args.seed
    run = run_campaign(paper_like_spec(n, seed=seed), seed=seed)
    campaign = run.campaign
    meas = campaign.measurements[0]
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    obs = _make_observer(args)
    # Supervision checks assert on observer counters, so they need a
    # live metrics registry even when the user asked for no artifacts.
    sup_obs = obs if obs is not None else Observer()

    def counter(name: str) -> float:
        return sup_obs.metrics.snapshot().get(name, {}).get("value", 0.0)

    selected = include or CHAOS_CHECKS
    print(
        f"chaos smoke on a {n}x{n} device (seed {seed}; "
        f"checks: {', '.join(selected)})"
    )

    clean = None
    if fork_available() and any(
        want(c) for c in ("kill", "hang", "slow", "signal")
    ):
        clean = ParmaEngine(strategy="pymp", num_workers=3).form(meas)

    def persisted(engine: ParmaEngine):
        # Formation runs only when equations are persisted.
        with tempfile.TemporaryDirectory() as eq:
            return engine.parametrize(meas, output_dir=eq)

    # 1. Worker kill mid-formation -> bounded retry reproduces the
    #    fault-free formation checksum.
    if want("kill"):
        if fork_available():
            engine = ParmaEngine(
                strategy="pymp",
                num_workers=3,
                faults=FaultPlan(seed=seed, kill_workers=(1,), kill_attempts=1),
                retry=RetryPolicy(max_retries=2),
            )
            result = persisted(engine)
            check(
                "worker kill -> retry",
                bool(result.events)
                and np.isclose(result.formation.checksum, clean.checksum),
                f"{len(result.events)} event(s), checksum matches",
            )
        else:  # pragma: no cover - fork always available on test platforms
            check("worker kill -> retry", True, "skipped (no fork)")

    # 2. Hung worker -> heartbeat watchdog kills it, parent salvages
    #    its completed blocks and re-forms only the missing tail.
    if want("hang"):
        if fork_available():
            engine = ParmaEngine(
                strategy="pymp",
                num_workers=3,
                faults=FaultPlan(seed=seed, hang_workers=(1,), hang_after_items=1),
                stall_timeout=1.5,
                observer=sup_obs,
            )
            result = persisted(engine)
            f = result.formation
            check(
                "hung worker -> watchdog + salvage",
                np.isclose(f.checksum, clean.checksum)
                and f.stalled_ranks == (1,)
                and f.blocks_salvaged > 0
                and f.blocks_reformed > 0,
                f"rank 1 killed after heartbeat stall; {f.blocks_salvaged} "
                f"block(s) salvaged, {f.blocks_reformed} re-formed; "
                "checksum matches",
            )
        else:  # pragma: no cover
            check("hung worker -> watchdog + salvage", True, "skipped (no fork)")

    # 3. Slow worker -> straggler speculation fires (tail re-formed in
    #    the parent) while the worker itself survives to completion.
    if want("slow"):
        if fork_available():
            before = counter("supervise.stragglers")
            engine = ParmaEngine(
                strategy="pymp",
                num_workers=3,
                faults=FaultPlan(
                    seed=seed, slow_workers=(1,), slow_seconds_per_item=0.5
                ),
                supervise=Supervisor(
                    stall_timeout=30.0, straggler_age=0.25, observer=sup_obs
                ),
                observer=sup_obs,
            )
            result = persisted(engine)
            fired = counter("supervise.stragglers") - before
            check(
                "slow worker -> straggler speculation",
                np.isclose(result.formation.checksum, clean.checksum)
                and fired >= 1
                and not result.formation.stalled_ranks,
                f"speculation fired for {int(fired)} rank(s); no worker "
                "killed; checksum matches",
            )
        else:  # pragma: no cover
            check("slow worker -> straggler speculation", True,
                  "skipped (no fork)")

    # 4. Signal death -> the join reports *negative* exit codes (the
    #    signal number), on both the raising and serial-degraded paths.
    if want("signal"):
        if fork_available():
            sig = int(signal_mod.SIGTERM)
            plan = FaultPlan(
                seed=seed, kill_workers=(1,), kill_signal=sig, kill_attempts=99
            )
            engine = ParmaEngine(strategy="pymp", num_workers=3, faults=plan)
            try:
                engine.form(meas)
                check("signal death -> negative exit code", False,
                      "no ParallelError raised")
            except ParallelError as exc:
                print(
                    f"  worker death report: ranks {exc.failed_ranks}, "
                    f"exit codes {exc.exit_codes}"
                )
                check(
                    "signal death -> negative exit code",
                    exc.failed_ranks == (1,) and exc.exit_codes == (-sig,),
                    f"exit code {exc.exit_codes[0]} = -SIGTERM",
                )
            engine = ParmaEngine(
                strategy="pymp",
                num_workers=3,
                faults=plan,
                retry=RetryPolicy(max_retries=1),
            )
            result = persisted(engine)
            check(
                "signal death -> serial degradation",
                result.formation.strategy == "single-thread"
                and np.isclose(result.formation.checksum, clean.checksum)
                and any(str(-sig) in e for e in result.events),
                f"degraded to single-thread; events record exit code {-sig}",
            )
        else:  # pragma: no cover
            check("signal death -> negative exit code", True,
                  "skipped (no fork)")

    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        # 5. Corrupt + dropped stream blocks -> checksum verification
        #    re-forms them; resumed file is byte-identical.
        if want("stream"):
            ref_path = td / "clean.bin"
            stream_to_file(meas.z_kohm, ref_path, voltage=meas.voltage)
            chaos_dir = td / "stream"
            corrupt = n + 2
            plan = FaultPlan(
                seed=seed,
                corrupt_blocks=(corrupt,),
                drop_blocks=(3 * n + 1,),
                abort_after_blocks=(n * n) // 2,
            )
            try:
                stream_to_file_checkpointed(
                    meas.z_kohm, chaos_dir, voltage=meas.voltage, faults=plan
                )
            except InjectedAbort:
                pass
            cp, resume_report, _ = stream_to_file_checkpointed(
                meas.z_kohm, chaos_dir, voltage=meas.voltage
            )
            identical = cp.data_path.read_bytes() == ref_path.read_bytes()
            check(
                "block corruption/drop -> checkpointed resume",
                cp.complete and identical and resume_report.blocks_discarded > 0,
                f"discarded {resume_report.blocks_discarded} "
                f"({resume_report.first_bad_reason}); file byte-identical",
            )

        # 6. Campaign abort between timepoints -> resume from manifest,
        #    fields identical to the fault-free day.
        if want("campaign"):
            ref = run_pipeline(campaign, engine=ParmaEngine(strategy="single"))
            ck = td / "campaign"
            try:
                run_pipeline(
                    campaign,
                    engine=ParmaEngine(strategy="single"),
                    checkpoint_dir=ck,
                    faults=FaultPlan(seed=seed, abort_after_timepoints=2),
                )
            except InjectedAbort:
                pass
            resumed = run_pipeline(
                campaign, engine=ParmaEngine(strategy="single"), checkpoint_dir=ck
            )
            fields_equal = all(
                np.array_equal(a.resistance, b.resistance)
                for a, b in zip(ref.results, resumed.results)
            )
            restored = sum(
                1
                for r in resumed.results
                if r.formation.strategy.startswith("resumed:")
            )
            check(
                "campaign kill -> resume",
                fields_equal and restored == 2,
                f"{restored} timepoint(s) restored, fields identical",
            )

    # 7. Dirty measurement: strict rejects naming the channel; repair
    #    imputes and completes.
    if want("dirty"):
        dirty_plan = FaultPlan(seed=seed, nan_sites=((1, 2),), dead_rows=(0,))
        strict = ParmaEngine(strategy="single", faults=dirty_plan, validate="strict")
        try:
            strict.parametrize(meas)
            check("dirty measurement -> strict reject", False, "no error raised")
        except MeasurementValidationError as exc:
            check(
                "dirty measurement -> strict reject",
                "z_kohm[" in str(exc),
                str(exc)[:80],
            )
        repair = ParmaEngine(strategy="single", faults=dirty_plan, validate="repair")
        result = repair.parametrize(meas)
        check(
            "dirty measurement -> repair",
            any("repaired" in e for e in result.events)
            and np.all(np.isfinite(result.resistance)),
            "imputed bad sites, solve finished",
        )

    # 8. Forced rung failures engage the ladder in order.
    if want("ladder"):
        engine = ParmaEngine(
            strategy="single",
            faults=FaultPlan(seed=seed, fail_rungs=("primary", "regularized")),
        )
        result = engine.parametrize(meas)
        deg = result.degradation
        check(
            "solver ladder",
            deg is not None
            and deg.rung_used == "bounded"
            and deg.rungs_tried == ("primary", "regularized", "bounded"),
            deg.describe() if deg else "no degradation report",
        )

    # 9. Elastic dispatch: a churn campaign (one worker SIGKILLed, the
    #    pool shrunk then grown mid-run) must commit part files
    #    byte-identical to a quiet run's, with the lease reassignment
    #    and both resizes visible as elastic.* counters.
    if want("elastic"):
        if fork_available():
            from repro.parallel.elastic import (
                part_files_identical,
                run_elastic_formation,
            )

            with tempfile.TemporaryDirectory() as ed:
                ed = Path(ed)
                quiet = run_elastic_formation(
                    meas.z_kohm,
                    workers=3,
                    chunk_items=16,
                    output_dir=ed / "quiet",
                    lease_timeout=30.0,
                )
                chunks = quiet.chunks_total
                before_reassigned = counter("elastic.lease_reassigned")
                before_resized = counter("elastic.pool_resized")
                run_elastic_formation(
                    meas.z_kohm,
                    workers=3,
                    chunk_items=16,
                    output_dir=ed / "churn",
                    lease_timeout=30.0,
                    faults=FaultPlan(
                        seed=seed,
                        kill_workers=(1,),
                        kill_signal=int(signal_mod.SIGKILL),
                    ),
                    resize_schedule=[
                        (max(1, chunks // 3), 2),
                        (max(2, 2 * chunks // 3), 3),
                    ],
                    observer=sup_obs,
                )
                identical, detail = part_files_identical(
                    ed / "quiet", ed / "churn"
                )
                reassigned = (
                    counter("elastic.lease_reassigned") - before_reassigned
                )
                resized = counter("elastic.pool_resized") - before_resized
                check(
                    "elastic: churn -> bit-identical part files",
                    identical and reassigned >= 1 and resized >= 2,
                    f"{detail}; {int(reassigned)} lease(s) reassigned, "
                    f"{int(resized)} resize(s)",
                )
        else:  # pragma: no cover - fork always available on test platforms
            check("elastic: churn -> bit-identical part files", True,
                  "skipped (no fork)")

    # 10. Serve chaos: kill/hang/corrupt/drop an executor worker under
    #    the solve service; every recovered answer must be bit-identical
    #    to a standalone solve, and the service must stay up throughout.
    if want("serve"):
        if fork_available():
            from repro.serve import ServiceConfig, SolveClient, SolveService

            serve_ref = ParmaEngine(
                strategy="single", threshold_sigmas=3.0
            ).parametrize(meas)

            def serve_check(
                name: str,
                plan: FaultPlan,
                *,
                requests: int = 1,
                max_salvage: int = 1,
                stall_timeout: float = 30.0,
            ) -> None:
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
                            config.socket_path,
                            timeout=120.0,
                            retries=3,
                            backoff=0.05,
                        )
                        client.wait_ready(timeout=10.0)
                        responses = [
                            client.solve(meas.z_kohm, id=f"{name}-{i}")
                            for i in range(requests)
                        ]
                        identical = all(
                            r.ok
                            and np.array_equal(
                                r.resistance_array(), serve_ref.resistance
                            )
                            for r in responses
                        )
                        alive = client.ping()["kind"] == "pong"
                        respawns = svc.pool.respawns
                        salvaged = svc.pool.salvaged
                    finally:
                        svc.stop()
                check(
                    name,
                    identical and alive and respawns >= 1,
                    f"{respawns} respawn(s), {salvaged} salvaged; service "
                    "up; recovered fields bit-identical to standalone",
                )

            serve_check(
                "serve: executor kill -> salvage",
                FaultPlan(seed=seed, serve_kill_requests=(1,)),
                requests=3,
            )
            serve_check(
                "serve: worker lost -> client retry",
                FaultPlan(seed=seed, serve_kill_requests=(0,)),
                max_salvage=0,
            )
            serve_check(
                "serve: hung executor -> stall watchdog",
                FaultPlan(seed=seed, serve_hang_requests=(0,)),
                stall_timeout=1.0,
            )
            serve_check(
                "serve: corrupt result frame -> respawn",
                FaultPlan(seed=seed, serve_corrupt_frames=(0,)),
            )
            serve_check(
                "serve: dropped executor connection -> respawn",
                FaultPlan(seed=seed, serve_drop_connections=(0,)),
            )
        else:  # pragma: no cover - fork always available on test platforms
            check("serve: executor chaos", True, "skipped (no fork)")

    # 11. Fleet chaos: SIGKILL the routed shard process right before a
    #    forward; the front must walk the ring to another shard, the
    #    watchdog must respawn the dead one, and every answer must stay
    #    bit-identical to a standalone solve.
    if want("fleet"):
        if fork_available():
            from repro.serve import SolveClient
            from repro.serve.fleet import FleetConfig, SolveFleet

            fleet_ref = ParmaEngine(
                strategy="single", threshold_sigmas=3.0
            ).parametrize(meas)
            with tempfile.TemporaryDirectory() as fd:
                fd = Path(fd)
                fleet = SolveFleet(FleetConfig(
                    listen=fd / "front.sock",
                    results_dir=fd / "results",
                    shards=2,
                    term_grace=0.2,
                    faults=FaultPlan(seed=seed, fleet_kill_requests=(2,)),
                ))
                fleet.start()
                try:
                    client = SolveClient(
                        fd / "front.sock",
                        timeout=120.0,
                        retries=3,
                        backoff=0.05,
                    )
                    responses = [
                        client.solve(meas.z_kohm, id=f"fleet-{i}")
                        for i in range(3)
                    ]
                    identical = all(
                        r.ok
                        and np.array_equal(
                            r.resistance_array(), fleet_ref.resistance
                        )
                        for r in responses
                    )
                    respawned = False
                    wait_until = time.monotonic() + 10.0
                    while time.monotonic() < wait_until:
                        fstats = client.stats()["fleet"]
                        if (
                            fstats["shard_respawns"] >= 1
                            and len(fstats["alive"]) == 2
                        ):
                            respawned = True
                            break
                        time.sleep(0.2)
                    reroutes = client.stats()["fleet"]["reroutes"]
                finally:
                    fleet.stop()
            check(
                "fleet: shard kill -> reroute + respawn",
                identical and respawned and reroutes >= 1,
                f"{reroutes} reroute(s), shard respawned; recovered "
                "fields bit-identical to standalone",
            )
        else:  # pragma: no cover - fork always available on test platforms
            check("fleet: shard chaos", True, "skipped (no fork)")

    _finish_observer(
        obs, args,
        {"command": "chaos", "n": n, "seed": seed, "checks": ",".join(selected)},
    )
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"chaos: {len(failed)}/{len(checks)} check(s) FAILED: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"chaos: all {len(checks)} checks passed")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    """Elastic campaign + strategy × rank scaling sweep.

    Two halves, mirroring ``BENCH_scaling.json``:

    1. A *real* elastic formation campaign on this host — a quiet run,
       then (unless ``--no-churn``) a churn run with one worker
       SIGKILLed and the pool shrunk-then-grown mid-campaign.  The
       churn run must commit part files byte-identical to the quiet
       run's; the elapsed ratio is the measured churn overhead.
    2. A *simulated* strategy × rank-count sweep on the deterministic
       cluster clock (powers of two up to ``--ranks``), plus failover
       and heterogeneous-awareness reference points.
    """
    import contextlib
    import signal as signal_mod
    import tempfile

    from repro.core.partition import make_items
    from repro.core.strategies import calibrate_sec_per_term
    from repro.parallel.elastic import (
        part_files_identical,
        run_elastic_formation,
        sweep_scaling_curves,
    )
    from repro.parallel.heterogeneous import HeterogeneousCluster
    from repro.parallel.pymp import fork_available
    from repro.parallel.simcluster import HPC_FDR, simulate_with_failures
    from repro.parallel.workstealing import simulate_stealing_with_failures
    from repro.instrument.report import ResultTable
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import run_campaign
    from repro.resilience.faults import FaultPlan
    from repro.resilience.supervise import Deadline, DeadlineExceeded

    n, seed = args.n, args.seed
    try:
        obs = _make_observer(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = {
        "command": "scale",
        "n": n,
        "seed": seed,
        "workers": args.workers,
        "chunk_items": args.chunk_items,
        "max_ranks": args.ranks,
        "churn": not args.no_churn,
    }
    deadline = Deadline.coerce(args.deadline)
    # --stall-timeout maps onto the lease watchdog: a worker silent
    # longer than this loses its lease (and is killed + replaced).
    lease_timeout = (
        args.stall_timeout if args.stall_timeout is not None else 30.0
    )
    meas = run_campaign(
        paper_like_spec(n, seed=seed), seed=seed
    ).campaign.measurements[0]

    campaign: dict[str, object] = {"ran": False}
    try:
        if fork_available():
            span = (
                obs.span("formation", strategy="elastic", n=n)
                if obs is not None
                else contextlib.nullcontext()
            )
            with tempfile.TemporaryDirectory() as td, span:
                td = Path(td)
                quiet = run_elastic_formation(
                    meas.z_kohm,
                    workers=args.workers,
                    chunk_items=args.chunk_items,
                    output_dir=td / "quiet",
                    lease_timeout=lease_timeout,
                    observer=obs,
                    deadline=deadline,
                )
                print(
                    f"quiet campaign: {quiet.chunks_completed}/"
                    f"{quiet.chunks_total} chunk(s), "
                    f"{quiet.terms_formed} terms in "
                    f"{quiet.elapsed_seconds:.3f}s "
                    f"({quiet.workers_spawned} worker(s))"
                )
                campaign = {
                    "ran": True,
                    "chunks": quiet.chunks_total,
                    "quiet_seconds": quiet.elapsed_seconds,
                }
                if not args.no_churn:
                    chunks = quiet.chunks_total
                    churn = run_elastic_formation(
                        meas.z_kohm,
                        workers=args.workers,
                        chunk_items=args.chunk_items,
                        output_dir=td / "churn",
                        lease_timeout=lease_timeout,
                        faults=FaultPlan(
                            seed=seed,
                            kill_workers=(1,),
                            kill_signal=int(signal_mod.SIGKILL),
                        ),
                        resize_schedule=[
                            (max(1, chunks // 3), max(1, args.workers - 1)),
                            (max(2, 2 * chunks // 3), args.workers),
                        ],
                        observer=obs,
                        deadline=deadline,
                    )
                    identical, detail = part_files_identical(
                        td / "quiet", td / "churn"
                    )
                    if not identical:
                        print(
                            f"error: churn campaign diverged from the "
                            f"quiet run ({detail})",
                            file=sys.stderr,
                        )
                        _finish_observer(
                            obs, args, {**config, "status": "diverged"}
                        )
                        return 1
                    overhead = (
                        churn.elapsed_seconds / quiet.elapsed_seconds - 1.0
                    )
                    print(
                        f"churn campaign: {detail}; "
                        f"{churn.leases_reassigned} lease(s) reassigned, "
                        f"{churn.pool_resizes} resize(s), "
                        f"{churn.workers_respawned} respawn(s); "
                        f"overhead {overhead * 100:+.1f}% vs quiet"
                    )
                    campaign.update(
                        churn_seconds=churn.elapsed_seconds,
                        churn_overhead=overhead,
                        leases_reassigned=churn.leases_reassigned,
                        pool_resizes=churn.pool_resizes,
                        workers_respawned=churn.workers_respawned,
                        part_files_identical=True,
                    )
        else:
            print("elastic campaign skipped: fork unavailable on this host")

        # -- the simulated sweep (rank counts beyond the host) -------------
        rank_counts = []
        r = 1
        while r <= args.ranks:
            rank_counts.append(r)
            r *= 2
        sec_per_term = calibrate_sec_per_term(n)
        curves = sweep_scaling_curves(
            n, rank_counts, sec_per_term=sec_per_term
        )
        table = ResultTable(
            f"simulated strong scaling, n={n} "
            f"(sec/term {sec_per_term:.2e})",
            ("strategy", "ranks", "seconds", "speedup", "efficiency"),
        )
        for curve in curves.values():
            for i, ranks in enumerate(curve.rank_counts):
                if ranks not in (curve.rank_counts[0], curve.rank_counts[-1]):
                    continue
                table.add_row(
                    curve.strategy,
                    ranks,
                    f"{curve.total_seconds[i]:.4f}",
                    f"{curve.speedup[i]:.1f}",
                    f"{curve.efficiency[i]:.3f}",
                )
        print(table.render())

        items = make_items(n)
        costs = np.array([it.cost for it in items], dtype=np.float64)
        costs *= sec_per_term
        failover_ranks = min(256, max(2, args.ranks))
        recovery = simulate_with_failures(
            costs,
            failover_ranks,
            HPC_FDR,
            failed_ranks=(1,),
            observer=obs,
        )
        steal = simulate_stealing_with_failures(
            costs,
            num_workers=8,
            death_times={1: float(costs.sum()) / 16.0},
            observer=obs,
        )
        hetero_ranks = min(64, max(2, args.ranks))
        hetero = HeterogeneousCluster(
            {
                "old": (hetero_ranks // 2, 1.0),
                "new": (hetero_ranks - hetero_ranks // 2, 1.8),
            },
            HPC_FDR,
        )
        awareness = hetero.awareness_gain(costs)
        print(
            f"failover at {failover_ranks} ranks: "
            f"{recovery.total / recovery.baseline_total - 1.0:+.1%} over "
            f"the quiet makespan ({recovery.tasks_redispatched} task(s) "
            f"redispatched); stealing failover reran {steal.tasks_rerun} "
            f"task(s); heterogeneous awareness gain at {hetero_ranks} "
            f"ranks: {awareness:.2f}x"
        )
    except DeadlineExceeded as exc:
        _deadline_failure(exc, obs, args, config)
        return _DEADLINE_EXIT

    if args.out is not None:
        sizes = []
        if campaign.get("ran"):
            total = float(campaign["quiet_seconds"]) + float(
                campaign.get("churn_seconds", 0.0)
            )
            sizes.append({"n": n, "elastic_formation_seconds": total})
        payload = {
            "benchmark": "elastic_scaling",
            "n": n,
            "seed": seed,
            "sec_per_term": sec_per_term,
            "campaign": campaign,
            "curves": {
                name: {
                    "rank_counts": list(c.rank_counts),
                    "total_seconds": list(c.total_seconds),
                    "speedup": list(c.speedup),
                    "efficiency": list(c.efficiency),
                }
                for name, c in curves.items()
            },
            "failover": {
                "ranks": failover_ranks,
                "baseline_seconds": recovery.baseline_total,
                "recovered_seconds": recovery.total,
                "tasks_redispatched": recovery.tasks_redispatched,
                "stealing_tasks_rerun": steal.tasks_rerun,
            },
            "heterogeneous": {
                "ranks": hetero_ranks,
                "awareness_gain": awareness,
            },
            "sizes": sizes,
        }
        args.out.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")

    _finish_observer(obs, args, config)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``parma trace summarize DIR``: digest a traced run's artifacts."""
    from repro.instrument.report import (
        human_seconds,
        metrics_table,
        trace_phase_table,
    )
    from repro.observe import load_manifest, phase_total_seconds
    from repro.observe.observer import MANIFEST_FILE_NAME, TRACE_JSONL_NAME
    from repro.observe.tracing import build_span_tree, read_jsonl

    directory = Path(args.dir)
    manifest_path = directory / MANIFEST_FILE_NAME
    if not manifest_path.exists():
        print(f"error: no {MANIFEST_FILE_NAME} in {directory}", file=sys.stderr)
        return 2
    manifest = load_manifest(manifest_path)
    if args.json:
        # Same serializer the run catalog ingests through, so scripted
        # consumers and `parma runs` always agree on derived fields.
        from repro.observe.catalog import summarize_run

        print(json.dumps(
            summarize_run(manifest, source_path=str(manifest_path)),
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    env = manifest["environment"]
    print(f"run {manifest['run_id']}")
    print(
        f"  wall {human_seconds(manifest['wall_seconds'])}, "
        f"cpu {human_seconds(manifest['cpu_seconds'])}, "
        f"{manifest.get('num_spans', 0)} span(s)"
    )
    print(
        f"  host {env.get('host')} ({env.get('platform')}); "
        f"python {env.get('python')}, numpy {env.get('numpy')} "
        f"[{env.get('blas')}]; git {env.get('git')}"
    )
    if manifest.get("config"):
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(manifest["config"].items()))
        print(f"  config: {knobs}")
    if manifest.get("memory"):
        from repro.instrument.report import human_bytes

        mem = manifest["memory"]
        print(
            f"  memory: peak {human_bytes(mem.get('peak', 0))}, "
            f"p50 {human_bytes(mem.get('p50', 0))}, "
            f"p90 {human_bytes(mem.get('p90', 0))}"
        )
    covered = phase_total_seconds(manifest)
    wall = manifest["wall_seconds"]
    if wall > 0:
        print(f"  phase coverage: {covered / wall:.1%} of wall time traced")
    print(trace_phase_table(manifest["phases"]).render())
    print(metrics_table(manifest["metrics"]).render())
    trace_path = directory / TRACE_JSONL_NAME
    if args.tree and trace_path.exists():
        spans = read_jsonl(trace_path)
        roots = build_span_tree([s for s in spans if s.kind == "span"])

        def show(node, depth):
            span = node.span
            print(
                "  " + "  " * depth
                + f"{span.name} {human_seconds(span.dur)}"
                + (f" [pid {span.pid}]" if depth == 0 else "")
            )
            for child in node.children:
                if child.span.kind == "span":
                    show(child, depth + 1)

        print("span tree:")
        for root in roots:
            show(root, 0)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.categories import (
        total_equations,
        total_terms,
        total_unknowns,
    )
    from repro.core.equations import SystemStats
    from repro.instrument.report import human_bytes
    from repro.kirchhoff.paths import total_paths_paper
    from repro.mea.device import MEAGrid
    from repro.mea.graph import expected_betti, mesh_count

    n = args.n
    grid = MEAGrid(n)
    print(f"{n}x{n} MEA device")
    print(f"  wires: {n} horizontal + {n} vertical")
    print(f"  resistors: {grid.num_resistors}; joints: {grid.num_joints}")
    print(f"  conduction paths (paper estimate n^(n+1)): "
          f"{total_paths_paper(n):.3e}" if n > 12 else
          f"  conduction paths (paper estimate n^(n+1)): "
          f"{total_paths_paper(n)}")
    beta = expected_betti(grid)
    print(f"  topology: beta_0 = {beta[0]}, beta_1 = {beta[1]} holes "
          f"(= {mesh_count(grid)} meshes = parallelism budget)")
    print("joint-constraint system (Parma):")
    print(f"  equations: {total_equations(n)}  (2 n^3)")
    print(f"  unknowns:  {total_unknowns(n)}  ((2n-1) n^2)")
    print(f"  flow terms: {total_terms(n)}  (2 n^4)")
    stats = SystemStats.for_device(n)
    print(f"  memory estimate: {human_bytes(stats.bytes_estimate)}")
    from repro.core.templates import get_template
    from repro.instrument.report import cache_stats_table
    from repro.observe.metrics import all_cache_stats

    # Exercise the formation template once (second call is the hit).
    get_template(n)
    get_template(n)
    # all_cache_stats() is the same single source the run manifest's
    # cache gauges are mirrored from, so both surfaces always agree.
    print(cache_stats_table(all_cache_stats()).render())
    from repro.resilience.degrade import LADDER_RUNGS

    print("resilience:")
    print(f"  degradation ladder: {' -> '.join(LADDER_RUNGS)}")
    print("  checkpoints: campaign manifests (per-timepoint field + "
          "SHA-256), stream journals (per-block checksum)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent solve service until SIGTERM/SIGINT drains it."""
    import signal as signal_mod

    from repro.observe import Observer
    from repro.serve import ServiceConfig, SolveService

    obs = Observer(trace_dir=args.trace)
    config = ServiceConfig(
        socket_path=args.socket,
        results_dir=args.results,
        tcp=args.tcp,
        max_queue_depth=args.queue_depth,
        serve_workers=args.serve_workers,
        max_deadline=args.max_deadline,
        executor=args.executor,
        stall_timeout=args.stall_timeout,
        max_queue_seconds=args.max_queue_seconds,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        catalog_path=args.catalog,
        observer=obs,
    )
    service = SolveService(config)
    service.start()

    def _on_signal(signum, frame) -> None:
        service.request_drain()

    signal_mod.signal(signal_mod.SIGTERM, _on_signal)
    signal_mod.signal(signal_mod.SIGINT, _on_signal)
    tcp_note = ""
    if service.tcp_address is not None:
        host, port = service.tcp_address
        tcp_note = f" + tcp {host}:{port}"
    print(
        f"serving on {args.socket}{tcp_note} "
        f"({service.executor_mode} executors; "
        f"results under {args.results}; "
        f"queue<= {args.queue_depth}; "
        "SIGTERM drains)",
        flush=True,
    )
    try:
        while not service.wait(timeout=0.5):
            pass
    finally:
        service.stop()
    if obs.trace_dir is not None:
        manifest = obs.finalize(
            config={
                "command": "serve",
                "socket": str(args.socket),
                "executor": service.executor_mode,
                "status": "ok",  # the drain completed
                "worker_respawns": (
                    service.pool.respawns if service.pool is not None else 0
                ),
                "requests_salvaged": (
                    service.pool.salvaged if service.pool is not None else 0
                ),
            },
            extra={"bench": args.bench_tag} if args.bench_tag else None,
        )
        print(f"service manifest: {args.trace}/manifest.json "
              f"(run {manifest['run_id']})")
        if args.catalog is not None:
            from repro.observe.catalog import Catalog

            with Catalog(args.catalog) as catalog:
                report = catalog.ingest([obs.trace_dir])
                print(
                    f"catalog: {report.summary()} -> {args.catalog} "
                    f"({catalog.count()} run(s) total)"
                )
    if args.metrics and obs.metrics is not None:
        from repro.instrument.report import metrics_table

        print(metrics_table(obs.metrics.snapshot()).render())
    print("drained; all in-flight requests completed")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a sharded solve fleet until SIGTERM/SIGINT drains it."""
    import signal as signal_mod

    from repro.observe import Observer
    from repro.serve.fleet import FleetConfig, SolveFleet

    obs = Observer(trace_dir=args.trace)
    config = FleetConfig(
        listen=args.listen,
        results_dir=args.results,
        shards=args.shards,
        max_queue_depth=args.queue_depth,
        serve_workers=args.serve_workers,
        max_deadline=args.max_deadline,
        shard_executor=args.shard_executor,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_inflight_per_shard=args.max_inflight,
        shard_stall_timeout=args.shard_stall_timeout,
        catalog_path=args.catalog,
        observer=obs,
    )
    fleet = SolveFleet(config)
    fleet.start()

    def _on_signal(signum, frame) -> None:
        fleet.request_drain()

    signal_mod.signal(signal_mod.SIGTERM, _on_signal)
    signal_mod.signal(signal_mod.SIGINT, _on_signal)
    where = str(args.listen)
    if fleet.tcp_address is not None:
        host, port = fleet.tcp_address
        where = f"{host}:{port}"
    print(
        f"fleet front on {where} ({args.shards} shard(s) keyed on n; "
        f"results under {args.results}; SIGTERM drains)",
        flush=True,
    )
    try:
        while not fleet.wait(timeout=0.5):
            pass
    finally:
        fleet.stop()
    if obs.trace_dir is not None:
        manifest = obs.finalize(
            config={
                "command": "fleet",
                "listen": where,
                "shards": args.shards,
                "status": "ok",  # the drain completed
                "requests": fleet.requests,
                "reroutes": fleet.reroutes,
                "shard_respawns": fleet.respawns,
            },
            extra={"bench": args.bench_tag} if args.bench_tag else None,
        )
        print(f"fleet manifest: {args.trace}/manifest.json "
              f"(run {manifest['run_id']})")
        if args.catalog is not None:
            from repro.observe.catalog import Catalog

            with Catalog(args.catalog) as catalog:
                report = catalog.ingest([obs.trace_dir])
                print(
                    f"catalog: {report.summary()} -> {args.catalog} "
                    f"({catalog.count()} run(s) total)"
                )
    if args.metrics and obs.metrics is not None:
        from repro.instrument.report import metrics_table

        print(metrics_table(obs.metrics.snapshot()).render())
    print("drained; all shards retired cleanly")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Send one timepoint to a running service and print the result."""
    from repro.io.textformat import load_campaign
    from repro.serve import ServeConnectionError, SolveClient
    from repro.serve.protocol import RETRIABLE_EXIT_CODE

    campaign = load_campaign(args.campaign)
    try:
        meas = campaign.at_hour(args.hour)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    target = args.tcp if args.tcp is not None else args.socket
    if target is None:
        print("error: give --socket PATH or --tcp HOST:PORT",
              file=sys.stderr)
        return 2
    client = SolveClient(
        target,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
    )
    try:
        response = client.solve(
            meas.z_kohm,
            voltage=meas.voltage,
            hour=meas.hour,
            solver=args.solver,
            threshold_sigmas=args.threshold,
            validate=args.validate,
            deadline=args.deadline,
            priority=args.priority,
            client_id=args.client_id,
            solver_kwargs=(
                {"lam": args.lam} if args.solver == "regularized" else {}
            ),
            want_field=args.field_out is not None or args.show,
        )
    except ServeConnectionError as exc:
        hint = (
            "request never reached the service"
            if exc.safe_to_retry
            else "outcome unknown (request may have been executed)"
        )
        print(f"error: {exc} [{hint}]", file=sys.stderr)
        return RETRIABLE_EXIT_CODE
    if response.retriable:
        print(
            f"rejected ({response.status}): {response.error} — safe to "
            "resubmit (or raise --retries)",
            file=sys.stderr,
        )
        # Per-priority queue depths tell the operator *which* class is
        # backed up (a full batch lane with an idle interactive lane
        # means "resubmit with --priority interactive", not "back off").
        try:
            stats = client.stats()
        except ServeConnectionError:
            stats = {}
        depths = stats.get("queue_depths") or {}
        if depths:
            per_class = ", ".join(
                f"{name} {count}" for name, count in sorted(depths.items())
            )
            print(
                f"  queue depth {stats.get('queue_depth', 0)} "
                f"({per_class}), estimated wait "
                f"{stats.get('estimated_queue_seconds', 0.0):.1f}s",
                file=sys.stderr,
            )
        return response.exit_status
    if not response.ok:
        print(f"error: {response.status}: {response.error}", file=sys.stderr)
        return response.exit_status
    print(response.summary)
    print(
        f"  served: {'warm' if response.cache_warm else 'cold'} caches, "
        f"queued {response.queue_seconds:.3f}s, "
        f"ran {response.elapsed_seconds:.3f}s"
    )
    for event in response.events:
        print(f"  resilience: {event}")
    if response.manifest_path:
        print(f"  manifest: {response.manifest_path}")
    field = response.resistance_array()
    if args.show and field is not None:
        from repro.instrument.heatmap import render_field

        print(render_field(field))
    if args.field_out is not None and field is not None:
        np.save(args.field_out, field)
        print(f"wrote recovered field to {args.field_out}")
    return response.exit_status


# -- `parma runs`: the SQLite run catalog -------------------------------------

#: Default catalog database (override with ``--db``).
DEFAULT_CATALOG_DB = Path("runs-catalog.sqlite")


def _runs_filters(args: argparse.Namespace) -> dict:
    """Shared ``runs`` filter flags -> :meth:`Catalog._filters` knobs."""
    from repro.observe.catalog import parse_since

    filters: dict = {}
    if getattr(args, "kind", None):
        filters["kind"] = args.kind
    if getattr(args, "status", None):
        filters["status"] = args.status
    if getattr(args, "bench", None):
        filters["bench"] = args.bench
    if getattr(args, "since", None):
        filters["since"] = parse_since(args.since)
    if getattr(args, "min_rung", None) is not None:
        filters["min_rung"] = args.min_rung
    if getattr(args, "grep", None):
        filters["search"] = args.grep
    if getattr(args, "where", None):
        filters["where"] = args.where
    return filters


def _cmd_runs_ingest(args: argparse.Namespace) -> int:
    from repro.observe.catalog import Catalog

    with Catalog(args.db) as catalog:
        report = catalog.ingest(args.paths)
        for path, error in report.errors:
            print(f"rejected {path}: {error}", file=sys.stderr)
        print(report.summary())
        print(f"catalog: {args.db} ({catalog.count()} run(s) total)")
    return 1 if report.errors else 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.instrument.report import ResultTable
    from repro.observe.catalog import Catalog

    with Catalog(args.db, readonly=True) as catalog:
        rows = catalog.list_runs(limit=args.limit, **_runs_filters(args))
    if args.json:
        print(json.dumps([dict(r) for r in rows], indent=2, default=str))
        return 0
    table = ResultTable(
        f"runs ({len(rows)} shown, newest first)",
        ("run", "kind", "status", "n", "solver", "rung", "started",
         "wall s", "solve s", "bench"),
    )
    for row in rows:
        started = (
            time.strftime("%m-%d %H:%M:%S", time.localtime(row["started_unix"]))
            if row["started_unix"]
            else "-"
        )
        table.add_row(
            row["run_id"][:17],
            row["kind"],
            row["status"],
            row["n"] if row["n"] is not None else "-",
            row["solver"] or "-",
            row["rung_name"] if row["degradation_rung"] else "-",
            started,
            f"{row['wall_seconds']:.3f}" if row["wall_seconds"] else "-",
            (
                f"{row['solve_seconds']:.3f}"
                if row["solve_seconds"] is not None
                else "-"
            ),
            row["bench"] or "-",
        )
    print(table.render())
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.instrument.report import ResultTable, human_bytes, human_seconds
    from repro.observe.catalog import Catalog

    with Catalog(args.db, readonly=True) as catalog:
        run, phases, metrics = catalog.get_run(args.run_id)
    if args.json:
        print(json.dumps(
            {
                "run": dict(run),
                "phases": [dict(p) for p in phases],
                "metrics": [dict(m) for m in metrics],
            },
            indent=2, default=str,
        ))
        return 0
    print(f"run {run['run_id']} [{run['kind']}] status={run['status']}")
    knobs = ", ".join(
        f"{key}={run[key]}"
        for key in ("n", "hour", "strategy", "workers", "solver",
                    "formation", "validate", "timepoints")
        if run[key] is not None
    )
    if knobs:
        print(f"  config: {knobs}")
    print(
        f"  wall {human_seconds(run['wall_seconds'] or 0)}, "
        f"cpu {human_seconds(run['cpu_seconds'] or 0)}, "
        f"{run['num_spans'] or 0} span(s); "
        f"rung {run['degradation_rung']} ({run['rung_name']})"
    )
    if run["bench"]:
        print(f"  bench tag: {run['bench']}")
    if run["mem_peak_bytes"]:
        print(
            f"  memory: peak {human_bytes(run['mem_peak_bytes'])}, "
            f"p50 {human_bytes(run['mem_p50_bytes'] or 0)}, "
            f"p90 {human_bytes(run['mem_p90_bytes'] or 0)}"
        )
    rates = [
        f"{label} {run[column]:.1%}"
        for label, column in (
            ("template", "template_hit_rate"),
            ("laplacian", "laplacian_hit_rate"),
            ("jacobian", "jacobian_hit_rate"),
        )
        if run[column] is not None
    ]
    if rates:
        print(f"  cache hit rates: {', '.join(rates)}")
    if run["source_path"]:
        print(f"  manifest: {run['source_path']}")
    table = ResultTable("phases", ("phase", "count", "total s", "self s"))
    for phase in phases:
        table.add_row(
            phase["name"], phase["count"],
            f"{phase['total_seconds']:.4f}", f"{phase['self_seconds']:.4f}",
        )
    if phases:
        print(table.render())
    return 0


def _cmd_runs_query(args: argparse.Namespace) -> int:
    from repro.instrument.report import ResultTable
    from repro.observe.catalog import Catalog

    with Catalog(args.db, readonly=True) as catalog:
        columns, rows = catalog.query(args.sql)
    if args.json:
        print(json.dumps(
            [dict(zip(columns, row)) for row in rows], indent=2, default=str
        ))
        return 0
    table = ResultTable(f"query ({len(rows)} row(s))", tuple(columns) or ("?",))
    for row in rows:
        table.add_row(*[value if value is not None else "-" for value in row])
    print(table.render())
    return 0


def _cmd_runs_stats(args: argparse.Namespace) -> int:
    from repro.instrument.report import ResultTable
    from repro.observe.catalog import Catalog

    group_by = tuple(
        g.strip() for g in args.group_by.split(",") if g.strip()
    )
    with Catalog(args.db, readonly=True) as catalog:
        entries = catalog.stats(
            group_by=group_by, metric=args.metric, **_runs_filters(args)
        )
    if args.json:
        print(json.dumps(entries, indent=2, default=str))
        return 0
    table = ResultTable(
        f"{args.metric} by {', '.join(group_by) or 'all'}",
        (*group_by, "count", "p50", "p95", "mean", "max"),
    )
    for entry in entries:
        table.add_row(
            *[entry[g] if entry[g] is not None else "-" for g in group_by],
            entry["count"],
            f"{entry['p50']:.4f}",
            f"{entry['p95']:.4f}",
            f"{entry['mean']:.4f}",
            f"{entry['max']:.4f}",
        )
    print(table.render())
    return 0


def _cmd_runs_regress(args: argparse.Namespace) -> int:
    from repro.observe.catalog import Catalog

    default_benches = {
        "solver": Path("BENCH_solver.json"),
        "formation": Path("BENCH_formation.json"),
        "scaling": Path("BENCH_scaling.json"),
        "serve": Path("BENCH_serve.json"),
    }
    bench_paths = args.bench
    if bench_paths is None and args.kind is not None:
        path = default_benches[args.kind]
        if not path.exists():
            print(f"error: {path} not found for --kind {args.kind}",
                  file=sys.stderr)
            return 2
        bench_paths = [path]
    if bench_paths is None:
        bench_paths = [p for p in default_benches.values() if p.exists()]
    if not bench_paths:
        print(
            "error: no benchmark trajectories (pass --bench PATH or run "
            "from a checkout with BENCH_solver.json / BENCH_formation.json "
            "/ BENCH_scaling.json / BENCH_serve.json)",
            file=sys.stderr,
        )
        return 2
    with Catalog(args.db, readonly=True) as catalog:
        report = catalog.regress(bench_paths, threshold=args.threshold)
    print(report.render())
    if not report.checks:
        # An empty gate passes nothing; surface it as a failure so CI
        # can't silently stop gating when tagging breaks.
        print(
            "error: no bench-tagged runs matched any trajectory "
            "(run with --trace DIR --catalog DB --bench-tag solver|formation)",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok else 1


def _watch_render(stats: dict, previous: dict | None) -> str:
    """One dashboard frame from a serve stats reply (+ the previous one)."""
    from repro.instrument.report import human_seconds
    from repro.observe.metrics import histogram_quantile

    elapsed = None
    if previous is not None:
        delta = stats.get("server_monotonic", 0.0) - previous.get(
            "server_monotonic", 0.0
        )
        if delta > 0:
            elapsed = delta

    def rate(current: float, key: str) -> str:
        if elapsed is None:
            return ""
        per_second = (current - (previous or {}).get(key, 0)) / elapsed
        return f" ({per_second:+.2f}/s)"

    lines = [
        f"parma serve — up {human_seconds(stats.get('uptime_seconds', 0.0))}"
        f" | executor {stats.get('executor', '?')}"
        f" | {'DRAINING' if stats.get('draining') else 'serving'}"
    ]
    requests = stats.get("requests", 0)
    lines.append(
        f"requests {requests}{rate(requests, 'requests')}"
        f" | idempotent hits {stats.get('idempotent_hits', 0)}"
        f" | respawns {stats.get('worker_respawns', 0)}"
        f" | salvaged {stats.get('requests_salvaged', 0)}"
    )
    depths = stats.get("queue_depths", {}) or {}
    per_class = ", ".join(f"{k} {v}" for k, v in sorted(depths.items()))
    lines.append(
        f"queue depth {stats.get('queue_depth', 0)}"
        + (f" ({per_class})" if per_class else "")
        + f" | est wait {stats.get('estimated_queue_seconds', 0.0):.2f}s"
    )
    shed = stats.get("shed", {}) or {}
    shed_text = ", ".join(f"{k} {v}" for k, v in sorted(shed.items())) or "none"
    lines.append(
        f"shed: {shed_text}"
        f" | quota rejections {stats.get('quota_rejections', 0)}"
    )
    fleet = stats.get("fleet")
    if isinstance(fleet, dict):
        alive = fleet.get("alive", [])
        routed = fleet.get("routed", [])
        lines.append(
            f"fleet: {len(alive)}/{fleet.get('shards', '?')} shards up"
            f" | routed {routed}"
            f" | reroutes {fleet.get('reroutes', 0)}"
            f" | shard respawns {fleet.get('shard_respawns', 0)}"
        )
    metrics = stats.get("metrics", {}) or {}
    for label, name in (
        ("latency warm", "serve.latency.warm_seconds"),
        ("latency cold", "serve.latency.cold_seconds"),
        ("queue wait", "serve.queue_wait_seconds"),
    ):
        entry = metrics.get(name)
        if not isinstance(entry, dict) or not entry.get("count"):
            continue
        lines.append(
            f"{label}: n={entry['count']} "
            f"p50 {histogram_quantile(entry, 0.50) * 1e3:.1f}ms "
            f"p95 {histogram_quantile(entry, 0.95) * 1e3:.1f}ms"
        )
    if elapsed is not None:
        lines.append(f"rates over the last {elapsed:.1f}s")
    return "\n".join(lines)


def _cmd_runs_watch(args: argparse.Namespace) -> int:
    """Poll a running ``parma serve`` and render a live text dashboard."""
    from repro.serve import ServeConnectionError, SolveClient

    client = SolveClient(args.socket, timeout=args.timeout)
    previous = None
    frames = 0
    try:
        while True:
            try:
                stats = client.stats()
            except ServeConnectionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not args.no_clear and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(_watch_render(stats, previous), flush=True)
            previous = stats
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parma",
        description="Parma: topological parametrization of MEA data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic campaign")
    p_sim.add_argument("--n", type=int, default=12, help="device side")
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--anomalies", type=int, default=1)
    p_sim.add_argument("--noise", type=float, default=0.002,
                       help="relative instrument noise")
    p_sim.add_argument("--out", type=Path, required=True,
                       help="campaign text file to write")
    p_sim.add_argument("--truth-out", type=Path, default=None,
                       help="optional .npy for ground-truth fields")
    p_sim.set_defaults(func=_cmd_simulate)

    p_solve = sub.add_parser("solve", help="parametrize one timepoint")
    p_solve.add_argument("campaign", type=Path)
    p_solve.add_argument("--hour", type=float, default=0.0)
    p_solve.add_argument("--strategy", default="pymp",
                         choices=["single", "parallel", "balanced",
                                  "pymp", "pymp-dynamic"],
                         help="formation strategy (applies with "
                              "--equations-dir)")
    p_solve.add_argument("--workers", type=int, default=4,
                         help="formation region width (applies with "
                              "--equations-dir)")
    p_solve.add_argument("--solver", default="nested",
                         choices=["nested", "full", "regularized", "bounded"])
    p_solve.add_argument("--lam", type=float, default=1e-3,
                         help="Tikhonov weight for --solver regularized")
    p_solve.add_argument("--validate", default="strict",
                         choices=["strict", "repair", "off"],
                         help="measurement boundary policy: reject bad "
                              "channels, impute them, or skip the audit")
    p_solve.add_argument("--inject-fail-rungs", default=None, metavar="RUNGS",
                         help="chaos: comma-separated solver rungs to fail "
                              "(e.g. primary,regularized)")
    p_solve.add_argument("--threshold", type=float, default=3.0,
                         help="anomaly threshold in robust sigmas")
    p_solve.add_argument("--equations-dir", type=Path, default=None,
                         help="form the §IV-A equations and persist them "
                              "here (without it no formation runs)")
    p_solve.add_argument("--field-out", type=Path, default=None,
                         help="write recovered R field (.npy)")
    p_solve.add_argument("--show", action="store_true",
                         help="render the recovered field as a heatmap")
    _add_observe_args(p_solve)
    _add_deadline_args(
        p_solve,
        stall_help="heartbeat watchdog: kill a formation worker silent "
                   "this long and salvage its completed blocks (applies "
                   "with --equations-dir)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_mon = sub.add_parser("monitor", help="full-campaign drift analysis")
    p_mon.add_argument("campaign", type=Path)
    p_mon.add_argument("--threshold", type=float, default=3.0)
    p_mon.add_argument("--growth", type=float, default=0.25,
                       help="relative growth flag level")
    p_mon.add_argument("--no-warm-start", action="store_true")
    p_mon.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="persist per-timepoint checkpoints here and "
                            "resume from them")
    p_mon.add_argument("--no-resume", action="store_true",
                       help="ignore existing checkpoints (recompute all)")
    p_mon.add_argument("--show", action="store_true",
                       help="render first/last recovered fields")
    _add_observe_args(p_mon)
    _add_deadline_args(p_mon)
    p_mon.set_defaults(func=_cmd_monitor)

    p_scr = sub.add_parser("screen", help="defect screening (QC)")
    p_scr.add_argument("campaign", type=Path)
    p_scr.add_argument("--hour", type=float, default=0.0)
    p_scr.set_defaults(func=_cmd_screen)

    p_conv = sub.add_parser("convert",
                            help="workbook dir -> measurement text")
    p_conv.add_argument("workbook", type=Path)
    p_conv.add_argument("--out", type=Path, required=True)
    p_conv.set_defaults(func=_cmd_convert)

    p_self = sub.add_parser("selftest", help="core-invariant checks")
    p_self.add_argument("--n", type=int, default=5)
    p_self.set_defaults(func=_cmd_selftest)

    p_chaos = sub.add_parser("chaos",
                             help="fault-injection smoke (recovery checks)")
    p_chaos.add_argument("--n", type=int, default=10, help="device side")
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument("--include", default=None, metavar="CHECKS",
                         help="comma-separated subset of checks to run "
                              f"({', '.join(CHAOS_CHECKS)}); default all")
    _add_observe_args(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_scale = sub.add_parser(
        "scale",
        help="elastic campaign + strategy x rank scaling sweep",
    )
    p_scale.add_argument("--n", type=int, default=20, help="device side")
    p_scale.add_argument("--seed", type=int, default=7)
    p_scale.add_argument("--workers", type=int, default=3,
                         help="elastic pool size for the real campaign")
    p_scale.add_argument("--chunk-items", type=int, default=16,
                         help="items leased per work chunk")
    p_scale.add_argument("--ranks", type=int, default=1024,
                         help="largest simulated rank count (the sweep "
                              "covers powers of two up to this)")
    p_scale.add_argument("--no-churn", action="store_true",
                         help="skip the churn campaign (quiet run only)")
    p_scale.add_argument("--out", type=Path, default=None,
                         help="write the BENCH_scaling.json-shaped report "
                              "here")
    _add_observe_args(p_scale)
    _add_deadline_args(
        p_scale,
        stall_help="lease watchdog: a worker silent this long loses its "
                   "lease and is killed and replaced (default 30)",
    )
    p_scale.set_defaults(func=_cmd_scale)

    p_srv = sub.add_parser("serve",
                           help="persistent solve service (unix socket)")
    p_srv.add_argument("--socket", type=Path, required=True,
                       help="unix-domain socket path to listen on")
    p_srv.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="also listen on a TCP address (same framed "
                            "protocol; port 0 picks an ephemeral port; "
                            "bind loopback unless the network is trusted "
                            "— the protocol has no authentication)")
    p_srv.add_argument("--results", type=Path, required=True,
                       help="directory for per-request run manifests "
                            "(req-<id>/manifest.json)")
    p_srv.add_argument("--queue-depth", type=int, default=64,
                       help="admission bound; beyond it requests are "
                            "rejected retriably (exit 75 at the client)")
    p_srv.add_argument("--serve-workers", type=int, default=1,
                       help="executor threads (keep 1 unless solves are "
                            "short and BLAS contention is acceptable)")
    p_srv.add_argument("--max-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="cap every per-request deadline (and impose "
                            "one on requests that asked for none)")
    p_srv.add_argument("--executor", default="subprocess",
                       choices=["subprocess", "thread"],
                       help="execution host: forked subprocess workers "
                            "(crash-isolated, falls back to thread where "
                            "fork is unavailable) or in-process threads")
    p_srv.add_argument("--stall-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="heartbeat age after which a subprocess "
                            "executor is killed and respawned")
    p_srv.add_argument("--max-queue-seconds", type=float, default=None,
                       metavar="SECONDS",
                       help="shed lowest-priority work when estimated "
                            "queue wait exceeds this bound")
    p_srv.add_argument("--quota-rate", type=float, default=None,
                       metavar="REQ_PER_SEC",
                       help="per-client token-bucket refill; omit to "
                            "disable quotas (anonymous clients are exempt)")
    p_srv.add_argument("--quota-burst", type=float, default=8.0,
                       help="token-bucket capacity per client id")
    _add_observe_args(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser("fleet",
                             help="sharded multi-process solve fleet "
                                  "behind one TCP/unix front")
    p_fleet.add_argument("--listen", required=True, metavar="ADDR",
                         help="front address: HOST:PORT (TCP; port 0 "
                              "picks an ephemeral port) or a unix "
                              "socket path")
    p_fleet.add_argument("--results", type=Path, required=True,
                         help="fleet root; shard i serves on "
                              "<results>/shard-i/shard.sock and writes "
                              "its manifests there")
    p_fleet.add_argument("--shards", type=int, default=2,
                         help="worker processes; requests shard by n "
                              "on a consistent-hash ring")
    p_fleet.add_argument("--queue-depth", type=int, default=64,
                         help="per-shard admission bound")
    p_fleet.add_argument("--serve-workers", type=int, default=1,
                         help="executor slots inside each shard")
    p_fleet.add_argument("--max-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="cap every per-request deadline fleet-wide")
    p_fleet.add_argument("--shard-executor", default="thread",
                         choices=["thread", "subprocess"],
                         help="execution host inside each shard (the "
                              "shard process is already the crash-"
                              "isolation boundary, so thread is the "
                              "default; subprocess nests executor "
                              "isolation within each shard)")
    p_fleet.add_argument("--quota-rate", type=float, default=None,
                         metavar="REQ_PER_SEC",
                         help="per-client token-bucket refill, enforced "
                              "at the front (anonymous clients exempt)")
    p_fleet.add_argument("--quota-burst", type=float, default=8.0,
                         help="front token-bucket capacity per client id")
    p_fleet.add_argument("--max-inflight", type=int, default=8,
                         help="per-shard in-flight bound beyond which "
                              "batch-priority work is shed at the front "
                              "(interactive is still admitted)")
    p_fleet.add_argument("--shard-stall-timeout", type=float, default=15.0,
                         metavar="SECONDS",
                         help="heartbeat age after which a shard is "
                              "declared dead and respawned")
    _add_observe_args(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_sub = sub.add_parser("submit",
                           help="submit one timepoint to a running serve")
    p_sub.add_argument("campaign", type=Path)
    p_sub.add_argument("--socket", type=Path, default=None,
                       help="unix socket of the running `parma serve`")
    p_sub.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="TCP address of a `parma fleet` front or a "
                            "`parma serve --tcp` service (alternative "
                            "to --socket)")
    p_sub.add_argument("--hour", type=float, default=0.0)
    p_sub.add_argument("--solver", default="nested",
                       choices=["nested", "full", "regularized", "bounded"])
    p_sub.add_argument("--lam", type=float, default=1e-3,
                       help="Tikhonov weight for --solver regularized")
    p_sub.add_argument("--threshold", type=float, default=3.0,
                       help="anomaly threshold in robust sigmas")
    p_sub.add_argument("--validate", default="strict",
                       choices=["strict", "repair", "off"],
                       help="measurement boundary policy applied server-side")
    p_sub.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock budget (exit 94 when "
                            "blown, like `parma solve --deadline`)")
    p_sub.add_argument("--timeout", type=float, default=300.0,
                       help="client socket timeout (queue wait + solve)")
    p_sub.add_argument("--retries", type=int, default=0,
                       help="resubmit this many times on retriable "
                            "rejections (queue full, quota, worker lost) "
                            "and connection failures; all attempts share "
                            "one idempotency id")
    p_sub.add_argument("--backoff", type=float, default=0.1,
                       metavar="SECONDS",
                       help="base retry backoff (exponential, with "
                            "deterministic per-request jitter)")
    p_sub.add_argument("--priority", default="batch",
                       choices=["interactive", "batch"],
                       help="admission class; interactive dequeues first "
                            "and batch is shed first under overload")
    p_sub.add_argument("--client-id", default="",
                       help="quota accounting id (empty = exempt from "
                            "per-client quotas)")
    p_sub.add_argument("--field-out", type=Path, default=None,
                       help="write recovered R field (.npy)")
    p_sub.add_argument("--show", action="store_true",
                       help="render the recovered field as a heatmap")
    p_sub.set_defaults(func=_cmd_submit)

    p_info = sub.add_parser("info", help="device/system accounting")
    p_info.add_argument("--n", type=int, default=10)
    p_info.set_defaults(func=_cmd_info)

    p_trace = sub.add_parser("trace", help="inspect observability artifacts")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="phase/metrics digest of a traced run directory"
    )
    p_tsum.add_argument("dir", type=Path,
                        help="directory written by --trace")
    p_tsum.add_argument("--tree", action="store_true",
                        help="also print the reconstructed span tree")
    p_tsum.add_argument("--json", action="store_true",
                        help="emit the flattened run record as JSON (the "
                             "same serializer `parma runs ingest` indexes)")
    p_tsum.set_defaults(func=_cmd_trace)

    p_runs = sub.add_parser(
        "runs", help="SQLite run catalog over manifest directories"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", type=Path, default=DEFAULT_CATALOG_DB,
                       help="catalog database path "
                            f"(default {DEFAULT_CATALOG_DB})")

    def _add_filters(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", default=None,
                       help="filter: run kind (solve, monitor, serve, "
                            "serve-request, chaos, ...)")
        p.add_argument("--status", default=None,
                       help="filter: exit status (ok, degraded, unconverged, "
                            "deadline, failed, exhausted)")
        p.add_argument("--bench", default=None,
                       help="filter: bench tag (solver, formation, ...)")
        p.add_argument("--since", default=None, metavar="AGE|ISO",
                       help="filter: started within a relative age (12h, 7d, "
                            "2w) or after an ISO date")
        p.add_argument("--min-rung", type=int, default=None, metavar="K",
                       help="filter: degradation ladder reached rung >= K "
                            "(1 = any degradation)")
        p.add_argument("--grep", default=None, metavar="TEXT",
                       help="filter: free-text search over config/"
                            "environment/extra (FTS5 when available)")
        p.add_argument("--where", default=None, metavar="SQL",
                       help="filter: raw SQL condition over runs columns, "
                            "e.g. \"n >= 20 AND solver = 'nested'\"")

    p_ringest = runs_sub.add_parser(
        "ingest", help="index manifest files/directories (idempotent)"
    )
    p_ringest.add_argument("paths", type=Path, nargs="+",
                           help="manifest.json files or directories to "
                                "scan recursively")
    _add_db(p_ringest)
    p_ringest.set_defaults(func=_cmd_runs_ingest)

    p_rlist = runs_sub.add_parser("list", help="tabulate cataloged runs")
    _add_db(p_rlist)
    _add_filters(p_rlist)
    p_rlist.add_argument("--limit", type=int, default=50)
    p_rlist.add_argument("--json", action="store_true",
                         help="emit rows as JSON")
    p_rlist.set_defaults(func=_cmd_runs_list)

    p_rshow = runs_sub.add_parser(
        "show", help="one run's columns, phases and metrics"
    )
    p_rshow.add_argument("run_id", help="full run id or unique prefix")
    _add_db(p_rshow)
    p_rshow.add_argument("--json", action="store_true")
    p_rshow.set_defaults(func=_cmd_runs_show)

    p_rquery = runs_sub.add_parser(
        "query", help="read-only SQL over the catalog (SELECT only)"
    )
    p_rquery.add_argument("sql", help="a SELECT/WITH statement; tables: "
                                      "runs, phases, metrics")
    _add_db(p_rquery)
    p_rquery.add_argument("--json", action="store_true")
    p_rquery.set_defaults(func=_cmd_runs_query)

    p_rstats = runs_sub.add_parser(
        "stats", help="percentile aggregates (p50/p95/mean/max) of a column"
    )
    _add_db(p_rstats)
    _add_filters(p_rstats)
    p_rstats.add_argument("--group-by", default="n,solver", metavar="COLS",
                          help="comma-separated runs columns to group by")
    p_rstats.add_argument("--metric", default="solve_seconds",
                          help="runs column to aggregate "
                               "(solve_seconds, formation_seconds, "
                               "wall_seconds, mem_peak_bytes, ...)")
    p_rstats.add_argument("--json", action="store_true")
    p_rstats.set_defaults(func=_cmd_runs_stats)

    p_rregress = runs_sub.add_parser(
        "regress", help="gate bench-tagged runs against BENCH_*.json "
                        "(exit 1 past threshold)"
    )
    _add_db(p_rregress)
    p_rregress.add_argument("--bench", type=Path, action="append",
                            default=None, metavar="PATH",
                            help="benchmark trajectory JSON (repeatable; "
                                 "default: every committed BENCH_*.json "
                                 "present in the working directory)")
    p_rregress.add_argument("--kind", default=None,
                            choices=["solver", "formation", "scaling",
                                     "serve"],
                            help="gate only this benchmark family's "
                                 "default BENCH_*.json (ignored when "
                                 "--bench is given)")
    p_rregress.add_argument("--threshold", type=float, default=1.5,
                            help="fail when observed > threshold x baseline")
    p_rregress.set_defaults(func=_cmd_runs_regress)

    p_rwatch = runs_sub.add_parser(
        "watch", help="live dashboard over a running `parma serve`"
    )
    p_rwatch.add_argument("--socket", required=True, metavar="ADDR",
                          help="unix socket of a running `parma serve`, "
                               "or HOST:PORT of a `parma fleet` front")
    p_rwatch.add_argument("--interval", type=float, default=2.0,
                          help="seconds between polls")
    p_rwatch.add_argument("--iterations", type=int, default=None,
                          help="stop after this many frames (default: "
                               "until interrupted)")
    p_rwatch.add_argument("--timeout", type=float, default=5.0,
                          help="per-poll socket timeout")
    p_rwatch.add_argument("--no-clear", action="store_true",
                          help="append frames instead of clearing the "
                               "screen (useful for logs)")
    p_rwatch.set_defaults(func=_cmd_runs_watch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
