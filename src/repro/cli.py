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
    recovery path produces the fault-free answer (the named checks of
    :mod:`repro.resilience.chaos`).
``scale``
    The ``BENCH_scaling.json`` experiment at one size
    (:func:`repro.parallel.elastic.run_scaling_experiment`): a quiet
    and a churn formation campaign (SIGKILL one worker, shrink then
    grow the pool mid-run) with bit-identical part files, then the
    simulated strategy × rank sweep to ``--ranks`` (default 1,024);
    ``--out`` writes the report.
``info``
    Print device/topology/accounting facts for a given n.
``trace``
    Inspect observability artifacts: ``parma trace summarize DIR``
    prints the phase rollup, metrics and environment of a traced run
    (``parma solve/monitor --trace DIR``), and ``parma trace summarize
    LOG#OFFSET`` the same for one served request's evidence record;
    ``--json`` emits the same flattened record the run catalog
    ingests, ``--chrome FILE`` renders the spans as a Chrome trace.
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

from repro.core.engine import VALIDATE_MODES
from repro.core.solver import SOLVER_METHODS


_NEEDS_TRACE = {
    "catalog": "--catalog requires --trace DIR (the catalog ingests the "
               "run manifest written there)",
    "bench_tag": "--bench-tag requires --trace DIR (the tag is stamped into "
                 "the run manifest)",
}


def _require_trace(args: argparse.Namespace, *names: str) -> None:
    """Refuse the named ``--trace``-only flags when ``--trace`` is absent."""
    if getattr(args, "trace", None) is None:
        for name in names:
            if getattr(args, name, None):
                raise ValueError(_NEEDS_TRACE[name])


def _make_observer(args: argparse.Namespace):
    """Build + install the run Observer for ``--trace`` / ``--metrics``.

    Returns None when neither flag was given (the global observer stays
    the zero-overhead no-op).
    """
    _require_trace(args, "catalog", "bench_tag")
    trace_dir = getattr(args, "trace", None)
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection smoke: the named checks of :mod:`repro.resilience.chaos`."""
    from repro.resilience.chaos import CHAOS_CHECKS, run_chaos

    names = [
        name.strip()
        for name in (args.include or ",".join(CHAOS_CHECKS)).split(",")
        if name.strip()
    ]
    obs = _make_observer(args)
    try:
        results = run_chaos(names, n=args.n, seed=args.seed, observer=obs)
    except BaseException:
        _drop_observer(obs)
        raise
    _finish_observer(
        obs, args,
        {"command": "chaos", "n": args.n, "seed": args.seed,
         "checks": ",".join(names)},
    )
    failed = [label for label, ok, _ in results if not ok]
    if failed:
        print(f"chaos: {len(failed)}/{len(results)} check(s) FAILED: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"chaos: all {len(results)} checks passed")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    """The ``BENCH_scaling.json`` experiment at one size.

    :func:`repro.parallel.elastic.run_scaling_experiment` runs a quiet
    and a churn elastic campaign (exit 1 unless their part files are
    byte-identical), then the simulated strategy × rank sweep to
    ``--ranks``; ``--out`` writes its report.
    """
    from repro.parallel.elastic import ElasticError, run_scaling_experiment
    from repro.resilience.supervise import DeadlineExceeded

    obs = _make_observer(args)
    config = {
        "command": "scale",
        "n": args.n,
        "seed": args.seed,
        "workers": args.workers,
        "chunk_items": args.chunk_items,
        "max_ranks": args.ranks,
    }
    try:
        report = run_scaling_experiment(
            [args.n],
            max_ranks=args.ranks,
            workers=args.workers,
            chunk_items=args.chunk_items,
            seed=args.seed,
            # --stall-timeout is the lease watchdog: a worker silent
            # longer than this loses its lease (and is replaced).
            lease_timeout=(
                args.stall_timeout if args.stall_timeout is not None else 30.0
            ),
            observer=obs,
            deadline=args.deadline,
        )
    except DeadlineExceeded as exc:
        _deadline_failure(exc, obs, args, config)
        return _DEADLINE_EXIT
    except ElasticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _finish_observer(obs, args, {**config, "status": "diverged"})
        return 1
    if args.out is not None:
        args.out.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    _finish_observer(obs, args, config)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``parma trace summarize DIR|LOCATOR``: digest a traced run."""
    from repro.instrument.report import (
        human_seconds,
        metrics_table,
        trace_phase_table,
    )
    from repro.observe import load_manifest, phase_total_seconds
    from repro.observe.evidence import parse_locator, read_record, record_spans
    from repro.observe.manifest import ManifestError
    from repro.observe.observer import MANIFEST_FILE_NAME, TRACE_JSONL_NAME
    from repro.observe.tracing import (
        build_span_tree,
        read_jsonl,
        write_chrome_trace,
    )

    if parse_locator(str(args.dir)) is not None:
        # One served request's evidence record: manifest plus spans.
        source = str(args.dir)
        try:
            record = read_record(source)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        manifest = record["manifest"]

        def load_spans():
            return record_spans(record)
    else:
        directory = Path(args.dir)
        manifest_path = directory / MANIFEST_FILE_NAME
        if not manifest_path.exists():
            print(f"error: no {MANIFEST_FILE_NAME} in {directory}", file=sys.stderr)
            return 2
        source = str(manifest_path)
        manifest = load_manifest(manifest_path)
        trace_path = directory / TRACE_JSONL_NAME

        def load_spans():
            return read_jsonl(trace_path) if trace_path.exists() else []
    if args.chrome is not None:
        count = write_chrome_trace(load_spans(), args.chrome)
        print(f"wrote {count} trace event(s) to {args.chrome}", file=sys.stderr)
    if args.json:
        # Same serializer the run catalog ingests through, so scripted
        # consumers and `parma runs` always agree on derived fields.
        from repro.observe.catalog import summarize_run

        print(json.dumps(
            summarize_run(manifest, source_path=source),
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
    if args.tree:
        spans = load_spans()
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
    from repro.serve.server import ListenError

    # --catalog alone stays valid: it feeds the per-request ingest.
    _require_trace(args, "bench_tag")
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
    try:
        service.start()
    except ListenError as exc:
        print(f"error: {exc.strerror}", file=sys.stderr)
        return 2

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
    _finish_observer(obs, args, {
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
    })
    print("drained; all in-flight requests completed")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a sharded solve fleet until SIGTERM/SIGINT drains it."""
    import signal as signal_mod

    from repro.observe import Observer
    from repro.serve import ServiceConfig
    from repro.serve.fleet import FleetConfig, SolveFleet
    from repro.serve.server import ListenError

    # --catalog alone stays valid: it feeds the per-request ingest.
    _require_trace(args, "bench_tag")
    obs = Observer(trace_dir=args.trace)
    config = FleetConfig(
        listen=args.listen,
        results_dir=args.results,
        shards=args.shards,
        shard_stall_timeout=args.shard_stall_timeout,
        observer=obs,
        # The shard template; each shard gets its own socket and
        # results directory in place of these two paths.
        service=ServiceConfig(
            socket_path=args.results / "shard.sock",
            results_dir=args.results,
            max_queue_depth=args.queue_depth,
            serve_workers=args.serve_workers,
            max_deadline=args.max_deadline,
            executor=args.shard_executor,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
            catalog_path=args.catalog,
        ),
    )
    fleet = SolveFleet(config)
    try:
        fleet.start()
    except ListenError as exc:
        print(f"error: {exc.strerror}", file=sys.stderr)
        return 2

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
    _finish_observer(obs, args, {
        "command": "fleet",
        "listen": where,
        "shards": args.shards,
        "status": "ok",  # the drain completed
        "requests": fleet.requests,
        "reroutes": fleet.reroutes,
        "shard_respawns": fleet.respawns,
    })
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
    from repro.observe.catalog import BENCH_KINDS, Catalog

    default_benches = {k.tag: Path(k.file) for k in BENCH_KINDS.values()}
    tags = "|".join(default_benches)
    bench_paths = args.bench
    if bench_paths is None and args.kind is not None:
        path = default_benches.get(args.kind)
        if path is None or not path.exists():
            print(f"error: no trajectory for --kind {args.kind} "
                  f"(kinds: {tags}; files: "
                  f"{', '.join(map(str, default_benches.values()))})",
                  file=sys.stderr)
            return 2
        bench_paths = [path]
    if bench_paths is None:
        bench_paths = [p for p in default_benches.values() if p.exists()]
    if not bench_paths:
        print(
            "error: no benchmark trajectories (pass --bench PATH or run "
            "from a checkout with "
            f"{' / '.join(map(str, default_benches.values()))})",
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
            f"(run with --trace DIR --catalog DB --bench-tag {tags})",
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
    from repro.resilience.chaos import CHAOS_CHECKS

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
                         choices=["single", "parallel", "balanced", "pymp"],
                         help="formation strategy (applies with "
                              "--equations-dir)")
    p_solve.add_argument("--workers", type=int, default=4,
                         help="formation region width (applies with "
                              "--equations-dir)")
    p_solve.add_argument("--solver", default="nested",
                         choices=SOLVER_METHODS)
    p_solve.add_argument("--lam", type=float, default=1e-3,
                         help="Tikhonov weight for --solver regularized")
    p_solve.add_argument("--validate", default="strict",
                         choices=VALIDATE_MODES,
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
        help="the BENCH_scaling.json experiment at one size: elastic "
             "churn campaign + strategy x rank scaling sweep",
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
    p_scale.add_argument("--out", type=Path, default=None,
                         help="write the report here, in BENCH_scaling.json's "
                              "format (benchmarks/bench_scaling.py writes "
                              "the committed file)")
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
                       help="directory for the per-request evidence logs "
                            "(evidence-*.jsonl, one fsynced record of "
                            "manifest plus spans per request)")
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
                              "its evidence logs there")
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
                         help="per-client token-bucket refill, metered "
                              "by each shard: a client spread over k "
                              "shards gets up to k times this rate "
                              "(anonymous clients exempt)")
    p_fleet.add_argument("--quota-burst", type=float, default=8.0,
                         help="token-bucket capacity per client id, "
                              "per shard")
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
                       choices=SOLVER_METHODS)
    p_sub.add_argument("--lam", type=float, default=1e-3,
                       help="Tikhonov weight for --solver regularized")
    p_sub.add_argument("--threshold", type=float, default=3.0,
                       help="anomaly threshold in robust sigmas")
    p_sub.add_argument("--validate", default="strict",
                       choices=VALIDATE_MODES,
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
        "summarize",
        help="phase/metrics digest of a traced run directory or of one "
             "served request's evidence record",
    )
    p_tsum.add_argument("dir", metavar="DIR|LOCATOR",
                        help="directory written by --trace, or a served "
                             "response's manifest_path "
                             "(<results>/evidence-*.jsonl#<offset>)")
    p_tsum.add_argument("--tree", action="store_true",
                        help="also print the reconstructed span tree")
    p_tsum.add_argument("--chrome", type=Path, default=None, metavar="FILE",
                        help="also write the run's spans as a "
                             "Perfetto-loadable Chrome trace to FILE")
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
                           help="manifest.json files, evidence logs "
                                "(evidence-*.jsonl), record locators "
                                "(<log>#<offset>) or directories to scan "
                                "recursively")
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
    p_rregress.add_argument("--kind", default=None, metavar="TAG",
                            help="gate only this bench tag's default "
                                 "BENCH_*.json (ignored when --bench is "
                                 "given; an unknown tag lists the known "
                                 "ones)")
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
