"""The benchmark's four workloads, run against the unmodified library.

Each workload builds its seeded inputs, brings the system up
``SETUP_REPEATS`` times from cold (``setup_s`` is the median), runs a
closed loop for the requested seconds, checks every output, and
returns an :class:`Outcome`.  With a :class:`tracer.Tracer` it also
wraps each layer's entry points for the timed window and runs the
extra passes that only the traced run needs: the in-process replay of
served requests through ``RequestRunner.run`` (the code an executor
child or shard runs, whose spans cannot be seen from this process), a
``cProfile`` pass, and on the fleet the front-versus-direct comparison.

Workloads (load comes from this one process, ``CLIENTS`` threads):

* ``serve-small`` - one ``SolveService`` with its shipped defaults
  (subprocess executor, linger 0.05 s, max_batch 8) and a loopback TCP
  listener; n in {8, 12, 16}, 1 interactive : 3 batch.
* ``fleet-mixed`` - the same generator against a 2-shard
  ``SolveFleet`` with its defaults; n in {8, 12, 16, 20} so both
  shards own keys; one client_id per thread.
* ``solve-large`` - sequential one-shot ``ParmaEngine(num_workers=2)
  .parametrize`` on distinct n = 40 fields, no observer.
* ``campaign-persist`` - ``run_pipeline`` over 0/6/12/24 h campaigns
  at n = 20, PyMP with 2 workers, warm start, equations persisted to a
  fresh directory per campaign.
"""

from __future__ import annotations

import dataclasses
import resource
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core.engine as engine_mod
import repro.core.solver as solver_mod
import repro.core.strategies as strategies_mod
import repro.mea.dataset as dataset_mod
import repro.observe.manifest as manifest_mod
import repro.serve.batcher as batcher_mod
import repro.serve.client as client_mod
import repro.serve.executor as executor_mod
import repro.serve.fleet as fleet_mod
import repro.serve.protocol as protocol_mod
import repro.serve.queue as queue_mod
import repro.serve.runner as runner_mod
import repro.serve.server as server_mod
from repro.core import clear_jacobian_cache, clear_template_cache
from repro.core.engine import ParmaEngine
from repro.core.pipeline import run_pipeline
from repro.kirchhoff import clear_laplacian_cache, laplacian_cache_stats
from repro.mea.dataset import Measurement
from repro.observe import Observer
from repro.serve import FleetConfig, ServiceConfig, SolveClient, SolveFleet, SolveService
from repro.serve.client import ServeConnectionError
from repro.serve.protocol import Request, Response, encode_message, format_address

from inputs import Case, device_run, field_ok, pool, same_field
from tracer import Tracer

CLIENTS = 2
INTERACTIVE_EVERY = 4
SETUP_REPEATS = 5
#: Each solve-large set-up is a cold n = 40 solve of about a second.
LARGE_SETUP_REPEATS = 3
SERVE_SIZES = (8, 12, 16)
FLEET_SIZES = (8, 12, 16, 20)
LARGE_N = 40
CAMPAIGN_N = 20
CAMPAIGN_HOURS = (0.0, 6.0, 12.0, 24.0)
CAMPAIGN_POOL = 8
ORACLE_SAMPLE = 8
REPLAY_SAMPLE = 64
PROFILE_SAMPLE = 8
FRONT_PAIRS = 24
PING_SAMPLE = 20
#: Operation ids of the traced passes that follow the timed window.
REPLAY_BASE = 10_000_000
PROFILE_BASE = 20_000_000


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    wrong_outputs: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    tables: dict[str, list] = field(default_factory=dict)
    profiles: dict[str, str] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = int(samples)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _scope(tracer: Tracer | None, op: int, name: str = "op"):
    return tracer.op(op, name) if tracer is not None else nullcontext()


def _clear_caches() -> None:
    clear_template_cache()
    clear_jacobian_cache()
    clear_laplacian_cache()


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _end_to_end(out: Outcome, setups, latencies, busy_s: float, rss_mb: float, traced: bool) -> None:
    out.latencies_ms = [x * 1e3 for x in latencies]
    out.put("setup_s", _median(setups), "s", len(setups))
    out.put("ops_per_s", len(latencies) / busy_s, "1/s", len(latencies))
    out.put("latency_p50_ms", np.percentile(latencies, 50) * 1e3, "ms", len(latencies))
    out.put("latency_p90_ms", np.percentile(latencies, 90) * 1e3, "ms", len(latencies))
    out.put("latency_p95_ms", np.percentile(latencies, 95) * 1e3, "ms", len(latencies))
    out.put("peak_rss_mb", rss_mb, "MiB")
    if traced:
        out.put("traced.latency_p50_ms", np.percentile(latencies, 50) * 1e3, "ms", len(latencies))
        out.put("traced.ops_per_s", len(latencies) / busy_s, "1/s", len(latencies))


# -- wrapping ----------------------------------------------------------------


def wrap_library(tracer: Tracer) -> None:
    """Engine-side layers: validation, formation, solve, detect, observe."""
    tracer.wrap(engine_mod, "validate_z", "mea.dataset", "validate")
    tracer.wrap(dataset_mod.Measurement, "__post_init__", "mea.dataset", "measurement")
    for cls in (
        strategies_mod.SingleThread,
        strategies_mod._PartitionedStrategy,
        strategies_mod.PyMPStrategy,
    ):
        tracer.wrap(cls, "run", "core.strategies", "formation")
    tracer.wrap(engine_mod.ParmaEngine, "parametrize", "core.engine", "parametrize")
    tracer.wrap(engine_mod, "solve_with_degradation", "core.solver", "solve")
    tracer.wrap(solver_mod, "solve_nested", "core.solver", "gauss_newton")
    tracer.wrap(solver_mod, "predict_z", "kirchhoff.forward", "forward")
    tracer.wrap(solver_mod, "_scaled_jacobian", "core.solver", "jacobian")
    tracer.wrap(solver_mod, "_gn_step", "core.solver", "gn_step")
    tracer.wrap(engine_mod, "detect_anomalies", "anomaly.detect", "detect")
    tracer.wrap(Observer, "finalize", "observe", "finalize")
    tracer.wrap(manifest_mod, "environment_info", "observe", "environment_info")
    tracer.wrap(strategies_mod, "write_block_binary", "io.equations_io", "write_block", per_call=False)
    tracer.wrap(strategies_mod, "_close_writer", "io.equations_io", "commit", flush_child=True)
    tracer.wrap(runner_mod.RequestRunner, "run", "serve.runner", "run")


def wrap_serving(tracer: Tracer) -> None:
    """Layers the serving process runs in this process's threads."""
    tracer.wrap(protocol_mod, "encode_message", "serve.protocol", "encode")
    for module in (client_mod, server_mod, fleet_mod):
        tracer.wrap(module, "recv_message", "serve.protocol", "recv")
    tracer.wrap(protocol_mod, "_recv_exact", "serve.transport", "socket_read")
    tracer.wrap(protocol_mod.Response, "from_dict", "serve.protocol", "decode_response")
    tracer.wrap(queue_mod.AdmissionQueue, "submit", "serve.queue", "submit")
    tracer.wrap(batcher_mod.Batcher, "next_batch", "serve.batcher", "next_batch")
    tracer.wrap(server_mod.SolveService, "_handle_solve", "serve.server", "handle_solve")
    tracer.wrap(executor_mod.ExecutorPool, "run_batch", "serve.server", "executor_batch")
    tracer.wrap(executor_mod, "_send_frame", "serve.server", "executor_send")
    tracer.wrap(executor_mod, "_recv_frame", "serve.server", "executor_recv")
    tracer.wrap(fleet_mod.SolveFleet, "_handle_solve", "serve.fleet", "front")
    tracer.wrap(fleet_mod.SolveFleet, "_forward_message", "serve.fleet", "forward")


def _library_layers(out: Outcome, tracer: Tracer, ops: set[int], before) -> None:
    """Per-operation medians of the engine-side layers over ``ops``.

    ``before`` is :func:`laplacian_cache_stats` taken when ``ops``
    began; the factor hit rate is over the lookups made since.
    """
    out.put("kirchhoff.forward.factor_hit_rate", _hit_rate(before, laplacian_cache_stats()), "ratio", len(ops))
    steps = dict.fromkeys(ops, 0)
    for span in tracer.select("gn_step", ops):
        steps[span.op] += 1
    out.put("core.solver.iterations", _median(list(steps.values())), "count", len(ops))
    gn = tracer.per_op("gauss_newton", ops)
    forward = tracer.per_op("forward", ops)
    jacobian = tracer.per_op("jacobian", ops)
    out.put("mea.dataset.validate_ms", _median(
        [a + b for a, b in zip(tracer.per_op("validate", ops), tracer.per_op("measurement", ops))]
    ) * 1e3, "ms", len(ops))
    out.put("core.strategies.formation_ms", _median(tracer.per_op("formation", ops)) * 1e3, "ms", len(ops))
    out.put("core.solver.solve_ms", _median(tracer.per_op("solve", ops)) * 1e3, "ms", len(ops))
    out.put("core.solver.forward_ms", _median(forward) * 1e3, "ms", len(ops))
    out.put("core.solver.jacobian_ms", _median(jacobian) * 1e3, "ms", len(ops))
    out.put("core.solver.step_ms", _median(
        [g - f - j for g, f, j in zip(gn, forward, jacobian)]
    ) * 1e3, "ms", len(ops))
    out.put("anomaly.detect.detect_ms", _median(tracer.per_op("detect", ops)) * 1e3, "ms", len(ops))
    wall = sum(s.dur for s in tracer.spans if s.layer == "bench" and s.op in ops)
    for layer, name in (("core.solver", "solve"), ("core.strategies", "formation")):
        share = sum(tracer.per_op(name, ops)) / wall if wall else 0.0
        out.put(f"{layer}.wall_share", share, "ratio", len(ops))
    out.tables["layers"] = tracer.layer_table(ops)


def _hit_rate(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


# -- serving workloads ---------------------------------------------------------


@dataclass
class _Sample:
    op: int
    case: Case
    request: Request
    latency: float
    end: float
    response: Response | None
    ok: bool


def _request(case: Case, seed: int, client: int, index: int) -> Request:
    return Request(
        z=case.z.tolist(),
        voltage=case.voltage,
        hour=case.hour,
        priority="interactive" if index % INTERACTIVE_EVERY == 0 else "batch",
        client_id=f"bench-{client}",
        id=f"s{seed}-c{client}-{index}",
    )


def _warm_sizes(address: str, cases: dict[int, list[Case]]) -> None:
    """The first (cold) request at each size; raises when one fails."""
    client = SolveClient(address, timeout=120.0)
    for n, group in cases.items():
        case = group[-1]
        response = client.solve(case.z, voltage=case.voltage, hour=case.hour)
        if not (response.ok and field_ok(response.resistance, case.truth)):
            raise RuntimeError(f"cold request at n={n} failed: {response.status} {response.error}")


def _closed_loop(address, cases, seed, seconds, tracer) -> tuple[list[_Sample], float]:
    """``CLIENTS`` threads, each sending its next request on a reply."""
    sizes = sorted(cases)
    results: list[list[_Sample]] = [[] for _ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)
    errors: list[BaseException] = []

    def client(ci: int) -> None:
        try:
            rng = np.random.default_rng([seed, 101, ci])
            conn = SolveClient(address, timeout=120.0)
            barrier.wait()
            deadline = time.perf_counter() + seconds
            index = 0
            while time.perf_counter() < deadline:
                n = sizes[int(rng.integers(len(sizes)))]
                case = cases[n][int(rng.integers(len(cases[n])))]
                request = _request(case, seed, ci, index)
                op = ci * 1_000_000 + index
                start = time.perf_counter()
                try:
                    with _scope(tracer, op):
                        response = conn.submit(request)
                except (ServeConnectionError, OSError):
                    response = None
                end = time.perf_counter()
                ok = (
                    response is not None
                    and response.ok
                    and field_ok(response.resistance, case.truth)
                )
                results[ci].append(_Sample(op, case, request, end - start, end, response, ok))
                index += 1
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ci,), name=f"bench-client-{ci}") for ci in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    samples = [s for group in results for s in group]
    return samples, max(s.end for s in samples) - start


def _count_outcomes(out: Outcome, samples: list[_Sample]) -> None:
    """Every non-ok request fails; only retriable rejections are not wrong."""
    out.attempted += len(samples)
    for s in samples:
        if not s.ok:
            out.failed += 1
            if s.response is None or not s.response.retriable:
                out.wrong_outputs += 1


def _oracle(out: Outcome, samples: list[_Sample]) -> None:
    """Served fields against the same solve done in this process."""
    served = [s for s in samples if s.ok]
    engine = ParmaEngine(strategy="single")
    for s in _spread(served, ORACLE_SAMPLE):
        meas = Measurement(z_kohm=s.case.z, voltage=s.case.voltage, hour=s.case.hour)
        if not same_field(s.response.resistance, engine.parametrize(meas).resistance):
            out.failed += 1
            out.wrong_outputs += 1
    out.samples["oracle"] = min(len(served), ORACLE_SAMPLE)


def _spread(items: list, count: int) -> list:
    """Up to ``count`` items taken evenly across ``items``."""
    return items[:: max(1, len(items) // count)][:count]


def _by_size(samples: list[_Sample]) -> dict[int, list[Case]]:
    groups: dict[int, list[Case]] = {}
    for s in samples:
        groups.setdefault(s.case.n, []).append(s.case)
    return groups


def _persisted(results_dir: Path) -> tuple[float, float]:
    """Mean files and bytes each executed request left on disk."""
    dirs = [d for d in results_dir.rglob("req-*") if d.is_dir()]
    files = [f for d in dirs for f in d.rglob("*") if f.is_file()]
    if not dirs:
        return 0.0, 0.0
    return len(files) / len(dirs), sum(f.stat().st_size for f in files) / len(dirs)


def _replay(tracer: Tracer, samples: list[_Sample], workdir: Path, base: int, count: int) -> set[int]:
    """Re-run served requests through ``RequestRunner.run`` in-process.

    The runner is configured as the executor child / shard runs it and
    warmed with one request per size first, as the long-lived server
    was; the replay keeps each request's served batch size and queue
    time so its manifest matches the served one.
    """
    runner = runner_mod.RequestRunner(
        workdir / f"replay-{base}", strategy="single", num_workers=4,
        pool_engines=True, observer=Observer(),
    )
    served = [s for s in samples if s.ok]
    warmed = set()
    for s in served:
        if s.case.n not in warmed:
            warmed.add(s.case.n)
            runner.run(dataclasses.replace(s.request, id=f"warm-{base}-{s.case.n}"),
                       batch_size=1, warm=False, queue_seconds=0.0)
    ops = set()
    for k, s in enumerate(_spread(served, count)):
        with tracer.op(base + k, "replay"):
            runner.run(
                dataclasses.replace(s.request, id=f"replay-{base}-{k}"),
                batch_size=s.response.batch_size,
                warm=True,
                queue_seconds=s.response.queue_seconds,
            )
        ops.add(base + k)
    return ops


def _serve_layers(out, tracer, samples, busy, workdir, results_dir, address, fleet) -> None:
    """Per-layer metrics and the latency attribution of a served run."""
    served = [s for s in samples if s.ok]
    window_ops = {s.op for s in served}
    # Spans of the serving threads carry no operation id; summed before
    # the probes below add more of them.
    out.tables["server_threads"] = tracer.layer_table({None}, wall=busy * CLIENTS)
    codec = sum(
        (x.self_s if x.name == "recv" else x.dur)
        for x in tracer.spans
        if x.op is None and x.name in ("recv", "encode")
    ) / len(served)
    hop = sum(x.dur for x in tracer.spans if x.name in ("executor_send", "executor_recv")) / len(served)
    latency = np.array([s.latency for s in served])
    queue = np.array([s.response.queue_seconds for s in served])
    elapsed = np.array([s.response.elapsed_seconds for s in served])
    batch = np.array([s.response.batch_size for s in served])
    encode = np.array(tracer.per_op("encode", window_ops))
    decode = np.array(tracer.per_op("recv", window_ops, self_only=True)) + np.array(
        tracer.per_op("decode_response", window_ops)
    )
    client = SolveClient(address, timeout=30.0)
    ping = []
    for _ in range(PING_SAMPLE):
        start = time.perf_counter()
        client.ping()
        ping.append(time.perf_counter() - start)
    if fleet is not None:
        front = _front_overhead(out, fleet, address, _by_size(served))

    before = laplacian_cache_stats()
    replay_ops = _replay(tracer, samples, workdir, REPLAY_BASE, REPLAY_SAMPLE)
    _library_layers(out, tracer, replay_ops, before)
    tracer.profiling = True
    _replay(tracer, samples, workdir, PROFILE_BASE, PROFILE_SAMPLE)
    tracer.profiling = False
    out.profiles = {layer: tracer.profile_report(layer) for layer in tracer.profile_layers}
    finalize = tracer.per_op("finalize", replay_ops)
    solve = tracer.per_op("solve", replay_ops)
    files, nbytes = _persisted(results_dir)
    terms = {
        n: ParmaEngine(strategy="single").form(Measurement(z_kohm=c[0].z, voltage=c[0].voltage)).terms_formed
        for n, c in _by_size(served).items()
    }

    out.put("serve.protocol.request_bytes", _mean([len(encode_message(s.request.to_dict())) for s in served]), "bytes", len(served))
    out.put("serve.protocol.encode_us", _median(encode) * 1e6, "us", len(encode))
    out.put("serve.protocol.decode_us", _median(decode) * 1e6, "us", len(decode))
    out.put("serve.queue.wait_p50_ms", np.percentile(queue, 50) * 1e3, "ms", len(queue))
    out.put("serve.queue.wait_p95_ms", np.percentile(queue, 95) * 1e3, "ms", len(queue))
    out.put("serve.batcher.batch_size_mean", _mean(batch), "count", len(served))
    out.put("serve.runner.elapsed_ms", _median(elapsed) * 1e3, "ms", len(elapsed))
    out.put("serve.server.overhead_ms", (_mean(latency - queue - elapsed) - _mean(finalize)) * 1e3, "ms", len(served))
    out.put("serve.server.persistence_gap_ms", _mean(finalize) * 1e3, "ms", len(finalize))
    out.put("serve.server.ping_ms", _median(ping) * 1e3, "ms", len(ping))
    out.put("observe.finalize_ms", _median(finalize) * 1e3, "ms", len(finalize))
    out.put("observe.environment_ms", _median(tracer.per_op("environment_info", replay_ops)) * 1e3, "ms", len(replay_ops))
    out.put("observe.files_per_request", files, "count")
    out.put("observe.bytes_per_request", nbytes, "bytes")
    out.put("core.strategies.terms_formed", _mean([terms[s.case.n] for s in served]), "count", len(served))
    out.put("serve.non_solver_share", 1.0 - _mean(solve) / _mean(latency), "ratio", len(served))

    # Mean client latency, split into parts measured apart from it.
    # Response.elapsed_seconds is taken before Observer.finalize writes
    # the manifest (serve/runner.py), so that persistence gap is a row
    # of its own.  Batch members run one after another in the executor,
    # so a member waits on average (size - 1) / 2 earlier members' work.
    per_request = _mean(elapsed) + _mean(finalize)
    parts = [
        ("serve.protocol", "client encode + decode", _mean(encode) + _mean(decode)),
        ("serve.server", "transport round trip (ping)", _mean(ping)),
        ("serve.queue", "queue + batcher wait, linger included", _mean(queue)),
        ("serve.runner", "elapsed: validate, formation, solve, detect", _mean(elapsed)),
        ("observe", "persistence gap: finalize, not in elapsed", _mean(finalize)),
        ("serve.server", "in-batch wait behind earlier members", _mean((batch - 1) / 2) * per_request),
    ]
    if fleet is None:
        parts += [
            ("serve.server", "request decode + reply encode", codec),
            ("serve.server", "executor frames, parent side", hop),
        ]
    else:
        parts.append(("serve.fleet", "front hop (front minus direct)", front))
    total = _mean(latency)
    rest = total - sum(value for _, _, value in parts)
    out.tables["attribution"] = [
        {"part": f"{layer} {what}", "ms": value * 1e3, "share": value / total}
        for layer, what, value in parts
    ] + [{"part": "unattributed", "ms": rest * 1e3, "share": rest / total}]
    for layer in ("serve.protocol", "serve.queue", "serve.runner", "serve.server", "serve.fleet", "observe"):
        share = sum(value for name, _, value in parts if name == layer) / total
        out.put(f"{layer}.latency_share", share, "ratio", len(served))
    out.put("attribution.unattributed_share", rest / total, "ratio", len(served))
    out.tables["client_layers"] = tracer.layer_table(window_ops)


def _serve(kind: str, seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Outcome:
    out = Outcome()
    sizes = SERVE_SIZES if kind == "serve-small" else FLEET_SIZES
    cases = pool(seed, sizes)
    setups = []
    topology = None

    def start(rep: int):
        if kind == "serve-small":
            service = SolveService(ServiceConfig(
                socket_path=workdir / f"svc{rep}.sock",
                results_dir=workdir / f"svc{rep}",
                tcp="127.0.0.1:0",
            ))
            service.start()
            return service, format_address(service.tcp_address), service.config.results_dir
        fleet = SolveFleet(FleetConfig(listen="127.0.0.1:0", results_dir=workdir / f"fleet{rep}"))
        fleet.start()
        return fleet, format_address(fleet.tcp_address), fleet.config.results_dir

    try:
        for rep in range(SETUP_REPEATS):
            _clear_caches()
            begin = time.perf_counter()
            topology = start(rep)
            if not SolveClient(topology[1]).wait_ready(timeout=30.0):
                raise RuntimeError(f"{kind} did not answer a ping")
            _warm_sizes(topology[1], cases)
            setups.append(time.perf_counter() - begin)
            if rep < SETUP_REPEATS - 1:
                topology[0].stop()
                topology = None
        server, address, results_dir = topology
        if tracer is not None:
            wrap_library(tracer)
            wrap_serving(tracer)
        samples, busy = _closed_loop(address, cases, seed, seconds, tracer)
        _count_outcomes(out, samples)
        latencies = [s.latency for s in samples if s.ok]
        if tracer is not None:
            fleet = server if kind == "fleet-mixed" else None
            _serve_layers(out, tracer, samples, busy, workdir, results_dir, address, fleet)
            tracer.restore()
        _oracle(out, samples)
    finally:
        if topology is not None:
            topology[0].stop()
    _end_to_end(out, setups, latencies, busy, _peak_rss_mb(resource.RUSAGE_CHILDREN), tracer is not None)
    return out


def _front_overhead(out: Outcome, fleet: SolveFleet, address: str, cases) -> float:
    """Front cost: the same requests via the front and straight to the shard.

    Alternates which path goes first; returns the median difference.
    """
    front = SolveClient(address, timeout=120.0)
    sizes = sorted(cases)
    diffs = []
    for k in range(FRONT_PAIRS):
        n = sizes[k % len(sizes)]
        case = cases[n][k % len(cases[n])]
        shard = fleet.map.shard_for(n, "cached")
        direct = SolveClient(fleet.config.shard_socket(shard), timeout=120.0)
        times = {}
        for conn in ((front, direct) if k % 2 == 0 else (direct, front)):
            start = time.perf_counter()
            response = conn.solve(case.z, voltage=case.voltage, hour=case.hour)
            times[conn is front] = time.perf_counter() - start
            if not (response.ok and field_ok(response.resistance, case.truth)):
                raise RuntimeError(f"front-overhead probe failed: {response.error}")
        diffs.append(times[True] - times[False])
    stats = front.stats()
    out.put("serve.fleet.front_overhead_ms", _median(diffs) * 1e3, "ms", len(diffs))
    out.put("serve.fleet.reroutes", stats["fleet"]["reroutes"], "count")
    out.put("serve.fleet.shed", sum(stats["shed"].values()), "count")
    return _median(diffs)


def serve_small(seed, seconds, tracer, workdir) -> Outcome:
    return _serve("serve-small", seed, seconds, tracer, workdir)


def fleet_mixed(seed, seconds, tracer, workdir) -> Outcome:
    return _serve("fleet-mixed", seed, seconds, tracer, workdir)


# -- in-process workloads ------------------------------------------------------


def solve_large(seed, seconds, tracer, workdir) -> Outcome:
    out = Outcome()
    cases = pool(seed, [LARGE_N])[LARGE_N]
    meas = [Measurement(z_kohm=c.z, voltage=c.voltage, hour=c.hour) for c in cases]
    setups = []
    for rep in range(LARGE_SETUP_REPEATS):
        _clear_caches()
        begin = time.perf_counter()
        result = ParmaEngine(num_workers=2).parametrize(meas[-1 - rep])
        setups.append(time.perf_counter() - begin)
        if not field_ok(result.resistance, cases[-1 - rep].truth):
            raise RuntimeError("cold solve failed its check")
    if tracer is not None:
        wrap_library(tracer)
    before = laplacian_cache_stats()
    latencies, ops = [], set()
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline:
        case = cases[k % len(cases)]
        t0 = time.perf_counter()
        with _scope(tracer, k):
            result = ParmaEngine(num_workers=2).parametrize(meas[k % len(cases)])
        latencies.append(time.perf_counter() - t0)
        ops.add(k)
        out.attempted += 1
        if not field_ok(result.resistance, case.truth):
            out.failed += 1
            out.wrong_outputs += 1
        k += 1
    busy = time.perf_counter() - start
    if tracer is not None:
        _library_layers(out, tracer, ops, before)
        out.put("core.strategies.terms_formed", result.formation.terms_formed, "count")
        tracer.profiling = True
        with tracer.op(PROFILE_BASE, "profile"):
            ParmaEngine(num_workers=2).parametrize(meas[0])
        tracer.profiling = False
        out.profiles = {layer: tracer.profile_report(layer) for layer in tracer.profile_layers}
        tracer.restore()
    _end_to_end(out, setups, latencies, busy, _peak_rss_mb(resource.RUSAGE_SELF), tracer is not None)
    return out


def _bytes_on_disk(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


def campaign_persist(seed, seconds, tracer, workdir) -> Outcome:
    out = Outcome()
    runs = [device_run(seed, CAMPAIGN_N, i, hours=CAMPAIGN_HOURS) for i in range(CAMPAIGN_POOL)]
    setups = []
    for rep in range(SETUP_REPEATS):
        _clear_caches()
        target = workdir / f"setup{rep}"
        begin = time.perf_counter()
        ParmaEngine(strategy="pymp", num_workers=2).parametrize(
            runs[-1].campaign.measurements[0], output_dir=target
        )
        setups.append(time.perf_counter() - begin)
        shutil.rmtree(target)
    if tracer is not None:
        wrap_library(tracer)
    before = laplacian_cache_stats()
    latencies, iterations, formation, written, ops = [], [], [], [], set()
    busy = 0.0
    k = 0
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        run = runs[k % len(runs)]
        engine = ParmaEngine(strategy="pymp", num_workers=2)
        inner = engine.parametrize

        def timed(*args, _inner=inner, **kwargs):
            op = len(latencies)
            t0 = time.perf_counter()
            with _scope(tracer, op):
                result = _inner(*args, **kwargs)
            latencies.append(time.perf_counter() - t0)
            ops.add(op)
            return result

        engine.parametrize = timed
        target = workdir / f"campaign{k}"
        t0 = time.perf_counter()
        campaign = run_pipeline(run.campaign, engine=engine, output_dir=target, warm_start=True)
        busy += time.perf_counter() - t0
        for truth, meas, result in zip(run.ground_truth, run.campaign.measurements, campaign.results):
            out.attempted += 1
            iterations.append(result.solve.iterations)
            formation.append(result.formation.terms_formed)
            written.append(result.formation.bytes_written)
            on_disk = _bytes_on_disk(target / f"hour-{meas.hour:g}")
            if not (field_ok(result.resistance, truth) and on_disk == result.formation.bytes_written > 0):
                out.failed += 1
                out.wrong_outputs += 1
        shutil.rmtree(target)
        k += 1
    if tracer is not None:
        tracer.settle()
        _library_layers(out, tracer, ops, before)
        timepoints = tracer.per_op("parametrize", ops)
        writes = [a + b for a, b in zip(tracer.per_op("write_block", ops), tracer.per_op("commit", ops))]
        out.put("core.pipeline.timepoint_ms", _median(timepoints) * 1e3, "ms", len(ops))
        out.put("core.pipeline.iterations", _mean(iterations), "count", len(iterations))
        out.put("core.strategies.terms_formed", _median(formation), "count", len(formation))
        out.put("io.equations_io.bytes_written", _median(written), "bytes", len(written))
        out.put("io.equations_io.write_ms", _median(writes) * 1e3, "ms", len(writes))
        out.put("io.equations_io.write_share", sum(writes) / sum(timepoints), "ratio", len(writes))
        tracer.profiling = True
        with tracer.op(PROFILE_BASE, "profile"):
            run_pipeline(runs[0].campaign, engine=ParmaEngine(strategy="pymp", num_workers=2),
                         output_dir=workdir / "profile", warm_start=True)
        tracer.profiling = False
        tracer.settle()
        out.profiles = {layer: tracer.profile_report(layer) for layer in tracer.profile_layers}
        tracer.restore()
    _end_to_end(out, setups, latencies, busy, _peak_rss_mb(resource.RUSAGE_SELF), tracer is not None)
    return out


WORKLOADS = {
    "serve-small": serve_small,
    "fleet-mixed": fleet_mixed,
    "solve-large": solve_large,
    "campaign-persist": campaign_persist,
}
