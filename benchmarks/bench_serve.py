"""Fleet SLO benchmark: latency percentiles and scale-out throughput.

``parma fleet`` promises two things the single-process service cannot:
that warm-path latency holds under concurrent clients (the front sheds
or reroutes instead of queueing unboundedly), and that adding shards
adds throughput.  This benchmark stands up both topologies behind the
same TCP transport, drives them with a closed-loop load generator
sweeping concurrent clients over a mixed interactive/batch priority
workload, and reports p50/p95/p99 client-observed latency plus
throughput for each sweep point.

Honesty note for one-box CI: this container has a single CPU core, so
two shard processes time-slice one core and *measured* fleet
throughput cannot exceed single-process throughput here.  The report
therefore carries two kinds of rows, explicitly labelled:

* ``measured-1host`` — real wall-clock numbers from this machine.
  These are what ``parma runs regress --kind serve`` gates on (the
  per-``n`` ``warm_p95_seconds`` in ``sizes``).
* ``projected-multihost`` — a deterministic closed-loop queueing
  replay of the *measured* warm service-time samples across ``K``
  independent shard hosts, each request paying the *measured* front
  forwarding overhead.  No RNG, no wall clock: the projection is a
  pure function of the measured samples, so it is reproducible from
  the checked-in report.  This is the same convention
  ``BENCH_scaling.json`` uses for its 1,024-rank projection.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --sizes 8 12 --clients 1 2 4 8 --out BENCH_serve.json

Exit status is nonzero when the projected fleet throughput at the
highest swept concurrency falls below ``--require-speedup`` (default
1.5x) of projected single-process throughput, so CI can gate on the
scale-out claim.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.mea.synthetic import paper_like_spec  # noqa: E402
from repro.mea.wetlab import run_campaign  # noqa: E402
from repro.observe.catalog import write_bench_manifests  # noqa: E402
from repro.parallel import blas  # noqa: E402
from repro.serve import (  # noqa: E402
    FleetConfig,
    ServiceConfig,
    SolveClient,
    SolveFleet,
    SolveService,
)
from repro.serve.protocol import format_address  # noqa: E402

PRIORITY_PERIOD = 4  # every 4th request per client is interactive


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; defined for any non-empty sample."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(q * len(ordered) + 0.5))))
    return ordered[rank - 1]


def _measurements(sizes: list[int], seed: int = 11):
    out = []
    for n in sizes:
        campaign = run_campaign(paper_like_spec(n, seed=seed), seed=seed)
        out.append((n, campaign.campaign.measurements[0]))
    return out


def _single_topology(root: Path) -> tuple[SolveService, str]:
    config = ServiceConfig(
        socket_path=root / "single.sock",
        results_dir=root / "single-results",
        executor="thread",
        serve_workers=1,
        tcp="127.0.0.1:0",
    )
    svc = SolveService(config)
    svc.start()
    host, port = svc.tcp_address
    return svc, f"{host}:{port}"


def _fleet_topology(root: Path, shards: int) -> tuple[SolveFleet, str]:
    config = FleetConfig(
        listen="127.0.0.1:0",
        results_dir=root / "fleet-results",
        shards=shards,
        service=ServiceConfig(
            socket_path=root / "fleet-results" / "shard.sock",
            results_dir=root / "fleet-results",
            executor="thread",
            serve_workers=1,
        ),
    )
    fleet = SolveFleet(config)
    fleet.start()
    return fleet, format_address(fleet.tcp_address)


def _probe_sizes(address: str, measurements, warm_probes: int) -> list[dict]:
    """Cold + warm per-``n`` latency on a fresh topology (single client).

    The first solve per ``n`` is the first that host serves at that
    size (cold per-``n`` solver caches, engine warm-up) and is recorded
    as the cold latency; the following ``warm_probes`` solves — which
    the host labels warm, having already served that ``n`` — give the
    warm percentiles that ``sizes`` (and the regress baseline) carry.
    """
    client = SolveClient(address, timeout=120.0)
    rows = []
    for n, meas in measurements:
        start = time.perf_counter()
        response = client.solve(meas.z_kohm, voltage=meas.voltage, hour=meas.hour)
        cold = time.perf_counter() - start
        assert response.ok, response.error
        warm: list[float] = []
        for _ in range(warm_probes):
            start = time.perf_counter()
            response = client.solve(
                meas.z_kohm, voltage=meas.voltage, hour=meas.hour
            )
            warm.append(time.perf_counter() - start)
            assert response.ok, response.error
            assert response.cache_warm
        rows.append(
            {
                "n": n,
                "cold_seconds": cold,
                "warm_p50_seconds": _percentile(warm, 0.50),
                "warm_p95_seconds": _percentile(warm, 0.95),
                "warm_p99_seconds": _percentile(warm, 0.99),
                "warm_samples": warm,
            }
        )
    return rows


def _sweep(
    address: str, measurements, clients: int, requests_per_client: int
) -> dict:
    """Closed-loop load: each client resubmits as soon as it completes."""
    lock = threading.Lock()
    barrier = threading.Barrier(clients)
    warm_latencies: list[float] = []
    cold_latencies: list[float] = []
    by_priority = {"interactive": [], "batch": []}
    shed = [0]
    failures: list[str] = []
    t_start = [float("inf")]
    t_end = [0.0]

    def worker(ci: int) -> None:
        client = SolveClient(address, timeout=120.0)
        barrier.wait()
        begin = time.perf_counter()
        for j in range(requests_per_client):
            n, meas = measurements[(ci + j) % len(measurements)]
            priority = (
                "interactive" if j % PRIORITY_PERIOD == 0 else "batch"
            )
            start = time.perf_counter()
            response = client.solve(
                meas.z_kohm,
                voltage=meas.voltage,
                hour=meas.hour,
                priority=priority,
                client_id=f"bench-{ci}",
            )
            elapsed = time.perf_counter() - start
            with lock:
                if response.ok:
                    bucket = warm_latencies if response.cache_warm else cold_latencies
                    bucket.append(elapsed)
                    by_priority[priority].append(elapsed)
                elif response.retriable:
                    shed[0] += 1
                else:
                    failures.append(response.error or response.status)
        done = time.perf_counter()
        with lock:
            t_start[0] = min(t_start[0], begin)
            t_end[0] = max(t_end[0], done)

    threads = [
        threading.Thread(target=worker, args=(ci,), daemon=True)
        for ci in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise RuntimeError(f"sweep saw hard failures: {failures[:3]}")
    completed = len(warm_latencies) + len(cold_latencies)
    wall = max(t_end[0] - t_start[0], 1e-9)
    return {
        "clients": clients,
        "requests": completed,
        "shed": shed[0],
        "p50_seconds": _percentile(warm_latencies, 0.50),
        "p95_seconds": _percentile(warm_latencies, 0.95),
        "p99_seconds": _percentile(warm_latencies, 0.99),
        "cold_requests": len(cold_latencies),
        "interactive_p95_seconds": _percentile(by_priority["interactive"], 0.95),
        "batch_p95_seconds": _percentile(by_priority["batch"], 0.95),
        "throughput_rps": completed / wall,
        "wall_seconds": wall,
    }


def _project(
    samples: list[float],
    clients: int,
    servers: int,
    per_request_overhead: float,
    rounds: int,
) -> tuple[dict, float]:
    """Deterministic closed-loop replay of measured service times.

    ``clients`` submitters each resubmit the moment their previous
    request completes; requests go to the earliest-free of ``servers``
    independent hosts and take the next measured sample (round-robin
    through ``samples``) plus the front-forwarding overhead.  Returns
    (latency percentiles, throughput).
    """
    ready: list[tuple[float, int]] = [(0.0, c) for c in range(clients)]
    heapq.heapify(ready)
    server_free = [0.0] * servers
    submitted = [0] * clients
    latencies: list[float] = []
    total = clients * rounds
    makespan = 0.0
    for idx in range(total):
        t_ready, c = heapq.heappop(ready)
        s = min(range(servers), key=server_free.__getitem__)
        start = max(t_ready, server_free[s])
        end = start + samples[idx % len(samples)] + per_request_overhead
        server_free[s] = end
        latencies.append(end - t_ready)
        makespan = max(makespan, end)
        submitted[c] += 1
        if submitted[c] < rounds:
            heapq.heappush(ready, (end, c))
    stats = {
        "p50_seconds": _percentile(latencies, 0.50),
        "p95_seconds": _percentile(latencies, 0.95),
        "p99_seconds": _percentile(latencies, 0.99),
    }
    return stats, total / makespan


def run(
    sizes: list[int],
    clients_sweep: list[int],
    requests_per_client: int,
    shards: int,
    warm_probes: int,
) -> dict:
    measurements = _measurements(sizes)
    sweeps: list[dict] = []

    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        svc, single_addr = _single_topology(root)
        try:
            single_sizes = _probe_sizes(single_addr, measurements, warm_probes)
            for clients in clients_sweep:
                row = _sweep(
                    single_addr, measurements, clients, requests_per_client
                )
                row.update(mode="measured-1host", topology="single-process")
                sweeps.append(row)
        finally:
            svc.stop()

        fleet, fleet_addr = _fleet_topology(root, shards)
        try:
            fleet_sizes = _probe_sizes(fleet_addr, measurements, warm_probes)
            for clients in clients_sweep:
                row = _sweep(
                    fleet_addr, measurements, clients, requests_per_client
                )
                row.update(
                    mode="measured-1host", topology=f"fleet-{shards}shard"
                )
                sweeps.append(row)
        finally:
            fleet.stop()

    # Front-forwarding overhead: the extra hop the fleet adds on top of
    # the shard's own service time, measured warm at one client.
    single_p50 = _percentile(
        [s for row in single_sizes for s in row["warm_samples"]], 0.50
    )
    fleet_p50 = _percentile(
        [s for row in fleet_sizes for s in row["warm_samples"]], 0.50
    )
    overhead = max(0.0, fleet_p50 - single_p50)

    # Deterministic multi-host projection from the measured samples.
    samples = [s for row in single_sizes for s in row["warm_samples"]]
    projection_rounds = max(requests_per_client, 16)
    for clients in clients_sweep:
        for topology, servers, per_req in (
            ("single-process", 1, 0.0),
            (f"fleet-{shards}shard", shards, overhead),
        ):
            stats, throughput = _project(
                samples, clients, servers, per_req, projection_rounds
            )
            sweeps.append(
                {
                    "mode": "projected-multihost",
                    "topology": topology,
                    "clients": clients,
                    "requests": clients * projection_rounds,
                    "shed": 0,
                    "throughput_rps": throughput,
                    **stats,
                }
            )

    max_clients = max(clients_sweep)

    def _throughput(mode: str, topology: str) -> float:
        for row in sweeps:
            if (
                row["mode"] == mode
                and row["topology"] == topology
                and row["clients"] == max_clients
            ):
                return row["throughput_rps"]
        raise KeyError((mode, topology, max_clients))

    proj_single = _throughput("projected-multihost", "single-process")
    proj_fleet = _throughput("projected-multihost", f"fleet-{shards}shard")
    meas_single = _throughput("measured-1host", "single-process")
    meas_fleet = _throughput("measured-1host", f"fleet-{shards}shard")

    for row in single_sizes + fleet_sizes:
        del row["warm_samples"]

    return {
        "benchmark": "serve_slo",
        "host": {
            "cpus": os.cpu_count(),
            "blas_threads": blas.threads(),
            "note": (
                "measured rows are real wall-clock on this host; "
                "projected rows replay the measured warm service-time "
                "samples across independent shard hosts "
                "(deterministic, no RNG)"
            ),
        },
        "config": {
            "sizes": sizes,
            "clients_sweep": clients_sweep,
            "requests_per_client": requests_per_client,
            "shards": shards,
            "warm_probes": warm_probes,
            "priority_mix": {
                "interactive": 1 / PRIORITY_PERIOD,
                "batch": 1 - 1 / PRIORITY_PERIOD,
            },
            "transport": "tcp",
            "executor": "thread",
        },
        "sizes": single_sizes,
        "fleet_sizes": fleet_sizes,
        "sweeps": sweeps,
        "headline": {
            "max_clients": max_clients,
            "front_overhead_seconds": overhead,
            "measured_single_throughput_rps": meas_single,
            "measured_fleet_throughput_rps": meas_fleet,
            "projected_single_throughput_rps": proj_single,
            "projected_fleet_throughput_rps": proj_fleet,
            "projected_fleet_speedup": proj_fleet / proj_single,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12],
                        help="device sides to serve")
    parser.add_argument("--clients", type=int, nargs="+", default=[1, 2, 4, 8],
                        help="concurrent-client sweep points")
    parser.add_argument("--requests", type=int, default=12,
                        help="requests per client per sweep point")
    parser.add_argument("--shards", type=int, default=2,
                        help="fleet shard count")
    parser.add_argument("--warm-probes", type=int, default=15,
                        help="warm solves per size for the SLO baseline")
    parser.add_argument("--require-speedup", type=float, default=1.5,
                        help="projected fleet/single throughput bar")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--manifests", type=Path, default=None,
                        help="write bench-tagged run manifests here")
    parser.add_argument("--catalog", type=Path, default=None,
                        help="ingest the manifests into this catalog db")
    args = parser.parse_args(argv)

    report = run(
        args.sizes, args.clients, args.requests, args.shards, args.warm_probes
    )

    print(f"{'mode':<20} {'topology':<16} {'C':>3} "
          f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'rps':>8}")
    for row in report["sweeps"]:
        print(
            f"{row['mode']:<20} {row['topology']:<16} {row['clients']:>3} "
            f"{row['p50_seconds'] * 1e3:>8.2f} "
            f"{row['p95_seconds'] * 1e3:>8.2f} "
            f"{row['p99_seconds'] * 1e3:>8.2f} "
            f"{row['throughput_rps']:>8.1f}"
        )
    head = report["headline"]
    print(
        f"projected fleet speedup at C={head['max_clients']}: "
        f"{head['projected_fleet_speedup']:.2f}x "
        f"(front overhead {head['front_overhead_seconds'] * 1e3:.2f} ms)"
    )

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if args.manifests is not None:
        write_bench_manifests(
            report, args.manifests, catalog_db=args.catalog,
            config=lambda row: {"solver": "nested", "status": "ok"},
        )

    if head["projected_fleet_speedup"] < args.require_speedup:
        print(
            f"FAIL: projected fleet speedup "
            f"{head['projected_fleet_speedup']:.2f}x < "
            f"{args.require_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
