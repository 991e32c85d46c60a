"""Subprocess-executor overhead benchmark: isolation must stay < 5 %.

Crash isolation moves every served solve across a fork boundary: the
request is re-serialized to the executor child, solved there, and the
response framed back.  That buys worker-death survival, but only if
the fault-free path stays cheap — a service nobody runs with isolation
on is a service with no isolation.  This benchmark stands up two
otherwise-identical solve services — one with in-process thread
execution, one with forked subprocess executors — and compares the
p50 client-observed latency of warm n = 10 solves, failing when the
subprocess path is more than 5 % slower.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve_overhead.py \
        --n 10 --requests 40 --out BENCH_serve_overhead.json

Exit status is nonzero when the overhead exceeds the acceptance bar
(default 5 %), so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.mea.synthetic import paper_like_spec  # noqa: E402
from repro.mea.wetlab import run_campaign  # noqa: E402
from repro.parallel.pymp import fork_available  # noqa: E402
from repro.serve import ServiceConfig, SolveClient, SolveService  # noqa: E402


def _service(root: Path, executor: str) -> tuple[SolveService, SolveClient]:
    config = ServiceConfig(
        socket_path=root / f"{executor}.sock",
        results_dir=root / f"{executor}-results",
        executor=executor,
        serve_workers=1,
    )
    svc = SolveService(config)
    svc.start()
    client = SolveClient(config.socket_path, timeout=60.0)
    if not client.wait_ready(timeout=10.0):
        svc.stop()
        raise RuntimeError(f"{executor} service did not come up")
    return svc, client


def run(n: int, requests: int, warmup: int) -> dict:
    meas = run_campaign(
        paper_like_spec(n, seed=11), seed=11
    ).campaign.measurements[0]
    z = meas.z_kohm

    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        thread_svc, thread_client = _service(root, "thread")
        sub_svc, sub_client = _service(root, "subprocess")
        try:
            if sub_svc.executor_mode != "subprocess":
                raise RuntimeError("fork unavailable; nothing to compare")
            latencies: dict[str, list[float]] = {"thread": [], "subprocess": []}
            # Warm both hosts (allocator, engine pools, per-n caches),
            # then interleave so machine drift taxes both equally.
            for _ in range(warmup):
                assert thread_client.solve(z).ok
                assert sub_client.solve(z).ok
            for _ in range(requests):
                for name, client in (
                    ("thread", thread_client),
                    ("subprocess", sub_client),
                ):
                    start = time.perf_counter()
                    response = client.solve(z)
                    elapsed = time.perf_counter() - start
                    assert response.ok, response.error
                    assert response.cache_warm
                    latencies[name].append(elapsed)
        finally:
            thread_svc.stop()
            sub_svc.stop()

    p50_thread = statistics.median(latencies["thread"])
    p50_sub = statistics.median(latencies["subprocess"])
    return {
        "n": n,
        "requests": requests,
        "warmup": warmup,
        "thread_p50_seconds": p50_thread,
        "subprocess_p50_seconds": p50_sub,
        "overhead": p50_sub / p50_thread - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10, help="device side")
    parser.add_argument("--requests", type=int, default=40,
                        help="timed solves per executor host")
    parser.add_argument("--warmup", type=int, default=5,
                        help="untimed warm-up solves per host")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="acceptance bar for the subprocess path")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    if not fork_available():  # pragma: no cover - test platforms fork
        print("SKIP: os.fork unavailable, no subprocess executors")
        return 0

    result = run(args.n, args.requests, args.warmup)
    print(
        f"serve executor overhead at n={result['n']} "
        f"(p50 of {result['requests']} warm solves per host):"
    )
    print(f"  thread executor:     {result['thread_p50_seconds']:.4f} s")
    print(
        f"  subprocess executor: {result['subprocess_p50_seconds']:.4f} s "
        f"({result['overhead']:+.2%})"
    )

    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    if result["overhead"] > args.max_overhead:
        print(
            f"FAIL: subprocess executor overhead {result['overhead']:.2%} "
            f"exceeds {args.max_overhead:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"PASS: subprocess executor overhead within {args.max_overhead:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
