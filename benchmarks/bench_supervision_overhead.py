"""Supervision overhead benchmark: heartbeats must stay < 3 %.

Supervised parallel regions add three costs on the fault-free path: a
shared-memory heartbeat tick per work chunk, the parent's WNOHANG poll
loop in place of a blocking ``waitpid``, and the one-off heartbeat
board allocation per region.  The whole design rests on those being
noise — a watchdog nobody would enable is a watchdog nobody runs with.
This benchmark runs the full n = 20 solve (fork, form, persist, solve,
detect) with and without a :class:`repro.resilience.supervise.Supervisor`
attached and fails when the supervised run is more than 3 % slower.
Formation runs only when equations are persisted, so every timed call
writes them to a fresh temporary directory.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_supervision_overhead.py \
        --n 20 --repeats 7 --out BENCH_supervision.json

Exit status is nonzero when the overhead exceeds the acceptance bar
(default 3 %), so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import ParmaEngine  # noqa: E402
from repro.core.templates import get_template  # noqa: E402
from repro.mea.synthetic import paper_like_spec  # noqa: E402
from repro.mea.wetlab import run_campaign  # noqa: E402
from repro.parallel.pymp import fork_available  # noqa: E402


def _timed(fn) -> float:
    """Wall time of ``fn(output_dir)`` on a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as output_dir:
        start = time.perf_counter()
        fn(output_dir)
        return time.perf_counter() - start


def _interleaved_best(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best (minimum) :func:`_timed` time of each fn over ``repeats`` rounds.

    The two candidates alternate within each round so machine drift
    (thermal throttling, a background process) taxes both equally —
    essential here, where the effect measured (~1 ms of heartbeat and
    poll overhead) is the same size as fork-timing noise.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


def run(n: int, repeats: int, workers: int, stall_timeout: float) -> dict:
    meas = run_campaign(paper_like_spec(n, seed=11), seed=11).campaign.measurements[0]
    get_template(n)  # warm: template build is a one-off, not overhead

    plain = ParmaEngine(strategy="pymp", num_workers=workers)
    supervised = ParmaEngine(
        strategy="pymp", num_workers=workers, stall_timeout=stall_timeout
    )
    assert supervised.supervisor is not None

    def plain_run(output_dir):
        plain.parametrize(meas, output_dir=output_dir)

    def supervised_run(output_dir):
        supervised.parametrize(meas, output_dir=output_dir)

    _timed(plain_run)  # warm-up (imports, allocator, caches)
    _timed(supervised_run)
    baseline, watched = _interleaved_best(plain_run, supervised_run, repeats)

    return {
        "n": n,
        "workers": workers,
        "repeats": repeats,
        "stall_timeout": stall_timeout,
        "baseline_seconds": baseline,
        "supervised_seconds": watched,
        "overhead": watched / baseline - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20, help="device side")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--stall-timeout", type=float, default=30.0,
                        help="watchdog timeout on the supervised run "
                             "(never fires: the run is fault-free)")
    parser.add_argument("--max-overhead", type=float, default=0.03,
                        help="acceptance bar for supervised regions")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    if not fork_available():  # pragma: no cover - test platforms fork
        print("SKIP: os.fork unavailable, nothing to supervise")
        return 0

    result = run(args.n, args.repeats, args.workers, args.stall_timeout)
    print(
        f"supervision overhead at n={result['n']} "
        f"(pymp x{result['workers']}, best of {result['repeats']}):"
    )
    print(f"  unsupervised solve: {result['baseline_seconds']:.4f} s")
    print(
        f"  supervised solve:   {result['supervised_seconds']:.4f} s "
        f"({result['overhead']:+.2%})"
    )

    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    if result["overhead"] > args.max_overhead:
        print(
            f"FAIL: supervision overhead {result['overhead']:.2%} exceeds "
            f"{args.max_overhead:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"PASS: supervision overhead within {args.max_overhead:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
