"""Observer overhead benchmark: disabled tracing must stay < 2 %.

The whole point of threading an :class:`repro.observe.Observer` through
the hot formation loops is that it costs (almost) nothing when nobody
is watching: the default :data:`repro.observe.NULL_OBSERVER` answers
``span()`` with one shared do-nothing context manager and every hot
loop guards its attr-dict construction behind ``obs.enabled``.  This
benchmark measures that claim on the single-thread formation path —
the worst case, because it has the most span sites per unit of work —
and reports the enabled-tracing cost alongside for context (that one
is allowed to cost real time; it buys a trace).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_observer_overhead.py \
        --n 40 --repeats 5 --out BENCH_observer.json

Exit status is nonzero when the disabled-observer overhead exceeds the
acceptance bar (default 2 %), so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.strategies import SingleThread  # noqa: E402
from repro.core.templates import get_template  # noqa: E402
from repro.observe import Observer  # noqa: E402


def _device(n: int, seed: int = 1234) -> np.ndarray:
    rng = np.random.default_rng(seed + n)
    return rng.uniform(500.0, 1500.0, (n, n))


def _best_of(fn, repeats: int) -> float:
    """Best (minimum) wall time over ``repeats`` runs — the standard
    noise filter for sub-second kernels on a shared machine."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(n: int, repeats: int) -> dict:
    z = _device(n)
    get_template(n)  # warm: template build is a one-off, not overhead
    strategy = SingleThread()

    strategy.run(z)  # warm-up run (imports, allocator, caches)

    baseline = _best_of(lambda: strategy.run(z), repeats)
    # observer=None resolves to the global NullObserver — the exact
    # code path every un-instrumented caller takes.
    disabled = _best_of(lambda: strategy.run(z, observer=None), repeats)

    def traced():
        obs = Observer()  # in-memory: measures span cost, not disk
        strategy.run(z, observer=obs)

    enabled = _best_of(traced, repeats)

    disabled_overhead = disabled / baseline - 1.0
    enabled_overhead = enabled / baseline - 1.0
    return {
        "n": n,
        "repeats": repeats,
        "baseline_seconds": baseline,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="device side")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="acceptance bar for disabled tracing")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    result = run(args.n, args.repeats)
    print(
        f"observer overhead at n={result['n']} "
        f"(best of {result['repeats']}):"
    )
    print(f"  baseline (no observer arg): {result['baseline_seconds']:.4f} s")
    print(
        f"  null observer:              {result['disabled_seconds']:.4f} s "
        f"({result['disabled_overhead']:+.2%})"
    )
    print(
        f"  tracing enabled:            {result['enabled_seconds']:.4f} s "
        f"({result['enabled_overhead']:+.2%})"
    )

    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    if result["disabled_overhead"] > args.max_overhead:
        print(
            f"FAIL: disabled-observer overhead "
            f"{result['disabled_overhead']:.2%} exceeds "
            f"{args.max_overhead:.0%}",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: disabled-observer overhead within {args.max_overhead:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
