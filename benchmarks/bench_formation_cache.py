"""Formation fast-path benchmark: template cache vs legacy per-pair.

Times full-device equation formation (all ``n^2`` pair blocks,
``2 n^4`` terms) through the legacy from-scratch path
(:func:`repro.core.equations.iter_pair_blocks`) and the template-cached
batched path (:func:`repro.core.templates.iter_pair_batches`), then
writes a machine-readable JSON report.  The acceptance bar for the
cached path is a >= 5x formation speedup at n = 60.

Each size also records formation *to disk* — the paper's Fig. 9 path:
``PyMPStrategy(2).run(z, output_dir=...)`` into a fresh temporary
directory, as ``persist_seconds`` (median of the repeats, wall clock
including the fork and the fsynced part-file commits) and
``persist_bytes`` (the report's ``bytes_written``).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_formation_cache.py \
        --sizes 10 20 40 60 --out BENCH_formation.json

Template build time is excluded from the cached timing (the cache is
warmed first) but reported separately — it is a one-off per device
size and amortizes over every subsequent formation of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.categories import total_terms  # noqa: E402
from repro.core.equations import iter_pair_blocks  # noqa: E402
from repro.core.strategies import PyMPStrategy  # noqa: E402
from repro.core.templates import (  # noqa: E402
    clear_template_cache,
    get_template,
    iter_pair_batches,
)


def _device(n: int, seed: int = 1234) -> np.ndarray:
    rng = np.random.default_rng(seed + n)
    return rng.uniform(500.0, 1500.0, (n, n))


def _time_legacy(z: np.ndarray, repeats: int) -> tuple[float, float]:
    best = float("inf")
    checksum = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        checksum = 0.0
        for block in iter_pair_blocks(z):
            checksum += block.checksum()
        best = min(best, time.perf_counter() - start)
    return best, checksum


def _time_cached(z: np.ndarray, repeats: int) -> tuple[float, float]:
    get_template(z.shape[0])  # warm: build time measured separately
    best = float("inf")
    checksum = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        checksum = 0.0
        for batch in iter_pair_batches(z):
            checksum += float(batch.checksums().sum())
        best = min(best, time.perf_counter() - start)
    return best, checksum


def _time_persist(z: np.ndarray, repeats: int) -> tuple[float, int]:
    """Median seconds and bytes of PyMP(2) formation to a fresh directory."""
    strategy = PyMPStrategy(2)
    seconds = []
    nbytes = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            report = strategy.run(z, output_dir=out)
            seconds.append(time.perf_counter() - start)
            nbytes = report.bytes_written
    return statistics.median(seconds), nbytes


def run_benchmark(sizes: list[int], repeats: int) -> dict:
    rows = []
    for n in sizes:
        z = _device(n)
        clear_template_cache()
        build_start = time.perf_counter()
        tpl = get_template(n)
        build_seconds = time.perf_counter() - build_start
        legacy_s, legacy_sum = _time_legacy(z, repeats)
        cached_s, cached_sum = _time_cached(z, repeats)
        persist_s, persist_bytes = _time_persist(z, repeats)
        if cached_sum != legacy_sum:
            raise RuntimeError(
                f"checksum mismatch at n={n}: "
                f"cached {cached_sum!r} != legacy {legacy_sum!r}"
            )
        pairs = n * n
        row = {
            "n": n,
            "pairs": pairs,
            "terms": total_terms(n),
            "legacy_seconds": legacy_s,
            "cached_seconds": cached_s,
            "template_build_seconds": build_seconds,
            "template_bytes": tpl.nbytes(),
            "legacy_us_per_pair": 1e6 * legacy_s / pairs,
            "cached_us_per_pair": 1e6 * cached_s / pairs,
            "speedup": legacy_s / cached_s,
            "checksum": legacy_sum,
            "persist_seconds": persist_s,
            "persist_bytes": persist_bytes,
        }
        rows.append(row)
        print(
            f"n={n:3d}: legacy {1e6 * legacy_s / pairs:8.1f} us/pair, "
            f"cached {1e6 * cached_s / pairs:8.1f} us/pair, "
            f"speedup {row['speedup']:.2f}x "
            f"(template build {1e3 * build_seconds:.2f} ms, "
            f"{tpl.nbytes()} B resident); "
            f"PyMP(2) to disk {1e3 * persist_s:.2f} ms, {persist_bytes} B"
        )
    return {
        "benchmark": "formation_cache",
        "description": (
            "full-device equation formation, template-cached batched "
            "path vs legacy per-pair path (best of repeats, checksums "
            "verified identical); persist_* = PyMP(2) formation to a "
            "temporary directory (median of repeats, bytes written)"
        ),
        "repeats": repeats,
        "target_speedup_at_n60": 5.0,
        "sizes": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60],
        help="device sides to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per path (best is reported)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (default: print only)",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless every size reaches X-fold speedup",
    )
    parser.add_argument(
        "--manifests", type=Path, default=None, metavar="DIR",
        help="also write one bench-tagged run manifest per size under "
        "DIR (ingestable by `parma runs ingest`)",
    )
    parser.add_argument(
        "--catalog", type=Path, default=None, metavar="DB",
        help="ingest the --manifests output into this run catalog",
    )
    args = parser.parse_args(argv)
    if args.catalog is not None and args.manifests is None:
        parser.error("--catalog requires --manifests DIR")
    report = run_benchmark(args.sizes, args.repeats)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.manifests is not None:
        from repro.observe.catalog import write_bench_manifests

        write_bench_manifests(
            report, args.manifests, catalog_db=args.catalog,
            config=lambda row: {"formation": "cached", "status": "ok"},
        )
    if args.require_speedup is not None:
        worst = min(row["speedup"] for row in report["sizes"])
        if worst < args.require_speedup:
            print(
                f"FAIL: worst speedup {worst:.2f}x is below the "
                f"{args.require_speedup:.1f}x bar",
                file=sys.stderr,
            )
            return 1
        print(f"speedup bar met: worst {worst:.2f}x "
              f">= {args.require_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
