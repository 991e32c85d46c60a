"""Solver fast-path benchmark: cached Cholesky + dense or matrix-free steps.

Times full nested solves (noise-free data, so convergence behavior is
deterministic) through the fast path — cached Laplacian Cholesky
factorizations, batched multi-RHS drives, and Gauss–Newton steps that
are refined dense LU solves up to ``DENSE_STEP_MAX`` resistors and
Jacobi-preconditioned GMRES on the matrix-free transfer operator above
— against the retained historical reference solver
(:func:`tests.oracles.solver_reference.solve_nested_reference`).
Writes a machine-readable JSON report, including the host's CPU count
and the crossover the run used.

The acceptance bar for the fast path is a >= 3x full-solve speedup at
n = 60 and an n = 100 solve inside the 300 s budget.  The reference
solver is only timed at n <= 60 (its O(iterations x n^6) normal
equations make n = 100 a multi-hour run).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_solver.py \
        --sizes 10 20 40 60 100 256 --out BENCH_solver.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
# The reference solver is a test oracle under tests/, not a src/ module.
sys.path.insert(0, str(_ROOT))

from repro.core.solver import DENSE_STEP_MAX, solve_nested  # noqa: E402
from repro.kirchhoff import forward  # noqa: E402
from repro.observe.observer import Observer  # noqa: E402
from tests.oracles.solver_reference import solve_nested_reference  # noqa: E402

#: Largest device side the legacy reference solver is timed at.
REFERENCE_SIZE_CAP = 60

#: Wall-clock budget for one fast-path solve at n = 100 (seconds).
N100_BUDGET_SECONDS = 300.0


def _device(n: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    r_true = np.exp(rng.normal(np.log(8.0), 0.35, (n, n)))
    return r_true, forward.measure(r_true)


def _timed_solve(z: np.ndarray) -> tuple[float, object, dict]:
    obs = Observer()
    start = time.perf_counter()
    result = solve_nested(z, observer=obs)
    elapsed = time.perf_counter() - start
    hist = obs.metrics.snapshot().get("solver.iteration.seconds", {})
    return elapsed, result, hist


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def bench_size(n: int, with_reference: bool) -> dict:
    r_true, z = _device(n)

    # Cold: every Laplacian factorization is built from scratch.
    forward.clear_laplacian_cache()
    cold_s, cold, cold_hist = _timed_solve(z)
    cold_stats = forward.laplacian_cache_stats()
    # Warm: the iterate sequence is identical, so every factor hits
    # while a solve visits no more fields than the factor LRU holds
    # (8); at n = 256 it visits 11 and the rerun misses every one.
    warm_s, warm, warm_hist = _timed_solve(z)
    warm_stats = forward.laplacian_cache_stats()
    if not np.array_equal(cold.r_estimate, warm.r_estimate):
        raise RuntimeError(f"warm-cache solve diverged at n={n}")

    row = {
        "n": n,
        "unknowns": n * n,
        "fast_cold_seconds": cold_s,
        "fast_warm_seconds": warm_s,
        "iterations": cold.iterations,
        "iteration_seconds_mean": (
            cold_hist.get("sum", 0.0) / cold_hist["count"]
            if cold_hist.get("count") else None
        ),
        "converged": bool(cold.converged),
        "max_rel_error": _max_rel(cold.r_estimate, r_true),
        "factor_cache_cold": {
            "hits": cold_stats.hits,
            "misses": cold_stats.misses,
            "pinv_materializations": cold_stats.pinv_materializations,
        },
        "factor_cache_warm_extra_misses": warm_stats.misses - cold_stats.misses,
    }

    if with_reference:
        ref_start = time.perf_counter()
        ref = solve_nested_reference(z)
        ref_s = time.perf_counter() - ref_start
        row["reference_seconds"] = ref_s
        row["reference_iterations"] = ref.iterations
        row["speedup_vs_reference"] = ref_s / cold_s
        row["reference_max_rel_error"] = _max_rel(ref.r_estimate, r_true)
    else:
        row["reference_seconds"] = None
        row["speedup_vs_reference"] = None
        row["n100_budget_seconds"] = N100_BUDGET_SECONDS
        row["within_budget"] = cold_s <= N100_BUDGET_SECONDS

    return row


def run_benchmark(sizes: list[int]) -> dict:
    # Pay first-call costs (lazy imports, allocator warm-up) untimed, so
    # they do not land on the smallest size's measurement.
    _, z_tiny = _device(3)
    solve_nested(z_tiny)
    solve_nested_reference(z_tiny)
    rows = []
    for n in sizes:
        row = bench_size(n, with_reference=n <= REFERENCE_SIZE_CAP)
        rows.append(row)
        speedup = row["speedup_vs_reference"]
        print(
            f"n={n:3d}: fast cold {row['fast_cold_seconds']:8.3f} s "
            f"({row['iterations']} iters), warm "
            f"{row['fast_warm_seconds']:8.3f} s, "
            + (
                f"reference {row['reference_seconds']:8.3f} s, "
                f"speedup {speedup:.2f}x"
                if speedup is not None
                else f"budget {N100_BUDGET_SECONDS:.0f} s "
                f"({'ok' if row['within_budget'] else 'OVER'})"
            )
        )
    return {
        "benchmark": "solver_fastpath",
        "description": (
            "nested variable-projection solve, fast path (cached "
            "Cholesky factors, batched drives; refined dense LU steps "
            "up to dense_step_max resistors, Jacobi-preconditioned "
            "GMRES on the matrix-free transfer operator above) vs "
            "retained reference solver"
        ),
        "nproc": os.cpu_count(),
        "dense_step_max": DENSE_STEP_MAX,
        "seed": 7,
        "target_speedup_at_n60": 3.0,
        "n100_budget_seconds": N100_BUDGET_SECONDS,
        "reference_size_cap": REFERENCE_SIZE_CAP,
        "sizes": rows,
    }


def write_manifests(
    report: dict, directory: Path, catalog_db: Path | None = None
) -> None:
    """One bench-tagged run manifest per size, for the run catalog.

    Each size becomes a ``bench-solver-n<N>/manifest.json`` whose
    ``solve`` phase carries the measured cold time and whose
    ``extra.bench = "solver"`` tag is what ``parma runs regress``
    matches against ``BENCH_solver.json``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for row in report["sizes"]:
        obs = Observer(trace_dir=directory / f"bench-solver-n{row['n']}")
        # Span timestamps are perf_counter coordinates; anchor the
        # synthesized span so the manifest wall equals the bench time.
        obs.add_span(
            "solve",
            ts=time.perf_counter() - row["fast_cold_seconds"],
            dur=row["fast_cold_seconds"],
            n=row["n"],
        )
        obs.gauge("bench.iterations", row["iterations"])
        obs.finalize(
            config={
                "command": "bench-solver",
                "n": row["n"],
                "solver": "nested",
                "status": "ok" if row["converged"] else "unconverged",
            },
            extra={"bench": "solver"},
        )
    print(f"wrote {len(report['sizes'])} bench manifest(s) under {directory}")
    if catalog_db is not None:
        from repro.observe.catalog import Catalog

        with Catalog(catalog_db) as catalog:
            ingested = catalog.ingest([directory])
            print(f"catalog: {ingested.summary()} -> {catalog_db}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60, 100],
        help="device sides to benchmark",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (default: print only)",
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
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless the largest reference-timed size on "
        "each side of DENSE_STEP_MAX (dense step, matrix-free step) "
        "reaches an X-fold speedup (small sizes are sub-millisecond "
        "and timing noise dominates them)",
    )
    args = parser.parse_args(argv)
    if args.catalog is not None and args.manifests is None:
        parser.error("--catalog requires --manifests DIR")
    report = run_benchmark(args.sizes)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.manifests is not None:
        write_manifests(report, args.manifests, catalog_db=args.catalog)
    failures = []
    for row in report["sizes"]:
        if row.get("within_budget") is False:
            failures.append(
                f"n={row['n']} took {row['fast_cold_seconds']:.1f} s, "
                f"over the {N100_BUDGET_SECONDS:.0f} s budget"
            )
    if args.require_speedup is not None:
        timed = [r for r in report["sizes"] if r["speedup_vs_reference"]]
        dense = [r for r in timed if r["unknowns"] <= DENSE_STEP_MAX]
        free = [r for r in timed if r["unknowns"] > DENSE_STEP_MAX]
        for side in (dense, free):
            if not side:
                continue
            gate = max(side, key=lambda r: r["n"])
            speedup = gate["speedup_vs_reference"]
            if speedup < args.require_speedup:
                failures.append(
                    f"speedup {speedup:.2f}x at n={gate['n']} is below "
                    f"the {args.require_speedup:.1f}x bar"
                )
            else:
                print(
                    f"speedup bar met: {speedup:.2f}x at n={gate['n']} "
                    f">= {args.require_speedup:.1f}x"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
