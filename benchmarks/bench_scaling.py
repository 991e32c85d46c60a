"""Elastic-dispatch scaling benchmark: writes ``BENCH_scaling.json``.

A thin caller of :func:`repro.parallel.elastic.run_scaling_experiment`,
the one implementation of the experiment (``parma scale`` runs it at
one size):

1. A *real* elastic formation campaign per size — a quiet run and a
   churn run (one worker SIGKILLed, the pool shrunk then grown
   mid-campaign).  The churn run must commit part files
   byte-identical to the quiet run's; the elapsed ratio is the
   measured churn overhead.
2. A *simulated* strategy × rank-count strong-scaling sweep on the
   deterministic cluster clock (powers of two up to ``--max-ranks``,
   default 1,024), anchored to this machine's measured per-term cost,
   plus failover and heterogeneous-awareness reference points.

Regenerate the committed trajectory with::

    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --sizes 20 --sweep-n 60 --max-ranks 1024 --out BENCH_scaling.json

The JSON report is the ``elastic_scaling`` trajectory consumed by
``parma runs regress``: each entry of ``sizes`` carries
``elastic_formation_seconds`` (quiet + churn campaign wall time, the
interval the ``parma scale`` ``formation`` span records), gating
later ``--bench-tag scaling`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.parallel.elastic import run_scaling_experiment  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[20],
        help="device sides for the real elastic campaign",
    )
    parser.add_argument(
        "--max-ranks", type=int, default=1024,
        help="largest simulated rank count (powers of two up to this)",
    )
    parser.add_argument(
        "--sweep-n", type=int, default=None,
        help="device side for the simulated sweep (default: the largest "
        "campaign size; bigger devices keep scaling further out)",
    )
    parser.add_argument(
        "--workers", type=int, default=3,
        help="elastic pool size for the real campaign",
    )
    parser.add_argument(
        "--chunk-items", type=int, default=16,
        help="items leased per work chunk",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (default: print only)",
    )
    args = parser.parse_args(argv)
    report = run_scaling_experiment(
        args.sizes,
        max_ranks=args.max_ranks,
        workers=args.workers,
        chunk_items=args.chunk_items,
        seed=args.seed,
        sweep_n=args.sweep_n,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
