"""Shared benchmark fixtures and result-table emission.

Every benchmark regenerates one of the paper's figures as a text table
(the series the figure plots).  Tables are printed and also written to
``.bench_out/tables/<name>.txt`` (ignored by git) so the artifact
survives pytest's output capture.  The checked-in tables under
``benchmarks/results/`` that EXPERIMENTS.md references change only on
purpose: run with ``--update-results`` to rewrite them.

Scale control: set ``REPRO_BENCH_SCALE=full`` to run the paper's full
n-range (n to 100; minutes on one core).  The default ``quick`` range
keeps the whole suite under ~2 minutes while preserving every curve's
shape (crossovers happen by n = 20-40).
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
OUT_DIR = Path(__file__).parent.parent / ".bench_out" / "tables"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: The paper sweeps n in {10, 20, ..., 100}.
FULL_NS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
QUICK_NS = (10, 20, 30, 40)

#: PyMP parallelism levels of Fig. 7/9.
FULL_KS = (2, 4, 8, 16, 32)
QUICK_KS = (2, 4, 8, 16, 32)


def bench_ns():
    return FULL_NS if SCALE == "full" else QUICK_NS


def bench_ks():
    return FULL_KS if SCALE == "full" else QUICK_KS


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite the checked-in benchmarks/results/*.txt tables "
             "(default: write them under .bench_out/tables/)",
    )


@pytest.fixture(scope="session")
def emit(request):
    """Write a rendered ResultTable to <name>.txt and stdout."""
    out_dir = (
        RESULTS_DIR if request.config.getoption("--update-results")
        else OUT_DIR
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    def _emit(table, name: str) -> None:
        text = table.render()
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _emit


@pytest.fixture(scope="session")
def sec_per_term():
    """Measured formation cost per term on this machine (calibration
    for every simulated-cluster figure)."""
    from repro.core.strategies import calibrate_sec_per_term

    return calibrate_sec_per_term(40, sample_pairs=64)
