"""E10 — ablations of the design choices DESIGN.md calls out.

1. Scheduling: category vs deterministic-LPT vs Betti-aware vs runtime
   stealing (with its per-steal overhead) — §IV-C's determinism
   trade-off, quantified.
2. Parallelism budget: worker counts beyond the (n-1)^2 hole count buy
   nothing (§IV-B's bound).
3. Solver formulation: nested variable-projection vs the paper's full
   joint system — same answer, very different cost profile.  The joint
   solver is the test oracle ``tests/oracles/joint_system.py``.
4. Serialization: binary vs text equation files (the I/O experiment's
   hidden constant).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.partition import (
    effective_parallelism,
    partition_balanced,
    partition_betti,
    partition_by_category,
)
from repro.core.solver import solve_nested
from repro.core.strategies import SingleThread, item_costs_seconds
from repro.instrument.report import ResultTable, human_seconds
from repro.io.equations_io import save_blocks_binary, save_blocks_text
from repro.core.equations import form_all_blocks
from repro.mea.wetlab import quick_device_data
from repro.parallel.workstealing import simulate_runtime_stealing

# The joint solver is a test oracle under tests/, not a src/ module.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles.joint_system import solve_full  # noqa: E402


@pytest.mark.benchmark(group="ablation-scheduling")
def test_scheduling_ablation(benchmark, emit):
    n, workers = 24, 8

    def build():
        cat = partition_by_category(n)
        bal = partition_balanced(n, workers)
        betti = partition_betti(n, workers)
        costs = [it.cost for it in bal.items]
        steal_free = simulate_runtime_stealing(costs, workers)
        steal_paid = simulate_runtime_stealing(
            costs, workers, steal_overhead=np.mean(costs)
        )
        return cat, bal, betti, steal_free, steal_paid

    cat, bal, betti, steal_free, steal_paid = benchmark(build)
    table = ResultTable(
        f"E10.1 — scheduling makespans (n={n}, {workers} workers, "
        "cost unit = one term)",
        ["scheme", "makespan", "imbalance", "notes"],
    )
    table.add_row("category (Parallel)", cat.makespan(), f"{cat.imbalance():.2f}",
                  "4 workers by construction")
    table.add_row("balanced LPT", bal.makespan(), f"{bal.imbalance():.2f}",
                  "deterministic plan")
    table.add_row("betti round-robin", betti.makespan(),
                  f"{betti.imbalance():.2f}", "hole-local")
    table.add_row("runtime stealing", steal_free.makespan, "-",
                  f"{steal_free.steals} steals, zero overhead")
    table.add_row("runtime stealing (paid)", steal_paid.makespan, "-",
                  "steal cost = 1 mean task")
    emit(table, "ablation_scheduling")

    # Deterministic LPT matches zero-overhead runtime stealing and
    # beats the category split; paid stealing gives back some gain.
    assert bal.makespan() <= cat.makespan()
    assert bal.makespan() <= steal_paid.makespan * 1.05
    assert betti.makespan() <= cat.makespan()


@pytest.mark.benchmark(group="ablation-budget")
def test_parallelism_budget_ablation(benchmark, emit):
    n = 6  # 25 holes

    def build():
        rows = []
        for k in (1, 4, 16, 25, 64, 256):
            p = partition_betti(n, k)
            used = len(np.unique(p.worker_of))
            rows.append((k, used, effective_parallelism(n, k), p.makespan()))
        return rows

    rows = benchmark(build)
    table = ResultTable(
        f"E10.2 — workers beyond the (n-1)^2 = {(n-1)**2} holes (n={n})",
        ["workers", "used", "effective", "makespan"],
    )
    for row in rows:
        table.add_row(*row)
    emit(table, "ablation_budget")
    by_k = {r[0]: r for r in rows}
    assert by_k[64][1] == by_k[256][1] == 25  # capped at hole count
    assert by_k[64][3] == by_k[256][3]  # no further makespan gain


@pytest.mark.benchmark(group="ablation-solver")
def test_solver_formulation_ablation(benchmark, emit):
    n = 6
    r_true, z = quick_device_data(n, seed=109)

    def build():
        nested = solve_nested(z)
        full = solve_full(z)
        return nested, full

    nested, full = benchmark.pedantic(build, rounds=1, iterations=1)
    table = ResultTable(
        f"E10.3 — solver formulations (n={n})",
        ["solver", "unknowns", "max rel err", "time"],
    )
    table.add_row("nested (var. projection)", n * n,
                  nested.max_relative_error(r_true),
                  human_seconds(nested.elapsed_seconds))
    table.add_row("full joint (paper)", (2 * n - 1) * n**2,
                  full.max_relative_error(r_true),
                  human_seconds(full.elapsed_seconds))
    emit(table, "ablation_solver")
    assert nested.max_relative_error(r_true) < 1e-8
    assert full.max_relative_error(r_true) < 1e-4
    np.testing.assert_allclose(
        nested.r_estimate, full.r_estimate, rtol=1e-3
    )


@pytest.mark.benchmark(group="ablation-serialization")
def test_serialization_ablation(benchmark, emit, tmp_path):
    _, z = quick_device_data(12, seed=110)
    blocks = form_all_blocks(z)

    def write_both():
        b_bytes = save_blocks_binary(blocks, tmp_path / "eq.bin")
        t_bytes = save_blocks_text(blocks, tmp_path / "eq.txt")
        return b_bytes, t_bytes

    b_bytes, t_bytes = benchmark(write_both)
    from repro.utils.timing import measure

    t_bin = measure(lambda: save_blocks_binary(blocks, tmp_path / "a.bin"), 3)
    t_txt = measure(lambda: save_blocks_text(blocks, tmp_path / "a.txt"), 3)
    table = ResultTable(
        "E10.4 — equation serialization formats (n=12)",
        ["format", "bytes", "write time", "bytes/term"],
    )
    terms = sum(b.num_terms for b in blocks)
    table.add_row("binary", b_bytes, human_seconds(t_bin), f"{b_bytes / terms:.1f}")
    table.add_row("text", t_bytes, human_seconds(t_txt), f"{t_bytes / terms:.1f}")
    emit(table, "ablation_serialization")
    assert b_bytes < t_bytes  # binary is denser
    assert t_bin < t_txt  # and faster to write


@pytest.mark.benchmark(group="ablation-heterogeneous")
def test_heterogeneous_cluster_ablation(benchmark, emit, sec_per_term):
    """E10.5 / §VII future work — heterogeneous-node clusters.

    A mixed pool of old (1.0x) and new (2.0x) nodes runs the n = 40
    formation workload.  Speed-aware deterministic scheduling vs the
    speed-blind plan quantifies what ignoring heterogeneity costs.
    """
    from repro.core.partition import partition_betti
    from repro.parallel.heterogeneous import (
        HeterogeneousCluster,
        ideal_heterogeneous_time,
    )
    from repro.parallel.simcluster import HPC_FDR

    part = partition_betti(40, 1)
    costs = item_costs_seconds(part, sec_per_term * 25)

    def build():
        rows = []
        for label, classes in (
            ("uniform 16x1.0", {"all": (16, 1.0)}),
            ("8x1.0 + 8x2.0", {"old": (8, 1.0), "new": (8, 2.0)}),
            ("12x1.0 + 4x4.0", {"old": (12, 1.0), "new": (4, 4.0)}),
        ):
            cluster = HeterogeneousCluster(classes=classes, model=HPC_FDR)
            aware = cluster.simulate(costs, aware=True).total
            blind = cluster.simulate(costs, aware=False).total
            ideal = ideal_heterogeneous_time(costs, cluster.speeds())
            rows.append((label, aware, blind, blind / aware, ideal))
        return rows

    rows = benchmark(build)
    table = ResultTable(
        "E10.5 — heterogeneous clusters (n=40 workload, future work §VII)",
        ["cluster", "aware", "blind", "blind/aware", "ideal bound"],
    )
    for label, aware, blind, gain, ideal in rows:
        table.add_row(label, human_seconds(aware), human_seconds(blind),
                      f"{gain:.2f}x", human_seconds(ideal))
    emit(table, "ablation_heterogeneous")
    uniform, mixed, skewed = rows
    assert uniform[3] == pytest.approx(1.0, abs=0.01)  # no gain if uniform
    assert skewed[3] > mixed[3] > 1.0  # gain grows with skew
