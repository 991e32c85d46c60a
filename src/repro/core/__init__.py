"""Parma core: the paper's primary contribution.

* :mod:`repro.core.categories` — the four constraint categories and
  their exact size accounting.
* :mod:`repro.core.equations` — joint-constraint equation formation
  (§IV-A): ``2 n^3`` equations, structure-of-arrays term blocks.
* :mod:`repro.core.partition` — work decomposition: per-category,
  balanced (deterministic LPT), and Betti-aware (homology holes).
* :mod:`repro.core.strategies` — the paper's four executable systems:
  SingleThread / Parallel / Balanced Parallel / PyMP-k.
* :mod:`repro.core.solver` / :mod:`repro.core.regularized` — the
  nonlinear inverse problem: recover R from Z (nested variable
  projection, plus the degradation ladder's fallback rungs).  The
  paper's joint system over every unknown is a test oracle,
  ``tests/oracles/joint_system.py``, not a solver here.
* :mod:`repro.core.engine` / :mod:`repro.core.pipeline` — the public
  parametrize() API and campaign pipelines.
"""

from repro.core.categories import (
    Category,
    category_costs,
    equations_per_device,
    equations_per_pair,
    terms_per_pair,
    total_equations,
    total_terms,
    total_unknowns,
)
from repro.core.conditioning import (
    ConditioningReport,
    analyze_conditioning,
    conditioning_vs_size,
)
from repro.core.distributed import MPIFormation
from repro.core.engine import ParmaEngine, ParmaResult
from repro.core.equations import (
    PairBlock,
    SystemStats,
    form_all_blocks,
    form_pair_block,
    iter_pair_blocks,
)
from repro.core.partition import (
    Partition,
    WorkItem,
    effective_parallelism,
    hole_of_pair,
    partition,
    partition_balanced,
    partition_betti,
    partition_by_category,
)
from repro.core.pipeline import CampaignResult, run_pipeline
from repro.core.regularized import (
    l_curve,
    pick_lambda_by_discrepancy,
    solve_regularized,
)
from repro.core.selftest import SelfTestReport, run_selftest
from repro.core.streaming import (
    BinaryFileSink,
    CountingSink,
    StreamReport,
    stream_formation,
    stream_to_file,
)
from repro.core.solver import (
    SolveResult,
    solve,
    solve_bounded,
    solve_nested,
)
from repro.core.templates import (
    PairBlockBatch,
    PairTemplate,
    cache_stats,
    clear_template_cache,
    form_all_pairs,
    form_worker_share,
    get_template,
    iter_pair_blocks_cached,
    warm_template_cache,
)
from repro.core.strategies import (
    BalancedParallel,
    FormationReport,
    ParallelStrategy,
    PyMPStrategy,
    SingleThread,
    calibrate_sec_per_term,
    item_costs_seconds,
    make_strategy,
)


def clear_jacobian_cache() -> None:
    """Do nothing: the joint-Jacobian structure cache is gone.

    It served the joint system, which is now the test oracle
    ``tests/oracles/joint_system.py`` with its own cache.  Kept as a
    no-op because ``e2ebench/workloads.py`` still imports it.
    """


__all__ = [
    "BalancedParallel",
    "ConditioningReport",
    "analyze_conditioning",
    "conditioning_vs_size",
    "BinaryFileSink",
    "CountingSink",
    "MPIFormation",
    "StreamReport",
    "stream_formation",
    "stream_to_file",
    "CampaignResult",
    "Category",
    "FormationReport",
    "PairBlock",
    "PairBlockBatch",
    "PairTemplate",
    "cache_stats",
    "clear_jacobian_cache",
    "clear_template_cache",
    "form_all_pairs",
    "form_worker_share",
    "get_template",
    "iter_pair_blocks_cached",
    "warm_template_cache",
    "ParallelStrategy",
    "ParmaEngine",
    "ParmaResult",
    "Partition",
    "PyMPStrategy",
    "SingleThread",
    "SolveResult",
    "SystemStats",
    "WorkItem",
    "calibrate_sec_per_term",
    "category_costs",
    "effective_parallelism",
    "equations_per_device",
    "equations_per_pair",
    "form_all_blocks",
    "form_pair_block",
    "hole_of_pair",
    "item_costs_seconds",
    "iter_pair_blocks",
    "l_curve",
    "pick_lambda_by_discrepancy",
    "solve_regularized",
    "SelfTestReport",
    "run_selftest",
    "make_strategy",
    "partition",
    "partition_balanced",
    "partition_betti",
    "partition_by_category",
    "run_pipeline",
    "solve",
    "solve_bounded",
    "solve_nested",
    "terms_per_pair",
    "total_equations",
    "total_terms",
    "total_unknowns",
]
