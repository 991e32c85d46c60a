"""Parallel-execution substrate.

* :mod:`repro.parallel.pymp` — OpenMP-style fork/join regions (a
  re-implementation of the PyMP API the paper uses).
* :mod:`repro.parallel.sharedmem` — named shared-memory numpy arrays.
* :mod:`repro.parallel.workstealing` — deterministic balanced
  scheduling (§IV-C.1) plus a runtime-stealing simulator.
* :mod:`repro.parallel.mpi` — an mpi4py-like message-passing runtime
  over forked processes.
* :mod:`repro.parallel.simcluster` — the deterministic LogGP-style
  cluster clock behind the 1,024-core scaling figures (see DESIGN.md
  §2 for why scaling is simulated on this machine).
* :mod:`repro.parallel.elastic` — churn-tolerant campaign dispatch:
  lease-based work chunks, a grow/shrink-able forked pool, and the
  strategy × rank scaling sweep behind ``BENCH_scaling.json``.
* :mod:`repro.parallel.proc` — the one lifecycle of every forked
  worker: ``spawn`` (fd hygiene, exit net, BLAS budget), ``poll``
  and the ``kill`` ladder.
* :mod:`repro.parallel.blas` — the BLAS thread budget of forked
  solve children (executor slots, fleet shards).

``elastic`` sits *above* the resilience layer (it uses the growable
``HeartbeatBoard`` and fault injection), so its names are exported
lazily — importing :mod:`repro.parallel` alone never pulls it in.
"""

from repro.parallel.heterogeneous import (
    HeterogeneousCluster,
    lpt_schedule_speeds,
)
from repro.parallel.mpi import ANY_TAG, Comm, MPIError, run_mpi
from repro.parallel.pymp import Parallel, ParallelError, shared_array
from repro.parallel.sharedmem import SharedArray, shared_zeros
from repro.parallel.simcluster import (
    HPC_FDR,
    Z820_SMP,
    ClusterModel,
    ScalingPoint,
    amdahl_bound,
    crossover_rank,
    scaling_sweep,
    simulate_strong_scaling,
    speedup_curve,
)
from repro.parallel.workstealing import (
    Assignment,
    StealingTrace,
    category_schedule,
    contiguous_schedule,
    lpt_schedule,
    simulate_runtime_stealing,
)

# Lazily exported from repro.parallel.elastic (PEP 562): the module
# imports repro.resilience.supervise, which imports this package —
# eager import here would deadlock that cycle at startup.
_ELASTIC_EXPORTS = frozenset(
    {
        "ElasticError",
        "ElasticPool",
        "ElasticReport",
        "LeaseVerificationError",
        "StrategyCurve",
        "WorkChunk",
        "WorkLedger",
        "WorkerContext",
        "part_files_identical",
        "plan_chunks",
        "run_elastic_formation",
        "scaling_strategy_schedulers",
        "sweep_scaling_curves",
    }
)

__all__ = [
    "ANY_TAG",
    "HeterogeneousCluster",
    "lpt_schedule_speeds",
    "Assignment",
    "ClusterModel",
    "Comm",
    "HPC_FDR",
    "MPIError",
    "Parallel",
    "ParallelError",
    "ScalingPoint",
    "SharedArray",
    "StealingTrace",
    "Z820_SMP",
    "amdahl_bound",
    "category_schedule",
    "contiguous_schedule",
    "crossover_rank",
    "lpt_schedule",
    "run_mpi",
    "scaling_sweep",
    "shared_array",
    "shared_zeros",
    "simulate_runtime_stealing",
    "simulate_strong_scaling",
    "speedup_curve",
    *sorted(_ELASTIC_EXPORTS),
]


def __getattr__(name: str):
    if name in _ELASTIC_EXPORTS:
        from repro.parallel import elastic

        value = getattr(elastic, name)
        globals()[name] = value  # cache for the next access
        return value
    raise AttributeError(
        f"module 'repro.parallel' has no attribute {name!r}"
    )
