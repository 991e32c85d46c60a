"""Circuit-theory substrate: Kirchhoff laws, forward solver, baselines.

* :mod:`repro.kirchhoff.laws` — L1/L2 systems on arbitrary resistive
  graphs, nodal analysis, independence counts (§II-A).
* :mod:`repro.kirchhoff.mesh` — loop-current analysis driven by the
  fundamental cycle basis (the topology ↔ physics bridge).
* :mod:`repro.kirchhoff.forward` — exact crossbar solver: R → Z and
  internal wire voltages (the ground-truth oracle for Parma).
* :mod:`repro.kirchhoff.paths` / :mod:`repro.kirchhoff.pathsystem` —
  the exponential all-paths baseline the paper replaces (§II-C, [15]).
"""

from repro.kirchhoff.forward import (
    DriveSolution,
    clear_laplacian_cache,
    crossbar_laplacian,
    effective_resistance_matrix,
    laplacian_cache_stats,
    laplacian_pinv_cached,
    measure,
    solve_all_drives,
    solve_drive,
)
from repro.kirchhoff.laws import Circuit, CircuitSolution, ResistorEdge
from repro.kirchhoff.mesh import MeshSolution, solve_mesh
from repro.kirchhoff.paths import (
    CrossbarPath,
    count_paths_exact,
    count_paths_paper,
    enumerate_paths,
    total_paths_exact,
    total_paths_paper,
)
from repro.kirchhoff.sensitivity import (
    aggregate_sensitivity,
    locality_profile,
    normalized_sensitivity,
    self_sensitivity_fraction,
    sensitivity_map,
)
from repro.kirchhoff.pathsystem import (
    PathSystem,
    build_path_system,
    solve_path_system,
)

__all__ = [
    "Circuit",
    "aggregate_sensitivity",
    "locality_profile",
    "normalized_sensitivity",
    "self_sensitivity_fraction",
    "sensitivity_map",
    "CircuitSolution",
    "CrossbarPath",
    "DriveSolution",
    "MeshSolution",
    "PathSystem",
    "ResistorEdge",
    "build_path_system",
    "clear_laplacian_cache",
    "count_paths_exact",
    "count_paths_paper",
    "crossbar_laplacian",
    "effective_resistance_matrix",
    "enumerate_paths",
    "laplacian_cache_stats",
    "laplacian_pinv_cached",
    "measure",
    "solve_all_drives",
    "solve_drive",
    "solve_mesh",
    "solve_path_system",
    "total_paths_exact",
    "total_paths_paper",
]
