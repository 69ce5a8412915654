"""Steered coherence of uniformly accelerated atom pairs.

Two-qubit Fano-form state algebra, the dissipative Unruh-bath model along
n = z (free space and half-space geometries), steering-induced coherence
with its measurement-induced-disturbance twin (both in Fano coordinates),
and the coherence-steerability criteria, plus a deterministic sweep engine
and CLI.
"""

from .errors import (
    ConsistencyError,
    DegenerateLimit,
    DenominatorZero,
    DomainError,
    NonHermitian,
    NotPositive,
    UnphysicalDrift,
    UnruhSteerError,
)
from .model import (
    BoundaryEquilibrium,
    KossakowskiBoundary,
    KossakowskiFree,
    Trajectory,
    UnruhParams,
    equilibrium_boundary,
    equilibrium_free,
    evolve,
    kossakowski_boundary,
    kossakowski_free,
    ode_rhs,
    relaxation_horizon,
    steering_node_acceleration,
)
from .qmat import (
    FanoState,
    concurrence,
    fano_to_matrix,
    matrix_to_fano,
    min_eigenvalue,
    random_density_matrix,
    random_fano_state,
    trace_norm,
)
from .steering import (
    BoundaryVerdict,
    SicSolution,
    SteerabilityFree,
    one_sided_mid,
    sic_closed_form_free,
    sic_solution,
    steerability_functional_free,
    steerability_verdict_boundary,
    steering_induced_coherence,
    theorem1_residual,
)
from .sweeps import GridSpec, SweepResult, load_csv, load_json, run_grid

__version__ = "0.1.0"

__all__ = [
    "BoundaryEquilibrium",
    "BoundaryVerdict",
    "ConsistencyError",
    "DegenerateLimit",
    "DenominatorZero",
    "DomainError",
    "FanoState",
    "GridSpec",
    "KossakowskiBoundary",
    "KossakowskiFree",
    "NonHermitian",
    "NotPositive",
    "SicSolution",
    "SteerabilityFree",
    "SweepResult",
    "Trajectory",
    "UnphysicalDrift",
    "UnruhParams",
    "UnruhSteerError",
    "concurrence",
    "equilibrium_boundary",
    "equilibrium_free",
    "evolve",
    "fano_to_matrix",
    "kossakowski_boundary",
    "kossakowski_free",
    "load_csv",
    "load_json",
    "matrix_to_fano",
    "min_eigenvalue",
    "ode_rhs",
    "one_sided_mid",
    "random_density_matrix",
    "random_fano_state",
    "relaxation_horizon",
    "run_grid",
    "sic_closed_form_free",
    "sic_solution",
    "steerability_functional_free",
    "steerability_verdict_boundary",
    "steering_induced_coherence",
    "steering_node_acceleration",
    "theorem1_residual",
    "trace_norm",
    "__version__",
]
