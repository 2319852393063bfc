"""Cluster-state and W-state preparation for cavity-coupled qubits under decay.

State vectors evolve under an exchange Hamiltonian with a non-Hermitian
cavity-decay term; closed-form protocol solutions are validated against an
independent numeric propagator. See the README for the CLI and file formats.
"""

from .analytic import (
    StepParams,
    WSolution,
    cluster_analytic,
    cluster_fidelity_recursive,
    cluster_schedule,
    ideal_cluster,
    single_step_map,
    step_params,
    w_amplitudes,
    w_solve_lambda1,
    w_target,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CavityEntanglerError,
    ConvergenceError,
    FactorizationError,
    NumericError,
    ProtocolError,
    RegimeError,
    RegimeWarning,
    SectorError,
    TruncationError,
)
from .hamiltonian import (
    EffectiveModel,
    OperatorMatrix,
    ThreeLevelModel,
    build_effective,
    build_full_rotated,
    build_single_excitation,
    effective_coupling,
    kappa_from_quality,
)
from .metrics import fidelity
from .numeric import PropagatorOptions, evolve, evolve_vector
from .protocols import (
    cluster_initial_state,
    run_cluster,
    run_w,
    w_initial_state,
)
from .records import RunReport
from .statespace import (
    SingleExcitation,
    StateVector,
    factor_out_cavity,
    inner,
    make_basis_state,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CapacityError",
    "CavityEntanglerError",
    "ConvergenceError",
    "EffectiveModel",
    "FactorizationError",
    "NumericError",
    "OperatorMatrix",
    "PropagatorOptions",
    "ProtocolError",
    "RegimeError",
    "RegimeWarning",
    "RunReport",
    "SectorError",
    "SingleExcitation",
    "StateVector",
    "StepParams",
    "ThreeLevelModel",
    "TruncationError",
    "WSolution",
    "build_effective",
    "build_full_rotated",
    "build_single_excitation",
    "cluster_analytic",
    "cluster_fidelity_recursive",
    "cluster_initial_state",
    "cluster_schedule",
    "effective_coupling",
    "evolve",
    "evolve_vector",
    "factor_out_cavity",
    "fidelity",
    "ideal_cluster",
    "inner",
    "kappa_from_quality",
    "make_basis_state",
    "run_cluster",
    "run_w",
    "single_step_map",
    "step_params",
    "w_amplitudes",
    "w_initial_state",
    "w_solve_lambda1",
    "w_target",
]
