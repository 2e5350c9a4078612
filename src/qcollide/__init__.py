"""Qubit collision-model simulator.

Evolves 2- to 4-qubit registers under pairwise thermal collision unitaries
and quantifies coherence, entanglement and system-environment information
backflow, including the fresh-ancilla memoryless limit.
"""

__version__ = "0.1.0"

from .analysis import SeriesVerdict, cluster_values, detect_period, distinct_values
from .dynamics import (
    InvariantViolationError,
    OrbitDiagram,
    Schedule,
    Trajectory,
    check_register,
    collide,
    markovian_step,
    markovian_trajectory,
    orbit_sweep,
    random_schedule,
    repeated_schedule,
    run_trajectory,
)
from .metrics import BackflowReport, backflow_events, l1_coherence, negativity, trace_distance
from .model import (
    CollisionUnitary,
    PureQubit,
    Register,
    ThermalAncilla,
    composite_initial,
    pair_collision_unitary,
    pure_qubit_density,
    thermal_density,
    thermal_from_beta,
)
from .qmat import (
    hermitian_eigensystem,
    hermitian_eigenvalues,
    is_positive_semidefinite,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm_hermitian,
)

__all__ = [
    "BackflowReport",
    "CollisionUnitary",
    "InvariantViolationError",
    "OrbitDiagram",
    "PureQubit",
    "Register",
    "Schedule",
    "SeriesVerdict",
    "ThermalAncilla",
    "Trajectory",
    "backflow_events",
    "check_register",
    "cluster_values",
    "collide",
    "composite_initial",
    "detect_period",
    "distinct_values",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "is_positive_semidefinite",
    "kron",
    "l1_coherence",
    "markovian_step",
    "markovian_trajectory",
    "negativity",
    "orbit_sweep",
    "pair_collision_unitary",
    "partial_trace",
    "partial_transpose",
    "pure_qubit_density",
    "random_schedule",
    "repeated_schedule",
    "run_trajectory",
    "thermal_density",
    "thermal_from_beta",
    "trace_distance",
    "trace_norm_hermitian",
]
