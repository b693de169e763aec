"""Exact non-Markovian dynamics of two entangled qubits with structured reservoirs.

The package tracks the reduced two-qubit density matrix of a pair of
entangled qubits, each exchange-coupled to a thermally damped auxiliary
atom.  Each pair evolves independently under a closed 9-dimensional
coefficient equation, and each qubit enters the joint X state only through
one complex response read off its generator: the coherence response u_k(t),
whose squared modulus is the population response s_k(t).  Concurrence,
entanglement of formation and sudden-death/revival events are computed
from the result.

Three independent cross-checks ship with the package: a brute-force
16-dimensional master-equation integration, a memory-kernel (Volterra)
solution of the projected dynamics, and Choi-matrix complete-positivity
tests of the reduced maps.
"""

__version__ = "0.1.0"

from .config import ConfigError, Scenario, SweepSpec, parse_scenario, parse_sweep
from .entanglement import (
    EntanglementEvent,
    EntanglementSeries,
    EventKind,
    entanglement_of_formation,
    extract_events,
    markovian_rate,
)
from .model import (
    InitialTerm,
    ModelParams,
    P_INDICES,
    ParameterError,
    Q_INDICES,
    build_generator,
    initial_coefficients,
    thermal_state,
)
from .nzkernel import MemoryKernelSamples, build_kernel, solve_nz
from .oracle import (
    build_full_liouvillian,
    choi_of_subsystem_map,
    evolve_full,
    partial_trace_34,
)
from .pipeline import RunHealthError, SimulationResult, simulate
from .presets import PRESETS, default_grid, preset_params
from .propagator import TimeGrid, evolve_x_state, responses, slow_solution, x_matrix

__all__ = [
    "__version__",
    "P_INDICES",
    "Q_INDICES",
    "ConfigError",
    "EntanglementEvent",
    "EntanglementSeries",
    "EventKind",
    "InitialTerm",
    "MemoryKernelSamples",
    "ModelParams",
    "PRESETS",
    "ParameterError",
    "RunHealthError",
    "Scenario",
    "SimulationResult",
    "SweepSpec",
    "TimeGrid",
    "build_full_liouvillian",
    "build_generator",
    "build_kernel",
    "choi_of_subsystem_map",
    "default_grid",
    "entanglement_of_formation",
    "evolve_full",
    "evolve_x_state",
    "extract_events",
    "initial_coefficients",
    "markovian_rate",
    "parse_scenario",
    "parse_sweep",
    "partial_trace_34",
    "preset_params",
    "responses",
    "simulate",
    "slow_solution",
    "solve_nz",
    "thermal_state",
    "x_matrix",
]
