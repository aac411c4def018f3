"""Simulation of a voltage-tuned membrane transducer between microwave and optical photons.

The device is a doubly clamped atomically thin membrane above an electrode,
embedded in an LC microwave resonator and hosting a single-photon emitter.
This package computes the static operating point from geometry and bias,
the electromechanical and optomechanical coupling rates at that point, and
the single-excitation conversion dynamics of a microwave photon into a
free-space optical photon.
"""

from .circuit import (
    CircuitParams,
    charge_zero_point,
    electromechanical_coupling,
    matched_circuit,
    membrane_capacitance,
    tune_capacitor,
)
from .config import ExperimentConfig, SimulationSettings, SweepSettings, parse_config
from .coupling import (
    EmitterParams,
    cooperativity,
    effective_optomechanical_coupling,
    stark_coupling,
    strain_coupling,
    thermal_occupation,
)
from .dynamics import (
    TrajectoryRecord,
    TransferSystem,
    default_discretization,
    default_timestep,
    integrate,
    make_transfer_system,
)
from .errors import ConfigError, PullInError, TuningError
from .mechanics import (
    ElectrostaticEnvironment,
    MembraneGeometry,
    OperatingPoint,
    elastic_force,
    operating_point_at_deflection,
    pull_in_deflection,
    solve_equilibrium,
)
from .runner import (
    ResultTable,
    run_coupling_sweep,
    run_environment_scan,
    run_mechanics_sweep,
    run_transfer,
)

__version__ = "0.1.0"
