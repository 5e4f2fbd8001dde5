"""sulfsim: particle and finite-difference solvers for a path-dependent
reaction-advection-diffusion model of marble sulphation.

The same nonlocal PDE is realized three ways: a weighted (discounted)
interacting particle system, a killed interacting particle system, and a
deterministic finite-difference reference; plus a Picard fixed-point
harness over frozen particle paths and comparison metrics tying them
together.
"""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    Grid1D,
    InitialDensitySpec,
    KernelSpec,
    PhysicalParams,
    SimConfig,
    load_config,
    validate_config,
)
from .dynamics import DriftArgs, drift_b, reaction_rate, recover_calcite
from .fields import AccumulatedFields, accumulate_step
from .fixedpoint import apply_mkfk_map, picard_solve
from .io import TrajectoryArchive
from .kernel import WeightedPointCloud, kernel_grad, kernel_value
from .metrics import convergence_study, density_distance, total_mass
from .particles import (
    ParticleEnsemble,
    SimulationOutput,
    init_ensemble,
    run_simulation,
    run_simulations,
)
from .pde import PdeState, pde_step, solve_pde

__all__ = [
    "AccumulatedFields",
    "ConfigError",
    "DriftArgs",
    "Grid1D",
    "InitialDensitySpec",
    "KernelSpec",
    "ParticleEnsemble",
    "PdeState",
    "PhysicalParams",
    "SimConfig",
    "SimulationOutput",
    "TrajectoryArchive",
    "WeightedPointCloud",
    "accumulate_step",
    "apply_mkfk_map",
    "convergence_study",
    "density_distance",
    "drift_b",
    "init_ensemble",
    "kernel_grad",
    "kernel_value",
    "load_config",
    "pde_step",
    "picard_solve",
    "reaction_rate",
    "recover_calcite",
    "run_simulation",
    "run_simulations",
    "solve_pde",
    "total_mass",
    "validate_config",
]
