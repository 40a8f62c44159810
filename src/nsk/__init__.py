"""Stationary Navier-Stokes-Korteweg profiles on the exterior domain r > 1.

One solver for the impermeable-wall, inflow, and outflow boundary regimes
of the spherically symmetric stationary NSK system, a finite-difference
oracle, the vanishing-capillarity limit profile, and a kappa-sweep rate
study reproducing the theoretical convergence orders.
"""

from .bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled, weighted_basis
from .errors import (
    ConfigError,
    DomainError,
    GridSizeError,
    NewtonDivergenceError,
    NoRootError,
    NonContractionError,
    NskError,
    PositivityError,
    RangeError,
    SolverError,
    WindowEmptyError,
)
from .grid import RadialGrid, build_grid
from .kernel import (
    KernelParams,
    ModelParams,
    enthalpy_h,
    enthalpy_h_prime,
    green,
    green_dr,
    green_dr_left,
    green_dr_right,
    kernel_params,
    lifting_phi_b,
)
from .limit import LimitProfile, integrate_profile, potential_w, rescale_to_r, solve_rho_minus
from .operators import assemble_operators, backend_name
from .oracle import cross_validate, fd_nodes, solve_fd
from .rates import RateStudyConfig, RateStudyResult, emit_outputs, fit_loglog, run_rate_study
from .stationary import (
    SolverReport,
    StationarySolution,
    decay_diagnostics,
    nonlinearity,
    pressure_remainder,
    solve_stationary,
    source_term,
)

__version__ = "0.1.0"

__all__ = [
    "BesselOrder",
    "ConfigError",
    "DomainError",
    "GridSizeError",
    "KernelParams",
    "LimitProfile",
    "ModelParams",
    "NewtonDivergenceError",
    "NoRootError",
    "NonContractionError",
    "NskError",
    "PositivityError",
    "RadialGrid",
    "RangeError",
    "RateStudyConfig",
    "RateStudyResult",
    "SolverError",
    "SolverReport",
    "StationarySolution",
    "WindowEmptyError",
    "assemble_operators",
    "backend_name",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_k",
    "bessel_k_scaled",
    "build_grid",
    "cross_validate",
    "decay_diagnostics",
    "emit_outputs",
    "enthalpy_h",
    "enthalpy_h_prime",
    "fd_nodes",
    "fit_loglog",
    "green",
    "green_dr",
    "green_dr_left",
    "green_dr_right",
    "integrate_profile",
    "kernel_params",
    "lifting_phi_b",
    "nonlinearity",
    "potential_w",
    "pressure_remainder",
    "rescale_to_r",
    "run_rate_study",
    "solve_fd",
    "solve_rho_minus",
    "solve_stationary",
    "source_term",
    "weighted_basis",
]
