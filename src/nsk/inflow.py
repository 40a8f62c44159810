r"""Inflow/outflow stationary solver (nonzero boundary velocity).

The mass flux ``r^{n-1} rho u`` is constant, so the velocity is slaved to
the density, ``u(r) = rho(1) u_- / (rho(r) r^{n-1})``, and the density
solves an integro-differential equation whose perturbation form is

.. math::
    \phi_{rr} + \frac{n-1}{r}\phi_r - \alpha^2\phi
        = \frac{1}{\kappa}\bigl(S(r) + N(\phi)\bigr),
    \qquad S(r) = \frac{u_-^2}{2 r^{2(n-1)}},

with ``N`` collecting the viscous transport term, the pressure remainder,
the kinetic ratio term, and a nonlocal tail integral (recomputed from the
current iterate every sweep).  The algebraically decaying source rules out
exponential decay: the natural norm weights are ``r^{2(n-1)}`` on values
and ``r^{2n-1}`` on derivatives.

The boundary density ``rho(1)`` is an output, never an input: it is read
off the converged iterate, which is also the value entering ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PositivityError
from .grid import RadialGrid
from .impermeable import SolverReport, fixed_point, nonlinearity_impermeable
from .kernel import ModelParams, kernel_params, lifting_phi_b
from .operators import assemble_operators
from .residuals import ode_residual_inflow_outflow, residual_sup

__all__ = [
    "StationarySolution",
    "source_term",
    "nonlinearity_inflow",
    "solve_inflow_outflow",
]


@dataclass
class StationarySolution:
    """Density/velocity profiles with the mass-flux identity built in."""

    grid: RadialGrid
    rho: np.ndarray
    rho_r: np.ndarray
    u: np.ndarray
    mass_flux: float
    rho_minus: float


def source_term(n: int, u_minus: float, r):
    """``S(r) = u_-^2 / (2 r^{2(n-1)})``, the phi-independent forcing."""
    ra = np.asarray(r, dtype=float)
    out = u_minus**2 / (2.0 * ra ** (2 * (n - 1)))
    return float(out) if np.ndim(r) == 0 else out


def nonlinearity_inflow(
    params: ModelParams, grid: RadialGrid, phi: np.ndarray, phi_r: np.ndarray
) -> np.ndarray:
    """The four nonlinear summands, sampled on the grid.

    Viscous transport ``mu rho(1) u_- phi_r / (r^{n-1} rho^3)``, pressure
    remainder, kinetic ratio ``S(r) (rho(1)^2/rho^2 - 1)``, and the tail
    ``-mu rho(1) u_- \\int_r^\\infty phi_r^2 / (s^{n-1} rho^4) ds`` via
    the grid's reverse cumulative rule.  Vanishes identically for constant
    ``phi`` with ``phi_r = 0``.
    """
    rho = params.rho_plus + np.asarray(phi, dtype=float)
    if np.any(rho <= 0.0):
        raise PositivityError("phi + rho_plus must stay positive")
    rho1 = rho[0]
    u = params.u_minus
    rnm1 = grid.measure()
    transport = params.mu * rho1 * u * phi_r / (rnm1 * rho**3)
    pressure = nonlinearity_impermeable(params.gamma, params.rho_plus, phi)
    kinetic = source_term(params.n, u, grid.nodes) * (rho1**2 / rho**2 - 1.0)
    tail = grid.reverse_cumulative(phi_r**2 / (rnm1 * rho**4))
    return transport + pressure + kinetic - params.mu * rho1 * u * tail


def solve_inflow_outflow(
    params: ModelParams,
    grid: RadialGrid,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Fixed-point solve; returns ``(StationarySolution, SolverReport)``."""
    if params.u_minus == 0.0:
        raise ConfigError("inflow/outflow solver requires u_minus != 0")
    kp = kernel_params(params)
    op = assemble_operators(grid, kp, params.kappa)
    phi_b, phi_b_r = lifting_phi_b(kp, params.rho_b, grid.nodes)
    phi_b = np.asarray(phi_b, dtype=float)
    phi_b_r = np.asarray(phi_b_r, dtype=float)
    svals = source_term(params.n, params.u_minus, grid.nodes)

    def step(phi, phi_r):
        a_rhs, adr_rhs = op.apply(svals + nonlinearity_inflow(params, grid, phi, phi_r))
        return phi_b + a_rhs, phi_b_r + adr_rhs

    (phi, phi_r), iterations, update, converged = fixed_point(
        step, (phi_b, phi_b_r), params.rho_plus, tol, max_iter
    )
    rho = params.rho_plus + phi
    rho_minus = float(rho[0])
    mass_flux = rho_minus * params.u_minus
    u = mass_flux / (rho * grid.measure())
    solution = StationarySolution(
        grid=grid, rho=rho, rho_r=phi_r, u=u, mass_flux=mass_flux, rho_minus=rho_minus
    )
    res = ode_residual_inflow_outflow(grid, rho, phi_r, params)
    report = SolverReport(
        iterations=iterations,
        final_update_sup=update,
        ode_residual_sup=residual_sup(res),
        converged=converged,
        residual=res,
    )
    return solution, report
