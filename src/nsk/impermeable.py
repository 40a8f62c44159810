r"""Impermeable-wall stationary solver (Picard iteration on the Green form).

With ``u_- = 0`` the velocity vanishes identically and the density solves

.. math::
    \tilde\rho_{rr} + \frac{n-1}{r}\tilde\rho_r
        = \frac{1}{\kappa}\bigl(h(\tilde\rho) - h(\rho_+)\bigr),
    \qquad \tilde\rho_r(1) = \rho_b, \quad \tilde\rho(\infty) = \rho_+.

The perturbation ``phi = rho - rho_plus`` is the fixed point of

.. math::
    \mathcal{T}[\phi] = \phi_b + \frac{1}{\kappa}\int_1^\infty
        G(\cdot, s)\, N(\phi(s))\, s^{n-1} ds,
    \qquad N(\phi) = h(\phi+\rho_+) - h(\rho_+) - h'(\rho_+)\phi,

iterated from ``phi = phi_b`` (the first Picard iterate).  The map is a
contraction for small boundary data; rather than estimating the smallness
threshold, :func:`fixed_point` detects divergence at runtime (a non-finite
update, or the sup-update growing five iterations in a row).  The
inflow/outflow solver runs the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonContractionError, PositivityError, WindowEmptyError
from .grid import RadialGrid
from .kernel import KernelParams, ModelParams, enthalpy_h, enthalpy_h_prime, kernel_params, lifting_phi_b
from .operators import assemble_operators
from .residuals import ode_residual_impermeable, residual_sup

__all__ = [
    "PerturbationField",
    "SolverReport",
    "nonlinearity_impermeable",
    "solve_impermeable",
    "decay_diagnostics",
]


@dataclass
class PerturbationField:
    """Converged perturbation ``phi = rho - rho_plus`` and its derivative."""

    grid: RadialGrid
    phi: np.ndarray
    phi_r: np.ndarray
    sup_norm: float
    decay_rate_fit: float

    def rho(self, rho_plus: float) -> np.ndarray:
        return rho_plus + self.phi


@dataclass
class SolverReport:
    iterations: int
    final_update_sup: float
    ode_residual_sup: float
    converged: bool
    residual: np.ndarray  # ODE residual per node, NaN at the two end nodes


def nonlinearity_impermeable(gamma: float, rho_plus: float, phi):
    """Quadratic pressure remainder ``N(phi) = h(phi+rho_+) - h(rho_+) - h'(rho_+) phi``.

    ``N(0) = 0`` and ``N = O(phi^2)``; identically zero for ``gamma = 2``
    where ``h`` is affine.
    """
    pa = np.asarray(phi, dtype=float)
    if np.any(pa + rho_plus <= 0.0):
        raise PositivityError("phi + rho_plus must stay positive")
    if gamma == 1.0:
        out = np.log1p(pa / rho_plus) - pa / rho_plus
    else:
        out = (
            enthalpy_h(gamma, pa + rho_plus)
            - enthalpy_h(gamma, rho_plus)
            - enthalpy_h_prime(gamma, rho_plus) * pa
        )
    return float(out) if np.ndim(phi) == 0 else out


def fixed_point(step, state: tuple, rho_plus: float, tol: float, max_iter: int):
    """Picard iteration ``state <- step(*state)`` on a tuple of arrays.

    ``state[0]`` is the density perturbation and must keep
    ``rho_plus + state[0] > 0``; the update is the sup over every
    component.  Stops once the update is at most ``tol``, or after
    ``max_iter`` steps; raises on a non-finite update or one that grew five
    times in a row.  Returns ``(state, iterations, update, converged)``.
    """
    update = np.inf
    grow = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = step(*state)
        if np.any(rho_plus + new[0] <= 0.0):
            raise PositivityError("density lost positivity during iteration")
        diffs = [float(np.max(np.abs(a - b))) for a, b in zip(new, state)]
        if not all(map(math.isfinite, diffs)):
            raise NonContractionError(f"non-finite update at iteration {iterations}")
        new_update = max(diffs)
        grow = grow + 1 if new_update > update else 0
        if grow >= 5:
            raise NonContractionError(
                f"sup-update grew for 5 consecutive iterations (last {new_update:.3e})"
            )
        state, update = new, new_update
        if update <= tol:
            return state, iterations, update, True
    return state, iterations, update, False


def solve_impermeable(
    params: ModelParams,
    grid: RadialGrid,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Fixed-point solve; returns ``(PerturbationField, SolverReport)``."""
    if params.u_minus != 0.0:
        raise ConfigError("impermeable solver requires u_minus = 0")
    kp = kernel_params(params)
    op = assemble_operators(grid, kp, params.kappa)
    phi_b, phi_b_r = lifting_phi_b(kp, params.rho_b, grid.nodes)

    def step(phi):
        return (phi_b + op.apply(nonlinearity_impermeable(params.gamma, params.rho_plus, phi))[0],)

    (phi,), iterations, update, converged = fixed_point(
        step, (np.asarray(phi_b, dtype=float),), params.rho_plus, tol, max_iter
    )
    phi_r = phi_b_r + op.apply(nonlinearity_impermeable(params.gamma, params.rho_plus, phi))[1]
    res = ode_residual_impermeable(grid, phi, phi_r, params)
    field = PerturbationField(
        grid=grid,
        phi=phi,
        phi_r=phi_r,
        sup_norm=float(np.max(np.abs(phi))),
        decay_rate_fit=np.nan,
    )
    try:
        field.decay_rate_fit = decay_diagnostics(field, kp)[0]
    except WindowEmptyError:
        pass
    report = SolverReport(
        iterations=iterations,
        final_update_sup=update,
        ode_residual_sup=residual_sup(res),
        converged=converged,
        residual=res,
    )
    return field, report


def decay_diagnostics(field: PerturbationField, kp: KernelParams):
    """Fit the exponential decay rate of ``|phi|`` over the interior window.

    Least-squares slope of ``log|phi|`` on ``r`` in
    ``[1 + 2/alpha, R_max - 5/alpha]`` restricted to ``|phi| > 1e-13``;
    returns ``(sigma_fit, envelope_constant)`` with
    ``C = max |phi| e^{sigma r} / |rho_b|`` and ``rho_b`` read off
    ``phi_r(1)``.  The profile carries an algebraic prefactor
    (``e^{-alpha r} r^{-(n-1)/2}``), so the fitted rate sits slightly above
    ``alpha``; the theory guarantees any rate below ``alpha``.
    """
    r = field.grid.nodes
    absphi = np.abs(field.phi)
    lo = 1.0 + 2.0 / kp.alpha
    hi = field.grid.R_max - 5.0 / kp.alpha
    mask = (r >= lo) & (r <= hi) & (absphi > 1e-13)
    if np.count_nonzero(mask) < 2:
        raise WindowEmptyError("no usable samples in the decay-fit window")
    slope = np.polyfit(r[mask], np.log(absphi[mask]), 1)[0]
    sigma = -float(slope)
    rho_b = field.phi_r[0]
    if rho_b == 0.0:
        raise WindowEmptyError("zero boundary data; envelope constant undefined")
    c_fit = float(np.max(absphi[mask] * np.exp(sigma * r[mask])) / abs(rho_b))
    return sigma, c_fit
