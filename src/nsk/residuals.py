"""Residual diagnostics: plug computed profiles back into the ODEs.

The solvers produce density samples and their first derivative from the
differentiated kernel representation.  The second derivative needed for a
residual check is recovered numerically from the computed solution: a
quintic Hermite fit through three consecutive nodes (values and first
derivatives), giving an O(h^4) reconstruction that keeps the residual
floor well below solver tolerances on the grids used in the tests.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialGrid
from .kernel import ModelParams, enthalpy_h

__all__ = [
    "hermite_second_derivative",
    "ode_residual",
    "residual_sup",
]


def hermite_second_derivative(nodes: np.ndarray, f: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Second derivative at interior nodes from (f, f') samples.

    Fits the quintic matching values and first derivatives at nodes
    ``i-1, i, i+1`` in locally scaled coordinates.  Boundary entries are
    NaN.
    """
    M = nodes.size
    out = np.full(M, np.nan)
    if M < 3:
        return out
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    h = np.maximum(hm, hp)
    tl = -hm / h
    tr = hp / h
    m = M - 2
    Amat = np.zeros((m, 6, 6))
    rhs = np.zeros((m, 6))
    powers = np.arange(6)
    for row, tau in ((0, tl), (1, np.zeros(m)), (2, tr)):
        Amat[:, row, :] = tau[:, None] ** powers[None, :]
        # derivative rows, premultiplied by the local scale h
        Amat[:, 3 + row, 1:] = (
            powers[1:][None, :] * tau[:, None] ** (powers[1:] - 1)[None, :]
        )
    rhs[:, 0] = f[:-2]
    rhs[:, 1] = f[1:-1]
    rhs[:, 2] = f[2:]
    rhs[:, 3] = fp[:-2] * h
    rhs[:, 4] = fp[1:-1] * h
    rhs[:, 5] = fp[2:] * h
    coeff = np.linalg.solve(Amat, rhs[..., None])[..., 0]
    out[1:-1] = 2.0 * coeff[:, 2] / h**2
    return out


def ode_residual(grid: RadialGrid, rho: np.ndarray, rho_r: np.ndarray, params: ModelParams) -> np.ndarray:
    """Residual of the integro-differential density equation.

    The right side combines viscous transport, pressure, kinetic, and the
    nonlocal tail term; the tail integral is recomputed from the profile.
    Every term but the pressure carries ``u_-``, so at the impermeable wall
    this is ``kappa (rho_rr + (n-1)/r rho_r) - (h(rho) - h(rho_+))``.
    """
    r = grid.nodes
    n = params.n
    rho1 = rho[0]
    u = params.u_minus
    rho_rr = hermite_second_derivative(r, rho, rho_r)
    rnm1 = grid.measure()
    tail = grid.reverse_cumulative(rho_r**2 / (rnm1 * rho**4))
    rhs = (
        params.mu * rho1 * u * rho_r / (rnm1 * rho**3)
        + enthalpy_h(params.gamma, rho)
        - enthalpy_h(params.gamma, params.rho_plus)
        + rho1**2 * u**2 / (2.0 * r ** (2 * (n - 1)) * rho**2)
        - params.mu * rho1 * u * tail
    )
    return params.kappa * (rho_rr + (n - 1) / r * rho_r) - rhs


def residual_sup(res: np.ndarray) -> float:
    """Sup norm over interior nodes (NaN boundary entries ignored)."""
    interior = res[~np.isnan(res)]
    return float(np.max(np.abs(interior))) if interior.size else 0.0
