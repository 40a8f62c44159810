"""Manufactured solutions: the flow solver's true error against a known profile.

The exact solution is ``phi*(r) = a (e^{-(r-1)/2} + r^{-6} e^{-(r-1)/8})``, with ``a``
set so that ``phi*_r(1) = rho_b``.  Its defect goes into the source: ``forcing``
multiplies the source ``S`` by the kinetic ratio ``rho(1)^2/rho^2`` and adds
``R(phi)``, the forcing with a zero source, so the source

    S' = (kappa L phi* - h'(rho_+) phi* - R(phi*)) rho*^2 / rho*(1)^2,

``L = d^2/dr^2 + (n-1)/r d/dr``, makes ``phi*`` solve the discrete problem up to
quadrature error; ``R`` sums its tail by the grid's own rule, as the solve does.
``S'`` enters through ``nsk.stationary.source_term``, which ``forcing`` calls by name.
"""

import math

import numpy as np
import pytest

import nsk.stationary as stationary_mod
from nsk.grid import auto_r_max, build_grid
from nsk.kernel import ModelParams
from nsk.stationary import forcing, solve_stationary

RHO_B = -0.02
# phi*_r(1) = a (-1/2 - 6 - 1/8)
AMPLITUDE = RHO_B / -6.625


def exact(r):
    """``(phi*, phi*_r, phi*_rr)`` at ``r``."""
    e1 = np.exp(-0.5 * (r - 1.0))
    e2 = r**-6 * np.exp(-0.125 * (r - 1.0))
    rate2 = -6.0 / r - 0.125  # (log e2)'
    phi = AMPLITUDE * (e1 + e2)
    phi_r = AMPLITUDE * (-0.5 * e1 + rate2 * e2)
    phi_rr = AMPLITUDE * (0.25 * e1 + (rate2 * rate2 + 6.0 / (r * r)) * e2)
    return phi, phi_r, phi_rr


def manufactured_error(monkeypatch, params, grid):
    """``max |phi - phi*|`` over ``r <= R_max/2`` of a solve whose source is ``S'``."""
    r = grid.nodes
    phi, phi_r, phi_rr = exact(r)
    monkeypatch.setattr(stationary_mod, "source_term", lambda n, u, x: np.zeros(x.shape))
    rest = forcing(params, grid, phi, phi_r)
    lhs = params.kappa * (phi_rr + (params.n - 1) / r * phi_r) - params.law.h_prime(params.rho_plus) * phi
    rho = params.rho_plus + phi
    source = (lhs - rest) * rho**2 / rho[0] ** 2
    monkeypatch.setattr(stationary_mod, "source_term", lambda n, u, x: source)
    sol = solve_stationary(params, grid, tol=1e-14, max_iter=400)
    inner = r <= 0.5 * grid.R_max
    return float(np.max(np.abs(sol.phi - phi)[inner]))


@pytest.mark.parametrize(
    "kappa, n, u_minus",
    [(1e-2, 3, 0.1), (1e-2, 3, -0.1), (1e-3, 2, 0.05), (1e-2, 4, -0.05)],
)
def test_error_falls_under_halving(monkeypatch, kappa, n, u_minus):
    # measured: 9-16x per halving, at most 3.2e-11 on the finest grid
    params = ModelParams(n=n, gamma=1.0, kappa=kappa, mu=1.0, rho_plus=1.0, rho_b=RHO_B, u_minus=u_minus)
    grid = build_grid(params.alpha, auto_r_max(params))
    errors = []
    for _ in range(3):
        errors.append(manufactured_error(monkeypatch, params, grid))
        grid = grid.refined()
    assert all(math.isfinite(e) for e in errors), errors
    assert errors[0] >= 8.0 * errors[1] and errors[1] >= 8.0 * errors[2], errors
    assert errors[2] < 1e-10, errors
