"""Manufactured solutions: the solver's true error against a known profile.

The exact solution is ``phi*(r) = a (e^{-(r-1)/2} + r^{-6} e^{-(r-1)/8})``, with ``a``
set so that ``phi*_r(1) = rho_b``.  Its defect goes into the source: ``forcing``
multiplies the source ``S`` by the kinetic ratio ``rho(1)^2/rho^2`` and adds
``R(phi)``, the forcing with a zero source, so the source

    S' = (kappa L phi* - h'(rho_+) phi* - R(phi*)) rho*^2 / rho*(1)^2,

``L = d^2/dr^2 + (n-1)/r d/dr``, makes ``phi*`` solve the discrete problem up to
quadrature error; ``R`` sums its tail by the grid's own rule, as the solve does.
Under a flow ``S'`` enters through ``nsk.stationary.source_term``, which ``forcing``
calls by name.  At the wall (``u_- = 0``) the forcing is the pressure remainder alone
and ``source_term`` is never called, so ``S'`` (with ratio 1) rides on
``PressureLaw.remainder`` instead.
"""

import math

import numpy as np
import pytest

import nsk.stationary as stationary_mod
from nsk.errors import NonContractionError
from nsk.grid import auto_r_max, build_grid
from nsk.kernel import ModelParams, PressureLaw
from nsk.stationary import forcing, solve_stationary

RHO_B = -0.02
# phi*_r(1) = a (-1/2 - 6 - 1/8)
AMPLITUDE = RHO_B / -6.625
REMAINDER = PressureLaw.remainder  # the law's own, which the wall cases patch around


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
    lhs = params.kappa * (phi_rr + (params.n - 1) / r * phi_r) - params.law.h_prime(params.rho_plus) * phi
    if params.u_minus == 0.0:
        source = lhs - REMAINDER(params.law, phi)
        monkeypatch.setattr(PressureLaw, "remainder", lambda law, x: REMAINDER(law, x) + source)
    else:
        monkeypatch.setattr(stationary_mod, "source_term", lambda n, u, x: np.zeros(x.shape))
        rest = forcing(params, grid, phi, phi_r)
        rho = params.rho_plus + phi
        source = (lhs - rest) * rho**2 / rho[0] ** 2
        monkeypatch.setattr(stationary_mod, "source_term", lambda n, u, x: source)
    sol = solve_stationary(params, grid, tol=1e-14, max_iter=400)
    inner = r <= 0.5 * grid.R_max
    return float(np.max(np.abs(sol.phi - phi)[inner]))


# (kappa, n, u_-)
FLOWS = [(1e-2, 3, 0.1), (1e-2, 3, -0.1), (1e-3, 2, 0.05), (1e-2, 4, -0.05), (1.0, 3, -0.05)]
WALLS = [(1e-2, 3, 0.0), (1e-2, 2, 0.0), (1e-4, 3, 0.0), (1.0, 3, 0.0)]
GAMMAS = (1.0, 1.4, 2.0)
# the Picard map stops contracting at sweep 6 (q = 1.62, 1.35, 1.11 at gamma = 1, 1.4, 2)
NOT_CONTRACTING = pytest.mark.xfail(strict=True, raises=NonContractionError, reason="Picard does not contract")


def _case(kappa, n, u_minus, gamma, *marks):
    """One parameter set; gamma = 1, the isothermal law, adds nothing to the id."""
    suffix = "" if gamma == 1.0 else f"-gamma{gamma}"
    return pytest.param(kappa, n, u_minus, gamma, id=f"{kappa}-{n}-{u_minus}{suffix}", marks=marks)


@pytest.mark.parametrize(
    "kappa, n, u_minus, gamma",
    [_case(*case, gamma) for case in FLOWS + WALLS for gamma in GAMMAS]
    + [_case(1e-4, 3, 0.05, gamma, NOT_CONTRACTING) for gamma in GAMMAS],
)
def test_error_falls_under_halving(monkeypatch, gamma, kappa, n, u_minus):
    # measured: 7.4-16x per halving; on the finest grid at most 3.2e-11 at kappa <= 1e-2, 7.6e-8 at kappa = 1
    params = ModelParams(n=n, gamma=gamma, kappa=kappa, mu=1.0, rho_plus=1.0, rho_b=RHO_B, u_minus=u_minus)
    grid = build_grid(params.alpha, auto_r_max(params))
    errors = []
    for _ in range(3):
        errors.append(manufactured_error(monkeypatch, params, grid))
        grid = grid.refined()
    ratio, bound = (7.0, 1e-7) if kappa == 1.0 else (8.0, 1e-10)
    assert all(math.isfinite(e) for e in errors), errors
    assert errors[0] >= ratio * errors[1] and errors[1] >= ratio * errors[2], errors
    assert errors[2] < bound, errors
