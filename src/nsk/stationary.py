r"""Stationary solver for the impermeable, inflow and outflow regimes.

The mass flux ``r^{n-1} rho u`` is constant, so the velocity is slaved to
the density, ``u(r) = rho(1) u_- / (rho(r) r^{n-1})``, and the perturbation
``phi = rho - rho_plus`` solves

.. math::
    \phi_{rr} + \frac{n-1}{r}\phi_r - \alpha^2\phi
        = \frac{1}{\kappa}\bigl(S(r) + N(\phi, \phi_r)\bigr),
    \qquad \phi_r(1) = \rho_b, \quad \phi(\infty) = 0,
    \qquad S(r) = \frac{u_-^2}{2 r^{2(n-1)}}.

``N`` collects the viscous transport term, the pressure remainder
``h(rho) - h(rho_+) - h'(rho_+) phi``, the kinetic ratio term and a
nonlocal tail integral (recomputed from the current iterate every sweep).
Every summand except the pressure remainder carries a factor ``u_-``, so the
impermeable wall is the case ``u_- = 0``: there ``S = 0``, ``N`` is the
pressure remainder, ``u = 0`` and the mass flux vanishes.

With the Green operator ``A`` and its derivative ``A_r`` the pair
``(phi, phi_r)`` is the fixed point of

.. math::
    \phi \leftarrow \phi_b + A[S + N(\phi, \phi_r)], \qquad
    \phi_r \leftarrow \phi_{b,r} + A_r[S + N(\phi, \phi_r)],

iterated from the lifting ``(phi_b, phi_b_r)``.  The map is a contraction
for small data; rather than estimating the smallness threshold,
:func:`fixed_point` measures the contraction at runtime: it raises on a
non-finite update, and from the sixth sweep on whenever the observed rate
``q`` of the sup-update is at least 1 or too slow to reach the tolerance
within ``max_iter`` sweeps; a solve still unconverged after ``max_iter``
sweeps raises as well.  The boundary density
``rho(1)`` is an output, read off the converged iterate, which is also the
value entering ``N``.  Away from the wall the source decays algebraically,
so flow profiles decay like ``r^{-2(n-1)}`` while the wall profile decays
exponentially at rate ``alpha``.

Each solve is checked by putting the computed ``(phi, phi_r)`` back into
the same equation, with ``phi_rr`` rebuilt from the samples alone (a
quintic Hermite fit through three nodes), so the residual tests whether the
Green operator inverts ``kappa L`` on the forcing ``S + N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import check_finite
from .errors import NonContractionError, PositivityError, RangeError, WindowEmptyError
from .grid import RadialGrid
from .kernel import KernelParams, ModelParams, enthalpy_h, enthalpy_h_prime, kernel_params, lifting_phi_b
from .operators import GreenOperator

__all__ = [
    "StationarySolution",
    "pressure_remainder",
    "source_term",
    "forcing",
    "fixed_point",
    "hermite_second_derivative",
    "ode_residual",
    "solve_stationary",
    "decay_diagnostics",
]


@dataclass
class StationarySolution:
    """Density/velocity profiles with the mass-flux identity built in, and how the solve went.

    ``phi`` is the iterated perturbation ``rho - rho_plus``; it keeps the
    digits of small values that ``rho`` rounds away.  ``residual`` is
    :func:`ode_residual` of the converged iterate and ``ode_residual_sup``
    its sup norm.
    """

    grid: RadialGrid
    phi: np.ndarray
    rho: np.ndarray
    rho_r: np.ndarray
    u: np.ndarray
    mass_flux: float
    rho_minus: float
    iterations: int
    final_update_sup: float
    residual: np.ndarray
    ode_residual_sup: float


def pressure_remainder(gamma: float, rho_plus: float, phi):
    """Quadratic pressure remainder ``h(phi+rho_+) - h(rho_+) - h'(rho_+) phi``.

    Zero at ``phi = 0`` and ``O(phi^2)``; identically zero for ``gamma = 2``
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


def source_term(n: int, u_minus: float, r):
    """``S(r) = u_-^2 / (2 r^{2(n-1)})``, the phi-independent forcing."""
    ra = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = np.float64(u_minus) ** 2 / (2.0 * ra ** (2 * (n - 1)))
    check_finite(out, "source term u_minus**2/2")
    return float(out) if np.ndim(r) == 0 else out


def forcing(params: ModelParams, grid: RadialGrid, phi: np.ndarray, phi_r: np.ndarray) -> np.ndarray:
    """The right-hand side ``S + N`` of the density equation, sampled on the grid.

    ``N`` has four summands: viscous transport
    ``mu rho(1) u_- phi_r / (r^{n-1} rho^3)``, the pressure remainder, the
    kinetic ratio ``S(r) (rho(1)^2/rho^2 - 1)``, and the tail
    ``-mu rho(1) u_- \\int_r^\\infty phi_r^2 / (s^{n-1} rho^4) ds`` via
    the grid's reverse cumulative rule.  ``N`` vanishes identically for
    constant ``phi`` with ``phi_r = 0``; for ``u_- = 0`` the forcing is the
    pressure remainder alone.
    """
    pressure = pressure_remainder(params.gamma, params.rho_plus, phi)
    u = params.u_minus
    if u == 0.0:
        return pressure
    source = source_term(params.n, u, grid.nodes)
    rho = params.rho_plus + np.asarray(phi, dtype=float)
    rho1 = rho[0]
    rnm1 = grid.measure()
    transport = params.mu * rho1 * u * phi_r / (rnm1 * rho**3)
    kinetic = source * (rho1**2 / rho**2 - 1.0)
    tail = grid.reverse_cumulative(phi_r**2 / (rnm1 * rho**4))
    return source + (transport + pressure + kinetic - params.mu * rho1 * u * tail)


def hermite_second_derivative(nodes: np.ndarray, f: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Second derivative at interior nodes from (f, f') samples.

    ``p''(r_i)`` of the quintic ``p`` matching values and first derivatives
    at nodes ``i-1, i, i+1``, in closed form for spacings ``a = r_i - r_{i-1}``,
    ``b = r_{i+1} - r_i``; ``O(h^4)`` on smooth data, exact on quintics.
    Boundary entries, and every entry below three nodes, are NaN.
    """
    out = np.full(nodes.size, np.nan)
    a = nodes[1:-1] - nodes[:-2]
    b = nodes[2:] - nodes[1:-1]
    s = a + b
    num = (
        b**4 * (5.0 * a + 3.0 * b) * f[:-2]
        + a**4 * (3.0 * a + 5.0 * b) * f[2:]
        - s**3 * (3.0 * a * a - 4.0 * a * b + 3.0 * b * b) * f[1:-1]
        + a * b * s * (b**3 * fp[:-2] - a**3 * fp[2:])
        - 2.0 * a * b * (a - b) * s**3 * fp[1:-1]
    )
    out[1:-1] = 2.0 * num / (a * a * b * b * s**3)
    return out


def ode_residual(params: ModelParams, grid: RadialGrid, phi: np.ndarray, phi_r: np.ndarray) -> np.ndarray:
    """Defect ``kappa (phi_rr + (n-1)/r phi_r) - h'(rho_+) phi - S - N`` per node.

    ``phi_rr`` comes from :func:`hermite_second_derivative`, not from the
    Green operator; ``h'(rho_+)`` is taken exactly rather than as the rounded
    ``kappa alpha^2``.  Zero at the two end nodes, where ``phi_rr`` is not rebuilt.
    """
    r = grid.nodes
    phi_rr = hermite_second_derivative(r, phi, phi_r)
    res = (
        params.kappa * (phi_rr + (params.n - 1) / r * phi_r)
        - enthalpy_h_prime(params.gamma, params.rho_plus) * phi
        - forcing(params, grid, phi, phi_r)
    )
    res[[0, -1]] = 0.0
    return res


def fixed_point(step, state: tuple, rho_plus: float, tol: float, max_iter: int):
    """Picard iteration ``state <- step(*state)`` on a tuple of arrays.

    ``state[0]`` is the density perturbation and must keep
    ``rho_plus + state[0] > 0``; the update ``u_k`` of sweep ``k`` is the
    sup over every component.  Stops once the update is at most ``tol``.
    Raises on a non-finite update; from sweep 6 on, when the observed
    contraction ``q = (u_k / u_{k-5})^{1/5}`` is at least 1 or
    ``u_k q^{max_iter-k} > tol``, i.e. it cannot reach ``tol`` within
    ``max_iter`` sweeps; and once ``max_iter`` sweeps did not converge.
    Returns ``(state, iterations, update)``.
    """
    update = np.inf
    updates = []
    for iterations in range(1, max_iter + 1):
        # a diverging iterate overflows to inf/NaN; the finiteness rule below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            new = step(*state)
            if np.any(rho_plus + new[0] <= 0.0):
                raise PositivityError("density lost positivity during iteration")
            diffs = [float(np.max(np.abs(a - b))) for a, b in zip(new, state)]
        if not all(map(math.isfinite, diffs)):
            raise NonContractionError(f"non-finite update at iteration {iterations}")
        state, update = new, max(diffs)
        if update <= tol:
            return state, iterations, update
        updates.append(update)
        if 6 <= iterations < max_iter:
            q = (update / updates[-6]) ** 0.2
            if q >= 1.0 or update * q ** (max_iter - iterations) > tol:
                raise NonContractionError(
                    f"contraction q = {q:.3f} per iteration at iteration {iterations} "
                    f"(update {update:.3e}) cannot reach {tol:.1e} within {max_iter} iterations"
                )
    raise NonContractionError(f"no convergence in {max_iter} iterations (last update {update:.3e})")


def solve_stationary(
    params: ModelParams,
    grid: RadialGrid,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Fixed-point solve in any regime; returns its :class:`StationarySolution`."""
    kp = kernel_params(params)
    rho_plus_sq = params.rho_plus * params.rho_plus  # not ``**``: a float power raises on overflow
    if params.u_minus != 0.0 and rho_plus_sq * rho_plus_sq == 0.0:
        raise RangeError("rho_plus**4 underflows to 0: the flow terms divide by rho**4")
    op = GreenOperator(grid, kp, params.kappa)
    phi_b, phi_b_r = lifting_phi_b(kp, params.rho_b, grid.nodes)

    def step(phi, phi_r):
        a_rhs, adr_rhs = op.apply(forcing(params, grid, phi, phi_r))
        return phi_b + a_rhs, phi_b_r + adr_rhs

    (phi, phi_r), iterations, update = fixed_point(
        step, (phi_b, phi_b_r), params.rho_plus, tol, max_iter
    )
    rho = params.rho_plus + phi
    rho_minus = float(rho[0])
    mass_flux = rho_minus * params.u_minus
    u = mass_flux / (rho * grid.measure())
    res = ode_residual(params, grid, phi, phi_r)
    return StationarySolution(
        grid=grid, phi=phi, rho=rho, rho_r=phi_r, u=u, mass_flux=mass_flux, rho_minus=rho_minus,
        iterations=iterations, final_update_sup=update,
        residual=res, ode_residual_sup=float(np.max(np.abs(res))),
    )


def decay_diagnostics(solution: StationarySolution, kp: KernelParams):
    """Fit the exponential decay rate of ``|phi|`` over the interior window.

    Least-squares slope of ``log|phi|`` on ``r`` in
    ``[1 + 2/alpha, R_max - 5/alpha]`` restricted to ``|phi| > 1e-13``;
    returns ``(sigma_fit, envelope_constant)`` with
    ``C = max |phi| e^{sigma r} / |rho_b|`` (``inf`` once it exceeds the
    double range) and ``rho_b`` read off ``phi_r(1)``.  Meant for the wall, whose profile carries an algebraic
    prefactor (``e^{-alpha r} r^{-(n-1)/2}``), so the fitted rate sits
    slightly above ``alpha``; the theory guarantees any rate below ``alpha``.
    """
    r = solution.grid.nodes
    absphi = np.abs(solution.phi)
    lo = 1.0 + 2.0 / kp.alpha
    hi = solution.grid.R_max - 5.0 / kp.alpha
    mask = (r >= lo) & (r <= hi) & (absphi > 1e-13)
    if np.count_nonzero(mask) < 2:
        raise WindowEmptyError("no usable samples in the decay-fit window")
    slope = np.polyfit(r[mask], np.log(absphi[mask]), 1)[0]
    sigma = -float(slope)
    rho_b = solution.rho_r[0]
    if rho_b == 0.0:
        raise WindowEmptyError("zero boundary data; envelope constant undefined")
    # in logs, so e^{sigma r} cannot overflow where the product does not; past
    # alpha ~ 700 the constant itself leaves the double range and is inf
    with np.errstate(over="ignore"):
        c_fit = float(np.exp(np.max(np.log(absphi[mask]) + sigma * r[mask])) / abs(rho_b))
    return sigma, c_fit
