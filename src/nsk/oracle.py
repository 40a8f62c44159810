r"""Independent finite-difference Newton oracle for the impermeable BVP.

A deliberately separate discretization of

.. math::
    \kappa\Bigl(\rho_{rr} + \frac{n-1}{r}\rho_r\Bigr) = h(\rho) - h(\rho_+),
    \qquad \rho_r(1) = \rho_b, \quad \rho(R) = \rho_+,

used to cross-check the Green-kernel fixed-point solver: uniform grid,
second-order central stencils (Neumann data eliminated through a ghost
node), and damped-free Newton whose tridiagonal steps are solved in place by
cyclic reduction (R. W. Hockney, J. ACM 12 (1965) 95): each level eliminates
every second unknown through strided views of the three diagonals and the
right-hand side, which ends holding the step.  The Jacobian is diagonally
dominant by rows and by columns, so the elimination needs no pivoting.  The
stencils' error expands in even powers of the spacing ``h``, so Richardson
extrapolation of the solves at ``h`` and ``h/2`` (L. F. Richardson, Phil.
Trans. R. Soc. A 210 (1911) 307) makes the reference O(h^4); 4-point cubic
Lagrange interpolation on the uniform FD grid, also O(h^4) and with no global
spline, carries it to the kernel grid.  The only code shared with the kernel
solver is the parameter container: its decay rate ``alpha`` and its
:class:`~nsk.kernel.PressureLaw` (``dh = h(rho) - h(rho_+)`` and ``h'``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NewtonDivergenceError, PositivityError
from .grid import auto_r_max, build_grid
from .kernel import ModelParams
from .stationary import solve_stationary

__all__ = ["solve_fd", "solve_tridiagonal", "solve_fd_richardson", "fd_reference", "cross_validate"]

MAX_NEWTON = 60
NEWTON_TOL = 1e-10  # sup of the FD residual at which a Newton solve stops
MAX_COARSE_NODES = 500_000  # of the reference's coarse level, so its fine level stays below 1e6


def solve_fd(params: ModelParams, node_count: int, R_max: float) -> np.ndarray:
    """Density samples on the uniform grid ``np.linspace(1, R_max, node_count)``.

    Newton on the central-difference discretization; the initial guess is
    the flat-space lifting ``rho_+ - (rho_b/alpha) e^{-alpha(r-1)}``, with the
    model's decay rate ``alpha``.
    """
    if params.u_minus != 0.0:
        raise ConfigError("the FD oracle covers the impermeable wall only: it requires u_minus = 0")
    if node_count < 100:
        raise ConfigError("node_count must be at least 100")
    r = np.linspace(1.0, R_max, node_count)
    h = r[1] - r[0]
    kappa = params.kappa
    law = params.law
    rp = params.rho_plus

    rho = rp - (params.rho_b / params.alpha) * np.exp(-params.alpha * (r - 1.0))
    if np.any(rho <= 0.0):
        raise PositivityError("initial guess not positive; boundary data too large")

    M = node_count
    inv_h2 = 1.0 / h**2
    drift = np.divide(params.n - 1, r, out=r)  # r is not read again
    last_res = np.inf
    F = np.empty(M)  # the residual, overwritten by the Newton step
    for _ in range(MAX_NEWTON):
        # interior rows: central second and first differences
        F[1:-1] = kappa * (
            (rho[:-2] - 2.0 * rho[1:-1] + rho[2:]) * inv_h2
            + drift[1:-1] * (rho[2:] - rho[:-2]) / (2.0 * h)
        ) - law.dh(rho[1:-1])
        # wall row: ghost node eliminated via rho_r(1) = rho_b
        F[0] = kappa * (
            (2.0 * rho[1] - 2.0 * rho[0] - 2.0 * h * params.rho_b) * inv_h2
            + drift[0] * params.rho_b
        ) - law.dh(rho[0])
        F[-1] = rho[-1] - rp

        res = float(np.max(np.abs(F)))
        if res <= NEWTON_TOL:
            return rho
        if not np.isfinite(res) or res > 10.0 * last_res + NEWTON_TOL:
            raise NewtonDivergenceError(f"Newton residual grew to {res:.3e}")
        last_res = max(res, NEWTON_TOL)

        # tridiagonal Jacobian, row i: lower[i], diag[i], upper[i]
        lower = np.zeros(M)
        upper = np.zeros(M)
        lower[1:-1] = kappa * (inv_h2 - drift[1:-1] / (2.0 * h))
        upper[1:-1] = kappa * (inv_h2 + drift[1:-1] / (2.0 * h))
        upper[0] = 2.0 * kappa * inv_h2
        diag = -2.0 * kappa * inv_h2 - law.h_prime(rho)
        diag[-1] = 1.0
        step = solve_tridiagonal(lower, diag, upper, np.negative(F, out=F))
        del lower, diag, upper  # rebuilt each step: not kept alive beside the next residual's temporaries
        rho += step
        if np.any(rho <= 0.0):
            raise PositivityError("Newton iterate lost positivity")
        if np.max(np.abs(step)) <= 1e-14 * max(1.0, float(np.max(np.abs(rho)))):
            # residual sits at its roundoff floor (~eps/h^2); the iterate is done
            return rho
    raise NewtonDivergenceError(f"no convergence in {MAX_NEWTON} Newton steps (residual {res:.3e})")


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve ``lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]`` in place.

    Cyclic reduction without pivoting, for a diagonally dominant system with
    ``lower[0] = upper[-1] = 0``: all four arrays are overwritten and ``rhs``,
    returned, holds the solution.  Each level folds the even-position equations
    into the odd ones, which form the next level's system as strided views.
    """
    levels = []
    a, b, c, d = lower, diag, upper, rhs
    while d.size > 1:
        n = d.size
        left = slice(0, n - 1, 2)  # the even neighbour below each odd position
        inner = slice(1, n - 1, 2)  # the odd positions with an even neighbour above
        alpha = -a[1::2] / b[left]
        beta = -c[inner] / b[2::2]
        d[1::2] += alpha * d[left]
        d[inner] += beta * d[2::2]
        b[1::2] += alpha * c[left]
        b[inner] += beta * a[2::2]
        a[1::2] = alpha * a[left]
        c[inner] = beta * c[2::2]
        levels.append((a, b, c, d))
        a, b, c, d = a[1::2], b[1::2], c[1::2], d[1::2]
    d /= b
    for a, b, c, d in reversed(levels):
        n = d.size
        d[2::2] -= a[2::2] * d[1 : n - 1 : 2]
        d[0 : n - 1 : 2] -= c[0 : n - 1 : 2] * d[1::2]
        d[::2] /= b[::2]
    return rhs


def _interpolate_uniform(nodes: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """4-point cubic Lagrange interpolation of samples on the uniform ``nodes``.

    Each point uses the stencil ``i-1 .. i+2`` around the cell ``[nodes[i], nodes[i+1]]``
    that holds it, with ``i`` clamped to the interior so the stencil stays on the grid.
    """
    h = nodes[1] - nodes[0]
    i = np.clip(((points - nodes[0]) / h).astype(np.intp), 1, nodes.size - 3)
    t = (points - nodes[i]) / h
    f_left, f0, f1, f2 = values[i - 1], values[i], values[i + 1], values[i + 2]
    # Newton form on the nodes 0, 1, -1, 2 of the stencil: exact on constants
    return (
        f0
        + t * (f1 - f0)
        + t * (t - 1.0) / 2.0 * (f1 - 2.0 * f0 + f_left)
        + (t + 1.0) * t * (t - 1.0) / 6.0 * (f2 - 3.0 * f1 + 3.0 * f0 - f_left)
    )


def solve_fd_richardson(params: ModelParams, node_count: int, R_max: float) -> np.ndarray:
    """The Richardson extrapolation ``(4 rho_{h/2} - rho_h)/3`` on the grid of ``solve_fd``."""
    coarse = solve_fd(params, node_count, R_max)
    fine = solve_fd(params, 2 * node_count - 1, R_max)
    return (4.0 * fine[::2] - coarse) / 3.0


def fd_reference(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and extrapolated density on ``[1, 1 + 40/alpha]``, at the coarse spacing
    ``min(0.0025, 1/(40 alpha))`` that the kernel's decay rate alone sets.

    The span is 40 decay lengths of ``e^{-alpha(r-1)}``, so the coarse level has
    about ``max(16000/alpha, 1600) + 1`` nodes (capped at ``MAX_COARSE_NODES``, which
    binds only at ``alpha < 0.032``) and stops growing as kappa falls.
    """
    alpha = params.alpha
    R_max = 1.0 + 40.0 / alpha
    node_count = min(int(math.ceil((R_max - 1.0) * max(400.0, 40.0 * alpha))) + 1, MAX_COARSE_NODES)
    return np.linspace(1.0, R_max, node_count), solve_fd_richardson(params, node_count, R_max)


def cross_validate(params: ModelParams) -> float:
    """Run the FD oracle and the kernel solver at the wall; compare on the kernel grid.

    Kernel nodes inside the oracle's span ``[1, 1 + 40/alpha]`` are compared
    with its interpolated reference; nodes beyond it (the kernel grid reaches
    at least ``r = 21``) with ``rho_+``, the oracle's own Dirichlet value, so
    every kernel node is checked and the cubic is never extrapolated.
    The kernel grid is built first, so a span past the node cap is refused
    before the oracle runs; ``solve_fd`` runs before ``solve_stationary``, so
    its ``u_minus = 0`` rule refuses a flow.
    Returns the sup difference; ``nsk verify`` judges it against its ``--tol``.
    """
    grid = build_grid(params.alpha, auto_r_max(params), points_per_unit_alpha=24.0, growth=1.04)
    nodes, rho_fd = fd_reference(params)
    sol = solve_stationary(params, grid, tol=1e-12, max_iter=400)
    inside = grid.nodes <= nodes[-1]
    rho_ref = np.full(grid.size, params.rho_plus)
    rho_ref[inside] = _interpolate_uniform(nodes, rho_fd, grid.nodes[inside])
    return float(np.max(np.abs(sol.rho - rho_ref)))
