"""Finite-difference Newton oracle and solver cross-validation."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from nsk import oracle
from nsk.errors import ConfigError, NewtonDivergenceError, PositivityError
from nsk.kernel import KernelFactors, ModelParams, lifting_phi_b
from nsk.oracle import (
    _interpolate_uniform,
    cross_validate,
    solve_fd,
    solve_fd_richardson,
    solve_tridiagonal,
)


def params_with(**kw):
    base = dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    base.update(kw)
    return ModelParams(**base)


class TestSolveFd:
    def test_zero_data_is_exact(self):
        p = params_with(rho_b=0.0)
        rho = solve_fd(p, 501, 21.0)
        assert np.all(rho == p.rho_plus)

    def test_affine_enthalpy_matches_lifting(self):
        # gamma=2 linearizes the BVP; the decaying homogeneous solution with
        # the right wall slope is then the exact solution
        p = params_with(gamma=2.0)
        R = 1.0 + max(40.0 / p.alpha, 20.0)
        rho = solve_fd(p, 16001, R)
        exact = p.rho_plus + lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, np.linspace(1.0, R, 16001)))[0]
        assert np.max(np.abs(rho - exact)) <= 1e-6

    def test_second_order_convergence(self):
        p = params_with(gamma=2.0)
        R = 1.0 + max(40.0 / p.alpha, 20.0)
        errs = []
        for count in (2001, 4001, 8001):
            r = np.linspace(1.0, R, count)
            exact = p.rho_plus + lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, r))[0]
            errs.append(np.max(np.abs(solve_fd(p, count, R) - exact)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_richardson_fourth_order_convergence(self):
        # (4 rho_{h/2} - rho_h)/3 cancels the h^2 term: the error falls 16-fold per halving
        p = params_with(gamma=2.0)
        R = 1.0 + max(40.0 / p.alpha, 20.0)
        errs = []
        for count in (1001, 2001, 4001):
            exact = p.rho_plus + lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, np.linspace(1.0, R, count)))[0]
            errs.append(np.max(np.abs(solve_fd_richardson(p, count, R) - exact)))
        assert 15.0 <= errs[0] / errs[1] <= 17.0
        assert 15.0 <= errs[1] / errs[2] <= 17.0

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            solve_fd(params_with(), 50, 21.0)
        with pytest.raises(ConfigError):
            solve_fd(params_with(u_minus=0.1), 500, 21.0)

    def test_wall_data_beyond_the_initial_guess_refused(self):
        # the guess rho_plus - (rho_b / alpha) e^{-alpha (r - 1)} is -9 at the wall
        with pytest.raises(PositivityError, match="^initial guess not positive; boundary data too large$"):
            solve_fd(params_with(rho_b=10.0), 500, 21.0)

    def test_growing_residual_refused(self):
        # gamma = 20: the first step from the lifting overshoots, and the residual grows from 0.70 to 10.4
        p = params_with(n=5, gamma=20.0, kappa=1e-2, rho_b=5.0)
        with pytest.raises(NewtonDivergenceError, match=r"^Newton residual grew to 1\.038e\+01$"):
            solve_fd(p, 101, 21.0)

    def test_iterate_losing_positivity_refused(self):
        # the guess is positive (0.11 at the wall), a Newton step takes the density below 0
        p = params_with(n=2, gamma=5.0, rho_b=2.0)
        with pytest.raises(PositivityError, match="^Newton iterate lost positivity$"):
            solve_fd(p, 501, 21.0)

    def test_newton_step_cap(self):
        # rho ~ 2e3 at the wall under P = rho^20: a step takes off about 1/19 of the density, so the
        # residual, which grows as rho^19, falls only e-fold per step, from 4.6e63
        p = params_with(n=2, gamma=20.0, rho_b=-1e4)
        with pytest.raises(NewtonDivergenceError, match=r"^no convergence in 60 Newton steps \(residual 2\.207e\+37\)$"):
            solve_fd(p, 101, 21.0)


class TestInterpolation:
    def test_exact_on_cubics(self):
        # every stencil, the clamped end cells included, reproduces a cubic
        nodes = np.linspace(1.0, 21.0, 101)
        cubic = np.polynomial.Polynomial([0.3, -1.1, 0.25, -0.01])
        points = np.concatenate([np.linspace(1.0, 21.0, 997), nodes])
        assert np.max(np.abs(_interpolate_uniform(nodes, cubic(nodes), points) - cubic(points))) <= 1e-12

    def test_fourth_order(self):
        errs = []
        for count in (201, 401):
            nodes = np.linspace(1.0, 11.0, count)
            points = np.linspace(1.0, 11.0, 1999)
            errs.append(np.max(np.abs(_interpolate_uniform(nodes, np.exp(-nodes), points) - np.exp(-points))))
        assert 14.0 <= errs[0] / errs[1] <= 18.0


class TestCrossValidate:
    def test_zero_data(self):
        assert cross_validate(params_with(rho_b=0.0)) == 0.0

    def test_default_case(self):
        sup = cross_validate(params_with())
        assert sup <= 1e-6, sup

    def test_affine_enthalpy_case(self):
        sup = cross_validate(params_with(gamma=2.0, kappa=0.1))
        assert sup <= 1e-7, sup

    def test_small_capillarity(self):
        p = params_with(kappa=1e-3, rho_b=-0.02)
        sup = cross_validate(p)
        assert sup <= 1e-6, sup

    def test_traced_memory_at_tiny_capillarity(self):
        # the oracle's span shrinks with the decay length: no 500,000-node levels at kappa = 1e-6
        p = params_with(kappa=1e-6, rho_b=-0.02)
        cross_validate(p)  # first calls allocate caches of their own
        tracemalloc.start()
        try:
            cross_validate(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_far_field_is_checked(self, monkeypatch):
        # kernel nodes beyond the oracle's span 1 + 40/alpha are compared against rho_+
        p = params_with(kappa=1e-3, rho_b=-0.02)
        span_end = 1.0 + 40.0 / p.alpha
        solve = oracle.solve_stationary

        def shifted(params, grid, **kw):
            sol = solve(params, grid, **kw)
            sol.rho[np.searchsorted(grid.nodes, span_end, side="right")] += 1e-6
            return sol

        monkeypatch.setattr(oracle, "solve_stationary", shifted)
        sup = cross_validate(p)
        # rho = 1 there, and 1 + 1e-6 rounds the shift to 9.99999999918e-7
        assert sup == pytest.approx(1e-6, rel=1e-9)


@pytest.mark.parametrize("M", list(range(1, 10)) + [100, 1001])
def test_tridiagonal_solve_matches_solve_banded(M):
    # cyclic reduction against LAPACK's banded solve, odd and even sizes, on a
    # diagonally dominant system like the Newton Jacobian
    rng = np.random.default_rng(M)
    lower, upper = rng.uniform(-1.0, 1.0, M), rng.uniform(-1.0, 1.0, M)
    lower[0] = upper[-1] = 0.0
    diag = (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, M)) * rng.choice([-1.0, 1.0], M)
    rhs = rng.normal(size=M)
    ab = np.zeros((3, M))
    ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]
    expected = solve_banded((1, 1), ab, rhs)
    work = rhs.copy()
    x = solve_tridiagonal(lower.copy(), diag.copy(), upper.copy(), work)
    assert x is work  # the solution overwrites the right-hand side
    assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))
