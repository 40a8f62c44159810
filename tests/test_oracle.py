"""Finite-difference Newton oracle and solver cross-validation."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from nsk.errors import ConfigError
from nsk.kernel import ModelParams, kernel_params, lifting_phi_b
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
        kp = kernel_params(p)
        R = 1.0 + max(40.0 / kp.alpha, 20.0)
        rho = solve_fd(p, 16001, R)
        exact = p.rho_plus + lifting_phi_b(kp, p.rho_b, np.linspace(1.0, R, 16001))[0]
        assert np.max(np.abs(rho - exact)) <= 1e-6

    def test_second_order_convergence(self):
        p = params_with(gamma=2.0)
        kp = kernel_params(p)
        R = 1.0 + max(40.0 / kp.alpha, 20.0)
        errs = []
        for count in (2001, 4001, 8001):
            r = np.linspace(1.0, R, count)
            exact = p.rho_plus + lifting_phi_b(kp, p.rho_b, r)[0]
            errs.append(np.max(np.abs(solve_fd(p, count, R) - exact)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_richardson_fourth_order_convergence(self):
        # (4 rho_{h/2} - rho_h)/3 cancels the h^2 term: the error falls 16-fold per halving
        p = params_with(gamma=2.0)
        kp = kernel_params(p)
        R = 1.0 + max(40.0 / kp.alpha, 20.0)
        errs = []
        for count in (1001, 2001, 4001):
            exact = p.rho_plus + lifting_phi_b(kp, p.rho_b, np.linspace(1.0, R, count))[0]
            errs.append(np.max(np.abs(solve_fd_richardson(p, count, R) - exact)))
        assert 15.0 <= errs[0] / errs[1] <= 17.0
        assert 15.0 <= errs[1] / errs[2] <= 17.0

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            solve_fd(params_with(), 50, 21.0)
        with pytest.raises(ConfigError):
            solve_fd(params_with(u_minus=0.1), 500, 21.0)


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
        sup, ok = cross_validate(params_with(rho_b=0.0), 1e-6)
        assert ok and sup == 0.0

    def test_default_case(self):
        sup, ok = cross_validate(params_with(), 1e-6)
        assert ok, sup

    def test_affine_enthalpy_case(self):
        sup, ok = cross_validate(params_with(gamma=2.0, kappa=0.1), 1e-7)
        assert ok, sup

    def test_small_capillarity(self):
        p = params_with(kappa=1e-3, rho_b=-0.02)
        sup, ok = cross_validate(p, 1e-6)
        assert ok, sup

    def test_tol_is_only_the_threshold(self):
        # the oracle's grid does not depend on tol, so neither does sup_diff
        p = params_with(kappa=0.3, rho_b=-0.05)
        assert cross_validate(p, 1e-6)[0] == cross_validate(p, 1e-10)[0]


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
