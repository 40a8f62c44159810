"""Finite-difference Newton oracle and solver cross-validation."""

import numpy as np
import pytest

from nsk.errors import ConfigError
from nsk.kernel import ModelParams, kernel_params, lifting_phi_b
from nsk.oracle import cross_validate, fd_nodes, solve_fd


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
        exact = p.rho_plus + lifting_phi_b(kp, p.rho_b, fd_nodes(16001, R))[0]
        assert np.max(np.abs(rho - exact)) <= 1e-6

    def test_second_order_convergence(self):
        p = params_with(gamma=2.0)
        kp = kernel_params(p)
        R = 1.0 + max(40.0 / kp.alpha, 20.0)
        errs = []
        for count in (2001, 4001, 8001):
            r = fd_nodes(count, R)
            exact = p.rho_plus + lifting_phi_b(kp, p.rho_b, r)[0]
            errs.append(np.max(np.abs(solve_fd(p, count, R) - exact)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            solve_fd(params_with(), 50, 21.0)
        with pytest.raises(ConfigError):
            solve_fd(params_with(u_minus=0.1), 500, 21.0)


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
