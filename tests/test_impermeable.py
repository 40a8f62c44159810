"""The impermeable wall, the ``u_minus = 0`` case of ``nsk.stationary``.

Fixed point, boundary data, decay diagnostics, the wall invariants of the
one forcing, and the shared Picard driver on synthetic maps.
"""

import math

import numpy as np
import pytest

import nsk.stationary as stationary_mod
from nsk.errors import NonContractionError, PositivityError, WindowEmptyError
from nsk.grid import build_grid
from nsk.kernel import ModelParams, kernel_params, lifting_phi_b
from nsk.operators import GreenOperator
from nsk.stationary import (
    StationarySolution,
    decay_diagnostics,
    fixed_point,
    forcing,
    pressure_remainder,
    solve_stationary,
    source_term,
)


def params_with(**kw):
    base = dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    base.update(kw)
    return ModelParams(**base)


def wall_solution(grid, phi, phi_r):
    """A wall solution (``u = 0``, ``rho_plus = 1``) carrying the given perturbation."""
    rho = 1.0 + phi
    zeros = np.zeros_like(phi)
    return StationarySolution(grid, phi, rho, phi_r, zeros, 0.0, float(rho[0]), 0, 0.0, zeros, 0.0)


class TestNonlinearity:
    def test_zero_at_origin(self):
        for gamma in (1.0, 1.4, 2.0):
            assert pressure_remainder(gamma, 0.7, 0.0) == 0.0

    def test_isothermal_value(self):
        assert pressure_remainder(1.0, 1.0, 1.0) == pytest.approx(
            math.log(2.0) - 1.0, rel=1e-14
        )

    def test_vanishes_for_affine_enthalpy(self):
        # gamma = 2 makes h affine, so the remainder is identically zero
        assert pressure_remainder(2.0, 1.0, 0.5) == 0.0

    def test_quadratic_near_zero(self):
        vals = [abs(pressure_remainder(1.4, 1.0, eps)) for eps in (1e-3, 5e-4)]
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.05)

    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            pressure_remainder(1.0, 1.0, -1.0)


class TestSolve:
    def test_zero_data_converges_immediately(self):
        p = params_with(rho_b=0.0)
        grid = build_grid(3, kernel_params(p).alpha)
        field = solve_stationary(p, grid)
        assert field.iterations == 1
        assert np.all(field.phi == 0.0)

    def test_affine_enthalpy_solution_is_the_lifting(self):
        p = params_with(gamma=2.0, rho_b=-0.05)
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha)
        field = solve_stationary(p, grid)
        phi_b, phi_b_r = lifting_phi_b(kp, p.rho_b, grid.nodes)
        assert field.iterations == 1
        assert np.max(np.abs(field.phi - phi_b)) <= 1e-14
        assert np.max(np.abs(field.rho_r - phi_b_r)) <= 1e-14

    def test_fixed_point_defect_below_tolerance(self):
        p = params_with()
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha, points_per_unit_alpha=16.0)
        tol = 1e-10
        field = solve_stationary(p, grid, tol=tol)
        op = GreenOperator(grid, kp, p.kappa)
        phi_b, _ = lifting_phi_b(kp, p.rho_b, grid.nodes)
        t_phi = phi_b + op.apply(pressure_remainder(p.gamma, p.rho_plus, field.phi))[0]
        assert np.max(np.abs(field.phi - t_phi)) <= tol

    def test_neumann_boundary_value(self):
        for p in (params_with(), params_with(n=2, gamma=1.4, kappa=0.2, rho_b=-0.03)):
            grid = build_grid(p.n, kernel_params(p).alpha, points_per_unit_alpha=16.0)
            tol = 1e-10
            field = solve_stationary(p, grid, tol=tol)
            assert abs(field.rho_r[0] - p.rho_b) <= 10.0 * tol

    def test_ode_residual(self):
        p = params_with()
        grid = build_grid(3, kernel_params(p).alpha, points_per_unit_alpha=40.0, growth=1.03)
        tol = 1e-6
        field = solve_stationary(p, grid, tol=tol)
        assert field.ode_residual_sup <= 10.0 * tol * max(1.0, float(np.max(np.abs(field.phi))))

    def test_linear_response_to_small_data(self):
        grid = build_grid(3, 1.0, points_per_unit_alpha=16.0)
        f1 = solve_stationary(params_with(rho_b=-0.1), grid)
        f2 = solve_stationary(params_with(rho_b=-0.05), grid)
        assert 1.8 <= np.max(np.abs(f1.phi)) / np.max(np.abs(f2.phi)) <= 2.2

    def test_positive_density_enforced(self):
        # rho_b > 0 pulls the profile toward vacuum; large data must fail loudly
        p = params_with(rho_b=5.0)
        grid = build_grid(3, 1.0)
        with pytest.raises(PositivityError):
            solve_stationary(p, grid)

    def test_divergence_detector(self, monkeypatch):
        # an artificially amplifying forcing must trip the growth guard
        def amplifier(params, grid, phi, phi_r):
            return -4.0 * np.asarray(phi)

        monkeypatch.setattr(stationary_mod, "forcing", amplifier)
        p = params_with()
        grid = build_grid(3, 1.0)
        with pytest.raises(NonContractionError):
            solve_stationary(p, grid, max_iter=100)

    def test_stalled_solve_fails_within_ten_sweeps(self, monkeypatch):
        # kappa = 1 row of a rate study whose update stalls near 4.9 (q about 0.97)
        p = params_with(gamma=3.0, rho_b=-20.0)
        grid = build_grid(3, kernel_params(p).alpha, points_per_unit_alpha=16.0, growth=1.05)
        sweeps = []
        real_forcing = stationary_mod.forcing

        def counted(*args):
            sweeps.append(1)
            return real_forcing(*args)

        monkeypatch.setattr(stationary_mod, "forcing", counted)
        with pytest.raises(NonContractionError, match="cannot reach 1.0e-10 within 400 iterations"):
            solve_stationary(p, grid, max_iter=400)
        assert len(sweeps) <= 10

    def test_max_iter_reports_unconverged(self):
        p = params_with(rho_b=-0.5)
        grid = build_grid(3, 1.0)
        with pytest.raises(NonContractionError, match="no convergence in 2 iterations"):
            solve_stationary(p, grid, tol=1e-14, max_iter=2)

    def test_wall_is_the_zero_velocity_case(self):
        # every flow term carries u_minus: at u_minus = 0 the one forcing is the
        # pressure remainder bit for bit, the source vanishes and nothing flows
        p = params_with(mu=2.0, gamma=1.4)
        grid = build_grid(3, 1.0, points_per_unit_alpha=16.0)
        phi = -0.3 * np.exp(-(grid.nodes - 1.0)) * np.cos(grid.nodes)
        phi_r = np.gradient(phi, grid.nodes)
        assert np.array_equal(forcing(p, grid, phi, phi_r), pressure_remainder(p.gamma, p.rho_plus, phi))
        assert np.all(source_term(p.n, 0.0, grid.nodes) == 0.0)
        sol = solve_stationary(p, grid)
        assert np.any(sol.phi != 0.0)
        assert np.all(sol.u == 0.0) and sol.mass_flux == 0.0


class TestFixedPoint:
    """Each stopping rule of the shared Picard loop, on a synthetic map."""

    def test_converges_to_fixed_point(self):
        (x,), iterations, update = fixed_point(
            lambda x: (0.5 * x + 1.0,), (np.zeros(3),), 1.0, 1e-12, 100
        )
        assert update <= 1e-12
        assert np.allclose(x, 2.0, atol=1e-11)
        assert iterations < 100

    def test_positivity_lost(self):
        with pytest.raises(PositivityError):
            fixed_point(lambda x: (x - 2.0,), (np.zeros(3),), 1.0, 1e-12, 100)

    def test_five_growing_updates(self):
        steps = []

        def doubling(x):
            steps.append(1)
            return (2.0 * x + 1.0,)

        with pytest.raises(NonContractionError, match=r"q = 2\.000 per iteration at iteration 6"):
            fixed_point(doubling, (np.zeros(3),), 1e6, 1e-12, 100)
        # updates 1, 2, 4, ...: the rate q = 2 is first measured at sweep 6
        assert len(steps) == 6

    def test_two_cycle(self):
        steps = []

        def flip(x):
            steps.append(1)
            return (1.0 - x,)

        # 0, 1, 0, 1, ...: every update is 1, so q = 1 and nothing contracts
        with pytest.raises(NonContractionError, match=r"q = 1\.000 per iteration at iteration 6 \(update 1\.000e\+00\)"):
            fixed_point(flip, (np.zeros(3),), 1.0, 1e-12, 400)
        assert len(steps) == 6

    def test_slow_contraction_fails_early(self):
        steps = []

        def slow(x):
            steps.append(1)
            return (0.99 * x + 1.0,)

        # q = 0.99 would leave an update near 0.37 after 100 sweeps, far above tol
        with pytest.raises(NonContractionError, match=r"q = 0\.990 .* cannot reach 1\.0e-12 within 100 iterations"):
            fixed_point(slow, (np.zeros(3),), 1.0, 1e-12, 100)
        assert len(steps) == 6

    def test_fast_enough_contraction_runs_to_convergence(self):
        # q = 0.9 reaches 1e-12 within 400 sweeps: the update 0.9^(k-1) first
        # drops to tol at sweep 264, as it did without the rate rule
        (x,), iterations, update = fixed_point(
            lambda x: (0.9 * x + 1.0,), (np.zeros(3),), 1.0, 1e-12, 400
        )
        assert iterations == 264 and update <= 1e-12
        assert np.allclose(x, 10.0, atol=1e-10)

    def test_non_finite_update(self):
        with pytest.raises(NonContractionError, match="non-finite update at iteration 1"):
            fixed_point(
                lambda x, y: (x, np.full(3, np.nan)), (np.zeros(3), np.zeros(3)), 1.0, 1e-12, 100
            )

    def test_max_iter_unconverged(self):
        iterates = []

        def halving(x):
            iterates.append(0.5 * x + 1.0)
            return (iterates[-1],)

        # updates 1, 0.5, 0.25: three steps, none at most tol
        with pytest.raises(NonContractionError, match=r"no convergence in 3 iterations \(last update 2\.500e-01\)"):
            fixed_point(halving, (np.zeros(3),), 1.0, 1e-12, 3)
        assert len(iterates) == 3
        assert np.all(iterates[-1] == 1.75)


class TestDecayDiagnostics:
    def test_pure_exponential(self):
        p = params_with(kappa=0.25)  # alpha = 2
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha)
        phi = np.exp(-2.0 * grid.nodes)
        sigma, _ = decay_diagnostics(wall_solution(grid, phi, -2.0 * phi), kp)
        assert sigma == pytest.approx(2.0, rel=1e-6)

    def test_lifting_tail_rate(self):
        # e^{-alpha r}/r tail fits slightly above alpha; window at alpha=20
        p = params_with(kappa=1.0 / 400.0, rho_b=-0.1)
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha, points_per_unit_alpha=16.0)
        phi_b, phi_b_r = lifting_phi_b(kp, p.rho_b, grid.nodes)
        sigma, c_fit = decay_diagnostics(wall_solution(grid, phi_b, phi_b_r), kp)
        assert 0.95 * kp.alpha <= sigma <= 1.05 * kp.alpha
        assert np.isfinite(c_fit) and c_fit > 0.0

    def test_solved_field_rate_bound(self):
        p = params_with()
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha, points_per_unit_alpha=16.0)
        field = solve_stationary(p, grid)
        sigma, c_fit = decay_diagnostics(field, kp)
        assert sigma >= 0.9 * kp.alpha
        assert np.isfinite(c_fit)

    def test_empty_window(self):
        p = params_with(rho_b=0.0)
        kp = kernel_params(p)
        grid = build_grid(3, kp.alpha)
        field = solve_stationary(p, grid)
        with pytest.raises(WindowEmptyError):
            decay_diagnostics(field, kp)
