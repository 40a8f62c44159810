"""The impermeable wall, the ``u_minus = 0`` case of ``nsk.stationary``.

Fixed point, boundary data, decay diagnostics and the wall invariants of the
one forcing; the Picard driver on synthetic maps; and the Hermite
second-derivative reconstruction used by the residual checks.  The inflow and
outflow regimes are tested in ``tests/test_inflow.py``.
"""

import math

import numpy as np
import pytest

import nsk.kernel as kernel_mod
import nsk.stationary as stationary_mod
from nsk.errors import NonContractionError, PositivityError
from nsk.grid import auto_r_max, build_grid
from nsk.kernel import KernelFactors, ModelParams, PressureLaw, lifting_phi_b
from nsk.operators import GreenOperator
from nsk.stationary import (
    StationarySolution,
    decay_diagnostics,
    fixed_point,
    forcing,
    hermite_second_derivative,
    solve_stationary,
    source_term,
)


def wall_params(**kw):
    base = dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    base.update(kw)
    return ModelParams(**base)


TRUNCATIONS = ((0.0, "exponential"), (0.05, "algebraic"), (-0.05, "algebraic"))


def wall_solution(grid, phi, phi_r):
    """A wall solution (``u = 0``, ``rho_plus = 1``) carrying the given perturbation."""
    rho = 1.0 + phi
    zeros = np.zeros_like(phi)
    return StationarySolution(grid, phi, rho, phi_r, zeros, 0.0, float(rho[0]), 0, 0.0, zeros, 0.0)


def graded_grid():
    """A ``build_grid`` grid whose odd step count halves its last interval."""
    grid = build_grid(3.0, 3.0)
    h = np.diff(grid.nodes)
    assert abs(h[-1] - h[-2]) <= 1e-12 and h[-1] < 0.6 * h[-3] and h[0] < 0.3 * h[-3]
    return grid


class TestWallForcing:
    def test_zero_at_origin(self):
        for gamma in (1.0, 1.4, 2.0):
            assert PressureLaw(gamma, 0.7).remainder(0.0) == 0.0

    def test_isothermal_value(self):
        assert PressureLaw(1.0, 1.0).remainder(1.0) == pytest.approx(
            math.log(2.0) - 1.0, rel=1e-14
        )

    def test_vanishes_for_affine_enthalpy(self):
        # gamma = 2 makes h affine, so the remainder is identically zero
        assert PressureLaw(2.0, 1.0).remainder(0.5) == 0.0

    def test_quadratic_near_zero(self):
        vals = [abs(PressureLaw(1.4, 1.0).remainder(eps)) for eps in (1e-3, 5e-4)]
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.05)

    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            PressureLaw(1.0, 1.0).remainder(-1.0)


class TestWallSolve:
    def test_zero_data_converges_immediately(self):
        p = wall_params(rho_b=0.0)
        grid = build_grid(p.alpha, auto_r_max(p))
        field = solve_stationary(p, grid)
        assert field.iterations == 1
        assert np.all(field.phi == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    # the id names the truncation the regime picks: exponential at the wall, algebraic under a flow
    @pytest.mark.parametrize("u_minus", [pytest.param(u, id=f"{u}-{decay}") for u, decay in TRUNCATIONS])
    def test_one_bessel_evaluation_per_solve(self, monkeypatch, n, u_minus):
        # the operator's factor table serves the lifting and c2 as well, through its wall row
        real = kernel_mod.bessel_ik_scaled
        sizes = []

        def counted(order, x):
            sizes.append(np.size(x))
            return real(order, x)

        monkeypatch.setattr(kernel_mod, "bessel_ik_scaled", counted)
        p = wall_params(n=n, kappa=1e-2, rho_b=-0.02, u_minus=u_minus)
        grid = build_grid(p.alpha, auto_r_max(p))
        solve_stationary(p, grid)
        assert sizes == [grid.size]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_wall_row_of_a_grid_table_is_the_wall(self, n):
        # what lets a solve and a pointwise call read c2 and the lifting's denominator
        # off their one table: its row 0 is that of the wall alone, bit for bit, on the
        # grid and on every {1, r, s} of the pointwise mesh of test_kernel.py
        side = np.linspace(1.0, 12.0, 30)
        pairs = [np.unique([1.0, r, s]) for k, r in enumerate(side) for s in side[k:]]
        for kappa in (1.0, 1e-2, 1e-4, 1e-6):
            p = wall_params(n=n, kappa=kappa)
            wall = KernelFactors(p.n, p.alpha, [1.0])
            for radii in [build_grid(p.alpha, auto_r_max(p)).nodes] + pairs:
                f = KernelFactors(p.n, p.alpha, radii)
                for name in ("rp", "e2", "iv", "kv", "iv1", "kv1"):
                    assert getattr(f, name)[0].tobytes() == getattr(wall, name).tobytes(), name
                assert f.c2.tobytes() == wall.c2.tobytes()

    def test_affine_enthalpy_solution_is_the_lifting(self):
        p = wall_params(gamma=2.0, rho_b=-0.05)
        grid = build_grid(p.alpha, auto_r_max(p))
        field = solve_stationary(p, grid)
        phi_b, phi_b_r = lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, grid.nodes))
        assert field.iterations == 1
        assert np.max(np.abs(field.phi - phi_b)) <= 1e-14
        assert np.max(np.abs(field.rho_r - phi_b_r)) <= 1e-14

    def test_fixed_point_defect_below_tolerance(self):
        p = wall_params()
        grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=16.0)
        tol = 1e-10
        field = solve_stationary(p, grid, tol=tol)
        op = GreenOperator(grid, p)
        phi_b, _ = lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, grid.nodes))
        t_phi = phi_b + op.apply(p.law.remainder(field.phi))[0]
        assert np.max(np.abs(field.phi - t_phi)) <= tol

    def test_neumann_boundary_value(self):
        for p in (wall_params(), wall_params(n=2, gamma=1.4, kappa=0.2, rho_b=-0.03)):
            grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=16.0)
            tol = 1e-10
            field = solve_stationary(p, grid, tol=tol)
            assert abs(field.rho_r[0] - p.rho_b) <= 10.0 * tol

    def test_ode_residual(self):
        p = wall_params()
        grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=40.0, growth=1.03)
        tol = 1e-6
        field = solve_stationary(p, grid, tol=tol)
        assert field.ode_residual_sup <= 10.0 * tol * max(1.0, float(np.max(np.abs(field.phi))))

    def test_linear_response_to_small_data(self):
        grid = build_grid(1.0, 41.0, points_per_unit_alpha=16.0)
        f1 = solve_stationary(wall_params(rho_b=-0.1), grid)
        f2 = solve_stationary(wall_params(rho_b=-0.05), grid)
        assert 1.8 <= np.max(np.abs(f1.phi)) / np.max(np.abs(f2.phi)) <= 2.2

    def test_positive_density_enforced(self):
        # rho_b > 0 pulls the profile toward vacuum; large data must fail loudly
        p = wall_params(rho_b=5.0)
        grid = build_grid(1.0, 41.0)
        with pytest.raises(PositivityError):
            solve_stationary(p, grid)

    def test_divergence_detector(self, monkeypatch):
        # an artificially amplifying forcing must trip the growth guard
        def amplifier(params, grid, phi, phi_r):
            return -4.0 * np.asarray(phi)

        monkeypatch.setattr(stationary_mod, "forcing", amplifier)
        p = wall_params()
        grid = build_grid(1.0, 41.0)
        with pytest.raises(NonContractionError):
            solve_stationary(p, grid, max_iter=100)

    def test_stalled_solve_fails_within_ten_sweeps(self, monkeypatch):
        # kappa = 1 row of a rate study whose update stalls near 4.9 (q about 0.97)
        p = wall_params(gamma=3.0, rho_b=-20.0)
        grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=16.0, growth=1.05)
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
        p = wall_params(rho_b=-0.5)
        grid = build_grid(1.0, 41.0)
        with pytest.raises(NonContractionError, match="no convergence in 2 iterations"):
            solve_stationary(p, grid, tol=1e-14, max_iter=2)

    def test_wall_is_the_zero_velocity_case(self):
        # every flow term carries u_minus: at u_minus = 0 the one forcing is the
        # pressure remainder bit for bit, the source vanishes and nothing flows
        p = wall_params(mu=2.0, gamma=1.4)
        grid = build_grid(1.0, 41.0, points_per_unit_alpha=16.0)
        phi = -0.3 * np.exp(-(grid.nodes - 1.0)) * np.cos(grid.nodes)
        phi_r = np.gradient(phi, grid.nodes)
        assert np.array_equal(forcing(p, grid, phi, phi_r), p.law.remainder(phi))
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
        p = wall_params(kappa=0.25)  # alpha = 2
        grid = build_grid(p.alpha, auto_r_max(p))
        phi = np.exp(-2.0 * grid.nodes)
        sigma, _ = decay_diagnostics(wall_solution(grid, phi, -2.0 * phi), p.alpha)
        assert sigma == pytest.approx(2.0, rel=1e-6)

    def test_lifting_tail_rate(self):
        # e^{-alpha r}/r tail fits slightly above alpha; window at alpha=20
        p = wall_params(kappa=1.0 / 400.0, rho_b=-0.1)
        grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=16.0)
        phi_b, phi_b_r = lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, grid.nodes))
        sigma, c_fit = decay_diagnostics(wall_solution(grid, phi_b, phi_b_r), p.alpha)
        assert 0.95 * p.alpha <= sigma <= 1.05 * p.alpha
        assert np.isfinite(c_fit) and c_fit > 0.0

    def test_solved_field_rate_bound(self):
        p = wall_params()
        grid = build_grid(p.alpha, auto_r_max(p), points_per_unit_alpha=16.0)
        field = solve_stationary(p, grid)
        sigma, c_fit = decay_diagnostics(field, p.alpha)
        assert sigma >= 0.9 * p.alpha
        assert np.isfinite(c_fit)

    def test_empty_window(self):
        # rho_b = 0: phi vanishes, so the window holds no sample and neither value can be made
        p = wall_params(rho_b=0.0)
        grid = build_grid(p.alpha, auto_r_max(p))
        field = solve_stationary(p, grid)
        assert decay_diagnostics(field, p.alpha) == (None, None)

    def test_zero_wall_slope_keeps_the_rate(self):
        # phi_r(1) = 0 leaves the envelope constant undefined, but not the fitted rate
        p = wall_params(kappa=0.25)  # alpha = 2
        grid = build_grid(p.alpha, auto_r_max(p))
        phi = np.exp(-2.0 * grid.nodes)
        phi_r = -2.0 * phi
        phi_r[0] = 0.0
        sigma, c_fit = decay_diagnostics(wall_solution(grid, phi, phi_r), p.alpha)
        assert sigma == pytest.approx(2.0, rel=1e-6)
        assert c_fit is None

    def test_envelope_constant_past_the_double_range(self):
        # alpha = 800: e^{sigma r} near the wall already exceeds the double range
        p = wall_params(kappa=1.0 / 800.0**2)
        grid = build_grid(p.alpha, auto_r_max(p))
        phi_b, phi_b_r = lifting_phi_b(p.rho_b, KernelFactors(p.n, p.alpha, grid.nodes))
        sigma, c_fit = decay_diagnostics(wall_solution(grid, phi_b, phi_b_r), p.alpha)
        assert 0.95 * p.alpha <= sigma <= 1.05 * p.alpha
        assert c_fit is None


class TestHermite:
    """The Hermite second-derivative reconstruction used by the residual checks."""

    def test_exact_on_quintics(self):
        mixed = np.concatenate([np.linspace(1.0, 2.0, 11), np.geomspace(2.2, 6.0, 9)])
        c = np.array([0.3, -1.2, 0.7, 0.05, -0.02, 0.004])
        for label, nodes in (("mixed", mixed), ("graded", graded_grid().nodes)):
            f = sum(ck * nodes**k for k, ck in enumerate(c))
            fp = sum(k * ck * nodes ** (k - 1) for k, ck in enumerate(c) if k > 0)
            fpp = sum(k * (k - 1) * ck * nodes ** (k - 2) for k, ck in enumerate(c) if k > 1)
            rec = hermite_second_derivative(nodes, f, fp)
            assert np.isnan(rec[0]) and np.isnan(rec[-1]), label
            assert np.max(np.abs(rec[1:-1] - fpp[1:-1])) <= 1e-10 * np.max(np.abs(fpp)), label
        # below three nodes there is no interior entry: all NaN, and no warning
        for size in (0, 1, 2):
            nodes = mixed[:size]
            rec = hermite_second_derivative(nodes, nodes**2, 2.0 * nodes)
            assert rec.shape == (size,) and np.isnan(rec).all(), size

    def test_fourth_order_on_smooth_function(self):
        def err(nodes):
            f = np.sin(2.0 * nodes)
            fp = 2.0 * np.cos(2.0 * nodes)
            rec = hermite_second_derivative(nodes, f, fp)
            return np.nanmax(np.abs(rec + 4.0 * np.sin(2.0 * nodes)))

        graded = graded_grid()
        for label, coarse, fine in (
            ("uniform", np.linspace(1.0, 3.0, 41), np.linspace(1.0, 3.0, 81)),
            ("graded", graded.nodes, graded.refined().nodes),
        ):
            assert err(coarse) / err(fine) >= 12.0, label
