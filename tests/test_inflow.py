"""Inflow and outflow, the ``u_minus != 0`` cases of ``nsk.stationary``.

Mass flux, weighted decay, and a term-level oracle of the one forcing.
"""

import math

import numpy as np
import pytest

import nsk.stationary as stationary_mod
from nsk.cli import RunConfig
from nsk.errors import NonContractionError, PositivityError, RangeError
from nsk.grid import ALGEBRAIC, RadialGrid, build_grid
from nsk.kernel import ModelParams, enthalpy_h, enthalpy_h_prime
from nsk.stationary import forcing, solve_stationary, source_term


def params_with(**kw):
    base = dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=0.0, u_minus=0.05)
    base.update(kw)
    return ModelParams(**base)


def flow_grid(n=3, alpha=1.0, ppua=20.0):
    return build_grid(n, alpha, points_per_unit_alpha=ppua, decay=ALGEBRAIC, growth=1.04)


class TestSourceTerm:
    def test_values(self):
        assert source_term(3, 0.0, 2.0) == 0.0
        assert source_term(3, 0.2, 1.0) == pytest.approx(0.02, rel=1e-15)
        assert source_term(2, -0.1, 10.0) == pytest.approx(5e-5, rel=1e-15)

    def test_nonnegative_and_decaying(self):
        r = np.linspace(1.0, 30.0, 40)
        s = source_term(4, -0.3, r)
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) < 0.0)

    def test_overflow_raises_range_error(self):
        with pytest.raises(RangeError, match="source term"):
            source_term(3, 1e300, np.array([1.0, 2.0]))


def nonlinear_part(p, g, phi, phi_r):
    """``N``: the forcing without its phi-independent source ``S``."""
    return forcing(p, g, phi, phi_r) - source_term(p.n, p.u_minus, g.nodes)


class TestNonlinearity:
    def test_zero_field_gives_zero(self):
        p = params_with(u_minus=0.3, mu=2.0)
        g = flow_grid()
        z = np.zeros(g.size)
        assert np.all(nonlinear_part(p, g, z, z) == 0.0)

    def test_zero_field_inviscid(self):
        p = params_with(u_minus=0.3, mu=0.0)
        g = flow_grid()
        z = np.zeros(g.size)
        assert np.all(nonlinear_part(p, g, z, z) == 0.0)

    def test_constant_field_kills_kinetic_ratio(self):
        # gamma=2 removes the pressure remainder; a constant field then
        # cancels the kinetic ratio exactly, leaving zero
        p = params_with(u_minus=0.2, mu=0.0, gamma=2.0)
        g = flow_grid()
        c = np.full(g.size, 0.04)
        assert np.max(np.abs(nonlinear_part(p, g, c, np.zeros(g.size)))) <= 1e-15

    def test_term_by_term_oracle(self):
        # phi = 0.01 e^{-r}: values frozen from a 40-digit evaluation of the
        # four summands with analytic phi_r and adaptive quadrature for the
        # tail integral
        frozen = {
            1.0: -3.723102957254112e-04,
            1.5: -9.857192513581269e-05,
            2.0: -3.329860895822765e-05,
            3.0: -5.275787092445345e-06,
            5.0: -2.148492191499057e-07,
        }
        nodes = np.linspace(1.0, 41.0, 8001)
        g = RadialGrid.from_nodes(nodes, 3)
        phi = 0.01 * np.exp(-g.nodes)
        p = params_with(u_minus=0.1)
        nvals = nonlinear_part(p, g, phi, -phi)
        for r, expect in frozen.items():
            i = int(round((r - 1.0) / 0.005))
            assert nvals[i] == pytest.approx(expect, abs=2e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("u_minus", [0.0, 0.05, -0.05])
    def test_forcing_matches_term_by_term_right_side(self, u_minus, n, gamma):
        # S + N + h'(rho_+) phi is the right side of the density equation,
        # written here term by term: transport, h(rho) - h(rho_+), kinetic, tail
        p = params_with(n=n, gamma=gamma, u_minus=u_minus)
        g = flow_grid(n=n)
        rng = np.random.default_rng(n)
        phi = rng.uniform(-0.05, 0.05, g.size)
        phi_r = rng.uniform(-0.05, 0.05, g.size)
        r = g.nodes
        rho = p.rho_plus + phi
        rho1 = rho[0]
        rnm1 = g.measure()
        tail = g.reverse_cumulative(phi_r**2 / (rnm1 * rho**4))
        expect = (
            p.mu * rho1 * u_minus * phi_r / (rnm1 * rho**3)
            + enthalpy_h(gamma, rho)
            - enthalpy_h(gamma, p.rho_plus)
            + rho1**2 * u_minus**2 / (2.0 * r ** (2 * (n - 1)) * rho**2)
            - p.mu * rho1 * u_minus * tail
        )
        got = forcing(p, g, phi, phi_r) + enthalpy_h_prime(gamma, p.rho_plus) * phi
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_positivity_guard(self):
        p = params_with()
        g = flow_grid()
        bad = np.full(g.size, -2.0)
        with pytest.raises(PositivityError):
            forcing(p, g, bad, np.zeros(g.size))


class TestSolve:
    def test_divergence_detector(self, monkeypatch):
        # an artificially amplifying forcing must trip the growth guard
        def amplifier(params, grid, phi, phi_r):
            return -4.0 * np.asarray(phi)

        monkeypatch.setattr(stationary_mod, "forcing", amplifier)
        with pytest.raises(NonContractionError, match="at iteration 6"):
            solve_stationary(params_with(rho_b=-0.1), build_grid(3, 1.0), max_iter=100)

    def test_mass_flux_identity(self):
        for u in (0.05, -0.05):
            p = params_with(u_minus=u, rho_b=-0.02)
            sol = solve_stationary(p, flow_grid())
            flux = sol.rho * sol.u * sol.grid.measure()
            assert np.max(np.abs(flux - sol.mass_flux)) <= 1e-12 * abs(sol.mass_flux)
            assert sol.rho_minus == sol.rho[0]

    def test_weighted_decay_envelope(self):
        p = params_with(u_minus=0.05, rho_b=0.0)
        sol = solve_stationary(p, flow_grid())
        phi = sol.rho - p.rho_plus
        w = sol.grid.nodes ** (2 * (p.n - 1))
        assert np.max(w * np.abs(phi)) <= 10.0 * (abs(p.rho_b) + p.u_minus**2)

    def test_weighted_norms_scale_linearly(self):
        # sup_r r^{2(n-1)}|phi| and r^{2n-1}|phi_r| ~ |rho_b| + u^2 within x2
        g = flow_grid()
        ratios_v, ratios_d = [], []
        for scale in (1.0, 0.5, 0.25, 0.125):
            p = params_with(rho_b=-0.04 * scale, u_minus=0.1 * math.sqrt(scale))
            sol = solve_stationary(p, g)
            phi = sol.rho - p.rho_plus
            data = abs(p.rho_b) + p.u_minus**2
            ratios_v.append(np.max(g.nodes**4 * np.abs(phi)) / data)
            ratios_d.append(np.max(g.nodes**5 * np.abs(sol.rho_r)) / data)
        for ratios in (ratios_v, ratios_d):
            assert max(ratios) / min(ratios) <= 2.0

    def test_outflow_velocity_bounds(self):
        p = params_with(u_minus=-0.05)
        sol = solve_stationary(p, flow_grid())
        scaled = np.abs(sol.u) * sol.grid.measure() / abs(p.u_minus)
        assert np.all(scaled >= 0.5)
        assert np.all(scaled <= 2.0)

    def test_residual_of_density_equation(self):
        p = params_with(u_minus=0.05, rho_b=-0.02)
        g = flow_grid(ppua=40.0)
        tol = 1e-6
        sol = solve_stationary(p, g, tol=tol)
        scale = max(1.0, float(np.max(np.abs(sol.rho - p.rho_plus))))
        assert sol.ode_residual_sup <= 10.0 * tol * scale

    def test_residual_peaks_inside_and_is_zero_at_the_ends(self):
        # phi_rr is rebuilt only at interior nodes; the wall-flow residual peaks at node 1
        p = ModelParams(n=4, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.02, u_minus=-0.05)
        sol = solve_stationary(p, RunConfig(model=p).grid(p), tol=1e-13, max_iter=400)
        assert 0 < np.argmax(np.abs(sol.residual)) < sol.grid.size - 1
        assert np.all(sol.residual[[0, -1]] == 0.0)
        assert sol.ode_residual_sup == np.max(np.abs(sol.residual))

    def test_inviscid_limit_is_robust(self):
        g = flow_grid()
        p0 = params_with(mu=0.0, u_minus=0.05, rho_b=-0.02)
        p1 = params_with(mu=1e-6, u_minus=0.05, rho_b=-0.02)
        s0 = solve_stationary(p0, g, tol=1e-12)
        s1 = solve_stationary(p1, g, tol=1e-12)
        sup = float(np.max(np.abs(s0.rho - p0.rho_plus)))
        assert np.max(np.abs(s0.rho - s1.rho)) <= 1e-4 * sup

    def test_vanishing_velocity_recovers_impermeable(self):
        g = flow_grid()
        pi = params_with(u_minus=0.0, rho_b=-0.05)
        fi = solve_stationary(pi, g, tol=1e-12)
        ratios = []
        prev = None
        for u in (1e-2, 1e-3, 1e-4):
            pu = params_with(u_minus=u, rho_b=-0.05)
            su = solve_stationary(pu, g, tol=1e-12)
            diff = float(np.max(np.abs(su.rho - pi.rho_plus - fi.phi)))
            ratios.append(diff / u)
            if prev is not None:
                assert diff < prev
            prev = diff
        # sup-difference ~ C u: the per-u constants agree within a factor 2
        assert max(ratios) / min(ratios) <= 2.0
