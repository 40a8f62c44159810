"""Vanishing-capillarity limit profile: potential, root, trajectory, rescale."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nsk import (
    DomainError,
    NoRootError,
    RangeError,
    build_grid,
    enthalpy_h,
    integrate_profile,
    potential_w,
    rescale_to_r,
    solve_rho_minus,
)

mp.mp.dps = 40


def gamma2_exact(rho_b0, y):
    # for gamma=2, rho_plus=1 the reduced flow is linear:
    # rho(y) = 1 - (rho_b0/sqrt(2)) e^{-sqrt(2) y}
    return 1.0 - (rho_b0 / math.sqrt(2.0)) * np.exp(-math.sqrt(2.0) * np.asarray(y))


class TestPotential:
    def test_zero_at_reference(self):
        assert potential_w(1.0, 1.0, 1.0) == 0.0
        assert potential_w(1.7, 0.8, 0.8) == 0.0

    def test_isothermal_value(self):
        assert potential_w(1.0, 1.0, 2.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_quadratic_case(self):
        # gamma=2: W(x) = (x - rho_plus)^2
        assert potential_w(2.0, 1.0, 0.5) == pytest.approx(0.25, rel=1e-13)
        xs = np.linspace(0.2, 3.0, 17)
        assert potential_w(2.0, 1.0, xs) == pytest.approx((xs - 1.0) ** 2, rel=1e-12)

    def test_against_quadrature(self):
        for gamma, rho_plus in ((1.0, 1.0), (1.4, 0.8), (2.5, 1.2)):
            for x in (0.4, 0.9, 1.6, 2.5):
                val, err = quad(
                    lambda t: enthalpy_h(gamma, t) - enthalpy_h(gamma, rho_plus),
                    rho_plus,
                    x,
                    epsabs=1e-13,
                )
                assert potential_w(gamma, rho_plus, x) == pytest.approx(val, abs=1e-11)

    def test_positive_convex_well(self):
        xs = np.linspace(0.1, 4.0, 200)
        for gamma in (1.0, 1.4, 2.0):
            w = potential_w(gamma, 1.0, xs)
            assert np.all(w[xs != 1.0] > 0.0)
        # flat slope at the reference density
        h = 1e-6
        d = (potential_w(1.4, 1.0, 1.0 + h) - potential_w(1.4, 1.0, 1.0 - h)) / (2.0 * h)
        assert abs(d) <= 1e-9

    def test_stable_near_reference(self):
        # cancellation-free down to |x - rho_plus| ~ 1e-8
        d = 1e-8
        assert potential_w(1.0, 1.0, 1.0 + d) == pytest.approx(0.5 * d * d, rel=1e-6)
        assert potential_w(2.0, 1.0, 1.0 + d) == pytest.approx(d * d, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_w(1.4, 1.0, 0.0)

    def test_pressure_scale_overflow(self):
        with pytest.raises(RangeError, match="rho_plus\\*\\*gamma"):
            potential_w(2.0, 1e300, 1e300)


class TestRhoMinus:
    def test_zero_slope(self):
        assert solve_rho_minus(1.4, 0.9, 0.0) == 0.9

    def test_isothermal_root(self):
        # bisection oracle on x log x - x + 1 = 0.005 (40-digit arithmetic)
        lo, hi = mp.mpf(1), mp.mpf(2)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid * mp.log(mid) - mid + 1 < mp.mpf("0.005"):
                lo = mid
            else:
                hi = mid
        expected = float((lo + hi) / 2)
        assert expected == pytest.approx(1.1016531353, rel=1e-9)
        assert solve_rho_minus(1.0, 1.0, -0.1) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_root(self):
        assert solve_rho_minus(2.0, 1.0, -0.1) == pytest.approx(
            1.0 + 0.1 / math.sqrt(2.0), abs=1e-12
        )

    def test_sign_of_offset(self):
        assert solve_rho_minus(1.4, 1.0, -0.05) > 1.0
        assert solve_rho_minus(1.4, 1.0, 0.05) < 1.0

    def test_unattainable_slope(self):
        # toward vacuum the isothermal manifold slope is capped at sqrt(2 rho_plus)
        with pytest.raises(NoRootError):
            solve_rho_minus(1.0, 1.0, 2.0)

    def test_unresolved_root(self):
        # tail rate sqrt(h'(2)) = 5e151 at gamma = 1e3: rho_- - rho_plus is about
        # 2e-153, far below the bisection tolerance
        with pytest.raises(RangeError, match="bisection tolerance"):
            solve_rho_minus(1e3, 2.0, -0.1)
        with pytest.raises(RangeError, match="bisection tolerance"):
            solve_rho_minus(2.0, 1.0, 1e-15)


class TestProfile:
    def test_flat_for_zero_slope(self):
        prof = integrate_profile(1.4, 1.0, 0.0)
        assert np.all(prof.rho_bar == 1.0)
        assert prof.rho_minus_limit == 1.0

    def test_quadratic_exact_solution(self):
        prof = integrate_profile(2.0, 1.0, -0.1)
        exact = gamma2_exact(-0.1, prof.y_nodes)
        assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-9
        assert prof.rho_minus_limit == pytest.approx(1.0 + 0.1 / math.sqrt(2.0), abs=1e-12)

    def test_boundary_slope_reproduced(self):
        for rho_b0 in (-0.1, 0.05):
            prof = integrate_profile(1.4, 1.0, rho_b0)
            assert abs(prof.slope(0.0) - rho_b0) <= 1e-12

    def test_short_y_max(self):
        # y_max before the handover to the linearized tail: the samples stop at y_max
        for y_max in (1e-3, 1.0, 5.0):
            prof = integrate_profile(2.0, 1.0, -0.1, y_max=y_max)
            assert prof.y_nodes[-1] == y_max and np.all(np.diff(prof.y_nodes) > 0.0)
            exact = gamma2_exact(-0.1, prof.y_nodes)
            assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-9

    def test_boundary_value_inside_tail_band(self):
        # |rho_- - rho_plus| below the handover threshold: the profile is the
        # linearized tail from y = 0, also for a far y_max; rho_- itself is
        # resolved to the 1e-13 bisection tolerance
        for y_max in (60.0, 1e7):
            prof = integrate_profile(2.0, 1.0, -1e-10, y_max=y_max)
            assert prof.tail_start == 0.0
            exact = gamma2_exact(-1e-10, prof.y_nodes)
            assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-13

    def test_energy_conservation(self):
        for gamma, rho_b0 in ((1.0, -0.1), (1.4, 0.08), (2.0, -0.05)):
            prof = integrate_profile(gamma, 1.0, rho_b0)
            energy = 0.5 * prof.rho_bar_y**2 - potential_w(gamma, 1.0, prof.rho_bar)
            assert np.max(np.abs(energy)) <= 1e-10

    def test_monotone_with_fixed_sign(self):
        for rho_b0 in (-0.1, 0.1):
            prof = integrate_profile(1.0, 1.0, rho_b0)
            offset = prof.rho_bar - 1.0
            nonflat = np.abs(offset) > 1e-13
            assert np.all(np.sign(offset[nonflat]) == -np.sign(rho_b0))
            diffs = np.diff(prof.rho_bar)
            assert np.all(diffs * np.sign(rho_b0) >= -1e-15)

    def test_isothermal_tail_rate(self):
        prof = integrate_profile(1.0, 1.0, -0.1)
        m = (prof.y_nodes >= 5.0) & (prof.y_nodes <= 10.0)
        slope = np.polyfit(prof.y_nodes[m], np.log(prof.rho_bar[m] - 1.0), 1)[0]
        assert -slope == pytest.approx(1.0, abs=0.02)

    def test_saddle_rate_general(self):
        # fitted decay equals sqrt(h'(rho_plus)) within 2%
        for gamma, rho_plus in ((1.4, 1.0), (2.0, 0.9)):
            rate = math.sqrt(gamma * rho_plus ** (gamma - 2.0))
            prof = integrate_profile(gamma, rho_plus, -0.08)
            m = (prof.y_nodes >= 4.0 / rate) & (prof.y_nodes <= 9.0 / rate)
            slope = np.polyfit(prof.y_nodes[m], np.log(prof.rho_bar[m] - rho_plus), 1)[0]
            assert -slope == pytest.approx(rate, rel=0.02)

    def test_huge_tail_rate(self):
        # at rate 2e76 the samples, 1e-79 apart, still give finite PCHIP
        # coefficients; at rate 5e151 the spacing is refused before sampling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = integrate_profile(500.0, 2.0, -1e70)
            assert prof.tail_rate == pytest.approx(2.0228e76, rel=1e-4)
            assert prof.slope(0.0) == pytest.approx(-1e70, rel=1e-6)
            assert np.all(np.isfinite(prof.evaluate(0.5 * (prof.y_nodes[:-1] + prof.y_nodes[1:]))))
        with pytest.raises(RangeError, match="too large to sample"):
            integrate_profile(1e3, 2.0, -1e150)


class TestRescale:
    def test_identity_scaling(self):
        prof = integrate_profile(2.0, 1.0, -0.1)
        grid = build_grid(3, 2.0, R_max=9.0)
        vals = rescale_to_r(prof, 1.0, grid)
        assert vals == pytest.approx(gamma2_exact(-0.1, grid.nodes - 1.0), abs=1e-9)

    def test_wall_value_is_rho_minus(self):
        prof = integrate_profile(1.4, 1.0, -0.07)
        grid = build_grid(3, 5.0, R_max=3.0)
        vals = rescale_to_r(prof, 0.25, grid)
        assert vals[0] == pytest.approx(prof.rho_minus_limit, abs=1e-12)

    def test_layer_compression(self):
        prof = integrate_profile(2.0, 1.0, -0.1)
        grid = build_grid(3, 5.0, R_max=3.0)
        vals = rescale_to_r(prof, 0.04, grid)
        i = int(np.argmin(np.abs(grid.nodes - 1.2)))
        expect = gamma2_exact(-0.1, (grid.nodes[i] - 1.0) / 0.2)
        assert vals[i] == pytest.approx(float(expect), abs=1e-9)

    def test_tail_extension_beyond_samples(self):
        prof = integrate_profile(2.0, 1.0, -0.1)
        grid = build_grid(3, 1.0, R_max=41.0)
        vals = rescale_to_r(prof, 1e-4, grid)  # y up to 4e3, far past the samples
        assert vals[-1] == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.isfinite(vals))
        assert vals == pytest.approx(gamma2_exact(-0.1, (grid.nodes - 1.0) / 1e-2), abs=1e-9)
