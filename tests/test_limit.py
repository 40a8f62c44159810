"""Vanishing-capillarity limit profile: potential, root, profile against references, rescale."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nsk.errors import ConfigError, DomainError, NoRootError, RangeError
from nsk.grid import build_grid
from nsk.kernel import TAYLOR_MAX, PressureLaw
from nsk.limit import (
    _CHUNK,
    _GAUSS_W,
    _GAUSS_X,
    TAIL_SWITCH,
    _FirstIntegral,
    integrate_profile,
    solve_rho_minus,
)

mp.mp.dps = 40


def gamma2_exact(rho_b0, y):
    # for gamma=2, rho_plus=1 the reduced flow is linear:
    # rho(y) = 1 - (rho_b0/sqrt(2)) e^{-sqrt(2) y}
    return 1.0 - (rho_b0 / math.sqrt(2.0)) * np.exp(-math.sqrt(2.0) * np.asarray(y))


def isothermal_root(level, lo, hi):
    """Root of ``W(x) = x log x - x + 1 = level`` in ``[lo, hi]``: 40-digit bisection.

    ``W`` is the potential for ``gamma = 1``, ``rho_plus = 1``, so the root is
    ``rho_-`` for the boundary slope ``rho_b0`` with ``rho_b0^2 / 2 = level``.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    above_at_lo = lo * mp.log(lo) - lo + 1 > level
    for _ in range(200):
        mid = (lo + hi) / 2
        if (mid * mp.log(mid) - mid + 1 > level) == above_at_lo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestPotential:
    def test_zero_at_reference(self):
        assert PressureLaw(1.0, 1.0).w(1.0) == 0.0
        assert PressureLaw(1.7, 0.8).w(0.8) == 0.0

    def test_isothermal_value(self):
        assert PressureLaw(1.0, 1.0).w(2.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14)

    def test_quadratic_case(self):
        # gamma=2: W(x) = (x - rho_plus)^2
        assert PressureLaw(2.0, 1.0).w(0.5) == pytest.approx(0.25, rel=1e-13)
        xs = np.linspace(0.2, 3.0, 17)
        assert PressureLaw(2.0, 1.0).w(xs) == pytest.approx((xs - 1.0) ** 2, rel=1e-12)

    def test_against_quadrature(self):
        for gamma, rho_plus in ((1.0, 1.0), (1.4, 0.8), (2.5, 1.2)):

            def h(t):  # the textbook enthalpy, not the law's expm1/log1p form
                return math.log(t) if gamma == 1.0 else gamma / (gamma - 1.0) * t ** (gamma - 1.0)

            for x in (0.4, 0.9, 1.6, 2.5):
                val, err = quad(
                    lambda t: h(t) - h(rho_plus),
                    rho_plus,
                    x,
                    epsabs=1e-13,
                )
                assert PressureLaw(gamma, rho_plus).w(x) == pytest.approx(val, abs=1e-11)

    def test_positive_convex_well(self):
        xs = np.linspace(0.1, 4.0, 200)
        for gamma in (1.0, 1.4, 2.0):
            w = PressureLaw(gamma, 1.0).w(xs)
            assert np.all(w[xs != 1.0] > 0.0)
        # flat slope at the reference density
        h = 1e-6
        d = (PressureLaw(1.4, 1.0).w(1.0 + h) - PressureLaw(1.4, 1.0).w(1.0 - h)) / (2.0 * h)
        assert abs(d) <= 1e-9

    def test_stable_near_reference(self):
        # cancellation-free down to |x - rho_plus| ~ 1e-8
        d = 1e-8
        assert PressureLaw(1.0, 1.0).w(1.0 + d) == pytest.approx(0.5 * d * d, rel=1e-6)
        assert PressureLaw(2.0, 1.0).w(1.0 + d) == pytest.approx(d * d, rel=1e-6)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_full_relative_accuracy_near_reference(self, gamma):
        # the closed forms lost ~2e-9 relative at |d| = 1e-8 to cancellation; the Taylor form does not
        g = mp.mpf(gamma)
        for d in (1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4):
            x = 1.0 + d
            xm = mp.mpf(x)
            if gamma == 1.0:
                exact = xm * mp.log(xm) - (xm - 1)
            else:
                exact = g / (g - 1) * ((xm**g - 1) / g - (xm - 1))
            assert abs(PressureLaw(gamma, 1.0).w(x) / exact - 1) <= 1e-14, d

    @pytest.mark.parametrize("gamma, bound", [(1.0001, 1e-13), (1.4, 1.4e-14)])
    def test_relative_accuracy_for_gamma_near_one(self, gamma, bound):
        # outside the Taylor region the closed form in expm1(gamma log1p d) cancelled
        # about 2/((gamma-1)|d|) units of roundoff: 1.1e-11 at gamma = 1.0001, d = -0.2
        g = mp.mpf(gamma)
        for d in (0.1, 0.3, -0.2):
            x = 1.0 + d
            xm = mp.mpf(x)
            exact = ((xm**g - 1) - g * (xm - 1)) / (g - 1)
            assert abs(PressureLaw(gamma, 1.0).w(x) / exact - 1) <= bound, d

    def test_domain(self):
        with pytest.raises(DomainError):
            PressureLaw(1.4, 1.0).w(0.0)

    def test_vacuum_limit(self):
        # x/rho_plus rounds to 0: W(0+) = rho_plus^gamma, with 0 log 0 = 0 at gamma = 1
        assert PressureLaw(1.0, 2.0).w(1e-300) == 2.0
        assert PressureLaw(1.4, 2.0).w(1e-300) == pytest.approx(2.0**1.4, rel=1e-15)
        assert PressureLaw(1.0, 2.0).w(np.array([1e-300, 1.0]))[0] == 2.0

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    def test_elementwise(self, gamma):
        # near points (Taylor series) interleaved with far ones (closed form), next to the
        # vacuum and far above rho_+ (W overflows): each entry is its value taken alone
        rho_plus, g = 1.7, max(1.0, gamma)
        d = np.array([0.0, 0.5, 1e-9, -0.5, TAYLOR_MAX / g, 2.0 * TAYLOR_MAX / g, -TAYLOR_MAX / g,
                      -1.0 + 1e-12, 1e-300, 1e6, -0.03 / g, 3e-2 / g, 1e300, -1e-12, 40.0])
        near = np.abs(d) * g <= TAYLOR_MAX
        assert 0 < near.sum() < d.size
        xs = np.insert(rho_plus * (1.0 + d), 5, 1e-300)
        out = PressureLaw(gamma, rho_plus).w(xs)
        single = np.array([PressureLaw(gamma, rho_plus).w(float(x)) for x in xs])
        assert out.tobytes() == single.tobytes()
        assert PressureLaw(gamma, rho_plus).w(xs.reshape(4, 4)).tobytes() == single.tobytes()

    def test_pressure_scale_overflow(self):
        with pytest.raises(RangeError, match="rho_plus\\*\\*gamma"):
            PressureLaw(2.0, 1e300).w(1e300)


class TestRhoMinus:
    def test_zero_slope(self):
        assert solve_rho_minus(PressureLaw(1.4, 0.9), 0.0) == 0.9

    def test_isothermal_root(self):
        # bisection oracle on x log x - x + 1 = 0.005 (40-digit arithmetic)
        expected = isothermal_root(mp.mpf("0.005"), 1, 2)
        assert expected == pytest.approx(1.1016531353, rel=1e-9)
        assert solve_rho_minus(PressureLaw(1.0, 1.0), -0.1) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "rho_b0, lo, hi, approx_root",
        [
            (0.1, "1e-6", 1, 0.90168),  # below rho_plus, above the first far end 0.875
            (1.4, "1e-6", 1, 2.9266e-3),  # far end 0.875 halved nine times
            (-3.0, 1, 16, 5.2767),  # far end 1.125 doubled three times
        ],
    )
    def test_isothermal_root_either_side(self, rho_b0, lo, hi, approx_root):
        # both bracket directions against the 40-digit oracle at level rho_b0^2 / 2
        expected = isothermal_root(mp.mpf(rho_b0) ** 2 / 2, lo, hi)
        assert expected == pytest.approx(approx_root, rel=1e-4)
        assert solve_rho_minus(PressureLaw(1.0, 1.0), rho_b0) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_root(self):
        assert solve_rho_minus(PressureLaw(2.0, 1.0), -0.1) == pytest.approx(
            1.0 + 0.1 / math.sqrt(2.0), abs=1e-12
        )

    def test_sign_of_offset(self):
        assert solve_rho_minus(PressureLaw(1.4, 1.0), -0.05) > 1.0
        assert solve_rho_minus(PressureLaw(1.4, 1.0), 0.05) < 1.0

    def test_unattainable_slope(self):
        # toward vacuum the isothermal manifold slope is capped at sqrt(2 rho_plus)
        with pytest.raises(NoRootError):
            solve_rho_minus(PressureLaw(1.0, 1.0), 2.0)

    @pytest.mark.parametrize("gamma, rho_plus", [(1.0, 1.0), (1.4, 2.0), (3.0, 0.5)])
    def test_existence_bound(self, gamma, rho_plus):
        # W(0+) = rho_plus^gamma: every slope below sqrt(2 rho_plus^gamma) has a root, none at it
        bound = math.sqrt(2.0 * rho_plus**gamma)
        with pytest.raises(NoRootError, match=f"sqrt\\(2 rho_plus\\*\\*gamma\\) = {bound:.6g}"):
            solve_rho_minus(PressureLaw(gamma, rho_plus), bound)
        assert 0.0 < solve_rho_minus(PressureLaw(gamma, rho_plus), 0.999 * bound) < rho_plus

    @pytest.mark.parametrize(
        "rho_b0, lo, hi, approx_root",
        [
            (-1e4, 1, "1e7", 3.5505e6),  # more than 1e6 rho_plus
            (1.4142, "1e-10", 1, 1.3193e-6),  # less than rho_plus / 1e6
        ],
        ids=["rho_b0=-1e4", "rho_b0=1.4142"],
    )
    def test_roots_six_decades_from_rho_plus(self, rho_b0, lo, hi, approx_root):
        expected = isothermal_root(mp.mpf(rho_b0) ** 2 / 2, lo, hi)
        assert expected == pytest.approx(approx_root, rel=1e-4)
        assert solve_rho_minus(PressureLaw(1.0, 1.0), rho_b0) == pytest.approx(expected, rel=1e-15, abs=1e-13)

    def test_roots_a_few_tolerances_off(self):
        # the bisection goes past its 1e-13 tolerance until the bracket is within 1e-5 of
        # |rho_- - rho_plus| and of rho_-: 7.1e-11 above rho_plus, 3.8e-12 above the vacuum
        exact = 1.0 + 1e-10 / mp.sqrt(2)
        assert abs(solve_rho_minus(PressureLaw(2.0, 1.0), -1e-10) - exact) <= 5e-6 * (exact - 1.0)
        expected = isothermal_root(mp.mpf(1.4142135623) ** 2 / 2, "1e-14", "1e-10")
        assert expected == pytest.approx(3.7866e-12, rel=1e-4)
        assert solve_rho_minus(PressureLaw(1.0, 1.0), 1.4142135623) == pytest.approx(expected, rel=5e-6)

    def test_root_unresolved_in_doubles(self):
        # doubles next to rho_plus cannot hold rho_- - rho_plus to 1e-5: 7e-13 at gamma = 2,
        # 1.9e-13 at gamma = 1e3 (there the bisection used to return a wall slope 3% off)
        for gamma, rho_plus, rho_b0 in ((2.0, 1.0, -1e-12), (1e3, 2.0, -1e139)):
            with pytest.raises(RangeError, match="is not resolved to 1e-05"):
                solve_rho_minus(PressureLaw(gamma, rho_plus), rho_b0)

    def test_root_below_vacuum_tolerance(self):
        # 2W(x) = rho_b0^2 at x of about 4e-15: not resolved by the 1e-13 bisection
        with pytest.raises(RangeError, match="tolerance of the vacuum"):
            solve_rho_minus(PressureLaw(1.0, 1.0), 1.414213562373)
        # the whole orbit lies below the tolerance: rho_- is about 1e-282
        with pytest.raises(RangeError, match="tolerance of the vacuum"):
            solve_rho_minus(PressureLaw(1.0, 1e-300), -1e-140)

    def test_potential_overflow(self):
        # 2W stays finite only up to slopes of about 1e154
        with pytest.raises(RangeError, match="overflows"):
            solve_rho_minus(PressureLaw(1.0, 1.0), -1e300)

    def test_unresolved_root(self):
        # tail rate sqrt(h'(2)) = 5e151 at gamma = 1e3: rho_- - rho_plus is about
        # 2e-153, far below the bisection tolerance
        with pytest.raises(RangeError, match="bisection tolerance"):
            solve_rho_minus(PressureLaw(1e3, 2.0), -0.1)
        with pytest.raises(RangeError, match="bisection tolerance"):
            solve_rho_minus(PressureLaw(2.0, 1.0), 1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma", "rho_plus"])
def test_law_refuses_non_finite(name, bad):
    # a NaN or infinite law used to reach the bisection (with numpy warnings) or the pressure scale
    law = {"gamma": 1.0, "rho_plus": 1.0, name: bad}
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        integrate_profile(PressureLaw(**law), -0.1)


class TestProfile:
    def test_flat_for_zero_slope(self):
        prof = integrate_profile(PressureLaw(1.4, 1.0), 0.0)
        assert np.all(prof.rho_bar == 1.0)
        assert prof.rho_minus_limit == 1.0

    def test_quadratic_exact_solution(self):
        prof = integrate_profile(PressureLaw(2.0, 1.0), -0.1)
        exact = gamma2_exact(-0.1, prof.y_nodes)
        assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-9
        assert prof.rho_minus_limit == pytest.approx(1.0 + 0.1 / math.sqrt(2.0), abs=1e-12)

    def test_boundary_slope_reproduced(self):
        for rho_b0 in (-0.1, 0.05):
            prof = integrate_profile(PressureLaw(1.4, 1.0), rho_b0)
            assert abs(prof.slope(0.0) - rho_b0) <= 1e-12

    def test_nan_y_max_refused(self):
        # NaN passed a "y_max <= 0" rule and sampled thousands of points
        with pytest.raises(DomainError, match="^y_max must be positive$"):
            integrate_profile(PressureLaw(1.0, 1.0), -0.1, y_max=math.nan)

    def test_short_y_max(self):
        # y_max before the handover to the linearized tail: the samples stop at y_max
        for y_max in (1e-3, 1.0, 5.0):
            prof = integrate_profile(PressureLaw(2.0, 1.0), -0.1, y_max=y_max)
            assert prof.y_nodes[-1] == y_max and np.all(np.diff(prof.y_nodes) > 0.0)
            exact = gamma2_exact(-0.1, prof.y_nodes)
            assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-9

    def test_boundary_value_inside_tail_band(self):
        # |rho_- - rho_plus| below the handover threshold: the profile is the
        # linearized tail from y = 0, also for a far y_max; rho_- itself is
        # resolved to 1e-5 of its offset from rho_plus
        for y_max in (60.0, 1e7):
            prof = integrate_profile(PressureLaw(2.0, 1.0), -1e-10, y_max=y_max)
            assert prof.tail_start == 0.0
            exact = gamma2_exact(-1e-10, prof.y_nodes)
            assert np.max(np.abs(prof.rho_bar - exact)) <= 1e-13

    def test_energy_conservation(self):
        for gamma, rho_b0 in ((1.0, -0.1), (1.4, 0.08), (2.0, -0.05)):
            prof = integrate_profile(PressureLaw(gamma, 1.0), rho_b0)
            energy = 0.5 * prof.rho_bar_y**2 - PressureLaw(gamma, 1.0).w(prof.rho_bar)
            assert np.max(np.abs(energy)) <= 1e-10

    def test_monotone_with_fixed_sign(self):
        for rho_b0 in (-0.1, 0.1):
            prof = integrate_profile(PressureLaw(1.0, 1.0), rho_b0)
            offset = prof.rho_bar - 1.0
            nonflat = np.abs(offset) > 1e-13
            assert np.all(np.sign(offset[nonflat]) == -np.sign(rho_b0))
            diffs = np.diff(prof.rho_bar)
            assert np.all(diffs * np.sign(rho_b0) >= -1e-15)

    def test_isothermal_tail_rate(self):
        prof = integrate_profile(PressureLaw(1.0, 1.0), -0.1)
        m = (prof.y_nodes >= 5.0) & (prof.y_nodes <= 10.0)
        slope = np.polyfit(prof.y_nodes[m], np.log(prof.rho_bar[m] - 1.0), 1)[0]
        assert -slope == pytest.approx(1.0, abs=0.02)

    def test_saddle_rate_general(self):
        # fitted decay equals sqrt(h'(rho_plus)) within 2%
        for gamma, rho_plus in ((1.4, 1.0), (2.0, 0.9)):
            rate = math.sqrt(gamma * rho_plus ** (gamma - 2.0))
            prof = integrate_profile(PressureLaw(gamma, rho_plus), -0.08)
            m = (prof.y_nodes >= 4.0 / rate) & (prof.y_nodes <= 9.0 / rate)
            slope = np.polyfit(prof.y_nodes[m], np.log(prof.rho_bar[m] - rho_plus), 1)[0]
            assert -slope == pytest.approx(rate, rel=0.02)

    def test_huge_tail_rate(self):
        # tail rates 2e76 and 5e151: the samples, 1e-79 and 4e-155 apart, stay finite
        # and on the stable manifold, and the wall slope is reproduced
        for gamma, rho_b0, rate in ((500.0, -1e70, 2.0228e76), (1e3, -1e150, 5.1757e151)):
            prof = integrate_profile(PressureLaw(gamma, 2.0), rho_b0)
            assert prof.tail_rate == pytest.approx(rate, rel=1e-4)
            assert prof.slope(0.0) == pytest.approx(rho_b0, rel=1e-6)
            energy = 0.5 * prof.rho_bar_y**2 - PressureLaw(gamma, 2.0).w(prof.rho_bar)
            assert np.max(np.abs(energy)) <= 1e-15 * rho_b0**2
            mid = 0.5 * (prof.y_nodes[:-1] + prof.y_nodes[1:])
            assert np.all(np.isfinite(prof.evaluate(mid)))

    def test_inversion_blocks_change_no_value(self):
        # 3,000 samples span three blocks; two uneven halves split them differently
        first = _FirstIntegral(PressureLaw(1.0, 1.0), solve_rho_minus(PressureLaw(1.0, 1.0), -0.1), TAIL_SWITCH)
        y = np.linspace(0.0, first.y_ends[-1], 3000)
        assert y.size > 2 * _CHUNK
        halves = np.concatenate([first.invert(y[:1100]), first.invert(y[1100:])])
        assert first.invert(y).tobytes() == halves.tobytes()

    def test_traced_memory(self):
        # the inversion and the slope pass run in blocks: no whole-profile (M, 8) temporaries
        integrate_profile(PressureLaw(1.0, 1.0), -0.1)  # first calls allocate caches of their own
        tracemalloc.start()
        try:
            prof = integrate_profile(PressureLaw(1.0, 1.0), -0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prof.y_nodes.size == 14_983 and peak <= 2 * 2**20

    def test_gauss_rule_is_leggauss(self):
        # the rule is stored as constants; profiles.csv depends on every bit of it
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(_GAUSS_X, x) and np.array_equal(_GAUSS_W, w)

    def test_sample_cap(self):
        # rho_- = 6e37 lies at y of about 3e17: a far y_max asks for 3.5e9 samples
        prof = integrate_profile(PressureLaw(1.0, 2.0), -1e20)
        assert prof.tail_start == 60.0 and prof.rho_minus_limit == pytest.approx(5.8636e37, rel=1e-4)
        with pytest.raises(ConfigError, match="samples below y_max"):
            integrate_profile(PressureLaw(1.0, 2.0), -1e20, y_max=1e7)


def y_reference(gamma, rho_plus, rho_minus, rho):
    """``y(rho) = int_{rho_-}^{rho} dx / s(x)`` in 40-digit quadrature, split geometrically toward rho_+."""
    g, rp = mp.mpf(gamma), mp.mpf(rho_plus)

    def potential(x):
        if g == 1:
            return x * mp.log(x / rp) - (x - rp)
        return g / (g - 1) * ((x**g - rp**g) / g - rp ** (g - 1) * (x - rp))

    d0, d1 = abs(rho_minus - rp), abs(mp.mpf(rho) - rp)
    splits = int(mp.ceil(mp.log(d0 / d1, 2))) + 1
    points = [rp + mp.sign(rho_minus - rp) * d0 * (d1 / d0) ** (mp.mpf(k) / splits) for k in range(splits + 1)]
    return mp.quad(lambda x: -mp.sign(x - rp) / mp.sqrt(2 * potential(x)), points)


class TestProfileReferences:
    """``evaluate`` between samples against 40-digit references of ``y(rho)``."""

    @pytest.mark.parametrize(
        "gamma, rho_b0",
        [(1.0, -0.1), (1.0, 0.5), (1.4, -2.0), (1.4, 0.3)],
    )
    def test_midpoints(self, gamma, rho_b0):
        level = mp.mpf(rho_b0) ** 2 / 2
        if gamma == 1.0:
            lo, hi = (1, 100) if rho_b0 < 0 else ("1e-10", 1)
            rho_minus = mp.mpf(isothermal_root(level, lo, hi))
            rho_minus = mp.findroot(lambda x: x * mp.log(x) - x + 1 - level, rho_minus)
        else:
            g = mp.mpf(gamma)
            rho_minus = mp.findroot(
                lambda x: g / (g - 1) * ((x**g - 1) / g - (x - 1)) - level,
                solve_rho_minus(PressureLaw(gamma, 1.0), rho_b0),
            )
        prof = integrate_profile(PressureLaw(gamma, 1.0), rho_b0)
        inside = np.flatnonzero(prof.y_nodes < prof.tail_start)
        picks = inside[np.unique(np.geomspace(1, inside.size - 1, 12).astype(int)) - 1]
        y_mid = 0.5 * (prof.y_nodes[picks] + prof.y_nodes[picks + 1])
        for y, rho in zip(y_mid, prof.evaluate(y_mid)):
            # one Newton step on the reference y(rho) = y: its error is quadratic in rho's
            slope = prof.slope(y)
            rho_ref = rho - (y_reference(gamma, 1.0, rho_minus, rho) - y) * slope
            assert abs(float(rho_ref) - rho) <= 1e-12, (y, rho)

    def test_quadratic_midpoints(self):
        prof = integrate_profile(PressureLaw(2.0, 1.0), -0.5)
        mid = 0.5 * (prof.y_nodes[:-1] + prof.y_nodes[1:])
        assert np.max(np.abs(prof.evaluate(mid) - gamma2_exact(-0.5, mid))) <= 1e-12


class TestRescale:
    def test_identity_scaling(self):
        prof = integrate_profile(PressureLaw(2.0, 1.0), -0.1)
        grid = build_grid(2.0, 9.0)
        vals = prof.evaluate((grid.nodes - 1.0) / math.sqrt(1.0))
        assert vals == pytest.approx(gamma2_exact(-0.1, grid.nodes - 1.0), abs=1e-9)

    def test_wall_value_is_rho_minus(self):
        prof = integrate_profile(PressureLaw(1.4, 1.0), -0.07)
        grid = build_grid(5.0, 3.0)
        vals = prof.evaluate((grid.nodes - 1.0) / math.sqrt(0.25))
        assert vals[0] == pytest.approx(prof.rho_minus_limit, abs=1e-12)

    def test_layer_compression(self):
        prof = integrate_profile(PressureLaw(2.0, 1.0), -0.1)
        grid = build_grid(5.0, 3.0)
        vals = prof.evaluate((grid.nodes - 1.0) / math.sqrt(0.04))
        i = int(np.argmin(np.abs(grid.nodes - 1.2)))
        expect = gamma2_exact(-0.1, (grid.nodes[i] - 1.0) / 0.2)
        assert vals[i] == pytest.approx(float(expect), abs=1e-9)

    def test_tail_extension_beyond_samples(self):
        prof = integrate_profile(PressureLaw(2.0, 1.0), -0.1)
        grid = build_grid(1.0, 41.0)
        vals = prof.evaluate((grid.nodes - 1.0) / math.sqrt(1e-4))  # y up to 4e3, far past the samples
        assert vals[-1] == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.isfinite(vals))
        assert vals == pytest.approx(gamma2_exact(-0.1, (grid.nodes - 1.0) / 1e-2), abs=1e-9)
