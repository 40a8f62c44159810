"""Modified-Bessel evaluators against independent oracles and identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from nsk import bessel
from nsk.bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_ik_scaled, bessel_k, bessel_k_scaled
from nsk.errors import DomainError, RangeError

mp.mp.dps = 40

HALF = BesselOrder(1)
ZERO = BesselOrder(0)
ONE = BesselOrder(2)
THREE_HALVES = BesselOrder(3)
TWO = BesselOrder(4)

ORDERS = (ZERO, HALF, ONE, THREE_HALVES, TWO)


def series_i(nu: float, x: float, terms: int = 40) -> float:
    """Ascending-series oracle, summed in 40-digit arithmetic."""
    xm = mp.mpf(x)
    total = mp.mpf(0)
    for k in range(terms):
        total += (xm / 2) ** (2 * k) / (mp.factorial(k) * mp.gamma(nu + k + 1))
    return float((xm / 2) ** nu * total)


class TestOrder:
    def test_stores_exact_half_integers(self):
        assert HALF.nu == 0.5
        assert BesselOrder.from_dimension(3).two_nu == 1
        assert BesselOrder.from_dimension(2).nu == 0.0
        assert THREE_HALVES.shifted(-1) == HALF

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            BesselOrder(-1)
        with pytest.raises(DomainError):
            BesselOrder.from_dimension(1)


class TestFirstKind:
    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert bessel_i(HALF, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_small_argument_limit(self):
        assert bessel_i(ZERO, 1e-8) == pytest.approx(1.0, rel=1e-12)

    def test_ascending_series_oracle(self):
        assert bessel_i(ONE, 2.0) == pytest.approx(series_i(1.0, 2.0), rel=1e-13)
        for order in ORDERS:
            for x in (0.05, 0.7, 3.0, 9.0):
                assert bessel_i(order, x) == pytest.approx(
                    series_i(order.nu, x), rel=1e-12
                ), (order, x)

    def test_scaled_variant_consistent(self):
        for x in (0.3, 5.0, 40.0):
            assert bessel_i_scaled(ONE, x) == pytest.approx(
                bessel_i(ONE, x) * math.exp(-x), rel=1e-13
            )

    def test_domain_and_overflow_errors(self):
        with pytest.raises(DomainError):
            bessel_i(ZERO, 0.0)
        with pytest.raises(DomainError):
            bessel_i(ZERO, -1.0)
        with pytest.raises(RangeError):
            bessel_i(ZERO, 800.0)
        assert bessel_i_scaled(ZERO, 800.0) > 0.0  # scaled form survives


class TestSecondKind:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        expected = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert bessel_k(HALF, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_integral_representation_oracle(self):
        # K_0(x) = int_0^inf exp(-x cosh t) dt by adaptive quadrature
        val, err = quad(
            lambda t: math.exp(-math.cosh(t)), 0.0, 30.0, epsabs=1e-15, epsrel=1e-13, limit=400
        )
        assert err < 1e-12
        assert bessel_k(ZERO, 1.0) == pytest.approx(val, rel=1e-12)

    def test_upward_recurrence_oracle(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), K_{-1/2} = K_{1/2}
        x = 5.0
        k_half = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        expected = k_half + (1.0 / x) * k_half
        assert bessel_k(THREE_HALVES, x) == pytest.approx(expected, rel=1e-13)

    def test_scaled_variant_consistent(self):
        for x in (0.3, 5.0, 40.0):
            assert bessel_k_scaled(ONE, x) == pytest.approx(
                bessel_k(ONE, x) * math.exp(x), rel=1e-13
            )

    def test_domain_and_underflow_errors(self):
        with pytest.raises(DomainError):
            bessel_k(ZERO, -2.0)
        with pytest.raises(RangeError):
            bessel_k(ZERO, 800.0)
        assert bessel_k_scaled(ZERO, 800.0) > 0.0


@pytest.mark.parametrize("fn", [bessel_i_scaled, bessel_k_scaled])
@pytest.mark.parametrize("order", [ZERO, HALF, ONE, THREE_HALVES, TWO])
def test_scaled_forms_refuse_non_finite_values(fn, order):
    # every positive double gives a finite value or RangeError: the scaled forms
    # are finite up to the largest double, and K_nu ~ (2/x)^nu/2 overflows
    # next to 0 for nu >= 1 (I_nu then underflows, which is a value)
    overflows = fn is bessel_k_scaled and order.nu >= 1.0
    for x in (5e-324, 1e-300, 1e-160, 1.0, 1.0e9, 1.0e10, 1e300, np.finfo(float).max):
        try:
            val = fn(order, x)
        except RangeError:
            assert overflows and x <= 1e-160, x
        else:
            assert math.isfinite(val) and val >= 0.0, x
    if overflows:
        with pytest.raises(RangeError, match="scaled K_nu is not finite"):
            fn(order, np.array([1.0, 5e-324]))


def _mp_scaled(nu: float, x: float):
    """``(e^{-x} I_nu(x), e^{x} K_nu(x))`` in 40-digit arithmetic."""
    xm = mp.mpf(x)
    return mp.besseli(nu, xm) * mp.exp(-xm), mp.besselk(nu, xm) * mp.exp(xm)


def _worst_relative_error(two_nu: int, xs) -> float:
    """Largest relative error of the four scaled values against mpmath where the
    reference is a normal double; where it overflows, ``\\hat K`` must be ``inf``."""
    got = bessel_ik_scaled(BesselOrder(two_nu), xs)
    worst = 0.0
    for j, x in enumerate(xs):
        refs = _mp_scaled(two_nu / 2, x) + _mp_scaled(two_nu / 2 + 1, x)
        for value, ref in zip((g[j] for g in got), refs):
            if ref > np.finfo(float).max:
                assert value == np.inf, (two_nu, x)
            elif ref >= np.finfo(float).tiny:
                worst = max(worst, float(abs(value / ref - 1)))
    return worst


def _with_neighbours(points):
    return sorted({v for p in points for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))})


@pytest.mark.parametrize("two_nu", list(range(9)) + [148])
def test_scaled_values_match_40_digits(two_nu):
    # 148 is n = 150; the switch points are the series/CF2 and the Hankel ones
    switches = [bessel.SERIES_MAX_X, bessel.HANKEL_MIN_X, max(bessel.HANKEL_MIN_X, (two_nu / 2) ** 2)]
    xs = np.concatenate([np.geomspace(1e-6, 1e10, 65), _with_neighbours(switches)])
    assert _worst_relative_error(two_nu, xs) <= 4e-15


def test_high_order_just_below_powers_of_two():
    # dividing by x = 2^p (1 - 2^-53) rounds the same way at each of the 74 steps
    # of the upward recurrence to K_74: up to 5.4e-15 here, 2.4e-15 on the grid above
    xs = np.array([np.nextafter(2.0**p, 0.0) for p in range(-4, 8)])
    assert _worst_relative_error(148, xs) <= 6e-15


@pytest.mark.parametrize("two_nu", range(9))
def test_scaled_values_match_scipy(two_nu):
    # scipy.special as a second reference, where its scaled values are finite
    xs = np.geomspace(1e-6, 1e9, 301)
    got = bessel_ik_scaled(BesselOrder(two_nu), xs)
    nu = two_nu / 2
    for value, ref in zip(got, (special.ive(nu, xs), special.kve(nu, xs), special.ive(nu + 1, xs), special.kve(nu + 1, xs))):
        assert np.max(np.abs(value / ref - 1.0)) <= 3e-14


def test_values_past_scipy_range_match_40_digits():
    # scipy's ive/kve are NaN past x ~ 1.08e9; here the Hankel expansions hold on
    for order in ORDERS:
        for x in (1e10, 1e15, 1e300):
            i_ref, k_ref = _mp_scaled(order.nu, x)
            assert bessel_i_scaled(order, x) == pytest.approx(float(i_ref), rel=4e-15, abs=0.0)
            assert bessel_k_scaled(order, x) == pytest.approx(float(k_ref), rel=4e-15, abs=0.0)


def test_huge_orders_end_fast():
    # the recurrence stops once every K value has overflowed (n = 1e6 at alpha = sqrt(10)),
    # and a value whose recurrence needs more than MAX_STEPS steps is refused after them
    with pytest.raises(RangeError, match="scaled K_nu is not finite"):
        bessel_k_scaled(BesselOrder(999_998), math.sqrt(10.0))
    assert bessel_i_scaled(BesselOrder(999_998), math.sqrt(10.0)) == 0.0
    with pytest.raises(RangeError, match="scaled K_nu is not finite"):
        bessel_k_scaled(BesselOrder(2 * 10**300), 1e300)


class TestIdentities:
    def test_wronskian(self):
        # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x
        for order in ORDERS:
            up = order.shifted()
            for x in np.geomspace(0.5, 100.0, 41):
                lhs = bessel_i_scaled(order, x) * bessel_k_scaled(up, x) + bessel_i_scaled(
                    up, x
                ) * bessel_k_scaled(order, x)
                assert abs(lhs * x - 1.0) <= 1e-12, (order, x)

    def test_wronskian_unscaled_midrange(self):
        for order in ORDERS:
            up = order.shifted()
            for x in np.geomspace(0.5, 100.0, 17):
                lhs = bessel_i(order, x) * bessel_k(up, x) + bessel_i(up, x) * bessel_k(order, x)
                assert lhs * x == pytest.approx(1.0, rel=1e-12)

    def test_derivative_identities_by_central_difference(self):
        # d/dz (z^-nu I_nu) = z^-nu I_{nu+1};  d/dz (z^-nu K_nu) = -z^-nu K_{nu+1}
        for order in ORDERS:
            up = order.shifted()
            for z in np.geomspace(0.1, 50.0, 25):
                h = 1e-5 * max(z, 1.0)

                def wi(t):
                    return t ** (-order.nu) * bessel_i(order, t)

                def wk(t):
                    return t ** (-order.nu) * bessel_k(order, t)

                di = (wi(z + h) - wi(z - h)) / (2.0 * h)
                dk = (wk(z + h) - wk(z - h)) / (2.0 * h)
                assert di == pytest.approx(z ** (-order.nu) * bessel_i(up, z), rel=1e-6)
                assert dk == pytest.approx(-(z ** (-order.nu)) * bessel_k(up, z), rel=1e-6)

    def test_asymptotic_envelope(self):
        # I ~ e^z/sqrt(2 pi z), K ~ sqrt(pi/(2z)) e^{-z} for large z
        for order in ORDERS:
            for x in (20.0, 50.0, 200.0, 700.0):
                assert abs(bessel_i_scaled(order, x) * math.sqrt(2.0 * math.pi * x) - 1.0) <= 0.1
                assert abs(bessel_k_scaled(order, x) * math.sqrt(2.0 * x / math.pi) - 1.0) <= 0.1


@settings(max_examples=60, deadline=None)
@given(
    two_nu=st.integers(min_value=0, max_value=6),
    x=st.floats(min_value=0.05, max_value=80.0),
    factor=st.floats(min_value=1.01, max_value=2.5),
)
def test_monotonicity_properties(two_nu, x, factor):
    order = BesselOrder(two_nu)
    assert bessel_k(order, x) > 0.0
    assert bessel_i(order, x * factor) > bessel_i(order, x)
    assert bessel_k(order, x * factor) < bessel_k(order, x)
