"""Modified-Bessel evaluators against independent oracles and identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nsk.bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled
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
    # scipy's ive/kve return NaN past x ~ 1.08e9; that must not pass as a value
    assert math.isfinite(fn(order, 1.0e9))
    with pytest.raises(RangeError):
        fn(order, 1.0e10)
    with pytest.raises(RangeError):
        fn(order, np.array([1.0, 1.0e10]))


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
