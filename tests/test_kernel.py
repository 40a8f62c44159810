"""Green kernel, lifting function, and enthalpy against closed-form oracles.

The dimension-3 case has elementary closed forms (the basis solutions are
e^{+-alpha r}/r), giving an independent cross-check of the general-order
kernel:

    G(r,s) = -exp(-a|r-s|)/(2 a r s) - (a-1)/(2a(a+1)) * exp(-a(r+s-2))/(r s)
    phi_b(r) = -rho_b exp(-a(r-1)) / ((a+1) r)
"""

import math

import mpmath as mp
import numpy as np
import pytest

from nsk.bessel import BesselOrder
from nsk.errors import ConfigError, DomainError, RangeError
from nsk.kernel import (
    KernelParams,
    ModelParams,
    enthalpy_h,
    enthalpy_h_prime,
    green,
    green_dr,
    green_dr_left,
    green_dr_right,
    kernel_params,
    lifting_phi_b,
)

mp.mp.dps = 40


def kp_from(n: int, alpha: float) -> KernelParams:
    return KernelParams(nu=BesselOrder.from_dimension(n), alpha=alpha)


def green3_exact(a: float, r: float, s: float) -> float:
    return -math.exp(-a * abs(r - s)) / (2.0 * a * r * s) - (a - 1.0) / (
        2.0 * a * (a + 1.0)
    ) * math.exp(-a * (r + s - 2.0)) / (r * s)


def lifting3_exact(a: float, rho_b: float, r: float) -> float:
    return -rho_b * math.exp(-a * (r - 1.0)) / ((a + 1.0) * r)


class TestEnthalpy:
    def test_isothermal_and_quadratic(self):
        assert enthalpy_h(1.0, 1.0) == 0.0
        assert enthalpy_h(2.0, 3.0) == pytest.approx(6.0, rel=1e-15)

    def test_general_exponent(self):
        expected = float(mp.mpf("1.4") / mp.mpf("0.4") * mp.mpf("0.5") ** mp.mpf("0.4"))
        assert expected == pytest.approx(2.6525039913931966, rel=1e-14)
        assert enthalpy_h(1.4, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_strictly_increasing(self):
        for gamma in (1.0, 1.4, 2.0, 3.0):
            rhos = np.linspace(0.2, 4.0, 50)
            assert np.all(np.diff(enthalpy_h(gamma, rhos)) > 0.0)
            assert np.all(enthalpy_h_prime(gamma, rhos) > 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            enthalpy_h(1.4, 0.0)
        with pytest.raises(DomainError):
            enthalpy_h_prime(2.0, -1.0)


class TestModelParams:
    def test_regimes(self):
        mk = lambda u: ModelParams(3, 1.0, 1.0, 1.0, 1.0, -0.1, u)
        assert mk(0.0).regime == "impermeable"
        assert mk(0.3).regime == "inflow"
        assert mk(-0.3).regime == "outflow"

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(n=1), "n must be"),
            (dict(gamma=0.9), "gamma must be"),
            (dict(kappa=0.0), "kappa must be"),
            (dict(mu=-1.0), "mu must be"),
            (dict(rho_plus=0.0), "rho_plus must be"),
            (dict(rho_b=float("nan")), "rho_b must be finite"),
            (dict(kappa=float("inf")), "kappa must be finite"),
            (dict(u_minus=float("-inf")), "u_minus must be finite"),
            (dict(n=float("nan")), "n must be finite"),
        ],
    )
    def test_invariants(self, kwargs, msg):
        base = dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=0.0, u_minus=0.0)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=msg):
            ModelParams(**base)


class TestKernelParams:
    def test_examples(self):
        kp = kernel_params(ModelParams(3, 1.0, 0.01, 1.0, 1.0, 0.0, 0.0))
        assert kp.alpha == pytest.approx(10.0, rel=1e-15)
        assert kp.nu.nu == 0.5
        kp = kernel_params(ModelParams(2, 2.0, 0.5, 1.0, 2.0, 0.0, 0.0))
        assert kp.alpha == pytest.approx(2.0, rel=1e-15)
        assert kp.nu.nu == 0.0
        kp = kernel_params(ModelParams(4, 1.4, 0.1, 1.0, 0.8, 0.0, 0.0))
        assert kp.alpha == pytest.approx(math.sqrt(1.4 * 0.8**-0.6 / 0.1), rel=1e-14)
        assert kp.n == 4

    def test_alpha_consistency_invariant(self):
        for n in (2, 3, 4):
            for gamma in (1.0, 1.4, 2.0):
                for kappa in (1e-4, 1e-2, 1.0, 30.0):
                    p = ModelParams(n, gamma, kappa, 0.0, 0.8, 0.0, 0.0)
                    kp = kernel_params(p)
                    hp = enthalpy_h_prime(gamma, 0.8)
                    assert abs(kp.alpha**2 * kappa - hp) <= 1e-14 * hp


class TestLifting:
    def test_zero_data(self):
        kp = kp_from(3, 2.0)
        assert lifting_phi_b(kp, 0.0, 5.0) == (0.0, 0.0)

    def test_dimension3_closed_form(self):
        kp = kp_from(3, 1.0)
        val, _ = lifting_phi_b(kp, -1.0, 2.0)
        assert val == pytest.approx(math.exp(-1.0) / 4.0, rel=1e-13)
        for a in (0.5, 1.0, 7.0, 1000.0):
            kp = kp_from(3, a)
            for r in (1.0, 1.5, 4.0):
                val, _ = lifting_phi_b(kp, -0.3, r)
                assert val == pytest.approx(lifting3_exact(a, -0.3, r), rel=1e-12)

    def test_boundary_derivative_matches_data(self):
        for n in (2, 3, 4, 5):
            for a in (0.3, 1.0, 30.0, 1000.0):
                kp = kp_from(n, a)
                _, der = lifting_phi_b(kp, -0.7, 1.0)
                assert der == pytest.approx(-0.7, rel=1e-12)

    def test_derivative_by_central_difference(self):
        kp = kp_from(4, 2.0)
        for r in (1.3, 2.0, 6.0):
            h = 1e-6
            vp, _ = lifting_phi_b(kp, -0.2, r + h)
            vm, _ = lifting_phi_b(kp, -0.2, r - h)
            _, der = lifting_phi_b(kp, -0.2, r)
            assert der == pytest.approx((vp - vm) / (2.0 * h), rel=1e-8)


class TestGreen:
    def test_dimension3_point_values(self):
        kp = kp_from(3, 1.0)
        assert green(kp, 1.0, 1.0) == pytest.approx(-0.5, rel=1e-13)
        assert green(kp, 2.0, 1.0) == pytest.approx(-math.exp(-1.0) / 4.0, rel=1e-13)

    def test_dimension3_closed_form_grid(self):
        for a in (0.5, 1.0, 3.0, 40.0, 1000.0):
            kp = kp_from(3, a)
            for r in (1.0, 1.2, 2.5, 8.0):
                for s in (1.0, 1.7, 6.0):
                    exact = green3_exact(a, r, s)
                    if exact == 0.0:
                        continue
                    assert green(kp, r, s) == pytest.approx(exact, rel=1e-12), (a, r, s)

    def test_symmetry_and_sign(self):
        for n in (2, 3, 4, 5):
            kp = kp_from(n, 1.7)
            for r in (1.0, 1.4, 3.0, 9.0):
                for s in (1.1, 2.6, 7.5):
                    g = green(kp, r, s)
                    assert g < 0.0
                    assert g == pytest.approx(green(kp, s, r), rel=1e-12)

    def test_neumann_condition_at_wall(self):
        for n in (2, 3, 4, 5):
            kp = kp_from(n, 2.2)
            for s in (1.5, 3.0, 10.0):
                g = green(kp, 1.0, s)
                assert abs(green_dr_left(kp, 1.0, s)) <= 1e-12 * abs(g)

    def test_homogeneous_equation_away_from_diagonal(self):
        # 4th-order central stencils in r; residual relative to |G|
        for n, a in ((2, 0.7), (3, 2.0), (5, 5.0)):
            kp = kp_from(n, a)
            h = 0.01 / a
            for s in (2.0, 5.0):
                for r in np.linspace(1.2, 8.0, 19):
                    if abs(r - s) < 6.0 * h:
                        continue
                    f = [green(kp, r + k * h, s) for k in (-2, -1, 0, 1, 2)]
                    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
                    res = d2 + (n - 1) / r * d1 - a * a * f[2]
                    assert abs(res) <= 1e-6 * abs(f[2]), (n, a, r, s)

    def test_pointwise_envelope_bound(self):
        # |G| <= C* e^{-a|r-s|} / (a (rs)^{(n-1)/2}), |dG| likewise without 1/a
        for n in (2, 3, 4, 5):
            c_star = 0.0
            for a in (1.0, 3.0):
                kp = kp_from(n, a)
                pts = np.linspace(1.0, 12.0, 30)
                for r in pts:
                    for s in pts:
                        env = math.exp(-a * abs(r - s)) / (r * s) ** ((n - 1) / 2.0)
                        c_star = max(c_star, abs(green(kp, r, s)) * a / env)
                        if r > s:
                            c_star = max(c_star, abs(green_dr_right(kp, r, s)) / env)
                        elif r < s:
                            c_star = max(c_star, abs(green_dr_left(kp, r, s)) / env)
            assert c_star <= 10.0, n

    def test_wronskian_of_basis_pair(self):
        # phi+ phi-' - phi+' phi- = -alpha K_{nu+1}(alpha) / (alpha r)^{n-1}
        from nsk.bessel import bessel_i, bessel_k

        for n, a in ((2, 0.5), (3, 2.0), (4, 1.0)):
            nu = BesselOrder.from_dimension(n)
            up = nu.shifted()
            k1a = bessel_k(up, a)
            i1a = bessel_i(up, a)
            for r in np.linspace(1.0, 40.0, 25):
                z = a * r
                zp = z ** (-nu.nu)
                php = zp * (k1a * bessel_i(nu, z) + i1a * bessel_k(nu, z))
                phm = zp * bessel_k(nu, z)
                phpd = a * zp * (k1a * bessel_i(up, z) - i1a * bessel_k(up, z))
                phmd = -a * zp * bessel_k(up, z)
                wron = php * phmd - phpd * phm
                expect = -a * k1a / z ** (n - 1)
                assert wron == pytest.approx(expect, rel=1e-10)


class TestGreenDerivative:
    def test_dimension3_point_value(self):
        kp = kp_from(3, 1.0)
        assert green_dr(kp, 2.0, 1.0) == pytest.approx(3.0 * math.exp(-1.0) / 8.0, rel=1e-13)

    def test_matches_central_difference(self):
        kp = kp_from(4, 1.3)
        for r, s in ((2.0, 1.2), (1.5, 4.0), (6.0, 2.0)):
            h = 1e-6
            fd = (green(kp, r + h, s) - green(kp, r - h, s)) / (2.0 * h)
            assert green_dr(kp, r, s) == pytest.approx(fd, rel=1e-8)

    def test_diagonal_requires_side(self):
        kp = kp_from(3, 1.0)
        with pytest.raises(DomainError):
            green_dr(kp, 2.0, 2.0)

    def test_diagonal_jump(self):
        # right minus left one-sided derivative equals r^{1-n}
        for n in (2, 3, 4, 5):
            for a in (0.6, 2.0, 50.0):
                kp = kp_from(n, a)
                for r in (1.0, 1.7, 5.0):
                    jump = green_dr_right(kp, r, r) - green_dr_left(kp, r, r)
                    assert jump == pytest.approx(r ** (1 - n), rel=1e-12)

    def test_far_field_decay(self):
        kp = kp_from(3, 2.0)
        s = 1.5
        for r in (5.0, 8.0, 12.0):
            bound = 2.0 * math.exp(-2.0 * (r - s)) / (r * s)
            assert abs(green_dr(kp, r, s)) <= bound

    def test_non_finite_values_refused(self):
        # K_nu(alpha) beyond the double range (n = 1000 at alpha = 10) is refused, not used
        kp = kp_from(1000, 10.0)
        for fn, r, s in ((green, 1.5, 2.0), (green_dr_right, 2.0, 1.5), (green_dr_left, 1.5, 2.0)):
            with pytest.raises(RangeError, match="scaled K_nu is not finite"):
                fn(kp, r, s)

    def test_far_arguments_match_closed_form(self):
        # alpha r = 1e9 and beyond, where scipy's scaled factors were NaN, keeps full accuracy
        for a, r in ((1.0, 1e9), (10.0, 1e9), (1.0, 1e12)):
            kp = kp_from(3, a)
            s = r + 1.0
            assert green(kp, r, s) == pytest.approx(green3_exact(a, r, s), rel=1e-12)
            g_dr = math.exp(-a) * (1.0 - a * r) / (2.0 * a * r * r * s)  # d/dr of the first term, r < s
            assert green_dr_left(kp, r, s) == pytest.approx(g_dr, rel=1e-12)
