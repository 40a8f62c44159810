"""Green kernel, lifting function, and enthalpy differences against closed-form oracles.

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

import nsk.kernel as kernel_mod
from nsk.bessel import BesselOrder
from nsk.errors import ConfigError, DomainError, RangeError
from nsk.kernel import (
    KernelFactors,
    ModelParams,
    PressureLaw,
    green,
    lifting_phi_b,
)

mp.mp.dps = 40


def green3_exact(a: float, r: float, s: float) -> float:
    return -math.exp(-a * abs(r - s)) / (2.0 * a * r * s) - (a - 1.0) / (
        2.0 * a * (a + 1.0)
    ) * math.exp(-a * (r + s - 2.0)) / (r * s)


def lifting_at(n: int, alpha: float, rho_b: float, r: float) -> tuple:
    """``lifting_phi_b`` at one radius, on a factor table that starts at the wall."""
    val, der = lifting_phi_b(rho_b, KernelFactors(n, alpha, [1.0, r]))
    return float(val[1]), float(der[1])


def lifting3_exact(a: float, rho_b: float, r: float) -> float:
    return -rho_b * math.exp(-a * (r - 1.0)) / ((a + 1.0) * r)


class TestEnthalpy:
    def test_isothermal_and_quadratic(self):
        assert PressureLaw(1.0, 1.0).dh(1.0) == 0.0
        assert PressureLaw(2.0, 1.0).dh(3.0) == pytest.approx(6.0 - 2.0, rel=1e-15)

    def test_general_exponent(self):
        expected = float(mp.mpf("1.4") / mp.mpf("0.4") * (mp.mpf("0.5") ** mp.mpf("0.4") - 1))
        assert expected == pytest.approx(2.6525039913931966 - 3.5, rel=1e-14)
        assert PressureLaw(1.4, 1.0).dh(0.5) == pytest.approx(expected, rel=1e-14)

    def test_strictly_increasing(self):
        for gamma in (1.0, 1.4, 2.0, 3.0):
            rhos = np.linspace(0.2, 4.0, 50)
            assert np.all(np.diff(PressureLaw(gamma, 1.0).dh(rhos)) > 0.0)
            assert np.all(PressureLaw(gamma, 1.0).h_prime(rhos) > 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            PressureLaw(1.4, 1.0).dh(0.0)
        with pytest.raises(DomainError):
            PressureLaw(2.0, 1.0).h_prime(-1.0)

    @pytest.mark.parametrize("gamma", [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.4, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("rho_plus", [0.8, 1.0, 3.0])
    def test_differences_match_50_digits(self, gamma, rho_plus):
        # h(rho) - h(rho_+) and the remainder keep their digits as gamma -> 1, where the
        # absolute enthalpies gamma/(gamma-1) rho^(gamma-1) grow without bound
        law = PressureLaw(gamma, rho_plus)
        scale = gamma * rho_plus ** (gamma - 1.0)
        with mp.workdps(50):
            g, rp = mp.mpf(gamma), mp.mpf(rho_plus)

            def h(x):
                return mp.log(x) if gamma == 1.0 else g / (g - 1) * x ** (g - 1)

            for ratio in (-0.05, -1e-6, 1e-3, 0.1, 0.5):
                phi = ratio * rho_plus
                rho = rho_plus + phi
                dh = h(mp.mpf(rho)) - h(rp)
                rem = h(rp + mp.mpf(phi)) - h(rp) - g * rp ** (g - 2) * mp.mpf(phi)
                assert abs(law.dh(rho) - dh) <= 2e-15 * scale, (ratio, law.dh(rho), dh)
                assert abs(law.remainder(phi) - rem) <= 1e-15 * scale, (ratio, law.remainder(phi), rem)


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


class TestAlpha:
    def test_examples(self):
        for p, alpha, rel, nu in (
            (ModelParams(3, 1.0, 0.01, 1.0, 1.0, 0.0, 0.0), 10.0, 1e-15, 0.5),
            (ModelParams(2, 2.0, 0.5, 1.0, 2.0, 0.0, 0.0), 2.0, 1e-15, 0.0),
            (ModelParams(4, 1.4, 0.1, 1.0, 0.8, 0.0, 0.0), math.sqrt(1.4 * 0.8**-0.6 / 0.1), 1e-14, 1.0),
        ):
            assert p.alpha == pytest.approx(alpha, rel=rel)
            # the kernel's order is nu = (n - 2)/2: its r^{-nu} factor at r = 2
            assert KernelFactors(p.n, p.alpha, [1.0, 2.0]).rp[1] == pytest.approx(2.0**-nu, rel=1e-15)

    def test_alpha_consistency_invariant(self):
        for n in (2, 3, 4):
            for gamma in (1.0, 1.4, 2.0):
                for kappa in (1e-4, 1e-2, 1.0, 30.0):
                    p = ModelParams(n, gamma, kappa, 0.0, 0.8, 0.0, 0.0)
                    hp = PressureLaw(gamma, 0.8).h_prime(0.8)
                    assert abs(p.alpha**2 * kappa - hp) <= 1e-14 * hp

    def test_out_of_range_is_refused_when_read(self):
        # a model is valid with any kappa > 0; alpha beyond the doubles is refused by the solves that read it
        p = ModelParams(3, 1.0, 5e-324, 0.0, 1.0, -0.1, 0.0)
        with pytest.raises(RangeError, match=r"alpha = sqrt\(h'\(rho_plus\)/kappa\) = inf is outside the double range"):
            p.alpha


class TestLifting:
    def test_table_must_start_at_the_wall(self):
        with pytest.raises(DomainError, match="wall r = 1"):
            lifting_phi_b(-0.1, KernelFactors(3, 2.0, [1.5, 2.0]))
        for radii in ([1.5, 2.0], [], 1.0, [[1.0, 2.0]]):
            with pytest.raises(DomainError, match="wall r = 1"):
                KernelFactors(3, 2.0, radii)
        with pytest.raises(DomainError, match="wall r = 1"):
            lifting_phi_b(-0.1, KernelFactors(3, 2.0, []))

    def test_zero_data(self):
        assert lifting_at(3, 2.0, 0.0, 5.0) == (0.0, 0.0)

    def test_dimension3_closed_form(self):
        val, _ = lifting_at(3, 1.0, -1.0, 2.0)
        assert val == pytest.approx(math.exp(-1.0) / 4.0, rel=1e-13)
        for a in (0.5, 1.0, 7.0, 1000.0):
            for r in (1.0, 1.5, 4.0):
                val, _ = lifting_at(3, a, -0.3, r)
                assert val == pytest.approx(lifting3_exact(a, -0.3, r), rel=1e-12)

    def test_boundary_derivative_matches_data(self):
        for n in (2, 3, 4, 5):
            for a in (0.3, 1.0, 30.0, 1000.0):
                _, der = lifting_at(n, a, -0.7, 1.0)
                assert der == pytest.approx(-0.7, rel=1e-12)

    def test_derivative_by_central_difference(self):
        for r in (1.3, 2.0, 6.0):
            h = 1e-6
            vp, _ = lifting_at(4, 2.0, -0.2, r + h)
            vm, _ = lifting_at(4, 2.0, -0.2, r - h)
            _, der = lifting_at(4, 2.0, -0.2, r)
            assert der == pytest.approx((vp - vm) / (2.0 * h), rel=1e-8)


class TestGreen:
    def test_dimension3_point_values(self):
        assert green(3, 1.0, 1.0, 1.0)[0] == pytest.approx(-0.5, rel=1e-13)
        assert green(3, 1.0, 2.0, 1.0)[0] == pytest.approx(-math.exp(-1.0) / 4.0, rel=1e-13)

    def test_dimension3_closed_form_grid(self):
        r, s = np.meshgrid([1.0, 1.2, 2.5, 8.0], [1.0, 1.7, 6.0], indexing="ij")
        for a in (0.5, 1.0, 3.0, 40.0, 1000.0):
            exact = np.vectorize(green3_exact)(a, r, s)
            used = exact != 0.0
            g = green(3, a, r, s)[0]
            assert g[used] == pytest.approx(exact[used], rel=1e-12), a

    def test_symmetry_and_sign(self):
        r, s = np.meshgrid([1.0, 1.4, 3.0, 9.0], [1.1, 2.6, 7.5], indexing="ij")
        for n in (2, 3, 4, 5):
            g = green(n, 1.7, r, s)[0]
            assert np.all(g < 0.0)
            assert g == pytest.approx(green(n, 1.7, s, r)[0], rel=1e-12)

    def test_neumann_condition_at_wall(self):
        s = np.array([1.5, 3.0, 10.0])
        for n in (2, 3, 4, 5):
            g, left, _ = green(n, 2.2, 1.0, s)
            assert np.all(np.abs(left) <= 1e-12 * np.abs(g))

    def test_homogeneous_equation_away_from_diagonal(self):
        # 4th-order central stencils in r; residual relative to |G|
        for n, a in ((2, 0.7), (3, 2.0), (5, 5.0)):
            h = 0.01 / a
            for s in (2.0, 5.0):
                r = np.linspace(1.2, 8.0, 19)
                r = r[np.abs(r - s) >= 6.0 * h]
                f = green(n, a, r + h * np.arange(-2, 3)[:, None], s)[0]
                d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
                res = d2 + (n - 1) / r * d1 - a * a * f[2]
                assert np.all(np.abs(res) <= 1e-6 * np.abs(f[2])), (n, a, s)

    def test_pointwise_envelope_bound(self):
        # |G| <= C* e^{-a|r-s|} / (a (rs)^{(n-1)/2}), |dG| likewise without 1/a
        r, s = np.meshgrid(np.linspace(1.0, 12.0, 30), np.linspace(1.0, 12.0, 30), indexing="ij")
        below, above = r > s, r < s
        for n in (2, 3, 4, 5):
            c_star = 0.0
            for a in (1.0, 3.0):
                env = np.exp(-a * np.abs(r - s)) / (r * s) ** ((n - 1) / 2.0)
                g, left, right = green(n, a, r, s)
                c_star = max(
                    c_star,
                    np.max(np.abs(g) * a / env),
                    np.max(np.abs(right[below]) / env[below]),
                    np.max(np.abs(left[above]) / env[above]),
                )
            assert c_star <= 10.0, n

    def test_wronskian_of_basis_pair(self):
        # phi+ phi-' - phi+' phi- = -alpha K_{nu+1}(alpha) / (alpha r)^{n-1}
        from nsk.bessel import bessel_i, bessel_k

        for n, a in ((2, 0.5), (3, 2.0), (4, 1.0)):
            nu = BesselOrder(n - 2)
            up = BesselOrder(nu.two_nu + 2)
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


class TestArrays:
    """``green`` broadcasts ``(r, s)`` over one factor table of the radii ``[1, *r, *s]``."""

    MESH = np.meshgrid(np.linspace(1.0, 12.0, 30), np.linspace(1.0, 12.0, 30), indexing="ij")

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mesh_matches_scalar_calls(self, n):
        # a batch runs its Bessel loops until every entry converges, so the
        # last bits may differ from a three-radius table: agreement, not equality.
        # The whole mesh is one batch; the scalar reference (each call builds its
        # own table) is taken at every 5th point and on the diagonal r == s
        r, s = self.MESH
        pick = (np.arange(r.size).reshape(r.shape) % 5 == 0) | (r == s)
        scalar = np.array([green(n, 1.7, x, y) for x, y in zip(r[pick].tolist(), s[pick].tolist())])
        for name, mesh, ref in zip(("G", "dG_left", "dG_right"), green(n, 1.7, r, s), scalar.T):
            np.testing.assert_allclose(mesh[pick], ref, rtol=4e-15, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("mesh", [False, True], ids=["scalar", "mesh"])
    @pytest.mark.parametrize("quantity", ["green", "green_dr", "green_dr_left", "green_dr_right"])
    def test_one_bessel_evaluation_per_pointwise_call(self, monkeypatch, quantity, mesh):
        # each quantity (G; dG/dr off the diagonal; its left and right limits, on
        # the side where each is defined alone) costs one green call, whose c2
        # comes from the wall row of its own table over [1, *r, *s], not from a second table
        real = kernel_mod.bessel_ik_scaled
        sizes = []

        def counted(order, x):
            sizes.append(np.size(x))
            return real(order, x)

        monkeypatch.setattr(kernel_mod, "bessel_ik_scaled", counted)
        if mesh:
            r, s = self.MESH[0] + 0.5, self.MESH[1]  # r never equals s; s takes the wall
            keep = {"green_dr_left": r < s, "green_dr_right": r > s}.get(quantity, r != s)
            r, s = r[keep], s[keep]
        else:
            points = {"green": (2.0, 2.0), "green_dr": (3.5, 2.0), "green_dr_left": (2.0, 2.0), "green_dr_right": (3.0, 1.0)}
            r, s = points[quantity]
        g, left, right = green(3, 1.7, r, s)
        value = {"green": g, "green_dr": left, "green_dr_left": left, "green_dr_right": right}[quantity]
        assert np.all(np.isfinite(value))
        if quantity == "green_dr":
            assert np.array_equal(left, right)
        assert sizes == [1 + np.size(r) + np.size(s)]

    def test_one_bad_pair_refuses_the_mesh(self):
        ramp = np.arange(12.0).reshape(3, 4)
        r, s = 3.0 + ramp, 2.0 + ramp
        assert all(np.all(np.isfinite(v)) for v in green(3, 2.0, r, s))
        r[1, 2] = 0.5
        with pytest.raises(DomainError, match="radii must be >= 1"):
            green(3, 2.0, r, s)

    def test_scalars_give_floats_and_arrays_keep_shape(self):
        # every evaluator returns what its numpy expression returns: a numpy scalar (a float, as
        # json, math and format_float need) for a scalar argument, an array of its shape for an array
        from nsk.bessel import bessel_i, bessel_i_scaled, bessel_ik_scaled, bessel_k, bessel_k_scaled
        from nsk.limit import integrate_profile
        from nsk.stationary import source_term

        order, law = BesselOrder(3), PressureLaw(1.4, 1.0)
        profile = integrate_profile(law, 0.3)
        evaluators = {
            "bessel_i": lambda x: (bessel_i(order, x),),
            "bessel_k": lambda x: (bessel_k(order, x),),
            "bessel_i_scaled": lambda x: (bessel_i_scaled(order, x),),
            "bessel_k_scaled": lambda x: (bessel_k_scaled(order, x),),
            "bessel_ik_scaled": lambda x: bessel_ik_scaled(order, x),
            "PressureLaw.dh": lambda x: (law.dh(x),),
            "PressureLaw.h_prime": lambda x: (law.h_prime(x),),
            "PressureLaw.remainder": lambda x: (law.remainder(x),),
            "PressureLaw.w": lambda x: (law.w(x),),
            "green below": lambda x: green(4, 1.3, x, 1.2),
            "green above": lambda x: green(4, 1.3, x, 150.0),
            "green diagonal": lambda x: green(4, 1.3, x, x),
            "source_term": lambda x: (source_term(3, 0.1, x),),
            "LimitProfile.evaluate": lambda x: (profile.evaluate(x),),
            "LimitProfile.slope": lambda x: (profile.slope(x),),
        }
        # 1.05 takes W's Taylor branch and 100 the profile's exponential tail
        for x in (1.05, 1.5, 100.0):
            for name, fn in evaluators.items():
                for scalar in (x, np.float64(x), np.array(x)):
                    assert all(isinstance(v, float) and type(v) is np.float64 for v in fn(scalar)), name
                assert all(v.shape == (2, 3) for v in fn(np.full((2, 3), x))), name


class TestGreenDerivative:
    def test_dimension3_point_value(self):
        _, left, right = green(3, 1.0, 2.0, 1.0)
        assert left == right == pytest.approx(3.0 * math.exp(-1.0) / 8.0, rel=1e-13)

    def test_matches_central_difference(self):
        r, s = np.array([2.0, 1.5, 6.0]), np.array([1.2, 4.0, 2.0])
        h = 1e-6
        fd = (green(4, 1.3, r + h, s)[0] - green(4, 1.3, r - h, s)[0]) / (2.0 * h)
        _, left, right = green(4, 1.3, r, s)
        assert left == pytest.approx(fd, rel=1e-8)
        assert np.array_equal(left, right)

    def test_diagonal_jump(self):
        # right minus left one-sided derivative equals r^{1-n}
        for n in (2, 3, 4, 5):
            for a in (0.6, 2.0, 50.0):
                r = np.array([1.0, 1.7, 5.0])
                _, left, right = green(n, a, r, r)
                assert right - left == pytest.approx(r ** (1 - n), rel=1e-12)

    def test_far_field_decay(self):
        s = 1.5
        r = np.array([5.0, 8.0, 12.0])
        bound = 2.0 * np.exp(-2.0 * (r - s)) / (r * s)
        assert np.all(np.abs(green(3, 2.0, r, s)[1]) <= bound)

    def test_non_finite_values_refused(self):
        # K_nu(alpha) beyond the double range (n = 1000 at alpha = 10) is refused, not used
        for r, s in ((1.5, 2.0), (2.0, 1.5), (2.0, 2.0)):
            with pytest.raises(RangeError, match="scaled K_nu is not finite"):
                green(1000, 10.0, r, s)

    def test_far_arguments_match_closed_form(self):
        # alpha r = 1e9 and beyond, where scipy's scaled factors were NaN, keeps full accuracy
        for a, r in ((1.0, 1e9), (10.0, 1e9), (1.0, 1e12)):
            s = r + 1.0
            g, left, _ = green(3, a, r, s)
            assert g == pytest.approx(green3_exact(a, r, s), rel=1e-12)
            g_dr = math.exp(-a) * (1.0 - a * r) / (2.0 * a * r * r * s)  # d/dr of the first term, r < s
            assert left == pytest.approx(g_dr, rel=1e-12)
