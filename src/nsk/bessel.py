r"""Modified Bessel functions for integer and half-integer orders.

The radial reduction of the modified Helmholtz operator in dimension
``n >= 2`` leads to modified Bessel functions of order ``nu = (n - 2)/2``,
i.e. exactly the integer and half-integer orders.  Orders are carried
around as the exact integer ``2*nu`` so that half-integer orders never
suffer representation fuzz.

Besides the plain evaluators ``bessel_i`` / ``bessel_k`` the module exposes
the exponentially scaled variants

.. math::
    \hat{I}_\nu(x) = e^{-x} I_\nu(x), \qquad \hat{K}_\nu(x) = e^{x} K_\nu(x),

which stay O(1) over the whole argument range.  Kernel code combines the
growing ``I`` factors with decaying ``K`` factors; doing that in scaled form
with explicit exponent bookkeeping is what keeps products finite for
arguments in the hundreds, where the unscaled functions overflow.  Every
Bessel value the package uses comes from :func:`bessel_ik_scaled`, which
gives ``(\hat I_\nu, \hat K_\nu, \hat I_{\nu+1}, \hat K_{\nu+1})`` at once
in numpy, by Temme's method (N. M. Temme, J. Comput. Phys. 19 (1975) 324;
the arrangement of Numerical Recipes' ``bessik``):

* ``K_\mu`` and ``K_{\mu+1}`` at ``\mu = \nu - round(\nu)``, which is 0 or
  -1/2: Temme's series for ``x <= 1.5`` and Steed's continued fraction CF2
  above at ``\mu = 0``, the closed form ``\hat K_{\pm 1/2} = \sqrt{\pi/(2x)}``
  at ``\mu = -1/2``;
* upward recurrence ``K_{k+1} = K_{k-1} + (2k/x) K_k`` to ``K_\nu`` and
  ``K_{\nu+1}``, carried as ``K_k`` and ``x K_{k+1}/K_k`` so that neither
  the ratio nor ``x^2`` overflows; it stops once every ``K`` value has
  overflowed, which for huge orders comes after a few hundred steps;
* the continued fraction CF1 for ``I_{\nu+1}/I_\nu``, and ``I_\nu`` from
  the Wronskian ``I_\nu K_{\nu+1} + I_{\nu+1} K_\nu = 1/x``.

CF1 needs about ``x`` steps, so once ``x > max(50, \nu^2)`` both kinds come
from the Hankel expansions (DLMF 10.40.1 and 10.40.2) instead, whose terms
then fall below roundoff before they can grow.  A value that would need more
than ``MAX_STEPS`` recurrence or CF1 steps is NaN instead.  Against 40-digit
values the scaled forms are good to 1.2e-15 relative for ``2 nu <= 8`` and
2.4e-15 at ``2 nu = 148``, whose 74 recurrence steps reach 5.4e-15 just below
a power of two, where every division by ``x`` rounds the same way.  The
public evaluators refuse a value that is not finite with ``RangeError``.

The weighted functions

.. math::
    (\alpha r)^{-\nu} I_\nu(\alpha r), \qquad (\alpha r)^{-\nu} K_\nu(\alpha r)

are the two solutions of the radial modified Helmholtz equation
``f'' + ((n-1)/r) f' - \alpha^2 f = 0`` and satisfy the derivative
identities

.. math::
    \frac{d}{dz}\bigl(z^{-\nu} I_\nu(z)\bigr) = z^{-\nu} I_{\nu+1}(z), \qquad
    \frac{d}{dz}\bigl(z^{-\nu} K_\nu(z)\bigr) = -z^{-\nu} K_{\nu+1}(z),

together with the Wronskian-type relation
``I_\nu(x) K_{\nu+1}(x) + I_{\nu+1}(x) K_\nu(x) = 1/x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

__all__ = [
    "BesselOrder",
    "bessel_i",
    "bessel_k",
    "bessel_i_scaled",
    "bessel_k_scaled",
    "bessel_ik_scaled",
    "check_finite",
]

EPS = float(np.finfo(float).eps)
# Temme's series for K_0, K_1 up to here, CF2 above: between 1.5 and 2 the
# series' x K_1/K_0 loses about ten units of roundoff to cancellation
SERIES_MAX_X = 1.5
HANKEL_MIN_X = 50.0  # Hankel expansions past max(50, nu^2)
# the recurrence takes about nu steps and CF1 about x; a value that needs more is NaN
MAX_STEPS = 20_000
MAX_SERIES_TERMS = 200


@dataclass(frozen=True)
class BesselOrder:
    """Order ``nu`` stored exactly as the integer ``2*nu``.

    Only ``nu >= 0`` occurs (``nu = (n-2)/2`` with ``n >= 2``).
    """

    two_nu: int

    def __post_init__(self) -> None:
        if not isinstance(self.two_nu, (int, np.integer)):
            raise DomainError("two_nu must be an integer (order stored as 2*nu)")
        if self.two_nu < 0:
            raise DomainError("two_nu must be >= 0 (nu = (n-2)/2 with n >= 2)")

    @property
    def nu(self) -> float:
        return 0.5 * self.two_nu


def _check_positive(x):
    x = np.asarray(x, dtype=float)
    if not ((x > 0.0) & (x < np.inf)).all():
        raise DomainError("argument x must be positive and finite")
    return x


def check_finite(val, what: str):
    """``val``, or ``RangeError`` if any entry is not finite."""
    if not np.isfinite(val).all():
        raise RangeError(f"{what} is not finite at this argument")
    return val


def _k0_series(x):
    """``(\\hat K_0, x K_1/K_0)`` at ``x <= SERIES_MAX_X``: Temme's series at ``mu = 0``."""
    d = math.log(2.0) - np.log(x)  # -log(x/2): no cancellation below 1, ...
    above = x > 1.0
    d[above] = -np.log(0.5 * x[above])  # ... and halving is exact above
    ff = d - np.euler_gamma
    k0 = ff.copy()
    k1 = np.full_like(x, 0.5)  # x K_1 / 2
    c = np.ones_like(x)
    quarter_x2 = 0.25 * x * x
    p = 0.5
    for i in range(1, MAX_SERIES_TERMS):
        ff = (i * ff + 2.0 * p) / (i * i)
        c *= quarter_x2 / i
        p /= i
        term = c * ff
        k0 += term
        k1 += c * (p - i * ff)
        if (np.abs(term) <= EPS * k0).all():
            break
    return k0 * np.exp(x), 2.0 * k1 / k0


def _k0_cf2(x):
    """``(\\hat K_0, x K_1/K_0)`` above ``SERIES_MAX_X``: Steed's CF2 with Temme's normalization."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25  # 1/4 - mu^2
    q = np.full_like(x, a1)
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, MAX_SERIES_TERMS):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh *= b * d - 1.0
        h += delh
        dels = q * delh
        s += dels
        if (np.abs(dels) <= EPS * s).all():
            break
    return math.sqrt(0.5 * math.pi) / np.sqrt(x) / s, x + 0.5 - a1 * h


def _i_ratio_cf1(nu: float, x):
    """``I_{nu+1}/I_nu = y/(nu+1 + y^2/(nu+2 + y^2/(nu+3 + ...)))``, ``y = x/2``, by CF1
    (modified Lentz); NaN where ``MAX_STEPS`` do not converge."""
    y = 0.5 * x
    y2 = y * y
    g = np.full_like(x, nu + 1.0)
    c = g.copy()
    d = np.zeros_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for k in range(2, MAX_STEPS):
        d = 1.0 / (nu + k + y2 * d)
        c = nu + k + y2 / c
        delta = c * d
        done |= np.abs(delta - 1.0) <= EPS
        delta[done] = 1.0  # a converged value stops collecting roundoff
        g *= delta
        if done.all():
            break
    ratio = y / g
    ratio[~done] = np.nan
    return ratio


def _temme(order: BesselOrder, x):
    """The four scaled values at ``x <= max(50, nu^2)``: ``K_mu``, upward
    recurrence, CF1 and the Wronskian."""
    steps = (order.two_nu + 1) // 2
    mu = order.nu - steps
    if order.two_nu % 2:
        k, s = math.sqrt(0.5 * math.pi) / np.sqrt(x), x.copy()  # K_{-1/2} = K_{1/2}
    else:
        k, s = np.empty_like(x), np.empty_like(x)
        near = x <= SERIES_MAX_X
        k[near], s[near] = _k0_series(x[near])
        k[~near], s[~near] = _k0_cf2(x[~near])
    with np.errstate(over="ignore"):
        # k = K_{mu+i}, s = x K_{mu+i+1}/K_{mu+i}
        for i in range(1, min(steps, MAX_STEPS) + 1):
            k = k * (s / x)
            if not np.isfinite(k).any():
                zero, inf = np.zeros_like(x), np.full_like(x, np.inf)
                return zero, inf, zero, inf
            s = x * (x / s) + 2.0 * (mu + i)
        k1 = k * (s / x)
    if steps > MAX_STEPS:
        nan = np.full_like(x, np.nan)
        return nan, nan, nan, nan
    ratio = _i_ratio_cf1(order.nu, x)
    i0 = 1.0 / (s + x * ratio) / k  # the Wronskian, without forming x K_{nu+1}
    return i0, k, ratio * i0, k1


def _hankel(nu: float, x):
    """``(sqrt(2 pi x) \\hat I_nu, sqrt(2x/pi) \\hat K_nu)`` by the Hankel expansions,
    for ``x > max(50, nu^2)``."""
    four_nu2 = 4.0 * nu * nu
    term = np.ones_like(x)
    i_sum = np.ones_like(x)
    k_sum = np.ones_like(x)
    for k in range(1, MAX_SERIES_TERMS):
        term *= (four_nu2 - (2 * k - 1) ** 2) / (8.0 * k) / x
        i_sum += term if k % 2 == 0 else -term
        k_sum += term
        if (np.abs(term) <= 0.5 * EPS * i_sum).all():
            break
    return i_sum, k_sum


def bessel_ik_scaled(order: BesselOrder, x):
    r"""``(\hat I_nu, \hat K_nu, \hat I_{nu+1}, \hat K_{nu+1})`` at positive finite ``x``.

    Arrays of the shape of ``x``, numpy scalars for a scalar.  Not checked: a
    ``\hat K`` beyond the double range is ``inf`` (its ``\hat I`` is then 0),
    and an ``\hat I`` whose CF1 does not converge is NaN; the single-value
    evaluators refuse both.
    """
    xa = _check_positive(x)
    flat = xa.ravel()
    out = np.empty((4, flat.size))
    far = flat > max(HANKEL_MIN_X, order.nu * order.nu)
    xf = flat[far]
    norm = math.sqrt(2.0 * math.pi) * np.sqrt(xf)
    for j, nu in enumerate((order.nu, order.nu + 1.0)):
        i_sum, k_sum = _hankel(nu, xf)
        out[2 * j, far] = i_sum / norm
        out[2 * j + 1, far] = k_sum * (math.pi / norm)
    out[:, ~far] = _temme(order, flat[~far])
    return tuple(v.reshape(xa.shape)[()] for v in out)


def bessel_i(order: BesselOrder, x) -> float | np.ndarray:
    """Modified Bessel function of the first kind, ``I_nu(x)``.

    Raises ``RangeError`` instead of returning ``inf`` once ``e^x`` leaves
    the double range (x around 710); use ``bessel_i_scaled`` there.
    """
    scaled = check_finite(bessel_ik_scaled(order, x)[0], "scaled I_nu")
    with np.errstate(over="ignore"):
        val = scaled * np.exp(np.asarray(x, dtype=float))
    if not np.isfinite(val).all():
        raise RangeError("I_nu overflow: argument beyond exponential range; use the scaled form")
    return val


def bessel_k(order: BesselOrder, x) -> float | np.ndarray:
    """Modified Bessel function of the second kind, ``K_nu(x)``.

    Positive and strictly decreasing in ``x``.  Raises ``RangeError`` when
    ``e^{-x}`` underflows to zero; use ``bessel_k_scaled`` there.
    """
    scaled = check_finite(bessel_ik_scaled(order, x)[1], "scaled K_nu")
    val = scaled * np.exp(-np.asarray(x, dtype=float))
    if np.any(val == 0.0):
        raise RangeError("K_nu underflow: argument beyond exponential range; use the scaled form")
    return val


def bessel_i_scaled(order: BesselOrder, x) -> float | np.ndarray:
    """Exponentially scaled ``e^{-x} I_nu(x)``; O(1), or ``RangeError`` where it is not finite."""
    return check_finite(bessel_ik_scaled(order, x)[0], "scaled I_nu")


def bessel_k_scaled(order: BesselOrder, x) -> float | np.ndarray:
    """Exponentially scaled ``e^{x} K_nu(x)``; ``RangeError`` where it overflows."""
    return check_finite(bessel_ik_scaled(order, x)[1], "scaled K_nu")
