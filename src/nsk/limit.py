r"""Vanishing-capillarity limit profile via the stable-manifold reduction.

Under the singular boundary scaling ``rho_b = rho_b^0 / sqrt(kappa)`` the
boundary layer converges to the profile of the second-order problem

.. math::
    \bar\rho_{yy} = h(\bar\rho) - h(\rho_+), \qquad
    \bar\rho_y(0) = \rho_b^0, \quad \bar\rho(\infty) = \rho_+.

As a planar system this conserves ``x_2^2/2 - W(x_1)`` with the convex
potential ``W(x) = \int_{\rho_+}^x (h(t) - h(\rho_+)) dt``, and
``(\rho_+, 0)`` is a saddle with eigenvalues ``\pm\sqrt{h'(\rho_+)}``.  The
connecting orbit lies on the stable manifold

.. math::
    x_2 = s(x_1) = -\operatorname{sgn}(x_1 - \rho_+)\sqrt{2 W(x_1)},

which turns the BVP into the scalar autonomous ODE ``\bar\rho_y = s(\bar\rho)``.
The boundary value ``rho_-`` is the root of ``s(x) = rho_b^0`` (bisection).
``W`` grows without bound above ``rho_+`` and rises to ``W(0^+) = \rho_+^\gamma``
toward the vacuum, so ``rho_-`` exists exactly when
``rho_b^0 < \sqrt{2\rho_+^\gamma}``.

The profile is the inverse of the first integral

.. math::
    y(\rho) = \int_{\rho_-}^{\rho} \frac{dx}{s(x)},

computed by Gauss-Legendre quadrature on panels that are geometric in
``|x - \rho_+|`` near ``rho_+`` and in ``x`` far from it, each short against
its distance to the pole of ``1/s`` at ``rho_+`` (or to the branch point at
the vacuum).  Samples at uniform ``y`` solve ``y(\rho) = y`` by Newton
from the panel end below them.  Once
``|\rho - \rho_+|`` reaches ``TAIL_SWITCH`` the exact linearized tail
``rho_+ + a e^{-\sqrt{h'(\rho_+)} y}`` takes over, which also extends
evaluation to arbitrarily large ``y``.  Between samples the profile is the
cubic Hermite interpolant with the exact slopes ``s(\bar\rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import check_finite
from .errors import ConfigError, DomainError, NoRootError, RangeError
from .kernel import check_pressure_law, enthalpy_h_prime

__all__ = [
    "LimitProfile",
    "potential_w",
    "solve_rho_minus",
    "integrate_profile",
]

TAIL_SWITCH = 1e-8  # hand over to the linearized tail below this amplitude
PROFILE_FLOOR = 1e-14  # stored samples stop once the profile is this flat
ROOT_TOL = 1e-13  # absolute tolerance of the rho_- bisection
RESOLUTION = 1e-5  # and its tolerance relative to |rho_- - rho_+| and to rho_-
PANELS_PER_OCTAVE = 16  # quadrature panels per halving of the distance to rho_+ (or to vacuum)
NEWTON_STEPS = 4  # from the panel end below a sample, each step squares a ~1e-3 relative error
# W by its Taylor series where |x/rho_+ - 1| max(1, gamma) is below this: each
# term is at most a tenth of the one before, and 20 reach below roundoff
TAYLOR_MAX = 0.1
TAYLOR_TERMS = 20
MAX_SAMPLES = 1_000_000  # stored samples of one profile
_CHUNK = 1 << 14  # samples inverted per vectorized Newton pass
# the 8-point Gauss-Legendre rule on [-1, 1], equal bit for bit to numpy's leggauss(8);
# per panel: ~1e-30 relative error at a panel ratio 2**(1/16)
_GAUSS_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GAUSS_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def potential_w(gamma: float, rho_plus: float, x):
    r"""``W(x) = \int_{\rho_+}^x (h(t) - h(\rho_+)) dt`` in closed form.

    With ``d = x/rho_+ - 1`` it is ``rho_+^gamma [(1+d) e - d]``, where
    ``e = expm1((gamma-1) log1p(d))/(gamma-1)``, or its limit ``log1p(d)`` at
    ``gamma = 1``, so the cancellation does not grow as gamma -> 1.  The form
    subtracts O(d) terms to leave an O(d^2) result, so where ``|d| max(1,
    gamma) <= TAYLOR_MAX`` the Taylor series ``rho_+^gamma sum_k gamma
    (gamma-2)...(gamma-k+1) d^k/k!`` from ``k = 2`` replaces it and keeps full
    relative accuracy.  Where ``x/rho_+`` rounds to 0 it gives the vacuum value
    ``rho_+^gamma`` (``0 log 0 = 0`` for ``gamma = 1``).  ``W`` may overflow to
    ``inf`` far above ``rho_+``; a pressure scale ``rho_+^gamma`` beyond the
    double range raises ``RangeError``.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("x must be positive")
    d = np.atleast_1d(xa / rho_plus - 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        if gamma == 1.0:
            scale = rho_plus
            # (1 + d) e is 0 where d rounds to -1, not 0 * (-inf)
            e = np.log1p(np.where(d > -1.0, d, 0.0))
        else:
            scale = check_finite(np.float64(rho_plus) ** gamma, "rho_plus**gamma")
            e = np.expm1((gamma - 1.0) * np.log1p(d)) / (gamma - 1.0)
        out = scale * ((1.0 + d) * e - d)
    # the closed forms cancel O(d) terms: next to rho_+ sum the Taylor series instead,
    # gamma d^2/2 sum_j b_j t^j in t = g d, g = max(1, gamma), with
    # b_j = prod_{k=2}^{j+1} (gamma - k)/(g (k + 1)) bounded for every gamma
    g = max(1.0, gamma)
    near = np.abs(d) * g <= TAYLOR_MAX
    if near.any():
        coef = [1.0]
        for k in range(2, TAYLOR_TERMS + 1):
            coef.append(coef[-1] * (gamma - k) / (g * (k + 1)))
        dn = d[near]
        t = g * dn
        acc = np.full_like(t, coef[-1])
        for b in reversed(coef[:-1]):
            acc *= t
            acc += b
        out[near] = scale * (0.5 * gamma) * dn * dn * acc
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xa.shape)


def _manifold_slope(gamma: float, rho_plus: float, x) -> np.ndarray:
    """``s(x) = -sgn(x - rho_+) sqrt(2 W(x))``, the stable-manifold slope at each ``x``."""
    x = np.asarray(x, dtype=float)
    w = np.maximum(potential_w(gamma, rho_plus, x), 0.0)
    with np.errstate(over="ignore"):  # 2W beyond the double range is an infinite slope
        return -np.sign(x - rho_plus) * np.sqrt(2.0 * w)


def solve_rho_minus(gamma: float, rho_plus: float, rho_b0: float) -> float:
    """Boundary value ``rho_-``: root of ``-sgn(x-rho_+) sqrt(2W(x)) = rho_b0``.

    A root exists exactly when ``rho_b0 < sqrt(2 rho_+^gamma)``; larger
    slopes raise ``NoRootError`` naming that bound.  Bisection between
    ``near = rho_+``, where the slope vanishes, and a ``far`` end moved
    away from ``rho_+`` (doubled for ``rho_b0 < 0``, halved toward vacuum
    otherwise) until its slope reaches ``|rho_b0|``.  It stops once the
    bracket is within the absolute tolerance ``ROOT_TOL`` and within
    ``RESOLUTION`` of both ``|rho_- - rho_+|`` and ``rho_-``, so roots a
    few tolerances from ``rho_+`` or from the vacuum keep bisecting past
    ``ROOT_TOL``.  ``RangeError`` is raised for a root that doubles cannot
    resolve that finely next to ``rho_+``, for one below ``ROOT_TOL``
    (the absolute scale of the profile's handover and sample floor), and
    for one past the overflow of ``2W``.
    """
    if rho_b0 == 0.0:
        return rho_plus
    target = abs(rho_b0)
    upward = rho_b0 < 0.0  # the profile lies above rho_+
    if not upward:
        pressure = check_finite(np.float64(rho_plus) ** gamma, "rho_plus**gamma")
        bound = math.sqrt(2.0 * pressure)
        if rho_b0 >= bound:
            raise NoRootError(
                f"rho_b0 = {rho_b0:.6g} is not below sqrt(2 rho_plus**gamma) = {bound:.6g}, "
                "the steepest slope of an orbit toward the vacuum"
            )
    near, far = rho_plus, rho_plus * (1.125 if upward else 0.875)
    factor = 2.0 if upward else 0.5
    while abs(_manifold_slope(gamma, rho_plus, far)) < target:
        if not upward and far < ROOT_TOL:
            raise RangeError(
                f"rho_- < {far:.3e} lies within the {ROOT_TOL:g} bisection tolerance of the vacuum: "
                "rho_b0 is too close to sqrt(2 rho_plus**gamma)"
            )
        far *= factor
    for _ in range(200):
        mid = 0.5 * (near + far)
        if abs(_manifold_slope(gamma, rho_plus, mid)) < target:
            near = mid
        else:
            far = mid
        root = 0.5 * (near + far)
        if abs(far - near) <= min(ROOT_TOL, RESOLUTION * min(abs(root - rho_plus), root)):
            break
    if root < ROOT_TOL:
        raise RangeError(f"rho_- = {root:.3e} lies within the {ROOT_TOL:g} bisection tolerance of the vacuum")
    if near == rho_plus:
        # the bracket never came off rho_plus: the root is not resolved
        raise RangeError(
            "rho_- lies within the 1e-13 bisection tolerance of rho_plus: "
            "|rho_b0| is too small for the tail rate sqrt(h'(rho_plus))"
        )
    if abs(far - near) > RESOLUTION * abs(root - rho_plus):
        raise RangeError(
            f"rho_- - rho_plus = {root - rho_plus:.3e} is not resolved to {RESOLUTION:g} of itself: "
            f"the bisection tolerance stops at the double spacing {abs(far - near):.3e} next to rho_plus"
        )
    if not np.isfinite(_manifold_slope(gamma, rho_plus, far)):
        raise RangeError(f"2 W(rho_-) overflows before the slope reaches rho_b0 = {rho_b0:.3e}")
    return root


def _geometric(a: float, b: float, gamma: float) -> np.ndarray:
    """Points from ``a`` to ``b``, ``PANELS_PER_OCTAVE * gamma`` panels per factor of 2."""
    count = max(math.ceil(PANELS_PER_OCTAVE * gamma * abs(math.log2(b / a))), 1)
    return np.geomspace(a, b, count + 1)


class _FirstIntegral:
    """``y(rho) = int_{rho_-}^{rho} dx/s(x)`` from ``rho_-`` to ``rho_+ ± switch``, and its inverse.

    Each quadrature panel spans about 1/23 of the scale on which ``1/s``
    varies, so 8 Gauss-Legendre points integrate it to roundoff.  Near
    ``rho_+`` that scale is the distance to the pole, so the panel ends are
    geometric in ``|x - rho_+|``.  Above ``rho_+ + rho_+/(gamma - 1)`` the
    growth of ``x^gamma`` sets the scale ``x/gamma``, so the ends are
    geometric in ``x`` with ratio ``2**(1/(16 gamma))``; below ``rho_+/2``
    the branch point of ``W`` at the vacuum sets the scale ``x``, ratio
    ``2**(1/16)``.
    """

    def __init__(self, gamma: float, rho_plus: float, rho_minus: float, switch: float):
        self.gamma, self.rho_plus = gamma, rho_plus
        sign = math.copysign(1.0, rho_minus - rho_plus)
        d_minus = abs(rho_minus - rho_plus)
        if sign > 0.0:
            d_cross, far_octave = (rho_plus / (gamma - 1.0) if gamma > 1.0 else math.inf), gamma
        else:
            d_cross, far_octave = 0.5 * rho_plus, 1.0
        near = rho_plus + sign * _geometric(max(min(d_minus, d_cross), switch), switch, 1.0)
        far = _geometric(rho_minus, near[0], far_octave)[:-1] if d_minus > d_cross else np.empty(0)
        self.ends = np.concatenate([far, near])
        self.ends[0] = rho_minus
        self.y_ends = np.concatenate([[0.0], np.cumsum(self._integral(self.ends[:-1], self.ends[1:]))])

    def _integral(self, a, b) -> np.ndarray:
        """``int_a^b dx / s(x)`` by Gauss-Legendre on each panel ``[a, b]``."""
        half = 0.5 * (b - a)
        x = (a + half)[:, None] + half[:, None] * _GAUSS_X
        return half * ((1.0 / _manifold_slope(self.gamma, self.rho_plus, x)) @ _GAUSS_W)

    def invert(self, y: np.ndarray) -> np.ndarray:
        """``rho`` with ``y(rho) = y`` for each ``y`` in ``[0, y_ends[-1]]``.

        Newton on ``y_ends[j] + int_{ends[j]}^{rho} dx/s(x) = y`` from the
        panel end ``j`` below ``y``, starting at the first-order step.
        """
        out = np.empty(y.size)
        for lo in range(0, y.size, _CHUNK):
            j = np.searchsorted(self.y_ends, y[lo : lo + _CHUNK], side="right") - 1
            start, gap = self.ends[j], y[lo : lo + _CHUNK] - self.y_ends[j]
            rho = start + _manifold_slope(self.gamma, self.rho_plus, start) * gap
            for _ in range(NEWTON_STEPS):
                defect = self._integral(start, rho) - gap
                rho = rho - defect * _manifold_slope(self.gamma, self.rho_plus, rho)
            out[lo : lo + _CHUNK] = rho
        return out


@dataclass
class LimitProfile:
    """Sampled limit profile with an exact exponential tail extension."""

    y_nodes: np.ndarray
    rho_bar: np.ndarray
    rho_bar_y: np.ndarray
    rho_minus_limit: float
    gamma: float
    rho_plus: float
    tail_start: float  # y beyond which the linearized tail is used
    tail_amplitude: float  # rho_bar(tail_start) - rho_plus
    tail_rate: float  # sqrt(h'(rho_plus))

    def _hermite(self, y: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolant of the samples and their exact slopes."""
        i = np.clip(np.searchsorted(self.y_nodes, y, side="right") - 1, 0, self.y_nodes.size - 2)
        h = self.y_nodes[i + 1] - self.y_nodes[i]
        t = (y - self.y_nodes[i]) / h
        rise = self.rho_bar[i + 1] - self.rho_bar[i]
        m0, m1 = h * self.rho_bar_y[i], h * self.rho_bar_y[i + 1]
        return self.rho_bar[i] + t * (m0 + t * (3.0 * rise - 2.0 * m0 - m1 + t * (m0 + m1 - 2.0 * rise)))

    def evaluate(self, y) -> np.ndarray:
        """``rho_bar(y)`` for any ``y >= 0`` (tail formula beyond the samples)."""
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.full(ya.shape, self.rho_plus)
        inside = ya <= self.tail_start
        if np.any(inside) and self.y_nodes.size >= 2:
            out[inside] = self._hermite(np.clip(ya[inside], self.y_nodes[0], None))
        beyond = ~inside
        if np.any(beyond):
            out[beyond] = self.rho_plus + self.tail_amplitude * np.exp(
                -self.tail_rate * (ya[beyond] - self.tail_start)
            )
        return out if np.ndim(y) else float(out[0])

    def slope(self, y) -> np.ndarray:
        """``rho_bar_y(y)`` from the stable-manifold relation at ``rho_bar(y)``."""
        out = _manifold_slope(self.gamma, self.rho_plus, np.atleast_1d(self.evaluate(y)))
        return out if np.ndim(y) else float(out[0])


def integrate_profile(
    gamma: float,
    rho_plus: float,
    rho_b0: float,
    y_max: float = 60.0,
) -> LimitProfile:
    """Sample ``rho_bar`` at spacing ``0.002/rate`` from the first integral ``y(rho)``.

    The quadrature runs from ``rho(0) = rho_-`` until ``|rho - rho_+|``
    reaches the handover amplitude ``TAIL_SWITCH`` (at least 2**16 ulps of
    ``rho_+``); the exact linearized tail continues the profile from there
    (from ``y = 0`` when ``rho_-`` already lies within it).  Stored samples
    stop at ``y_max > 0`` or once the profile is flat to 1e-14; a profile
    that needs more than ``MAX_SAMPLES`` samples below ``y_max`` raises
    ``ConfigError``, and a tail rate ``sqrt(h'(rho_plus))`` outside ``(0, inf)`` ``RangeError``.
    """
    check_pressure_law(gamma, rho_plus)
    if y_max <= 0.0:
        raise DomainError("y_max must be positive")
    rho_minus = solve_rho_minus(gamma, rho_plus, rho_b0)
    with np.errstate(over="ignore"):
        rate = math.sqrt(enthalpy_h_prime(gamma, rho_plus))
    if not 0.0 < rate < math.inf:
        raise RangeError(f"the tail rate sqrt(h'(rho_plus)) = {rate} is outside the double range")
    dy = 0.002 / rate
    if rho_b0 == 0.0:
        y = np.array([0.0, 0.5 * y_max, y_max])
        flat = np.full(3, rho_plus)
        return LimitProfile(
            y_nodes=y,
            rho_bar=flat,
            rho_bar_y=np.zeros(3),
            rho_minus_limit=rho_plus,
            gamma=gamma,
            rho_plus=rho_plus,
            tail_start=0.0,
            tail_amplitude=0.0,
            tail_rate=rate,
        )

    y_switch, amp = 0.0, rho_minus - rho_plus
    y_q = rho_q = np.empty(0)
    switch = max(TAIL_SWITCH, 65536.0 * math.ulp(rho_plus))
    if abs(amp) > switch:  # otherwise rho_- already lies on the linearized tail
        first = _FirstIntegral(gamma, rho_plus, rho_minus, switch)
        y_switch = min(float(first.y_ends[-1]), y_max)
        if y_switch > MAX_SAMPLES * dy:
            raise ConfigError(
                f"the profile needs {y_switch / dy:.3e} samples below y_max = {y_max:.6g}, "
                f"more than {MAX_SAMPLES}: lower y_max"
            )
        y_q = np.arange(0.0, y_switch, dy)
        rho_q = first.invert(np.append(y_q, y_switch))
        amp = float(rho_q[-1]) - rho_plus
        rho_q = rho_q[:-1]
    # analytic tail continues down to the sample floor (or y_max)
    y_floor = y_switch + math.log(abs(amp) / PROFILE_FLOOR) / rate
    y_end = min(y_max, max(y_floor, y_switch))
    # a single sample when the quadrature reached y_max before the handover
    count = max(int((y_end - y_switch) / dy), 2) if y_end > y_switch else 1
    y_tail = np.linspace(y_switch, y_end, count)
    rho_tail = rho_plus + amp * np.exp(-rate * (y_tail - y_switch))

    y_all = np.concatenate([y_q, y_tail])
    rho_all = np.concatenate([rho_q, rho_tail])
    return LimitProfile(
        y_nodes=y_all,
        rho_bar=rho_all,
        rho_bar_y=_manifold_slope(gamma, rho_plus, rho_all),
        rho_minus_limit=rho_minus,
        gamma=gamma,
        rho_plus=rho_plus,
        tail_start=y_switch,
        tail_amplitude=amp,
        tail_rate=rate,
    )
