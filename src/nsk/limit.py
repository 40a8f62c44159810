r"""Vanishing-capillarity limit profile via the stable-manifold reduction.

Under the singular boundary scaling ``rho_b = rho_b^0 / sqrt(kappa)`` the
boundary layer converges to the profile of the second-order problem

.. math::
    \bar\rho_{yy} = h(\bar\rho) - h(\rho_+), \qquad
    \bar\rho_y(0) = \rho_b^0, \quad \bar\rho(\infty) = \rho_+.

As a planar system this conserves ``x_2^2/2 - W(x_1)`` with the convex
potential ``W(x) = \int_{\rho_+}^x (h(t) - h(\rho_+)) dt`` (``PressureLaw.w``), and
``(\rho_+, 0)`` is a saddle with eigenvalues ``\pm\sqrt{h'(\rho_+)}``.  The
connecting orbit lies on the stable manifold

.. math::
    x_2 = s(x_1) = -\operatorname{sgn}(x_1 - \rho_+)\sqrt{2 W(x_1)},

which turns the BVP into the scalar autonomous ODE ``\bar\rho_y = s(\bar\rho)``.
The boundary value ``rho_-`` is the root of ``s(x) = rho_b^0`` (bisection).
``W`` grows without bound above ``rho_+`` and rises to ``W(0^+) = \rho_+^\gamma``
toward the vacuum, so ``rho_-`` exists exactly when ``rho_b^0 < \sqrt{2\rho_+^\gamma}``,
the ``existence_bound`` of the :class:`~nsk.kernel.PressureLaw` every function here takes.

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

from .errors import ConfigError, DomainError, NoRootError, RangeError
from .kernel import PressureLaw

__all__ = [
    "LimitProfile",
    "solve_rho_minus",
    "integrate_profile",
]

TAIL_SWITCH = 1e-8  # hand over to the linearized tail below this amplitude
PROFILE_FLOOR = 1e-14  # stored samples stop once the profile is this flat
ROOT_TOL = 1e-13  # absolute tolerance of the rho_- bisection
RESOLUTION = 1e-5  # and its tolerance relative to |rho_- - rho_+| and to rho_-
PANELS_PER_OCTAVE = 16  # quadrature panels per halving of the distance to rho_+ (or to vacuum)
NEWTON_STEPS = 4  # from the panel end below a sample, each step squares a ~1e-3 relative error
MAX_SAMPLES = 1_000_000  # stored samples of one profile
# entries per whole-array pass over samples: a (1024, 8) block of Gauss-Legendre
# points is 64 KiB, so no temporary reaches glibc's 128 KiB mmap threshold
_CHUNK = 1 << 10
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


def _manifold_slope(law: PressureLaw, x) -> np.ndarray:
    """``s(x) = -sgn(x - rho_+) sqrt(2 W(x))``, the stable-manifold slope at each ``x``."""
    x = np.asarray(x, dtype=float)
    w = np.maximum(law.w(x), 0.0)
    with np.errstate(over="ignore"):  # 2W beyond the double range is an infinite slope
        return -np.sign(x - law.rho_plus) * np.sqrt(2.0 * w)


def solve_rho_minus(law: PressureLaw, rho_b0: float) -> float:
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
    rho_plus = law.rho_plus
    if rho_b0 == 0.0:
        return rho_plus
    target = abs(rho_b0)
    upward = rho_b0 < 0.0  # the profile lies above rho_+
    if not upward and rho_b0 >= law.existence_bound:
        raise NoRootError(
            f"rho_b0 = {rho_b0:.6g} is not below sqrt(2 rho_plus**gamma) = {law.existence_bound:.6g}, "
            "the steepest slope of an orbit toward the vacuum"
        )
    near, far = rho_plus, rho_plus * (1.125 if upward else 0.875)
    factor = 2.0 if upward else 0.5
    while abs(_manifold_slope(law, far)) < target:
        if not upward and far < ROOT_TOL:
            raise RangeError(
                f"rho_- < {far:.3e} lies within the {ROOT_TOL:g} bisection tolerance of the vacuum: "
                "rho_b0 is too close to sqrt(2 rho_plus**gamma)"
            )
        far *= factor
    for _ in range(200):
        mid = 0.5 * (near + far)
        if abs(_manifold_slope(law, mid)) < target:
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
    if not np.isfinite(_manifold_slope(law, far)):
        raise RangeError(f"2 W(rho_-) overflows before the slope reaches rho_b0 = {rho_b0:.3e}")
    return root


def _blockwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` applied to each block of at most ``_CHUNK`` entries of ``x``, joined.

    ``fn`` acts on each entry alone, so the blocks change no value, only the size of its temporaries.
    """
    out = np.empty(x.size)
    for lo in range(0, x.size, _CHUNK):
        out[lo : lo + _CHUNK] = fn(x[lo : lo + _CHUNK])
    return out


def _geometric(a: float, b: float, octave: float) -> np.ndarray:
    """Points from ``a`` to ``b``, ``PANELS_PER_OCTAVE * octave`` panels per factor of 2."""
    count = max(math.ceil(PANELS_PER_OCTAVE * octave * abs(math.log2(b / a))), 1)
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

    def __init__(self, law: PressureLaw, rho_minus: float, switch: float):
        self.law, rho_plus = law, law.rho_plus
        sign = math.copysign(1.0, rho_minus - rho_plus)
        d_minus = abs(rho_minus - rho_plus)
        if sign > 0.0:
            with np.errstate(divide="ignore"):  # inf at gamma = 1, where nothing outgrows the pole
                d_cross, far_octave = float(np.float64(rho_plus) / (law.gamma - 1.0)), law.gamma
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
        return half * ((1.0 / _manifold_slope(self.law, x)) @ _GAUSS_W)

    def invert(self, y: np.ndarray) -> np.ndarray:
        """``rho`` with ``y(rho) = y`` for each ``y`` in ``[0, y_ends[-1]]``.

        Newton on ``y_ends[j] + int_{ends[j]}^{rho} dx/s(x) = y`` from the
        panel end ``j`` below ``y``, starting at the first-order step.
        """
        return _blockwise(self._invert_block, y)

    def _invert_block(self, y: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.y_ends, y, side="right") - 1
        start, gap = self.ends[j], y - self.y_ends[j]
        rho = start + _manifold_slope(self.law, start) * gap
        for _ in range(NEWTON_STEPS):
            defect = self._integral(start, rho) - gap
            rho = rho - defect * _manifold_slope(self.law, rho)
        return rho


@dataclass
class LimitProfile:
    """Sampled limit profile with an exact exponential tail extension."""

    y_nodes: np.ndarray
    rho_bar: np.ndarray
    rho_bar_y: np.ndarray
    rho_minus_limit: float
    law: PressureLaw
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
        ya = np.asarray(y, dtype=float)
        out = np.full(ya.shape, self.law.rho_plus)
        inside = ya <= self.tail_start
        if np.any(inside) and self.y_nodes.size >= 2:
            out[inside] = self._hermite(np.clip(ya[inside], self.y_nodes[0], None))
        beyond = ~inside
        if np.any(beyond):
            out[beyond] = self.law.rho_plus + self.tail_amplitude * np.exp(
                -self.tail_rate * (ya[beyond] - self.tail_start)
            )
        return out[()]

    def slope(self, y) -> np.ndarray:
        """``rho_bar_y(y)`` from the stable-manifold relation at ``rho_bar(y)``."""
        return _manifold_slope(self.law, self.evaluate(y))


def integrate_profile(
    law: PressureLaw,
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
    if not y_max > 0.0:  # also NaN
        raise DomainError("y_max must be positive")
    rho_plus = law.rho_plus
    rho_minus = solve_rho_minus(law, rho_b0)
    with np.errstate(over="ignore"):
        rate = math.sqrt(law.h_prime(rho_plus))
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
            law=law,
            tail_start=0.0,
            tail_amplitude=0.0,
            tail_rate=rate,
        )

    y_switch, amp = 0.0, rho_minus - rho_plus
    y_q = rho_q = np.empty(0)
    switch = max(TAIL_SWITCH, 65536.0 * math.ulp(rho_plus))
    if abs(amp) > switch:  # otherwise rho_- already lies on the linearized tail
        first = _FirstIntegral(law, rho_minus, switch)
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
        rho_bar_y=_blockwise(lambda rho: _manifold_slope(law, rho), rho_all),
        rho_minus_limit=rho_minus,
        law=law,
        tail_start=y_switch,
        tail_amplitude=amp,
        tail_rate=rate,
    )
