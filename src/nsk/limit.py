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
    x_2 = -\operatorname{sgn}(x_1 - \rho_+)\sqrt{2 W(x_1)},

which turns the BVP into a scalar IVP: the boundary value ``rho_-`` is the
root of the manifold relation at slope ``rho_b^0`` (bisection), and the
profile follows by integrating the reduced first-order ODE.  Close to the
equilibrium the integration hands over to the exact linearized tail
``rho_+ + a e^{-\sqrt{h'(\rho_+)} y}``, which also extends evaluation to
arbitrarily large ``y``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .bessel import check_finite
from .errors import DomainError, NoRootError, RangeError, SolverError
from .kernel import check_pressure_law, enthalpy_h_prime

__all__ = [
    "LimitProfile",
    "potential_w",
    "solve_rho_minus",
    "integrate_profile",
]

TAIL_SWITCH = 1e-8  # hand over to the linearized tail below this amplitude
PROFILE_FLOOR = 1e-14  # stored samples stop once the profile is this flat
STEP_CONTROL = 1e-12  # local RK45 tolerance
BRACKET_FACTOR = 1e6  # rho_- is sought in [rho_+/BRACKET_FACTOR, rho_+ * BRACKET_FACTOR]


def potential_w(gamma: float, rho_plus: float, x):
    r"""``W(x) = \int_{\rho_+}^x (h(t) - h(\rho_+)) dt`` in closed form.

    ``x log(x/\rho_+) - (x - \rho_+)`` for ``gamma = 1`` and
    ``\frac{\gamma}{\gamma-1}[(x^\gamma - \rho_+^\gamma)/\gamma
    - \rho_+^{\gamma-1}(x - \rho_+)]`` otherwise; evaluated through
    ``log1p``/``expm1`` so the quadratic vanishing at ``rho_+`` survives
    cancellation.  ``W`` may overflow to ``inf`` far from ``rho_+``; a
    pressure scale ``rho_+^gamma`` beyond the double range raises
    ``RangeError``.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise DomainError("x must be positive")
    d = xa / rho_plus - 1.0
    if gamma == 1.0:
        out = rho_plus * ((1.0 + d) * np.log1p(d) - d)
    else:
        with np.errstate(over="ignore"):
            scale = check_finite(np.float64(rho_plus) ** gamma, "rho_plus**gamma")
            tpow = np.expm1(gamma * np.log1p(d))  # (x/rho_+)^gamma - 1
            out = scale * (gamma / (gamma - 1.0)) * (tpow / gamma - d)
    return float(out) if np.ndim(x) == 0 else out


def _manifold_slope(gamma: float, rho_plus: float, x) -> np.ndarray:
    """``-sgn(x - rho_+) sqrt(2 W(x))``, the stable-manifold slope at each ``x``."""
    x = np.asarray(x, dtype=float)
    w = np.maximum(potential_w(gamma, rho_plus, x), 0.0)
    return -np.sign(x - rho_plus) * np.sqrt(2.0 * w)


def solve_rho_minus(gamma: float, rho_plus: float, rho_b0: float) -> float:
    """Boundary value ``rho_-``: root of ``-sgn(x-rho_+) sqrt(2W(x)) = rho_b0``.

    Bisection to absolute tolerance 1e-13 between ``near = rho_+``, where
    the slope vanishes, and a ``far`` end that is first moved away from
    ``rho_+`` (upward for ``rho_b0 < 0``, toward vacuum otherwise) until its
    slope reaches ``|rho_b0|``; if the requested slope exceeds the
    attainable range before the bracket cap, there is no connecting orbit
    and ``NoRootError`` is raised.
    """
    if rho_b0 == 0.0:
        return rho_plus
    target = abs(rho_b0)
    upward = rho_b0 < 0.0  # the profile lies above rho_+
    near, far = rho_plus, rho_plus * (1.125 if upward else 0.875)
    factor = 2.0 if upward else 0.5
    while abs(_manifold_slope(gamma, rho_plus, far)) < target:
        far *= factor
        if not rho_plus / BRACKET_FACTOR <= far <= rho_plus * BRACKET_FACTOR:
            raise NoRootError(f"rho_b0 = {rho_b0:.3e} exceeds the slope range of the stable manifold")
    for _ in range(200):
        mid = 0.5 * (near + far)
        if abs(_manifold_slope(gamma, rho_plus, mid)) < target:
            near = mid
        else:
            far = mid
        if abs(far - near) <= 1e-13:
            break
    if near == rho_plus:
        # the bracket never came off rho_plus: the root is not resolved
        raise RangeError(
            "rho_- lies within the 1e-13 bisection tolerance of rho_plus: "
            "|rho_b0| is too small for the tail rate sqrt(h'(rho_plus))"
        )
    return 0.5 * (near + far)


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

    @cached_property
    def _interp(self) -> PchipInterpolator | None:
        if self.y_nodes.size < 2:
            return None
        return PchipInterpolator(self.y_nodes, self.rho_bar, extrapolate=False)

    def evaluate(self, y) -> np.ndarray:
        """``rho_bar(y)`` for any ``y >= 0`` (tail formula beyond the samples)."""
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.full(ya.shape, self.rho_plus)
        inside = ya <= self.tail_start
        if np.any(inside) and self._interp is not None:
            out[inside] = self._interp(np.clip(ya[inside], self.y_nodes[0], None))
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
    """Integrate the reduced ODE ``rho_y = -sgn(rho-rho_+) sqrt(2W(rho))``.

    Adaptive embedded Runge-Kutta (RK45) from ``rho(0) = rho_-`` with local
    tolerance ``STEP_CONTROL``; once ``|rho - rho_+|`` drops below the
    handover threshold the exact linearized tail continues the profile (from
    ``y = 0`` when ``rho_-`` already lies below it).  Stored samples stop at ``y_max > 0`` or once the profile is flat to 1e-14.
    """
    check_pressure_law(gamma, rho_plus)
    if y_max <= 0.0:
        raise DomainError("y_max must be positive")
    rate = math.sqrt(enthalpy_h_prime(gamma, rho_plus))
    rho_minus = solve_rho_minus(gamma, rho_plus, rho_b0)
    dy = 0.002 / rate
    # The profile's slope peaks at |rho_b0| at the wall, so PCHIP's cubic
    # coefficients (slope differences over dy^2) are bounded by
    # 4 |rho_b0| / dy^2; refuse a sample spacing where that bound overflows.
    if dy < 2.0 * math.sqrt(abs(rho_b0) / sys.float_info.max):
        raise RangeError(
            f"tail rate sqrt(h'(rho_plus)) = {rate:.3e} is too large to sample a "
            f"profile of boundary slope {rho_b0:.3e}"
        )
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
    y_rk = rho_rk = np.empty(0)
    if abs(amp) > TAIL_SWITCH:  # otherwise rho_- already lies on the linearized tail
        # RK45 squares slopes (at most |rho_b0|, and stage differences of
        # them) in units of its tolerance STEP_CONTROL |amp|; keep that finite.
        if 4.0 * abs(rho_b0) > math.sqrt(sys.float_info.max) * STEP_CONTROL * abs(amp):
            raise RangeError(
                f"boundary slope {rho_b0:.3e} is too steep for the step control "
                f"at amplitude rho_- - rho_plus = {amp:.3e}"
            )

        def near_equilibrium(_y, u):
            return abs(u[0] - rho_plus) - TAIL_SWITCH

        near_equilibrium.terminal = True
        near_equilibrium.direction = -1

        try:
            sol = solve_ivp(
                lambda _y, u: _manifold_slope(gamma, rho_plus, u),
                (0.0, y_max),
                [rho_minus],
                method="RK45",
                rtol=STEP_CONTROL,
                atol=STEP_CONTROL * abs(amp) + 1e-300,
                events=near_equilibrium,
                dense_output=True,
                max_step=0.25 / rate,
            )
        except DomainError as exc:  # a trial stage stepped past the vacuum rho = 0
            raise RangeError(
                f"boundary slope rho_b0 = {rho_b0:.3e} is too steep: an RK45 stage "
                "left the positive density range"
            ) from exc
        if not sol.success:
            raise SolverError(f"profile integration failed: {sol.message}")
        y_switch = float(sol.t[-1])
        amp = float(sol.y[0, -1]) - rho_plus
        y_rk = np.arange(0.0, y_switch, dy)
        rho_rk = sol.sol(y_rk)[0] if y_rk.size else np.empty(0)
    # analytic tail continues down to the sample floor (or y_max)
    y_floor = y_switch + math.log(abs(amp) / PROFILE_FLOOR) / rate
    y_end = min(y_max, max(y_floor, y_switch))
    # a single sample when the integration reached y_max before the handover
    count = max(int((y_end - y_switch) / dy), 2) if y_end > y_switch else 1
    y_tail = np.linspace(y_switch, y_end, count)
    rho_tail = rho_plus + amp * np.exp(-rate * (y_tail - y_switch))

    y_all = np.concatenate([y_rk, y_tail])
    rho_all = np.concatenate([rho_rk, rho_tail])
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

