r"""Linearized operator data: pressure law, lifting function, and Green kernel.

Linearizing the stationary density equation about the far-field state
``rho_plus`` produces the radial modified Helmholtz operator

.. math::
    \phi_{rr} + \frac{n-1}{r}\phi_r - \alpha^2 \phi, \qquad
    \alpha = \sqrt{h'(\rho_+)/\kappa},

with the enthalpy ``h`` of the polytropic pressure ``P(rho) = rho^gamma``
(:class:`PressureLaw`).  The law exposes ``h`` only through differences
(``dh = h(rho) - h(rho_+)``, the pressure remainder and ``W``), built from one
expm1/log1p form, ``_log_power``, whose ``log1p`` limit is the package's one
``gamma = 1`` branch.  ``alpha`` has one source, :attr:`ModelParams.alpha`;
everything below the model depends on it only through ``n`` and ``alpha``.
Neumann data ``phi_r(1) = rho_b`` is absorbed by an explicit decaying
homogeneous solution (the lifting function), and the remaining problem with
homogeneous boundary data is inverted by the Green function

.. math::
    G(r,s) = -\frac{1}{K_{\nu+1}(\alpha)\, r^\nu s^\nu}
    \begin{cases}
        \bigl(K_{\nu+1}(\alpha) I_\nu(\alpha s) + I_{\nu+1}(\alpha) K_\nu(\alpha s)\bigr) K_\nu(\alpha r), & s \le r,\\
        \bigl(K_{\nu+1}(\alpha) I_\nu(\alpha r) + I_{\nu+1}(\alpha) K_\nu(\alpha r)\bigr) K_\nu(\alpha s), & r \le s,
    \end{cases}

with ``nu = (n-2)/2``.  Every evaluation here is done in exponentially
scaled form: writing ``\hat I = e^{-x} I`` and ``\hat K = e^{x} K`` and
pulling the exponentials out gives the overflow-free representation

.. math::
    G(r,s) = -(rs)^{-\nu}\Bigl[\hat I_\nu(\alpha m)\hat K_\nu(\alpha M)
        e^{-\alpha|r-s|}
        + c_2\, \hat K_\nu(\alpha r)\hat K_\nu(\alpha s) e^{-\alpha(r+s-2)}\Bigr],
    \qquad c_2 = \frac{\hat I_{\nu+1}(\alpha)}{\hat K_{\nu+1}(\alpha)},

with ``m = \min(r,s)``, ``M = \max(r,s)``.  :class:`KernelFactors` holds
the per-radius factors (the four hat values, ``r^{-\nu}`` and
``e^{-\alpha(r-1)}``), every Bessel value through :mod:`nsk.bessel`.
Every table starts at the wall ``r = 1``: its row 0 gives ``c_2`` and the
lifting's ``\hat K_{\nu+1}(\alpha)``, so no value has a second source.
:func:`green` combines the factors at points ``(r, s)``;
:mod:`nsk.operators` folds the same factors into its quadrature.  Both
exponents ``-alpha|r-s|`` and ``-alpha(r+s-2)`` are nonpositive on
``r, s >= 1``, so nothing overflows even for ``alpha ~ 1e3``.

``\partial_r G`` is discontinuous across the diagonal: :func:`green` returns
both one-sided values, equal off the diagonal, and their jump at ``r = s`` is
``1/r^{n-1}`` (the variation-of-parameters normalization, verified in the
test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .bessel import BesselOrder, bessel_ik_scaled, check_finite
from .errors import ConfigError, DomainError, PositivityError, RangeError

__all__ = [
    "PressureLaw",
    "ModelParams",
    "KernelFactors",
    "lifting_phi_b",
    "green",
]

IMPERMEABLE = "impermeable"
INFLOW = "inflow"
OUTFLOW = "outflow"
# W by its Taylor series where |x/rho_+ - 1| max(1, gamma) is below this: each
# term is at most a tenth of the one before, and 20 reach below roundoff
TAYLOR_MAX = 0.1
TAYLOR_TERMS = 20


@dataclass(frozen=True)
class PressureLaw:
    """The polytropic law ``P = rho^gamma`` about the far-field density ``rho_plus``: finite
    ``gamma >= 1`` and ``rho_plus > 0``, else ``ConfigError``.  It owns the enthalpy difference
    ``dh``, ``h'``, the pressure remainder, the limit potential ``W`` and its existence bound;
    the first, the remainder and ``W`` share one expm1/log1p form, :meth:`_log_power`."""

    gamma: float
    rho_plus: float

    def __post_init__(self) -> None:
        for name in ("gamma", "rho_plus"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.gamma >= 1.0:
            raise ConfigError("gamma must be >= 1")
        if not self.rho_plus > 0.0:
            raise ConfigError("rho_plus must be positive")

    def _log_power(self, d):
        """``((1+d)^(gamma-1) - 1)/(gamma-1)`` as ``expm1((gamma-1) log1p(d))/(gamma-1)``, which
        keeps full relative accuracy as gamma -> 1, and its limit ``log1p(d)`` at ``gamma = 1``:
        the law's one gamma = 1 branch.  Every enthalpy difference is ``gamma rho_+^(gamma-1)``
        times this at ``d = rho/rho_+ - 1``."""
        if self.gamma == 1.0:
            return np.log1p(d)
        return np.expm1((self.gamma - 1.0) * np.log1p(d)) / (self.gamma - 1.0)

    @cached_property
    def _h_scale(self) -> float:
        """``gamma rho_+^(gamma-1) = rho_+ h'(rho_+)``, the scale of ``dh`` and the remainder."""
        with np.errstate(over="ignore"):
            return float(self.gamma * np.float64(self.rho_plus) ** (self.gamma - 1.0))

    def dh(self, rho) -> float | np.ndarray:
        """Enthalpy difference ``h(rho) - h(rho_+)``, with ``h = gamma/(gamma-1) rho^(gamma-1)``
        for ``gamma > 1`` and ``log rho`` for ``gamma = 1``; strictly increasing either way."""
        ra = np.asarray(rho, dtype=float)
        if np.any(ra <= 0.0):
            raise DomainError("rho must be positive")
        return self._h_scale * self._log_power(ra / self.rho_plus - 1.0)

    def h_prime(self, rho) -> float | np.ndarray:
        """``h'(rho) = gamma * rho^(gamma-2)``."""
        ra = np.asarray(rho, dtype=float)
        if np.any(ra <= 0.0):
            raise DomainError("rho must be positive")
        return self.gamma * ra ** (self.gamma - 2.0)

    def remainder(self, phi) -> float | np.ndarray:
        """Pressure remainder ``h(phi+rho_+) - h(rho_+) - h'(rho_+) phi``: ``O(phi^2)``, and
        identically zero for ``gamma = 2`` where ``h`` is affine.  With ``d = phi/rho_+`` it is
        ``gamma rho_+^(gamma-1) (_log_power(d) - d)``, so no two ``O(1)`` enthalpies cancel."""
        pa = np.asarray(phi, dtype=float)
        if np.any(pa + self.rho_plus <= 0.0):
            raise PositivityError("phi + rho_plus must stay positive")
        d = pa / self.rho_plus
        return self._h_scale * (self._log_power(d) - d)

    @cached_property
    def _scale(self) -> float:
        """``rho_+^gamma``, the scale of ``W``, or ``RangeError`` where it leaves the doubles."""
        with np.errstate(over="ignore"):
            scale = check_finite(np.float64(self.rho_plus) ** self.gamma, "rho_plus**gamma")
        if scale == 0.0:
            raise RangeError("rho_plus**gamma underflows to 0")
        return scale

    @cached_property
    def _taylor(self) -> tuple:
        """``b_j = prod_{k=2}^{j+1} (gamma - k)/(g (k + 1))``, ``g = max(1, gamma)``: the series of ``W``."""
        g = max(1.0, self.gamma)
        coef = [1.0]
        for k in range(2, TAYLOR_TERMS + 1):
            coef.append(coef[-1] * (self.gamma - k) / (g * (k + 1)))
        return tuple(coef)

    @cached_property
    def existence_bound(self) -> float:
        """``sqrt(2 rho_+^gamma)``: a limit profile toward the vacuum exists exactly for ``rho_b0`` below it."""
        with np.errstate(over="ignore"):
            return math.sqrt(2.0 * self._scale)

    def w(self, x):
        r"""``W(x) = \int_{\rho_+}^x (h(t) - h(\rho_+)) dt`` in closed form.

        With ``d = x/rho_+ - 1`` it is ``rho_+^gamma [(1+d) e - d]``, where
        ``e = _log_power(d)``, so the cancellation does not grow as gamma -> 1.  The form
        subtracts O(d) terms to leave an O(d^2) result, so where ``|d| max(1,
        gamma) <= TAYLOR_MAX`` the Taylor series ``rho_+^gamma sum_k gamma
        (gamma-2)...(gamma-k+1) d^k/k!`` from ``k = 2`` replaces it and keeps full
        relative accuracy.  Where ``x/rho_+`` rounds to 0 it gives the vacuum value
        ``rho_+^gamma`` (``0 log 0 = 0`` for ``gamma = 1``).  ``W`` may overflow to
        ``inf`` far above ``rho_+``; a pressure scale ``rho_+^gamma`` that
        overflows or underflows to 0 raises ``RangeError``.
        """
        gamma = self.gamma
        xa = np.asarray(x, dtype=float)
        if np.any(xa <= 0.0):
            raise DomainError("x must be positive")
        d = xa / self.rho_plus - 1.0
        g = max(1.0, gamma)
        near = np.abs(d) * g <= TAYLOR_MAX
        far = ~near
        out = np.empty_like(d)
        with np.errstate(over="ignore"):
            scale = self._scale
            df = d[far]
            # (1 + d) e is 0 where d rounds to -1, not 0 * (-inf)
            e = self._log_power(np.where(df > -1.0, df, 0.0))
            out[far] = scale * ((1.0 + df) * e - df)
        # the closed forms cancel O(d) terms: next to rho_+ sum the Taylor series instead,
        # gamma d^2/2 sum_j b_j t^j in t = g d, with the coefficients b_j of _taylor
        if near.any():
            dn = d[near]
            t = g * dn
            acc = np.full_like(t, self._taylor[-1])
            for b in reversed(self._taylor[:-1]):
                acc *= t
                acc += b
            with np.errstate(over="ignore", invalid="ignore"):  # W beyond the doubles, as above
                out[near] = scale * (0.5 * gamma) * dn * dn * acc
        return out[()]


@dataclass(frozen=True)
class ModelParams:
    """Physical and boundary parameters of the stationary problem.

    ``u_minus`` classifies the regime: zero for the impermeable wall,
    positive for inflow, negative for outflow.
    """

    n: int
    gamma: float
    kappa: float
    mu: float
    rho_plus: float
    rho_b: float
    u_minus: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if not isinstance(self.n, (int, np.integer)):  # also 3.0: the Bessel order is stored as the int n - 2
            raise ConfigError("n must be an integer")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        self.law  # the law's constructor checks gamma and rho_plus
        if self.kappa <= 0.0:
            raise ConfigError("kappa must be positive")
        if self.mu < 0.0:
            raise ConfigError("mu must be >= 0")

    @cached_property
    def law(self) -> PressureLaw:
        """The pressure law ``P = rho^gamma`` about ``rho_plus``."""
        return PressureLaw(self.gamma, self.rho_plus)

    @cached_property
    def alpha(self) -> float:
        """``alpha = sqrt(h'(rho_plus)/kappa)``, the decay rate of the linearised wall solution and
        the inverse width of its boundary layer; ``RangeError`` unless ``0 < alpha < inf``."""
        with np.errstate(over="ignore"):
            alpha = math.sqrt(self.law.h_prime(self.rho_plus) / self.kappa)
        if not 0.0 < alpha < math.inf:
            raise RangeError(f"alpha = sqrt(h'(rho_plus)/kappa) = {alpha} is outside the double range")
        return alpha

    @property
    def regime(self) -> str:
        if self.u_minus == 0.0:
            return IMPERMEABLE
        return INFLOW if self.u_minus > 0.0 else OUTFLOW


class KernelFactors:
    """Per-radius factors of the scaled kernel in dimension ``n`` at the rate ``alpha``
    (kept as ``alpha``), at radii ``x >= 1``: ``x^{-nu}``, ``e^{-alpha(x-1)}`` and
    ``\\hat I_nu``, ``\\hat K_nu``, ``\\hat I_{nu+1}``, ``\\hat K_{nu+1}`` at
    ``alpha x``, from one Bessel evaluation, each checked finite in that order
    (``K_{nu+1} > K_nu``, so where both overflow the error names the order nu).
    ``x`` is 1-D and starts at the wall ``r = 1``, whose row gives the
    reflection coefficient ``c2``."""

    def __init__(self, n: int, alpha: float, x):
        x = np.asarray(x, dtype=float)
        if (x < 1.0).any():
            raise DomainError("radii must be >= 1")
        if x.ndim != 1 or x.size == 0 or x[0] != 1.0:
            raise DomainError("a factor table needs 1-D radii whose first is the wall r = 1")
        with np.errstate(over="ignore"):
            ax = alpha * x
        if not np.isfinite(ax).all():
            raise RangeError("alpha * r is beyond the double range")
        nu = BesselOrder(n - 2)
        self.alpha = alpha
        self.x = x
        self.rp = x ** (-nu.nu)
        self.e2 = np.exp(-alpha * (x - 1.0))
        names = ("scaled I_nu", "scaled K_nu", "scaled I_{nu+1}", "scaled K_{nu+1}")
        self.iv, self.kv, self.iv1, self.kv1 = map(check_finite, bessel_ik_scaled(nu, ax), names)
        self.c2 = self.iv1[0] / self.kv1[0]


def lifting_phi_b(rho_b: float, f: KernelFactors):
    r"""Lifting function absorbing the Neumann data, and its r-derivative, at the radii of ``f``.

    .. math::
        \phi_b(r) = -\frac{\rho_b}{\alpha K_{\nu+1}(\alpha)} r^{-\nu} K_\nu(\alpha r),

    a decaying homogeneous solution with ``\phi_b'(1) = \rho_b`` exactly.
    Evaluated in scaled form:
    ``\phi_b = -(\rho_b/\alpha) r^{-\nu} (\hat K_\nu(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``
    and ``\phi_b' = \rho_b r^{-\nu} (\hat K_{\nu+1}(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``,
    the denominator from the table's wall row.
    """
    khat_den = f.kv1[0]
    val = -(rho_b / f.alpha) * f.rp * (f.kv / khat_den) * f.e2
    der = rho_b * f.rp * (f.kv1 / khat_den) * f.e2
    return val, der


def green(n: int, alpha: float, r, s) -> tuple:
    """Green function ``G(r,s)`` of the radial modified Helmholtz operator in dimension ``n``,
    rate ``alpha``, with its one-sided r-derivatives: ``(G, dG_left, dG_right)``.

    ``G`` is symmetric, strictly negative, with homogeneous Neumann data at ``r=1``.
    ``dG_left`` is the limit of ``dG/dr`` from below ``r`` and ``dG_right`` from above;
    they agree off the diagonal, and at ``r = s`` right minus left is ``r^{1-n}``.
    ``r`` and ``s`` broadcast over one factor table of the radii ``[1, *r, *s]``,
    ``r`` and ``s`` unbroadcast.
    """
    f = KernelFactors(n, alpha, np.concatenate([[1.0], np.ravel(r), np.ravel(s)]))
    k = np.arange(1, f.x.size)  # the rows of r, then of s
    i, j = np.broadcast_arrays(k[: np.size(r)].reshape(np.shape(r)), k[np.size(r) :].reshape(np.shape(s)))
    a, c2 = f.alpha, f.c2
    lower = f.x[i] >= f.x[j]  # the s <= r branch; on the diagonal both branches give G
    mn, mx = np.where(lower, j, i), np.where(lower, i, j)
    e1 = np.exp(-a * (f.x[mx] - f.x[mn]))
    e12 = f.e2[i] * f.e2[j]
    g = -(f.iv[mn] * f.kv[mx] * e1 + c2 * f.kv[i] * f.kv[j] * e12)
    dr_lower = f.kv1[i] * f.iv[j] * e1  # dG/dr on the s <= r branch, less the reflected term
    dr_upper = -f.iv1[i] * f.kv[j] * e1  # and on the r <= s branch
    reflected = c2 * f.kv1[i] * f.kv[j] * e12
    left = a * (np.where(f.x[i] > f.x[j], dr_lower, dr_upper) + reflected)
    right = a * (np.where(lower, dr_lower, dr_upper) + reflected)
    rp2 = f.rp[i] * f.rp[j]
    return g * rp2, left * rp2, right * rp2
