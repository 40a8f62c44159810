r"""Linearized operator data: enthalpy, lifting function, and Green kernel.

Linearizing the stationary density equation about the far-field state
``rho_plus`` produces the radial modified Helmholtz operator

.. math::
    \phi_{rr} + \frac{n-1}{r}\phi_r - \alpha^2 \phi, \qquad
    \alpha = \sqrt{h'(\rho_+)/\kappa},

with the enthalpy ``h`` of the polytropic pressure ``P(rho) = rho^gamma``.
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
``e^{-\alpha(r-1)}``), every Bessel value through :mod:`nsk.bessel`;
:func:`_branches` combines them for the pointwise functions here;
:mod:`nsk.operators` folds the same factors into its quadrature.  Both
exponents ``-alpha|r-s|`` and ``-alpha(r+s-2)`` are nonpositive on
``r, s >= 1``, so nothing overflows even for ``alpha ~ 1e3``.

``\partial_r G`` is discontinuous across the diagonal; the one-sided values
are exposed separately and their jump is ``1/r^{n-1}`` (the variation-of-
parameters normalization, verified in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bessel import BesselOrder, bessel_ik_scaled, check_finite
from .errors import ConfigError, DomainError, RangeError

__all__ = [
    "ModelParams",
    "KernelParams",
    "check_pressure_law",
    "enthalpy_h",
    "enthalpy_h_prime",
    "kernel_params",
    "KernelFactors",
    "lifting_phi_b",
    "green",
    "green_dr",
    "green_dr_left",
    "green_dr_right",
]

IMPERMEABLE = "impermeable"
INFLOW = "inflow"
OUTFLOW = "outflow"


def check_pressure_law(gamma: float, rho_plus: float) -> None:
    """Domain of the polytropic law ``P = rho^gamma`` about the far field: ``gamma >= 1``, ``rho_plus > 0``."""
    if gamma < 1.0:
        raise ConfigError("gamma must be >= 1")
    if rho_plus <= 0.0:
        raise ConfigError("rho_plus must be positive")


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
        for name in ("n", "gamma", "kappa", "mu", "rho_plus", "rho_b", "u_minus"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        check_pressure_law(self.gamma, self.rho_plus)
        if self.kappa <= 0.0:
            raise ConfigError("kappa must be positive")
        if self.mu < 0.0:
            raise ConfigError("mu must be >= 0")

    @property
    def regime(self) -> str:
        if self.u_minus == 0.0:
            return IMPERMEABLE
        return INFLOW if self.u_minus > 0.0 else OUTFLOW


@dataclass(frozen=True)
class KernelParams:
    """Derived kernel data: order ``nu = (n-2)/2`` and ``alpha``."""

    nu: BesselOrder
    alpha: float

    @cached_property
    def wall(self) -> "KernelFactors":
        """The kernel factors at ``r = 1``."""
        return KernelFactors(self, 1.0)

    @property
    def c2(self) -> float:
        """Reflection coefficient ``\\hat I_{nu+1}(alpha)/\\hat K_{nu+1}(alpha)``."""
        return self.wall.iv1 / self.wall.kv1


def enthalpy_h(gamma: float, rho) -> float | np.ndarray:
    """Enthalpy ``h(rho)``: primitive of ``P'(rho)/rho`` for ``P = rho^gamma``.

    ``gamma/(gamma-1) * rho^(gamma-1)`` for ``gamma > 1`` and ``log rho`` for
    ``gamma = 1``; strictly increasing either way.
    """
    ra = np.asarray(rho, dtype=float)
    if np.any(ra <= 0.0):
        raise DomainError("rho must be positive")
    if gamma == 1.0:
        out = np.log(ra)
    else:
        out = (gamma / (gamma - 1.0)) * ra ** (gamma - 1.0)
    return float(out) if np.ndim(rho) == 0 else out


def enthalpy_h_prime(gamma: float, rho) -> float | np.ndarray:
    """``h'(rho) = gamma * rho^(gamma-2)``."""
    ra = np.asarray(rho, dtype=float)
    if np.any(ra <= 0.0):
        raise DomainError("rho must be positive")
    out = gamma * ra ** (gamma - 2.0)
    return float(out) if np.ndim(rho) == 0 else out


def kernel_params(params: ModelParams) -> KernelParams:
    """``alpha = sqrt(h'(rho_plus)/kappa)`` and ``nu = (n-2)/2``."""
    alpha = math.sqrt(enthalpy_h_prime(params.gamma, params.rho_plus) / params.kappa)
    return KernelParams(nu=BesselOrder.from_dimension(params.n), alpha=alpha)


class KernelFactors:
    """Per-radius factors of the scaled kernel at radii ``x >= 1``: ``x^{-nu}``,
    ``e^{-alpha(x-1)}`` and ``\\hat I_nu``, ``\\hat K_nu``, ``\\hat I_{nu+1}``,
    ``\\hat K_{nu+1}`` at ``alpha x``, from one Bessel evaluation, each checked
    finite in that order (``K_{nu+1} > K_nu``, so where both overflow the
    error names the order nu)."""

    def __init__(self, kp: KernelParams, x):
        x = np.asarray(x, dtype=float)
        if (x < 1.0).any():
            raise DomainError("radii must be >= 1")
        with np.errstate(over="ignore"):
            ax = kp.alpha * x
        if not np.isfinite(ax).all():
            raise RangeError("alpha * r is beyond the double range")
        self.x = x
        self.rp = x ** (-kp.nu.nu)
        self.e2 = np.exp(-kp.alpha * (x - 1.0))
        names = ("scaled I_nu", "scaled K_nu", "scaled I_{nu+1}", "scaled K_{nu+1}")
        self.iv, self.kv, self.iv1, self.kv1 = map(check_finite, bessel_ik_scaled(kp.nu, ax), names)


def _branches(kp: KernelParams, f: KernelFactors, i, j, lower):
    """``(G, dG/dr) (x_i x_j)^nu`` at index pairs ``(i, j)`` of the table ``f``.

    Where ``lower`` the ``s <= r`` branch, else the ``r <= s`` one; ``lower``
    must hold where ``x_j < x_i`` and fail where ``x_j > x_i``.
    """
    a = kp.alpha
    c2 = kp.c2
    mn, mx = np.where(lower, j, i), np.where(lower, i, j)
    e1 = np.exp(-a * (f.x[mx] - f.x[mn]))
    e12 = f.e2[i] * f.e2[j]
    g = -(f.iv[mn] * f.kv[mx] * e1 + c2 * f.kv[i] * f.kv[j] * e12)
    gdr = a * (np.where(lower, f.kv1[i] * f.iv[j], -f.iv1[i] * f.kv[j]) * e1 + c2 * f.kv1[i] * f.kv[j] * e12)
    return g, gdr


def lifting_phi_b(kp: KernelParams, rho_b: float, r):
    r"""Lifting function absorbing the Neumann data, and its r-derivative.

    .. math::
        \phi_b(r) = -\frac{\rho_b}{\alpha K_{\nu+1}(\alpha)} r^{-\nu} K_\nu(\alpha r),

    a decaying homogeneous solution with ``\phi_b'(1) = \rho_b`` exactly.
    Evaluated in scaled form:
    ``\phi_b = -(\rho_b/\alpha) r^{-\nu} (\hat K_\nu(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``
    and ``\phi_b' = \rho_b r^{-\nu} (\hat K_{\nu+1}(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``.
    """
    f = KernelFactors(kp, r)
    a = kp.alpha
    khat_den = kp.wall.kv1
    val = -(rho_b / a) * f.rp * (f.kv / khat_den) * f.e2
    der = rho_b * f.rp * (f.kv1 / khat_den) * f.e2
    if np.ndim(r) == 0:
        return float(val), float(der)
    return val, der


def _at(kp: KernelParams, r, s, lower):
    """``(G, dG/dr)`` at broadcast ``(r, s)`` on the branch ``lower``, from one
    factor table over the distinct radii; floats for scalar ``r`` and ``s``."""
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    x, idx = np.unique(np.stack([r, s]), return_inverse=True)
    i, j = idx.reshape((2,) + r.shape)
    f = KernelFactors(kp, x)
    g, gdr = _branches(kp, f, i, j, lower)
    rp2 = f.rp[i] * f.rp[j]
    if r.ndim == 0:
        return float(g * rp2), float(gdr * rp2)
    return g * rp2, gdr * rp2


def green(kp: KernelParams, r, s) -> float | np.ndarray:
    """Green function ``G(r,s)`` of the radial modified Helmholtz operator.

    Symmetric, strictly negative, with homogeneous Neumann data at ``r=1``.
    ``r`` and ``s`` broadcast; scalars give a float.
    """
    return _at(kp, r, s, np.greater_equal(r, s))[0]


def green_dr_right(kp: KernelParams, r, s) -> float | np.ndarray:
    """One-sided ``d G/d r`` using the ``s <= r`` branch (limit from r > s)."""
    if np.any(np.greater(s, r)):
        raise DomainError("right-sided derivative requires s <= r")
    return _at(kp, r, s, True)[1]


def green_dr_left(kp: KernelParams, r, s) -> float | np.ndarray:
    """One-sided ``d G/d r`` using the ``r <= s`` branch (limit from r < s)."""
    if np.any(np.greater(r, s)):
        raise DomainError("left-sided derivative requires r <= s")
    return _at(kp, r, s, False)[1]


def green_dr(kp: KernelParams, r, s) -> float | np.ndarray:
    """``d G/d r`` away from the diagonal.

    The derivative jumps by ``1/r^{n-1}`` across ``s = r``; call
    ``green_dr_right`` / ``green_dr_left`` for the one-sided values there.
    """
    if np.any(np.equal(r, s)):
        raise DomainError("dG/dr is discontinuous at r == s; use green_dr_left/right")
    return _at(kp, r, s, np.greater(r, s))[1]
