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

with ``m = \min(r,s)``, ``M = \max(r,s)``.  Internally a value is a
(mantissa, exponent-of-e) pair - the mantissa is the bracketed hat product,
the exponent is ``-alpha|r-s|`` resp. ``-alpha(r+s-2)`` - collapsed to a
float only in the final expression.  Both exponents are nonpositive on
``r, s >= 1``, so the collapse never overflows even for ``alpha ~ 1e3``.

``\partial_r G`` is discontinuous across the diagonal; the one-sided values
are exposed separately and their jump is ``1/r^{n-1}`` (the variation-of-
parameters normalization, verified in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .bessel import BesselOrder, check_finite
from .errors import ConfigError, DomainError

__all__ = [
    "ModelParams",
    "KernelParams",
    "check_pressure_law",
    "enthalpy_h",
    "enthalpy_h_prime",
    "kernel_params",
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

    @property
    def n(self) -> int:
        return self.nu.two_nu + 2

    @property
    def c2(self) -> float:
        """Reflection coefficient ``\\hat I_{nu+1}(alpha)/\\hat K_{nu+1}(alpha)``."""
        v = self.nu.nu + 1.0
        return _sp.ive(v, self.alpha) / _sp.kve(v, self.alpha)


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


def lifting_phi_b(kp: KernelParams, rho_b: float, r):
    r"""Lifting function absorbing the Neumann data, and its r-derivative.

    .. math::
        \phi_b(r) = -\frac{\rho_b}{\alpha K_{\nu+1}(\alpha)} r^{-\nu} K_\nu(\alpha r),

    a decaying homogeneous solution with ``\phi_b'(1) = \rho_b`` exactly.
    Evaluated in scaled form:
    ``\phi_b = -(\rho_b/\alpha) r^{-\nu} (\hat K_\nu(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``
    and ``\phi_b' = \rho_b r^{-\nu} (\hat K_{\nu+1}(\alpha r)/\hat K_{\nu+1}(\alpha)) e^{-\alpha(r-1)}``.
    """
    ra = np.asarray(r, dtype=float)
    if np.any(ra < 1.0):
        raise DomainError("radius r must be >= 1")
    if rho_b == 0.0:
        z = np.zeros_like(ra)
        if np.ndim(r) == 0:
            return 0.0, 0.0
        return z, z.copy()
    a = kp.alpha
    v = kp.nu.nu
    khat_den = _sp.kve(v + 1.0, a)
    decay = np.exp(-a * (ra - 1.0))
    rp = ra ** (-v)
    val = -(rho_b / a) * rp * (_sp.kve(v, a * ra) / khat_den) * decay
    der = rho_b * rp * (_sp.kve(v + 1.0, a * ra) / khat_den) * decay
    if np.ndim(r) == 0:
        return float(val), float(der)
    return val, der


def _check_rs(r: float, s: float) -> None:
    if r < 1.0 or s < 1.0:
        raise DomainError("radii must be >= 1")


def green(kp: KernelParams, r: float, s: float) -> float:
    """Green function ``G(r,s)`` of the radial modified Helmholtz operator.

    Symmetric, strictly negative, with homogeneous Neumann data at ``r=1``.
    """
    _check_rs(r, s)
    a = kp.alpha
    v = kp.nu.nu
    lo, hi = (s, r) if r >= s else (r, s)
    t1 = _sp.ive(v, a * lo) * _sp.kve(v, a * hi) * math.exp(-a * (hi - lo))
    t2 = kp.c2 * _sp.kve(v, a * r) * _sp.kve(v, a * s) * math.exp(-a * (r + s - 2.0))
    return check_finite(-((r * s) ** (-v)) * (t1 + t2), "G(r, s)")


def green_dr_right(kp: KernelParams, r: float, s: float) -> float:
    """One-sided ``d G/d r`` using the ``s <= r`` branch (limit from r > s)."""
    _check_rs(r, s)
    if s > r:
        raise DomainError("right-sided derivative requires s <= r")
    a = kp.alpha
    v = kp.nu.nu
    e1 = math.exp(-a * (r - s))
    e2 = math.exp(-a * (r + s - 2.0))
    kvp1_r = _sp.kve(v + 1.0, a * r)
    return check_finite(
        a
        * ((r * s) ** (-v))
        * (_sp.ive(v, a * s) * kvp1_r * e1 + kp.c2 * _sp.kve(v, a * s) * kvp1_r * e2),
        "dG/dr",
    )


def green_dr_left(kp: KernelParams, r: float, s: float) -> float:
    """One-sided ``d G/d r`` using the ``r <= s`` branch (limit from r < s)."""
    _check_rs(r, s)
    if r > s:
        raise DomainError("left-sided derivative requires r <= s")
    a = kp.alpha
    v = kp.nu.nu
    e1 = math.exp(-a * (s - r))
    e2 = math.exp(-a * (r + s - 2.0))
    kv_s = _sp.kve(v, a * s)
    return check_finite(
        -a
        * ((r * s) ** (-v))
        * (_sp.ive(v + 1.0, a * r) * kv_s * e1 - kp.c2 * _sp.kve(v + 1.0, a * r) * kv_s * e2),
        "dG/dr",
    )


def green_dr(kp: KernelParams, r: float, s: float) -> float:
    """``d G/d r`` away from the diagonal.

    The derivative jumps by ``1/r^{n-1}`` across ``s = r``; call
    ``green_dr_right`` / ``green_dr_left`` for the one-sided values there.
    """
    if r == s:
        raise DomainError("dG/dr is discontinuous at r == s; use green_dr_left/right")
    return green_dr_right(kp, r, s) if r > s else green_dr_left(kp, r, s)
