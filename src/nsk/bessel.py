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
arguments in the hundreds, where the unscaled functions overflow.

The weighted basis functions

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

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, RangeError

__all__ = [
    "BesselOrder",
    "bessel_i",
    "bessel_k",
    "bessel_i_scaled",
    "bessel_k_scaled",
    "weighted_basis",
]


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

    @classmethod
    def from_dimension(cls, n: int) -> "BesselOrder":
        return cls(n - 2)

    def shifted(self, k: int = 1) -> "BesselOrder":
        """Order ``nu + k`` (used for the derivative identities)."""
        return BesselOrder(self.two_nu + 2 * k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BesselOrder({self.two_nu}/2)"


def _check_positive(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(~np.isfinite(x)):
        raise DomainError("argument x must be positive and finite")
    return x


def check_finite(val, what: str):
    """``val``, or ``RangeError`` if any entry is not finite (scaled scipy values are NaN past ~1e9)."""
    if np.any(~np.isfinite(val)):
        raise RangeError(f"{what} is not finite at this argument")
    return val


def _scalarize(x, val):
    return float(val) if np.isscalar(x) or np.ndim(x) == 0 else val


def bessel_i(order: BesselOrder, x) -> float | np.ndarray:
    """Modified Bessel function of the first kind, ``I_nu(x)``.

    Raises ``RangeError`` instead of returning ``inf`` once ``e^x`` leaves
    the double range (x around 710); use ``bessel_i_scaled`` there.
    """
    xa = _check_positive(x)
    val = _sp.iv(order.nu, xa)
    if np.any(~np.isfinite(val)):
        raise RangeError("I_nu overflow: argument beyond exponential range; use the scaled form")
    return _scalarize(x, val)


def bessel_k(order: BesselOrder, x) -> float | np.ndarray:
    """Modified Bessel function of the second kind, ``K_nu(x)``.

    Positive and strictly decreasing in ``x``.  Raises ``RangeError`` when
    ``e^{-x}`` underflows to zero; use ``bessel_k_scaled`` there.
    """
    xa = _check_positive(x)
    val = _sp.kv(order.nu, xa)
    if np.any(val == 0.0) or np.any(~np.isfinite(val)):
        raise RangeError("K_nu underflow: argument beyond exponential range; use the scaled form")
    return _scalarize(x, val)


def bessel_i_scaled(order: BesselOrder, x) -> float | np.ndarray:
    """Exponentially scaled ``e^{-x} I_nu(x)``; O(1), or ``RangeError`` where scipy fails."""
    xa = _check_positive(x)
    return _scalarize(x, check_finite(_sp.ive(order.nu, xa), "scaled I_nu"))


def bessel_k_scaled(order: BesselOrder, x) -> float | np.ndarray:
    """Exponentially scaled ``e^{x} K_nu(x)``; O(1), or ``RangeError`` where scipy fails."""
    xa = _check_positive(x)
    return _scalarize(x, check_finite(_sp.kve(order.nu, xa), "scaled K_nu"))


def weighted_basis(order: BesselOrder, alpha: float, r, kind: str, scaled: bool = False):
    """Weighted radial basis ``(alpha*r)^{-nu} I_nu(alpha*r)`` or the K form.

    Parameters
    ----------
    kind : {"first", "second"}
        "first" selects the ``I`` (growing) solution, "second" the ``K``
        (decaying) one.
    scaled : bool
        If true, the Bessel factor is the exponentially scaled variant, so
        the result carries an implicit ``e^{+alpha r}`` ("first") or
        ``e^{-alpha r}`` ("second") that the caller accounts for.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    ra = np.asarray(r, dtype=float)
    if np.any(ra < 1.0):
        raise DomainError("radius r must be >= 1")
    z = alpha * ra
    if kind == "first":
        f = bessel_i_scaled(order, z) if scaled else bessel_i(order, z)
    elif kind == "second":
        f = bessel_k_scaled(order, z) if scaled else bessel_k(order, z)
    else:
        raise DomainError("kind must be 'first' or 'second'")
    return _scalarize(r, np.asarray(z, dtype=float) ** (-order.nu) * f)
