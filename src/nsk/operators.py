r"""Discrete Green-kernel integral operators, applied in O(M) memory without an ``M x M`` matrix.

For a grid ``r_0 < ... < r_{M-1}`` the Nystrom operators

.. math::
    (A f)_i \approx \frac{1}{\kappa}\int_1^{R} G(r_i, s) f(s) s^{n-1} ds,
    \qquad
    (A_{dr} f)_i \approx \frac{1}{\kappa}\int_1^{R} \partial_r G(r_i, s) f(s) s^{n-1} ds

are applied without forming the ``M x M`` matrices.

*Kernel.*  In the scaled form of :mod:`nsk.kernel`,

.. math::
    G(r,s) = -(rs)^{-\nu}\Bigl[\hat I_\nu(\alpha m)\hat K_\nu(\alpha M)
        e^{-\alpha|r-s|}
        + c_2 \hat K_\nu(\alpha r) e^{-\alpha(r-1)}\,
              \hat K_\nu(\alpha s) e^{-\alpha(s-1)}\Bigr],

a product of a function of ``m = min(r,s)`` and one of ``M = max(r,s)``,
plus a rank-1 reflection term.  Against a source point ``s`` each term is
a smooth factor (``\hat I_\nu(\alpha s)`` or ``\hat K_\nu(\alpha s)``, times
``s^{n-1-\nu}`` and ``f(s)``), which varies on the scale ``s`` away from the
wall, times one exponential: ``e^{-\alpha(r_i-s)}`` left of the target,
``e^{-\alpha(s-r_i)}`` right of it, ``e^{-\alpha(s-1)}`` in the reflection.

*Quadrature.*  Every row integrates over the one partition of
:mod:`nsk.grid`: ``grid.interval_rule`` gives each interval ``[r_k,
r_{k+1}]`` the three nodes of its quadratic (those of its Simpson panel,
or the last three for an odd last interval).  ``G(r_i, \cdot)`` has a kink
at ``s = r_i`` (and ``\partial_r G`` a jump), which is a node, so row ``i``
takes the intervals left of ``r_i`` on the lower branch and those right
of it on the upper one.  On each interval the rule is product integration
(Filon): the smooth factor is replaced by its quadratic and integrated
exactly against the exponential, so the spacing has to resolve the smooth
factor, not ``1/alpha``.  :func:`piece_weights` gives two weight sets per
interval, against ``e^{-alpha(r_{k+1}-s)}`` and against
``e^{-alpha(s-r_k)}``, from the moments ``int_0^1 e^{-z t} t^k dt``,
``z = alpha`` times the interval length: below ``z = 1`` from the Taylor
series of ``m_2`` and a downward recurrence (the closed forms cancel
there), above it from ``expm1`` and the upward recurrence, where
``e^{-z}`` can only underflow.  As ``z -> 0`` both are the interval
weights of the grid.

*Piece sums.*  Each exponential is anchored at the end of the interval
nearest the rows it serves, so no weight carries an ``e^{+alpha h}``.  Interval ``k`` enters the rows
``i > k`` as ``e^{-alpha(r_i - r_{k+1})}`` times one sum ``x_k`` at its end
node, and the rows ``i <= k`` as ``e^{-alpha(r_k - r_i)}`` times one sum
``y_k`` at its start node.  So the sums over the left of every row are one
forward recurrence ``L_i = d_i L_{i-1} + x_{i-1}`` with decay factors
``d_i = exp(-alpha (r_i - r_{i-1})) <= 1``, and those over the right one
backward recurrence.  The reflection factor
``e^{-alpha(s-1)} = e^{-alpha(r_k-1)} e^{-alpha(s-r_k)}`` has no kink,
so it is the one scalar ``sum_k e^{-alpha(r_k-1)} y_k``, shared by every
row.  ``Adr`` reuses the same sums with ``\hat K_{\nu+1}``,
``\hat I_{\nu+1}`` as target factors.

*Evaluation.*  The two recurrences (the backward one run forward on
reversed arrays) are one stacked ``(2, M)`` doubling scan (Hillis & Steele
1986; Blelloch 1990).  Each step of a recurrence is an affine map
``out_i = a_i out_{i-1} + b_i``; pass ``k`` composes every map with the
one ``k`` places before it, so ``ceil(log2 M)`` whole-array passes give
every prefix.  The composed ``a`` are products of decay factors, so they
stay in ``[0, 1]``; a decay that underflows is exactly 0 and cuts the
chain.  An apply thus costs O(M log M) arithmetic in O(log M) vector
passes and O(M) memory; the interval sums are one gather of three nodes
each, O(M).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import RadialGrid
from .kernel import KernelFactors, KernelParams

__all__ = ["GreenOperator", "backend_name", "piece_weights"]

TAYLOR_Z = 1.0  # below it the moments come from the Taylor series of m_2
_M2_TAYLOR = tuple((-1.0) ** j / (math.factorial(j) * (j + 3)) for j in range(20))


def backend_name() -> str:
    return "semiseparable"


def _moments(z):
    """``(m_0, m_1, m_2)``, ``m_k = int_0^1 e^{-z t} t^k dt``, at ``z >= 0``.

    ``m_k = (k m_{k-1} - e^{-z})/z`` cancels for small ``z``, so there it
    runs downward from the Taylor series of ``m_2``; elsewhere upward from
    ``m_0 = -expm1(-z)/z``.
    """
    z = np.asarray(z, dtype=float)
    small = z < TAYLOR_Z
    zs = np.where(small, z, 0.0)
    es = np.exp(-zs)
    m2 = np.polynomial.polynomial.polyval(zs, _M2_TAYLOR)
    m1 = (zs * m2 + es) / 2.0
    taylor = (zs * m1 + es, m1, m2)
    zb = np.where(small, TAYLOR_Z, z)
    eb = np.exp(-zb)
    m0 = -np.expm1(-zb) / zb
    m1 = (m0 - eb) / zb
    closed = (m0, m1, (2.0 * m1 - eb) / zb)
    return tuple(np.where(small, p, q) for p, q in zip(taylor, closed))


def _fitted(moments, length, t0, t1, t2):
    """``w_m = length * int_0^1 e^{-z t} l_m(t) dt`` for the Lagrange quadratics
    ``l_m`` on the nodes ``t0, t1, t2``, given ``moments = _moments(z)``.

    Nodes are in units of ``length`` from the piece's anchored end (``t = 0``)
    toward its other end (``t = 1``) and may lie outside ``[0, 1]``.  With
    ``z = alpha * length``, ``sum_m w_m q_m`` integrates the quadratic through
    the ``q_m`` against ``e^{-alpha d}``, ``d`` the distance from the anchor.
    """
    m0, m1, m2 = moments

    def weight(tm, ta, tb):
        return length * (m2 - (ta + tb) * m1 + ta * tb * m0) / ((tm - ta) * (tm - tb))

    return np.array([weight(t0, t1, t2), weight(t1, t0, t2), weight(t2, t0, t1)])


def piece_weights(grid: RadialGrid, alpha: float):
    """Product-integration weights of every interval ``[r_k, r_{k+1}]`` of ``grid``.

    Two ``(3, M-1)`` arrays on the nodes ``grid.interval_rule`` gives each
    interval: its quadratic integrated against ``e^{-alpha(r_{k+1}-s)}`` (for
    the rows right of it) and against ``e^{-alpha(s-r_k)}`` (for the rows left
    of it and the reflection).  At ``alpha = 0`` both are the interval weights
    of the grid.
    """
    r = grid.nodes
    idx, _ = grid.interval_rule
    h = np.diff(r)
    moments = _moments(alpha * h)
    return _fitted(moments, h, *(r[1:] - r[idx]) / h), _fitted(moments, h, *(r[idx] - r[:-1]) / h)


def _sweep(decay: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[..., i] = sum_{j<i} x[..., j] decay[..., j+1] ... decay[..., i]``.

    The doubling scan of the module docstring, over the last axis;
    ``decay[..., 0]`` is unused.
    """
    # (a, b) is the map out_i = a_i out_{i-1} + b_i; a_0 = 0 starts every chain at out_0 = 0
    a = decay.copy()
    a[..., 0] = 0.0
    b = np.zeros_like(x)
    b[..., 1:] = decay[..., 1:] * x[..., :-1]
    k = 1
    while k < x.shape[-1]:  # numpy reads overlapping operands as they were before the pass
        b[..., k:] += a[..., k:] * b[..., :-k]
        a[..., k:] *= a[..., :-k]
        k *= 2
    return b


class GreenOperator:
    """``A`` and ``Adr`` on one grid as O(M) data; ``apply(f)`` gives ``(A f, Adr f)``."""

    def __init__(self, grid: RadialGrid, kp: KernelParams, kappa: float):
        if kappa <= 0.0:
            raise ConfigError("kappa must be positive")
        a = kp.alpha
        f = KernelFactors(kp, grid.nodes)
        iv, kv, iv1, kv1, rp, e2 = f.iv, f.kv, f.iv1, f.kv1, f.rp, f.e2
        c2 = kp.c2
        src = rp * grid.measure() / kappa
        decay = np.exp(-a * np.diff(grid.nodes))
        self._decay = np.stack([np.append(0.0, decay), np.append(0.0, decay[::-1])])
        self._idx = grid.interval_rule[0]
        # source-side factors folded in: I left of the row, K right of it and in the reflection
        down, up = piece_weights(grid, a)
        self._w = np.stack([down * (iv * src)[self._idx], up * (kv * src)[self._idx]])
        self._e2 = e2[:-1]
        self._target_a = (-rp * kv, -rp * iv, -rp * c2 * kv * e2)
        self._target_dr = (a * rp * kv1, -a * rp * iv1, a * rp * c2 * kv1 * e2)

    def apply(self, f) -> tuple:
        """``(A f, Adr f)`` for samples ``f`` on the grid nodes."""
        x, y = (self._w * np.asarray(f, dtype=float)[self._idx]).sum(axis=1)
        b = np.zeros(self._decay.shape)
        b[0, 1:], b[1, 1:] = x, y[::-1]  # at each interval's end node; at its start, reversed
        lo, hi = _sweep(self._decay, b) + b
        hi = hi[::-1]
        refl = np.dot(self._e2, y)
        (a_lo, a_hi, a_refl), (d_lo, d_hi, d_refl) = self._target_a, self._target_dr
        return a_lo * lo + a_hi * hi + a_refl * refl, d_lo * lo + d_hi * hi + d_refl * refl
