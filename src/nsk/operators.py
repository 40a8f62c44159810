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

*Quadrature.*  ``G(r_i, \cdot)`` has a kink at ``s = r_i`` (and
``\partial_r G`` a jump), so row ``i`` splits there.  ``[r_0, r_i]`` is
covered by the panels paired from node 0 and, for odd ``i``, closed by a
stub over ``[r_{i-1}, r_i]`` on the quadratic through ``r_{i-2}, r_{i-1},
r_i`` (through ``r_0, r_1, r_2`` for row 1); ``[r_i, r_{M-1}]`` by the
panels paired from node ``i``, closed for an odd interval count by the tail
stub over ``[r_{M-2}, r_{M-1}]`` through the last three nodes.  On each
piece the rule is product integration (Filon): the smooth factor is
replaced by its quadratic interpolant on the piece's three nodes and
integrated exactly against the exponential, so the spacing has to resolve
the smooth factor, not ``1/alpha``.  :func:`piece_weights` gives the
weights from the moments ``int_0^1 e^{-z t} t^k dt``, ``z = alpha`` times
the piece length: below ``z = 1`` from the Taylor series of ``m_2`` and a
downward recurrence (the closed forms cancel there), above it from
``expm1`` and the upward recurrence, where ``e^{-z}`` can only underflow.
As ``z -> 0`` they are the Simpson and tail-stub weights of :mod:`nsk.grid`.

*Piece sums.*  Each piece's exponential is anchored at its end nearest
the rows it serves, so every weight is at most the piece length and no
weight carries an ``e^{+alpha h}``.  A piece left of row ``i`` enters as
``e^{-alpha(r_i - r_e)}`` times one panel sum injected at its end node
``e``; a piece right of it as ``e^{-alpha(r_a - r_i)}`` times one sum at its
start node ``a``, one such sequence per pairing parity; the reflection
pieces as plain sums, anchored at their start.  So a row's sums over
``j < i`` are one forward recurrence ``L_i = d_i (L_{i-1} + x_{i-1})`` with
decay factors ``d_i = exp(-alpha (r_i - r_{i-1})) <= 1``, those over
``j > i`` one backward recurrence per parity, and the reflection a prefix
plus a suffix sum.  The sums include the piece that ends (or starts) at
the row's own node, so the diagonal node meets the lower branch through
the left segment and the upper branch through the right one, which pairs
it with the one-sided derivative branches.  The odd rows' left stubs are
the only pieces no other row shares; each is added to its row alone.
``Adr`` reuses the same sums with ``\hat K_{\nu+1}``, ``\hat I_{\nu+1}`` as
target factors.

*Evaluation.*  The three recurrences (the forward one, and the backward one
of each parity run forward on reversed arrays) are one stacked ``(3, M)``
doubling scan (Hillis & Steele 1986; Blelloch 1990).  Each step of a
recurrence is an affine map ``out_i = a_i out_{i-1} + b_i``; pass ``k``
composes every map with the one ``k`` places before it, so ``ceil(log2 M)``
whole-array passes give every prefix.  The composed ``a`` are products of
decay factors, so they stay in ``[0, 1]``; a decay that underflows is
exactly 0 and cuts the chain.  An apply thus costs O(M log M) arithmetic
in O(log M) vector passes and O(M) memory; the panel sums are gathers of
three nodes each and the reflection sums cumulative sums, O(M).
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


def piece_weights(alpha, h0, h1):
    """Product-integration weights of every piece on nodes ``x0 < x1 < x2``.

    ``h0, h1`` are the spacings (arrays broadcast).  Six ``(3, ...)`` arrays,
    the weights of ``x0, x1, x2`` in order: the panel ``[x0, x2]`` against
    ``e^{-alpha(s-x0)}`` and ``e^{-alpha(x2-s)}``, the stub ``[x1, x2]``
    against ``e^{-alpha(s-x1)}`` and ``e^{-alpha(x2-s)}``, and the stub
    ``[x0, x1]`` against ``e^{-alpha(s-x0)}`` and ``e^{-alpha(x1-s)}``.  At
    ``alpha = 0`` they are the Simpson and tail-stub weights of :mod:`nsk.grid`.
    """
    span = h0 + h1
    lengths = np.array(np.broadcast_arrays(span, h1, h0))
    mp, m1, m0 = np.moveaxis(np.array(_moments(alpha * lengths)), 1, 0)  # one call for all
    return (
        _fitted(mp, span, 0.0, h0 / span, 1.0),
        _fitted(mp, span, 1.0, h1 / span, 0.0),
        _fitted(m1, h1, -h0 / h1, 0.0, 1.0),
        _fitted(m1, h1, 1.0 + h0 / h1, 1.0, 0.0),
        _fitted(m0, h0, 0.0, 1.0, 1.0 + h1 / h0),
        _fitted(m0, h0, 1.0, 0.0, -h1 / h0),
    )


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
        r = grid.nodes
        M = r.size
        a = kp.alpha
        c2 = kp.c2
        f = KernelFactors(kp, r)
        iv, kv, iv1, kv1, rp, e2 = f.iv, f.kv, f.iv1, f.kv1, f.rp, f.e2
        src = rp * grid.measure() / kappa
        h = np.diff(r)
        decay = np.exp(-a * h)
        down = np.append(0.0, decay)
        up = np.append(0.0, decay[::-1])
        self._decay = np.stack([down, up, up])
        self._odd = np.arange(M) % 2 == 1
        even = ~self._odd

        # the pieces on nodes k..k+2, for every k; row 1's stub is the first one's [r_0, r_1]
        panel_up, panel_dn, stub_up, stub_dn, first_up, first_dn = piece_weights(a, h[:-1], h[1:])

        # per node: the left piece that ends there (a panel at even nodes; at odd ones the
        # stub closing that row's left segment, which no other row shares) and the right
        # piece that starts there (a panel, or the tail stub at M-2), with the nodes they read
        m = np.arange(3)[:, None]
        idx = np.arange(M)
        left = np.maximum(idx - 2, 0) + m
        right = np.minimum(idx, M - 3) + m
        lo, lo_refl, hi = np.zeros((3, M)), np.zeros((3, M)), np.zeros((3, M))
        lo[:, 1], lo[:, 2::2], lo[:, 3::2] = first_dn[:, 0], panel_dn[:, 0::2], stub_dn[:, 1::2]
        lo_refl[:, 1] = first_up[:, 0]  # anchored at r_0, where e^{-alpha(s-1)} is 1
        lo_refl[:, 2::2] = (panel_up * e2[:-2])[:, 0::2]
        lo_refl[:, 3::2] = (stub_up * e2[1:-1])[:, 1::2]
        hi[:, :-2], hi[:, -2] = panel_up, stub_up[:, -1]

        # source-side factors folded in; the rows of the sweeps (j < i, then j > i for each
        # parity, reversed) and of the reflection sums read the same nodes
        lo = lo * (iv * src)[left]
        lo_refl = lo_refl * (kv * src)[left]
        hi = hi * (kv * src)[right]
        odd = self._odd
        sweep_w = [lo * even, (hi * even)[:, ::-1], (hi * odd)[:, ::-1]]
        refl_w = [lo_refl * even, (hi * e2 * even)[:, ::-1], (hi * e2 * odd)[:, ::-1]]
        self._cols = np.stack([left, right[:, ::-1], right[:, ::-1]])
        self._piece_w = np.array([sweep_w, refl_w])
        self._stub_w = np.array([lo * odd, lo_refl * odd])
        self._target_a = (-rp * kv, -rp * iv, -rp * c2 * kv * e2)
        self._target_dr = (a * rp * kv1, -a * rp * iv1, a * rp * c2 * kv1 * e2)

    def apply(self, f) -> tuple:
        """``(A f, Adr f)`` for samples ``f`` on the grid nodes."""
        f = np.asarray(f, dtype=float)
        g = f[self._cols]
        x, y = (self._piece_w * g).sum(axis=2)
        stub, stub_refl = (self._stub_w * g[0]).sum(axis=1)
        lo, hi0, hi1 = _sweep(self._decay, x) + x
        before, after0, after1 = np.cumsum(y, axis=-1)
        lo = lo + stub
        hi = np.where(self._odd, hi1[::-1], hi0[::-1])
        refl = before + stub_refl + np.where(self._odd, after1[::-1], after0[::-1])
        (a_lo, a_hi, a_refl), (d_lo, d_hi, d_refl) = self._target_a, self._target_dr
        return a_lo * lo + a_hi * hi + a_refl * refl, d_lo * lo + d_hi * hi + d_refl * refl
