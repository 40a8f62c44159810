"""Dense O(M^2) Nystrom matrices: the reference the O(M) operator is tested against.

``dense_operators(grid, params)`` returns ``(A, Adr)`` built row by row
from the definition of the rule.  Every row integrates over the same
partition: each interval ``[r_k, r_{k+1}]`` on the quadratic of its Simpson
panel (panels paired from node 0), an odd last interval on the quadratic
through the last three nodes.  Row ``i`` takes the intervals left of
``r_i`` on the kernel's lower branch and those right of it on the upper
one.  On each interval the weight of a node is the integral of its
Lagrange quadratic times the kernel's exponential (``e^{-alpha|r_i - s|}``
for the direct term, ``e^{-alpha(s-1)}`` for the reflection), by composite
Gauss-Legendre and never from the closed forms of ``nsk.operators``; the
Bessel factors come from scipy.  Memory and time are O(M^2), so use it on
small grids only.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = ["dense_operators"]

_XI, _WQ = np.polynomial.legendre.leggauss(20)


def _row_pieces(M: int, i: int):
    """The pieces of row ``i`` as arrays ``(lo, hi, tri, left)``: each interval
    ``[r_lo, r_hi]``, the three nodes of its quadratic, and whether it lies left of ``r_i``."""
    out = []
    for k in range(M - 1):
        first = k - k % 2  # the first node of the interval's panel
        if first + 2 > M - 1:  # an odd last interval: the last three nodes
            first = M - 3
        out.append((k, k + 1, (first, first + 1, first + 2), k < i))
    lo, hi, tri, left = zip(*out)
    return np.array(lo), np.array(hi), np.array(tri), np.array(left)


def _piece_weights(nodes: np.ndarray, lo, hi, tri, anchor, alpha: float) -> np.ndarray:
    """``(P, 3)``: ``int l_m(s) e^{-alpha |s - anchor|} ds`` over each piece ``[r_lo, r_hi]``
    for the Lagrange quadratics on ``nodes[tri]``, by 20-point Gauss-Legendre on
    ``2^k`` equal sub-intervals, over each of which ``alpha s`` changes by at most 8.

    Everything is taken as an offset from ``r_lo``: an exponent ``alpha (anchor - s)``
    formed from ``s`` itself would carry ``alpha`` times the rounding of ``s``, about
    1e-13 of the result at ``alpha = 100``.
    """
    length = nodes[hi] - nodes[lo]
    offset = anchor - nodes[lo]
    x = nodes[tri] - nodes[lo][:, None]
    count = 2 ** np.ceil(np.log2(1.0 + alpha * length / 8.0)).astype(int)
    out = np.empty((lo.size, 3))
    for n in np.unique(count):
        k = count == n
        t = ((np.arange(n)[:, None] + 0.5 * (1.0 + _XI)) / n).ravel()
        u = length[k, None] * t
        wu = length[k, None] * np.tile(_WQ, n) / (2.0 * n) * np.exp(-alpha * np.abs(offset[k, None] - u))
        xk = x[k]
        for m in range(3):
            a, b = (xk[:, [j]] for j in range(3) if j != m)
            out[k, m] = np.sum(wu * (u - a) * (u - b), axis=1) / ((xk[:, [m]] - a) * (xk[:, [m]] - b))[:, 0]
    return out


def dense_operators(grid, params):
    """``(A, Adr)`` of the model ``params`` as dense ``M x M`` arrays."""
    r = grid.nodes
    M = r.size
    alpha = params.alpha
    v = (params.n - 2) / 2.0
    x = alpha * r
    iv, kv = _sp.ive(v, x), _sp.kve(v, x)
    iv1, kv1 = _sp.ive(v + 1.0, x), _sp.kve(v + 1.0, x)
    c2 = _sp.ive(v + 1.0, alpha) / _sp.kve(v + 1.0, alpha)
    e2 = np.exp(-alpha * (r - 1.0))
    col = r ** (-v) * r ** (params.n - 1) / params.kappa  # source side: s^{-nu} s^{n-1} / kappa
    A = np.zeros((M, M))
    Adr = np.zeros((M, M))
    for i in range(M):
        lo, hi, tri, left = _row_pieces(M, i)
        wd = _piece_weights(r, lo, hi, tri, r[i], alpha)  # e^{-alpha |r_i - s|}
        wr = _piece_weights(r, lo, hi, tri, 1.0, alpha)  # e^{-alpha (s - 1)}
        side = left[:, None]
        g = np.where(side, kv[i] * iv[tri], iv[i] * kv[tri]) * wd  # s <= r_i: I at s, K at r_i
        gdr = np.where(side, kv1[i] * iv[tri], -iv1[i] * kv[tri]) * wd
        g = g + c2 * kv[i] * e2[i] * kv[tri] * wr
        gdr = gdr + c2 * kv1[i] * e2[i] * kv[tri] * wr
        np.add.at(A[i], tri, -(r[i] ** (-v)) * g * col[tri])
        np.add.at(Adr[i], tri, alpha * r[i] ** (-v) * gdr * col[tri])
    return A, Adr
