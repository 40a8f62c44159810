"""Dense O(M^2) Nystrom matrices: the reference the O(M) operator is tested against.

``dense_operators(grid, kp, kappa)`` returns ``(A, Adr)`` with every row
built entry by entry: per-target split-Simpson weights (panels split at
``s = r_i``), the kernel evaluated on the branch of its side of the
diagonal, the one-sided derivative branches paired at the diagonal node,
and quadratic stubs in place of the single-interval trapezoids of rows 1
and ``M-2``.  Memory and time are O(M^2), so use it on small grids only.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from nsk.grid import segment_weights

__all__ = ["dense_operators", "split_weight_rows"]


def split_weight_rows(nodes: np.ndarray):
    """Per-target split-Simpson weights.

    Returns ``(W, wl, wr)``: ``W[i, j]`` is the weight of node ``j`` in row
    ``i`` for ``j != i`` (``W[i, i] = 0``); ``wl[i]`` / ``wr[i]`` are the
    separate contributions of node ``i`` from the left and right segments,
    needed to pair the one-sided derivative-kernel values at the diagonal.
    """
    M = nodes.size
    W = np.zeros((M, M))
    wl = np.zeros(M)
    wr = np.zeros(M)
    for i in range(M):
        row = W[i]
        segment_weights(nodes, 0, i, row)
        wl[i] = row[i]
        row[i] = 0.0
        segment_weights(nodes, i, M - 1, row)
        wr[i] = row[i]
        row[i] = 0.0
    return W, wl, wr


def _branch_values(nodes, ivn, kvn, ivn1, kvn1, rpow, alpha, c2, i, j, branch):
    """(G, dG/dr) at ``(r_i, s_j)`` from one analytic branch.

    ``branch="lower"`` is the ``s <= r`` expression, ``"upper"`` the
    ``s >= r`` one; either may be evaluated across the diagonal as the
    smooth continuation of its side (the positive exponent is clamped).
    """
    ri, sj = nodes[i], nodes[j]
    rp2 = rpow[i] * rpow[j]
    e2 = np.exp(-alpha * (ri + sj - 2.0))
    if branch == "lower":
        e1 = np.exp(min(-alpha * (ri - sj), 600.0))
        g = -rp2 * (ivn[j] * kvn[i] * e1 + c2 * kvn[i] * kvn[j] * e2)
        gdr = alpha * rp2 * (ivn[j] * kvn1[i] * e1 + c2 * kvn[j] * kvn1[i] * e2)
    else:
        e1 = np.exp(min(-alpha * (sj - ri), 600.0))
        g = -rp2 * (ivn[i] * kvn[j] * e1 + c2 * kvn[i] * kvn[j] * e2)
        gdr = -alpha * rp2 * (ivn1[i] * kvn[j] * e1 - c2 * kvn1[i] * kvn[j] * e2)
    return g, gdr


def _endpoint_corrections(A, Adr, nodes, ivn, kvn, ivn1, kvn1, rpow, snm1, alpha, c2, inv_kappa):
    """Upgrade the two single-interval trapezoid segments to quadratic stubs.

    Row 1's left segment and row M-2's right segment span one interval;
    borrowing the node just across the diagonal, evaluated on the continued
    branch, restores quadratic exactness without crossing the kink.
    """
    M = nodes.size
    if M < 4:
        return
    bv = lambda i, j, br: _branch_values(nodes, ivn, kvn, ivn1, kvn1, rpow, alpha, c2, i, j, br)

    h0 = nodes[1] - nodes[0]
    h1 = nodes[2] - nodes[1]
    a0 = h0 * (2.0 * h0 + 3.0 * h1) / (6.0 * (h0 + h1))
    a1 = h0 * (h0 + 3.0 * h1) / (6.0 * h1)
    a2 = -(h0**3) / (6.0 * h1 * (h0 + h1))
    g0, gdr0 = bv(1, 0, "lower")
    g1, gdr1 = bv(1, 1, "lower")
    g2, gdr2 = bv(1, 2, "lower")
    A[1, 0] += (a0 - 0.5 * h0) * g0 * snm1[0] * inv_kappa
    A[1, 1] += (a1 - 0.5 * h0) * g1 * snm1[1] * inv_kappa
    A[1, 2] += a2 * g2 * snm1[2] * inv_kappa
    Adr[1, 0] += (a0 - 0.5 * h0) * gdr0 * snm1[0] * inv_kappa
    Adr[1, 1] += (a1 - 0.5 * h0) * gdr1 * snm1[1] * inv_kappa
    Adr[1, 2] += a2 * gdr2 * snm1[2] * inv_kappa

    i = M - 2
    h0 = nodes[i] - nodes[i - 1]
    h1 = nodes[i + 1] - nodes[i]
    b0 = -(h1**3) / (6.0 * h0 * (h0 + h1))
    b1 = h1 * (3.0 * h0 + h1) / (6.0 * h0)
    b2 = h1 * (2.0 * h1 + 3.0 * h0) / (6.0 * (h0 + h1))
    g0, gdr0 = bv(i, i - 1, "upper")
    g1, gdr1 = bv(i, i, "upper")
    g2, gdr2 = bv(i, i + 1, "upper")
    A[i, i - 1] += b0 * g0 * snm1[i - 1] * inv_kappa
    A[i, i] += (b1 - 0.5 * h1) * g1 * snm1[i] * inv_kappa
    A[i, i + 1] += (b2 - 0.5 * h1) * g2 * snm1[i + 1] * inv_kappa
    Adr[i, i - 1] += b0 * gdr0 * snm1[i - 1] * inv_kappa
    Adr[i, i] += (b1 - 0.5 * h1) * gdr1 * snm1[i] * inv_kappa
    Adr[i, i + 1] += (b2 - 0.5 * h1) * gdr2 * snm1[i + 1] * inv_kappa


def dense_operators(grid, kp, kappa):
    """``(A, Adr)`` as dense ``M x M`` arrays."""
    nodes = grid.nodes
    alpha = kp.alpha
    c2 = kp.c2
    v = kp.nu.nu
    x = alpha * nodes
    ivn = _sp.ive(v, x)
    kvn = _sp.kve(v, x)
    ivn1 = _sp.ive(v + 1.0, x)
    kvn1 = _sp.kve(v + 1.0, x)
    rpow = nodes ** (-v)
    snm1 = nodes ** (grid.n - 1)
    inv_kappa = 1.0 / kappa

    W, wl, wr = split_weight_rows(nodes)
    R = nodes[:, None]
    S = nodes[None, :]
    E1 = np.exp(-alpha * np.abs(R - S))
    E2 = np.exp(-alpha * (R + S - 2.0))
    rp2 = rpow[:, None] * rpow[None, :]
    lower = R >= S  # target to the right of the source
    iv_min = np.where(lower, ivn[None, :], ivn[:, None])
    kv_max = np.where(lower, kvn[:, None], kvn[None, :])
    G = -rp2 * (iv_min * kv_max * E1 + c2 * (kvn[:, None] * kvn[None, :]) * E2)
    Gdr = np.where(
        lower,
        alpha * rp2 * (ivn[None, :] * kvn1[:, None] * E1 + c2 * kvn[None, :] * kvn1[:, None] * E2),
        -alpha * rp2 * (ivn1[:, None] * kvn[None, :] * E1 - c2 * kvn1[:, None] * kvn[None, :] * E2),
    )
    scale = W * snm1[None, :] * inv_kappa
    A = G * scale
    Adr = Gdr * scale
    idx = np.arange(nodes.size)
    e2d = np.exp(-alpha * (2.0 * nodes - 2.0))
    rp2d = rpow * rpow
    gii = -rp2d * (ivn * kvn + c2 * kvn * kvn * e2d)
    gdr_right = alpha * rp2d * (ivn * kvn1 + c2 * kvn * kvn1 * e2d)
    gdr_left = -alpha * rp2d * (ivn1 * kvn - c2 * kvn1 * kvn * e2d)
    dscale = snm1 * inv_kappa
    A[idx, idx] = gii * (wl + wr) * dscale
    Adr[idx, idx] = (wl * gdr_right + wr * gdr_left) * dscale
    _endpoint_corrections(A, Adr, nodes, ivn, kvn, ivn1, kvn1, rpow, snm1, alpha, c2, inv_kappa)
    return A, Adr
