r"""Discrete Green-kernel integral operators, applied in O(M) memory without an ``M x M`` matrix.

For a grid ``r_0 < ... < r_{M-1}`` the Nystrom operators

.. math::
    (A f)_i \approx \frac{1}{\kappa}\int_1^{R} G(r_i, s) f(s) s^{n-1} ds,
    \qquad
    (A_{dr} f)_i \approx \frac{1}{\kappa}\int_1^{R} \partial_r G(r_i, s) f(s) s^{n-1} ds

are applied without forming the ``M x M`` matrices.

*Quadrature.*  ``G(r_i, \cdot)`` has a kink at ``s = r_i`` (and
``\partial_r G`` a jump), so row ``i`` splits composite Simpson there:
``[r_0, r_i]`` is paired from node 0 and, for odd ``i``, closed by a 3-node
stub over ``[r_{i-1}, r_i]``; ``[r_i, r_{M-1}]`` is paired from node ``i``.
So for ``j > i`` the row weights are exactly those of a global vector
``wr[i % 2]`` (composite Simpson over ``[r_{i % 2}, r_{M-1}]``), and for
``j < i`` those of a global vector ``wl`` (the full panels paired from
node 0), except at ``j = i-2, i-1`` on odd rows.  At the diagonal node the
two segments' weights stay apart, to pair with the one-sided derivative
branches.

*Kernel.*  In the scaled form of :mod:`nsk.kernel`,

.. math::
    G(r,s) = -(rs)^{-\nu}\Bigl[\hat I_\nu(\alpha m)\hat K_\nu(\alpha M)
        e^{-\alpha|r-s|}
        + c_2 \hat K_\nu(\alpha r) e^{-\alpha(r-1)}\,
              \hat K_\nu(\alpha s) e^{-\alpha(s-1)}\Bigr],

a product of a function of ``m = min(r,s)`` and one of ``M = max(r,s)``,
plus a rank-1 reflection term.  A row's sum over ``j < i`` is therefore one
forward recurrence ``L_i = d_i (L_{i-1} + x_{i-1})`` with decay factors
``d_i = exp(-alpha (r_i - r_{i-1})) <= 1``, so nothing overflows even for
``alpha ~ 1e3``; the sum over ``j > i`` is a backward recurrence, one per
pairing parity; the reflection term is a prefix plus a suffix sum.
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
in O(log M) vector passes and O(M) memory; the reflection sums are
cumulative sums, O(M).

*Near field.*  What the global vectors miss is a sparse matrix with entries
at ``j = i-2 .. i+1``: the diagonal, the odd-row stub corrections, and the
quadratic stubs that replace the single-interval trapezoids of row 1 (left)
and row ``M-2`` (right), whose O(h^3) local error would otherwise dominate
the wall residual.  Those stubs borrow the node just across the diagonal,
evaluated on the continued branch of their side, which is smooth there.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import RadialGrid, composite_weights, panel_weights, tail_stub_weights
from .kernel import KernelFactors, KernelParams, kernel_branches

__all__ = ["GreenOperator", "backend_name"]


def backend_name() -> str:
    return "semiseparable"


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


def _sum_before(x: np.ndarray) -> np.ndarray:
    """``out[..., i] = sum_{j<i} x[..., j]``."""
    out = np.zeros_like(x)
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


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

        # global weights: panel k on nodes k..k+2, stub k over [r_{k+1}, r_{k+2}]
        p0, p1, p2 = panel_weights(h[:-1], h[1:])
        s0, s1, s2 = tail_stub_weights(h[:-1], h[1:])
        wl = np.zeros(M)
        k = np.arange(0, M - 2, 2)
        wl[k] += p0[k]
        wl[k + 1] += p1[k]
        wl[k + 2] += p2[k]
        wr = np.zeros((2, M))
        wr[0] = grid.weights
        wr[1, 1:] = composite_weights(r[1:])

        # source-side factors of the sums, in the rows of the sweeps (j < i, then j > i
        # for each parity, reversed); target-side factors of A and Adr
        self._sweep_w = np.vstack([wl * iv * src, (wr * kv * src)[:, ::-1]])
        self._refl_w = np.vstack([wl * kv * e2 * src, (wr * kv * e2 * src)[:, ::-1]])
        self._target_a = (-rp * kv, -rp * iv, -rp * c2 * kv * e2)
        self._target_dr = (a * rp * kv1, -a * rp * iv1, a * rp * c2 * kv1 * e2)

        # near field on top of the global sums: (rows, cols, weights, lower branch?)
        wdl = np.zeros(M)  # diagonal weight from the left segment ...
        wdl[2::2] = p2[0::2]
        wdl[3::2] = s2[1::2]
        wdr = np.zeros(M)  # ... and from the right segment
        wdr[:-2] = p0
        odd = np.arange(3, M, 2)
        p0_next = np.append(p0, [0.0, 0.0])  # no full panel starts at M-2 or M-1
        near = [
            (odd, odd - 2, s0[odd - 2], True),  # the left stub of an odd row replaces ...
            (odd, odd - 1, s1[odd - 2] - p0_next[odd - 1], True),  # ... the panel wl has there
        ]
        if M >= 4:
            # row 1: quadratic through r_0..r_2 over [r_0, r_1], a tail stub mirrored
            a2, wdl[1], row1_w0 = tail_stub_weights(h[1], h[0])
            wdr[-2] = s1[-1]  # row M-2: the tail stub; its weight at r_{M-1} is wr's
            near += [([1], [2], [a2], True), ([M - 2], [M - 3], [s0[-1]], False)]
        else:  # M = 3: both single intervals stay trapezoids
            wdl[1] = row1_w0 = 0.5 * h[0]
            wdr[-2] = 0.5 * h[-1]
        idx = np.arange(M)
        near += [([1], [0], [row1_w0 - wl[0]], True), (idx, idx, wdl, True), (idx, idx, wdr, False)]

        i = np.concatenate([np.asarray(t[0]) for t in near])
        j = np.concatenate([np.asarray(t[1]) for t in near])
        w = np.concatenate([np.asarray(t[2], dtype=float) for t in near])
        lower = np.concatenate([np.full(len(t[0]), t[3]) for t in near])
        g, gdr = kernel_branches(kp, f, i, j, lower)
        scale = w * rp[i] * src[j]
        self._near = (M, i, j, g * scale, gdr * scale)

    def apply(self, f) -> tuple:
        """``(A f, Adr f)`` for samples ``f`` on the grid nodes."""
        f = np.asarray(f, dtype=float)
        fr = f[::-1]
        f3 = np.stack([f, fr, fr])
        lo, hi0, hi1 = _sweep(self._decay, self._sweep_w * f3)
        before, after0, after1 = _sum_before(self._refl_w * f3)
        hi = np.where(self._odd, hi1[::-1], hi0[::-1])
        refl = before + np.where(self._odd, after1[::-1], after0[::-1])
        M, i, j, g, gdr = self._near
        fj = f[j]
        (a_lo, a_hi, a_refl), (d_lo, d_hi, d_refl) = self._target_a, self._target_dr
        af = a_lo * lo + a_hi * hi + a_refl * refl + np.bincount(i, g * fj, minlength=M)
        adrf = d_lo * lo + d_hi * hi + d_refl * refl + np.bincount(i, gdr * fj, minlength=M)
        return af, adrf
