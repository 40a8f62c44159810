"""Graded radial grids with composite-Simpson quadrature.

The truncated domain ``[1, R_max]`` replaces the far-field condition
``phi -> 0`` by ``phi(R_max) = 0``.  The auto truncation policies put the
neglected mass below 1e-8 of the solution scale:

* exponential decay (impermeable problem): ``R_max = 1 + max(40/alpha, 20)``
* algebraic decay (inflow/outflow): ``R_max = max(10^(4/(2(n-1))), 50)``

Meshes are graded: spacing ``min(0.2, 1/(points_per_unit_alpha * alpha))``
at the wall, coarsening geometrically outward up to ``H_MAX``, for either
decay.  Boundary layers of width ``1/alpha ~ sqrt(kappa)`` are thereby
resolved without global refinement.  Farther out, where the algebraic
source of a flow still matters, the spacing need not resolve the kernel
factor ``exp(-alpha|r-s|)``: :mod:`nsk.operators` integrates that factor
exactly against the quadratic interpolant of the rest.  So the size of a
flow grid barely grows with ``alpha`` (161 nodes at ``kappa = 3e-3``, 191
at ``1e-4``).

Quadrature.  Every integral over a grid uses one partition, fixed by
``RadialGrid.interval_rule``: each interval ``[r_k, r_{k+1}]`` is
integrated on the quadratic of its Simpson panel (panels paired from node
0, spacings unequal), and an odd last interval on the quadratic through
the last three nodes.  ``weights`` (and so the norms) and
``reverse_cumulative`` sum it against plain ``dr``, which is composite
Simpson, exact for quadratics on each panel; the Green operator of
:mod:`nsk.operators` integrates the same quadratics against the kernel's
exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bessel import check_finite
from .errors import ConfigError, GridSizeError

__all__ = ["RadialGrid", "build_grid"]

EXPONENTIAL = "exponential"
ALGEBRAIC = "algebraic"

MAX_NODES_DEFAULT = 2_000_000
H_MAX = 0.5  # spacing cap far from the wall


def _tail_stub_weights(h0: float, h1: float):
    """Integral over the last interval of the quadratic through 3 nodes.

    Nodes at ``-h0, 0, h1``; integration over ``[0, h1]``.
    """
    w0 = -(h1**3) / (6.0 * h0 * (h0 + h1))
    w1 = h1 * (3.0 * h0 + h1) / (6.0 * h0)
    w2 = h1 * (2.0 * h1 + 3.0 * h0) / (6.0 * (h0 + h1))
    return w0, w1, w2


@dataclass(frozen=True)
class RadialGrid:
    """Sorted nodes on ``[1, R_max]`` with quadrature weights for ``dr``.

    The quadrature integrates against plain ``dr``; the ``r^{n-1}`` measure
    is applied by the norm/integral helpers so the same grid serves both.
    """

    nodes: np.ndarray
    n: int
    R_max: float

    @classmethod
    def from_nodes(cls, nodes, n: int) -> "RadialGrid":
        """The grid on ``nodes``; every grid is built here, so its rules live here."""
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ConfigError("grid needs at least 3 nodes")
        if nodes[0] != 1.0 or np.any(np.diff(nodes) <= 0.0):
            raise ConfigError("grid nodes must start at 1 and increase strictly")
        grid = cls(nodes=nodes, n=int(n), R_max=float(nodes[-1]))
        if np.any(grid.weights <= 0.0):
            raise ConfigError("quadrature weights must be positive")
        return grid

    @property
    def size(self) -> int:
        return self.nodes.size

    def power(self, k: int) -> np.ndarray:
        """``r^k`` at the nodes; ``RangeError`` once it leaves the double range."""
        with np.errstate(over="ignore"):
            return check_finite(self.nodes**k, f"r**{k} (n = {self.n})")

    def measure(self) -> np.ndarray:
        """``r^{n-1}`` at the nodes."""
        return self.power(self.n - 1)

    def weighted_l2_norm(self, f: np.ndarray) -> float:
        """``(integral |f|^2 r^{n-1} dr)^(1/2)``, the natural radial norm."""
        self._check_len(f)
        return float(np.sqrt(np.dot(self.weights, np.asarray(f) ** 2 * self.measure())))

    def reverse_cumulative(self, g: np.ndarray) -> np.ndarray:
        """``T_i ~ integral_{r_i}^{R_max} g(s) ds`` by the interval rule; ``T[-1] = 0`` exactly."""
        self._check_len(g)
        idx, w = self.interval_rule
        part = w * np.asarray(g, dtype=float)[idx]
        out = np.zeros(self.nodes.size)
        out[:-1] = np.cumsum((part[0] + part[1] + part[2])[::-1])[::-1]
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-Simpson weights for ``integral_1^{R_max} f(r) dr``: the interval rule
        summed per node."""
        idx, w = self.interval_rule
        return np.bincount(idx.ravel(), w.ravel(), minlength=self.size)

    @cached_property
    def interval_rule(self):
        """``(idx, w)``, both ``(3, M-1)``: the integral over interval ``k`` is
        ``sum_a w[a, k] f[idx[a, k]]``, on the three nodes of its quadratic.

        The one place that decides which quadratic integrates which interval:
        that of its Simpson panel (panels paired from node 0), and for an odd
        last interval the one through the last three nodes.
        """
        x = self.nodes
        m = x.size - 1
        ks = np.arange(0, m - 1, 2)
        h0 = x[ks + 1] - x[ks]
        h1 = x[ks + 2] - x[ks + 1]
        start = np.repeat(ks, 2)
        w = np.empty((3, m))
        # the first interval of a panel is the mirror image of a tail stub
        w[::-1, 0 : 2 * ks.size : 2] = _tail_stub_weights(h1, h0)
        w[:, 1 : 2 * ks.size : 2] = _tail_stub_weights(h0, h1)
        if m % 2 == 1:
            j = m - 1
            start = np.append(start, j - 1)
            w[:, j] = _tail_stub_weights(x[j] - x[j - 1], x[j + 1] - x[j])
        return start + np.arange(3)[:, None], w

    def refined(self) -> "RadialGrid":
        """Grid with every interval halved (for Richardson-style checks)."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        nodes = np.empty(self.nodes.size + mids.size)
        nodes[0::2] = self.nodes
        nodes[1::2] = mids
        return RadialGrid.from_nodes(nodes, self.n)

    def _check_len(self, f) -> None:
        if np.asarray(f).shape != self.nodes.shape:
            raise ConfigError("field samples must match grid nodes in length")


def auto_r_max(n: int, alpha: float, decay: str) -> float:
    if decay == EXPONENTIAL:
        return 1.0 + max(40.0 / alpha, 20.0)
    if decay == ALGEBRAIC:
        return max(10.0 ** (4.0 / (2.0 * (n - 1))), 50.0)
    raise ConfigError("decay must be 'exponential' or 'algebraic'")


def build_grid(
    n: int,
    alpha: float,
    points_per_unit_alpha: float = 10.0,
    R_max: float | None = None,
    decay: str = EXPONENTIAL,
    growth: float = 1.06,
    max_nodes: int = MAX_NODES_DEFAULT,
) -> RadialGrid:
    """Graded grid for a problem with decay scale ``1/alpha`` at the wall."""
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    if not 1.0 < growth < 2.0:  # at a spacing ratio of 2 a panel's first Simpson weight is 0
        raise ConfigError("growth must be > 1 and < 2")
    if R_max is None:
        R_max = auto_r_max(n, alpha, decay)
    if R_max <= 1.0:
        raise ConfigError("R_max must exceed 1")
    h0 = min(0.2, 1.0 / (points_per_unit_alpha * alpha))

    span = R_max - 1.0
    if span > H_MAX * max_nodes:  # steps are at most H_MAX, so this span takes more than max_nodes
        raise GridSizeError(f"grid would exceed {max_nodes} nodes")
    steps = []
    h = h0
    total = 0.0
    while total < span:
        steps.append(h)
        total += h
        if len(steps) + 1 + len(steps) % 2 > max_nodes:  # nodes, with the odd-interval split
            raise GridSizeError(f"grid would exceed {max_nodes} nodes")
        h = min(h * growth, H_MAX)
    # uniform rescale onto [1, R_max]: preserves consecutive-spacing ratios,
    # which keeps every generalized-Simpson panel weight positive
    hs = np.array(steps) * (span / total)
    if hs.size % 2 == 1:
        hs = np.concatenate([hs[:-1], [0.5 * hs[-1], 0.5 * hs[-1]]])
    nodes = np.empty(hs.size + 1)
    nodes[0] = 1.0
    nodes[1:] = 1.0 + np.cumsum(hs)
    nodes[-1] = R_max
    return RadialGrid.from_nodes(nodes, n)
