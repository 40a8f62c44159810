"""Graded radial grids with composite-Simpson quadrature.

The truncated domain ``[1, R_max]`` replaces the far-field condition
``phi -> 0`` by ``phi(R_max) = 0``.  A grid is geometry alone: the
dimension ``n`` enters only through the measure ``r^{n-1}``, which its
callers pass in.  :func:`auto_r_max` reads the truncation off the model,
whose regime decides the decay, and puts the neglected mass below 1e-8 of
the solution scale:

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bessel import check_finite
from .errors import ConfigError, GridSizeError, RangeError
from .kernel import IMPERMEABLE, ModelParams

__all__ = ["RadialGrid", "auto_r_max", "build_grid", "check_grid_keys"]

MAX_NODES = 2_000_000
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
    of a dimension ``n`` is applied by the norm helpers, so one grid serves every ``n``.
    """

    nodes: np.ndarray

    @classmethod
    def from_nodes(cls, nodes) -> "RadialGrid":
        """The grid on ``nodes``; every grid is built here, so its rules live here.
        Each rule is written so that a NaN fails it."""
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ConfigError("grid needs at least 3 nodes")
        if nodes[0] != 1.0 or not np.all(np.diff(nodes) > 0.0):
            raise ConfigError("grid nodes must start at 1 and increase strictly")
        if not np.isfinite(nodes[-1]):  # the nodes increase, so the last is the largest
            raise ConfigError("grid nodes must be finite")
        grid = cls(nodes=nodes)
        with np.errstate(over="ignore", invalid="ignore"):  # spacings whose cube overflows
            weights = grid.weights
        if not np.all(weights > 0.0):
            raise ConfigError("quadrature weights must be positive")
        return grid

    @property
    def R_max(self) -> float:
        """The truncation radius: the last node."""
        return float(self.nodes[-1])

    @property
    def size(self) -> int:
        return self.nodes.size

    def measure(self, n: int) -> np.ndarray:
        """``r^{n-1}`` at the nodes; ``RangeError`` once it leaves the double range."""
        with np.errstate(over="ignore"):
            return check_finite(self.nodes ** (n - 1), f"r**{n - 1} (n = {n})")

    def weighted_l2_norm(self, f: np.ndarray, n: int) -> float:
        """``(integral |f|^2 r^{n-1} dr)^(1/2)``, the natural radial norm in dimension ``n``."""
        self._check_len(f)
        return float(np.sqrt(np.dot(self.weights, np.asarray(f) ** 2 * self.measure(n))))

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
        k = np.arange(x.size - 1)
        start = np.minimum(k - k % 2, x.size - 3)
        h0 = x[start + 1] - x[start]
        h1 = x[start + 2] - x[start + 1]
        # the first interval of a panel is the mirror image of a tail stub.  Nodes, not
        # indices, are compared: an integer comparison would page in numpy code that no
        # other step of a CLI run uses, 0.13 MiB of peak RSS
        w = np.where(x[:-1] > x[start], _tail_stub_weights(h0, h1), _tail_stub_weights(h1, h0)[::-1])
        return start + np.arange(3)[:, None], w

    def refined(self) -> "RadialGrid":
        """Grid with every interval halved (for Richardson-style checks)."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        nodes = np.empty(self.nodes.size + mids.size)
        nodes[0::2] = self.nodes
        nodes[1::2] = mids
        return RadialGrid.from_nodes(nodes)

    def _check_len(self, f) -> None:
        if np.asarray(f).shape != self.nodes.shape:
            raise ConfigError("field samples must match grid nodes in length")


def auto_r_max(params: ModelParams) -> float:
    """The truncation of the model's regime: exponential decay at the wall, algebraic under a flow."""
    if params.regime == IMPERMEABLE:
        return 1.0 + max(40.0 / params.alpha, 20.0)
    return max(10.0 ** (4.0 / (2.0 * (params.n - 1))), 50.0)


def check_grid_keys(points_per_unit_alpha: float, growth: float, R_max: float | None) -> None:
    """The rules of the three ``grid`` keys (``R_max = None`` is the automatic truncation); NaN fails each."""
    if not points_per_unit_alpha > 0.0:
        raise ConfigError("grid.points_per_unit_alpha must be positive")
    if not 1.0 < growth < 2.0:  # at a spacing ratio of 2 a panel's first Simpson weight is 0
        raise ConfigError("grid.growth must be > 1 and < 2")
    if R_max is not None and not R_max > 1.0:
        raise ConfigError("grid.R_max must exceed 1")


def build_grid(alpha: float, R_max: float, points_per_unit_alpha: float = 10.0, growth: float = 1.06) -> RadialGrid:
    """Graded grid on ``[1, R_max]`` for a problem with decay scale ``1/alpha`` at the wall."""
    if not alpha > 0.0:  # also NaN
        raise ConfigError("alpha must be positive")
    check_grid_keys(points_per_unit_alpha, growth, R_max)
    h0 = min(0.2, 1.0 / (points_per_unit_alpha * alpha))
    if 1.0 + h0 == 1.0:
        raise RangeError(
            f"the wall spacing h0 = {h0:.3g} at alpha = {alpha:.3g} is below half the double spacing at r = 1"
        )

    span = R_max - 1.0
    # steps grow from h0 by `growth` to H_MAX and stay there, so at most `bound` reach the span
    # (+3: the step crossing H_MAX, the last one, rounding); MAX_NODES + 1 steps exceed the cap
    bound = math.log(H_MAX / h0) / math.log(growth) + span / H_MAX + 3.0
    steps = np.full(int(min(bound, MAX_NODES + 1)), growth)
    steps[0] = h0
    with np.errstate(over="ignore"):  # a product past H_MAX may overflow; the minimum caps it
        np.minimum(np.multiply.accumulate(steps, out=steps), H_MAX, out=steps)
    totals = np.cumsum(steps)  # summed in order, as the steps are taken
    # the steps up to the first total >= span.  Not np.searchsorted, nor math.log1p above: each
    # pages in 56-64 KiB of code that no other step of a CLI run uses, and peak RSS counts it
    count = int(np.count_nonzero(totals < span)) + 1
    if count + 1 + count % 2 > MAX_NODES:  # nodes, with the odd-interval split
        raise GridSizeError(f"grid would exceed {MAX_NODES} nodes")
    # uniform rescale onto [1, R_max]: preserves consecutive-spacing ratios,
    # which keeps every generalized-Simpson panel weight positive
    hs = steps[:count] * (span / totals[count - 1])
    if hs.size % 2 == 1:
        hs = np.concatenate([hs[:-1], [0.5 * hs[-1], 0.5 * hs[-1]]])
    nodes = np.empty(hs.size + 1)
    nodes[0] = 1.0
    nodes[1:] = 1.0 + np.cumsum(hs)
    nodes[-1] = R_max
    return RadialGrid.from_nodes(nodes)
