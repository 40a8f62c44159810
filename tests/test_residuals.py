"""Hermite second-derivative reconstruction used by the residual checks."""

import numpy as np

from nsk.grid import build_grid
from nsk.stationary import hermite_second_derivative


def graded_grid():
    """A ``build_grid`` grid whose odd step count halves its last interval."""
    grid = build_grid(3, 3.0, R_max=3.0)
    h = np.diff(grid.nodes)
    assert abs(h[-1] - h[-2]) <= 1e-12 and h[-1] < 0.6 * h[-3] and h[0] < 0.3 * h[-3]
    return grid


def test_exact_on_quintics():
    mixed = np.concatenate([np.linspace(1.0, 2.0, 11), np.geomspace(2.2, 6.0, 9)])
    c = np.array([0.3, -1.2, 0.7, 0.05, -0.02, 0.004])
    for label, nodes in (("mixed", mixed), ("graded", graded_grid().nodes)):
        f = sum(ck * nodes**k for k, ck in enumerate(c))
        fp = sum(k * ck * nodes ** (k - 1) for k, ck in enumerate(c) if k > 0)
        fpp = sum(k * (k - 1) * ck * nodes ** (k - 2) for k, ck in enumerate(c) if k > 1)
        rec = hermite_second_derivative(nodes, f, fp)
        assert np.isnan(rec[0]) and np.isnan(rec[-1]), label
        assert np.max(np.abs(rec[1:-1] - fpp[1:-1])) <= 1e-10 * np.max(np.abs(fpp)), label
    # below three nodes there is no interior entry: all NaN, and no warning
    for size in (0, 1, 2):
        nodes = mixed[:size]
        rec = hermite_second_derivative(nodes, nodes**2, 2.0 * nodes)
        assert rec.shape == (size,) and np.isnan(rec).all(), size


def test_fourth_order_on_smooth_function():
    def err(nodes):
        f = np.sin(2.0 * nodes)
        fp = 2.0 * np.cos(2.0 * nodes)
        rec = hermite_second_derivative(nodes, f, fp)
        return np.nanmax(np.abs(rec + 4.0 * np.sin(2.0 * nodes)))

    graded = graded_grid()
    for label, coarse, fine in (
        ("uniform", np.linspace(1.0, 3.0, 41), np.linspace(1.0, 3.0, 81)),
        ("graded", graded.nodes, graded.refined().nodes),
    ):
        assert err(coarse) / err(fine) >= 12.0, label
