"""Radial grids: truncation policies, quadrature accuracy, cumulative tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsk.errors import ConfigError, GridSizeError
from nsk.grid import (
    ALGEBRAIC,
    EXPONENTIAL,
    RadialGrid,
    auto_r_max,
    build_grid,
)


class TestBuild:
    def test_exponential_truncation_policy(self):
        assert build_grid(3, 1.0).R_max == 41.0
        assert build_grid(3, 100.0).R_max == 21.0
        assert auto_r_max(3, 2.0, EXPONENTIAL) == 21.0

    def test_algebraic_truncation_policy(self):
        assert auto_r_max(3, 1.0, ALGEBRAIC) == 50.0
        assert auto_r_max(2, 1.0, ALGEBRAIC) == 100.0
        assert build_grid(2, 1.0, decay=ALGEBRAIC).R_max == 100.0

    def test_wall_spacing(self):
        g = build_grid(3, 1.0, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 0.1
        g = build_grid(3, 50.0, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 1.0 / 500.0
        g = build_grid(3, 1e-3, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 0.2

    def test_geometric_coarsening(self):
        g = build_grid(3, 10.0)
        hs = np.diff(g.nodes)
        assert hs[-1] > 10.0 * hs[0]
        # consecutive ratios stay panel-safe
        ratios = hs[1:] / hs[:-1]
        assert np.all(ratios < 2.0) and np.all(ratios >= 0.5 - 1e-12)

    def test_node_cap(self):
        with pytest.raises(GridSizeError):
            build_grid(3, 1000.0, points_per_unit_alpha=100.0, max_nodes=50)
        with pytest.raises(GridSizeError, match="exceed 2000000 nodes"):
            build_grid(3, 1.0, R_max=1e300)

    def test_node_cap_counts_final_nodes(self):
        # 14 steps here, and the odd-interval split makes the last one two
        size = build_grid(3, 1.0, R_max=3.0).size
        assert size == 15
        with pytest.raises(GridSizeError):
            build_grid(3, 1.0, R_max=3.0, max_nodes=size - 1)
        for alpha, decay in ((1.0, EXPONENTIAL), (3.0, ALGEBRAIC), (40.0, EXPONENTIAL)):
            size = build_grid(3, alpha, decay=decay).size
            assert build_grid(3, alpha, decay=decay, max_nodes=size).size == size
            with pytest.raises(GridSizeError):
                build_grid(3, alpha, decay=decay, max_nodes=size - 1)

    @settings(max_examples=60, deadline=None)
    @given(R_max=st.floats(min_value=1.05, max_value=30.0), max_nodes=st.integers(3, 400))
    def test_node_cap_is_never_exceeded(self, R_max, max_nodes):
        try:
            grid = build_grid(3, 2.0, R_max=R_max, max_nodes=max_nodes)
        except GridSizeError:
            assert build_grid(3, 2.0, R_max=R_max).size > max_nodes
        else:
            assert grid.size <= max_nodes

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            RadialGrid.from_nodes(np.array([1.5, 2.0, 3.0]), 3)  # must start at 1
        with pytest.raises(ConfigError):
            RadialGrid.from_nodes(np.array([1.0, 1.0, 2.0]), 3)  # strictly increasing
        with pytest.raises(ConfigError):
            build_grid(3, -1.0)
        for growth in (1.0, 2.0):
            with pytest.raises(ConfigError, match="growth must be > 1 and < 2"):
                build_grid(3, 1.0, growth=growth)

    def test_weights_positive(self):
        # in-panel spacing ratios stay <= growth, and (h0+h1)(2h0-h1)/(6h0) > 0 needs h1 < 2h0
        for alpha in (0.3, 1.0, 25.0):
            for decay in (EXPONENTIAL, ALGEBRAIC):
                for growth in (1.06, 1.99):
                    g = build_grid(3, alpha, decay=decay, growth=growth)
                    assert np.all(g.weights > 0.0)


class TestQuadrature:
    def test_polynomial_exactness(self):
        g = build_grid(3, 1.0)
        r = g.nodes
        R = g.R_max
        for k in (0, 1, 2):
            exact = (R ** (k + 1) - 1.0) / (k + 1)
            assert np.dot(g.weights, r**k) == pytest.approx(exact, rel=1e-13)

    def test_exponential_moment(self):
        # int_1^inf r^2 e^{-2r} dr = 1.25 e^{-2}
        g = build_grid(3, 1.0).refined().refined()
        val = np.dot(g.weights, g.nodes**2 * np.exp(-2.0 * g.nodes))
        assert val == pytest.approx(1.25 * math.exp(-2.0), abs=1e-8)

    def test_weighted_norm_zero(self):
        g = build_grid(3, 1.0)
        assert g.weighted_l2_norm(np.zeros(g.size)) == 0.0

    def test_weighted_norm_exponential(self):
        g = build_grid(3, 1.0).refined().refined()
        val = g.weighted_l2_norm(np.exp(-g.nodes))
        assert val == pytest.approx(math.sqrt(1.25) * math.exp(-1.0), abs=1e-8)

    def test_weighted_norm_algebraic_truncation_corrected(self):
        g = build_grid(2, 1.0, points_per_unit_alpha=20.0, R_max=300.0).refined().refined()
        val = g.weighted_l2_norm(1.0 / g.nodes**2)
        exact = math.sqrt(0.5 * (1.0 - g.R_max**-2))
        assert val == pytest.approx(exact, abs=1e-7)
        assert val == pytest.approx(math.sqrt(0.5), abs=1e-5)

    def test_refinement_convergence_order(self):
        # halving the mesh cuts the norm error by >= 8 until the floor
        g = build_grid(3, 1.0)
        exact = math.sqrt(1.25) * math.exp(-1.0)
        errs = []
        for _ in range(3):
            errs.append(abs(g.weighted_l2_norm(np.exp(-g.nodes)) - exact))
            g = g.refined()
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_length_mismatch(self):
        g = build_grid(3, 1.0)
        with pytest.raises(ConfigError):
            g.weighted_l2_norm(np.zeros(g.size - 1))
        with pytest.raises(ConfigError):
            g.reverse_cumulative(np.zeros(g.size + 2))


def _composite_weights_by_panel(nodes):
    """Composite Simpson on unequal panels, summed panel by panel from node 0 and closed
    for an odd interval count by the quadratic through the last three nodes."""
    out = np.zeros_like(nodes)
    b = len(nodes) - 1
    k = 0
    while b - k >= 2:
        h0, h1 = nodes[k + 1] - nodes[k], nodes[k + 2] - nodes[k + 1]
        out[k] += (h0 + h1) * (2.0 * h0 - h1) / (6.0 * h0)
        out[k + 1] += (h0 + h1) ** 3 / (6.0 * h0 * h1)
        out[k + 2] += (h0 + h1) * (2.0 * h1 - h0) / (6.0 * h1)
        k += 2
    if k == b - 1:  # nodes at -h0, 0, h1, integrated over [0, h1]
        h0, h1 = nodes[b - 1] - nodes[b - 2], nodes[b] - nodes[b - 1]
        out[b - 2] -= h1**3 / (6.0 * h0 * (h0 + h1))
        out[b - 1] += h1 * (3.0 * h0 + h1) / (6.0 * h0)
        out[b] += h1 * (2.0 * h1 + 3.0 * h0) / (6.0 * (h0 + h1))
    return out


def _grid_and_panel_loop(nodes):
    # the grid is made directly, past from_nodes' checks, so that nodes off 1 and spacings
    # that give negative weights reach the rule too
    return RadialGrid(nodes=nodes, n=3, R_max=float(nodes[-1])), _composite_weights_by_panel(nodes)


@pytest.mark.parametrize("size", range(3, 81))
def test_composite_weights_match_panel_loop_on_graded_nodes(size):
    # spacing ratios up to e^4: a weight is then the sum of interval parts that cancel,
    # so it is held to 1e-15 of their magnitudes
    rng = np.random.default_rng(size)
    spacing = np.exp(rng.uniform(-3.0, 1.0, size - 1))
    grid, ref = _grid_and_panel_loop(np.concatenate([[1.0], 1.0 + np.cumsum(spacing)]))
    idx, w = grid.interval_rule
    scale = np.bincount(idx.ravel(), np.abs(w).ravel())
    assert np.all(np.abs(grid.weights - ref) <= 1e-15 * scale)


@pytest.mark.parametrize("decay", (EXPONENTIAL, ALGEBRAIC))
@pytest.mark.parametrize("alpha", (0.5, 2.0, 10.0, 100.0, 1000.0))
def test_composite_weights_match_panel_loop_on_grids(alpha, decay):
    nodes = build_grid(3, alpha, decay=decay).nodes
    for nodes in (nodes, nodes[1:]):  # nodes[1:]: an odd interval count, the tail stub
        grid, ref = _grid_and_panel_loop(nodes)
        assert np.all(np.abs(grid.weights - ref) <= 1e-15 * np.abs(ref))


class TestReverseCumulative:
    def test_zero(self):
        g = build_grid(3, 1.0)
        assert np.all(g.reverse_cumulative(np.zeros(g.size)) == 0.0)

    def test_exponential_tail(self):
        g = build_grid(3, 1.0, points_per_unit_alpha=20.0).refined().refined()
        T = g.reverse_cumulative(np.exp(-g.nodes))
        exact = np.exp(-g.nodes) - math.exp(-g.R_max)
        assert np.max(np.abs(T - exact)) <= 1e-8

    def test_algebraic_tail(self):
        g = build_grid(3, 1.0, points_per_unit_alpha=40.0).refined().refined().refined()
        T = g.reverse_cumulative(g.nodes**-5.0)
        exact = (g.nodes**-4.0 - g.R_max**-4.0) / 4.0
        assert np.max(np.abs(T - exact)) <= 1e-8

    def test_last_entry_zero_and_monotone(self):
        g = build_grid(3, 2.0)
        T = g.reverse_cumulative(np.exp(-0.5 * g.nodes) * (2.0 + np.sin(g.nodes)))
        assert T[-1] == 0.0
        assert np.all(np.diff(T) <= 0.0)

    @pytest.mark.parametrize("size", range(3, 13))
    def test_each_interval_exact_on_quadratics(self, size):
        # every interval, on both parities and with the odd tail stub, integrates a
        # quadratic exactly, and the cached rule gives the same bytes on a second call
        nodes = 1.0 + np.cumsum(np.r_[0.0, 0.1 * 1.3 ** np.arange(size - 1)])
        g = RadialGrid.from_nodes(nodes, 3)
        q = 2.0 - 3.0 * g.nodes + 0.7 * g.nodes**2
        Q = 2.0 * g.nodes - 1.5 * g.nodes**2 + 0.7 / 3.0 * g.nodes**3
        T = g.reverse_cumulative(q)
        assert np.allclose(T[:-1] - T[1:], np.diff(Q), rtol=1e-13, atol=1e-13)
        assert np.array_equal(g.reverse_cumulative(q), T)

    def test_adjoint_consistency(self):
        # the suffix dot with the global weights matches T up to one panel's error
        g = build_grid(3, 1.0, points_per_unit_alpha=20.0)
        gvals = np.exp(-g.nodes)
        T = g.reverse_cumulative(gvals)
        for i in (0, 11, 25, g.size - 3):
            tail_dot = float(np.dot(g.weights[i:], gvals[i:]))
            h_local = g.nodes[min(i + 2, g.size - 1)] - g.nodes[max(i - 2, 0)]
            assert abs(tail_dot - T[i]) <= max(h_local**3, 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.2, max_value=30.0),
    rate=st.floats(min_value=0.1, max_value=2.0),
)
def test_smooth_nonnegative_tail_is_monotone(alpha, rate):
    g = build_grid(3, alpha)
    T = g.reverse_cumulative(np.exp(-rate * (g.nodes - 1.0)))
    assert np.all(np.diff(T) <= 1e-15)
