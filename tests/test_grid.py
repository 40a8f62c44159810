"""Radial grids: truncation policies, quadrature accuracy, cumulative tails."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsk.grid as grid_mod
from nsk.errors import ConfigError, GridSizeError
from nsk.grid import H_MAX, RadialGrid, auto_r_max, build_grid
from nsk.kernel import ModelParams


def _model(alpha, n=3, u_minus=0.0):
    """A model with the wall rate ``alpha``: at gamma = 1 and rho_+ = 1, h'(rho_+) = 1."""
    return ModelParams(n=n, gamma=1.0, kappa=alpha**-2, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=u_minus)


def _wall_r_max(alpha):
    """The wall's truncation at ``alpha``, for grids built without a model."""
    return 1.0 + max(40.0 / alpha, 20.0)


class TestBuild:
    def test_exponential_truncation_policy(self):
        # the wall: 40 decay lengths 1/alpha, but never a span below 20 (from alpha = 2 on)
        for n in (2, 3, 4):
            assert auto_r_max(_model(0.5, n)) == 81.0
            assert auto_r_max(_model(1.0, n)) == 41.0
            assert auto_r_max(_model(2.0, n)) == 21.0
            assert auto_r_max(_model(4.0, n)) == 21.0
            assert auto_r_max(_model(100.0, n)) == 21.0
        assert build_grid(1.0, auto_r_max(_model(1.0))).R_max == 41.0

    def test_algebraic_truncation_policy(self):
        # inflow and outflow: max(10^(4/(2(n-1))), 50), whatever alpha
        for u_minus in (0.05, -0.05):
            for alpha in (1.0, 100.0):
                assert auto_r_max(_model(alpha, 2, u_minus)) == 100.0
                assert auto_r_max(_model(alpha, 3, u_minus)) == 50.0
                assert auto_r_max(_model(alpha, 4, u_minus)) == 50.0
        assert build_grid(1.0, auto_r_max(_model(1.0, 2, 0.05))).R_max == 100.0

    def test_wall_spacing(self):
        g = build_grid(1.0, 41.0, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 0.1
        g = build_grid(50.0, 21.0, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 1.0 / 500.0
        g = build_grid(1e-3, 40001.0, points_per_unit_alpha=10.0)
        assert g.nodes[1] - g.nodes[0] <= 0.2

    def test_geometric_coarsening(self):
        g = build_grid(10.0, 21.0)
        hs = np.diff(g.nodes)
        assert hs[-1] > 10.0 * hs[0]
        # consecutive ratios stay panel-safe
        ratios = hs[1:] / hs[:-1]
        assert np.all(ratios < 2.0) and np.all(ratios >= 0.5 - 1e-12)

    def test_node_cap(self, monkeypatch):
        with pytest.raises(GridSizeError, match="exceed 2000000 nodes"):
            build_grid(1.0, 1e300)
        monkeypatch.setattr(grid_mod, "MAX_NODES", 50)
        with pytest.raises(GridSizeError, match="exceed 50 nodes"):
            build_grid(1000.0, 21.0, points_per_unit_alpha=100.0)

    def test_node_cap_counts_final_nodes(self, monkeypatch):
        cases = [dict(alpha=1.0, R_max=3.0), dict(alpha=1.0, R_max=41.0), dict(alpha=3.0, R_max=50.0), dict(alpha=40.0, R_max=21.0)]
        sizes = [build_grid(**case).size for case in cases]
        assert sizes[0] == 15  # 14 steps, and the odd-interval split makes the last one two
        for case, size in zip(cases, sizes):
            monkeypatch.setattr(grid_mod, "MAX_NODES", size)
            assert build_grid(**case).size == size
            monkeypatch.setattr(grid_mod, "MAX_NODES", size - 1)
            with pytest.raises(GridSizeError):
                build_grid(**case)

    @settings(max_examples=60, deadline=None)
    @given(R_max=st.floats(min_value=1.05, max_value=30.0), max_nodes=st.integers(3, 400))
    def test_node_cap_is_never_exceeded(self, R_max, max_nodes):
        # patched in the body: a function-scoped fixture would span every example
        size = build_grid(2.0, R_max).size
        with mock.patch.object(grid_mod, "MAX_NODES", max_nodes):
            try:
                grid = build_grid(2.0, R_max)
            except GridSizeError:
                assert size > max_nodes
            else:
                assert grid.size <= max_nodes

    def test_steps_match_the_loop(self):
        # seeded alpha, R_max, density, growth and node cap: the same nodes bit for bit, or the same refusal
        rng = np.random.default_rng(20261022)
        refused = 0
        for _ in range(300):
            alpha, span, density = 10.0 ** rng.uniform([-2.0, -2.0, 0.0], [4.0, 3.0, 2.0])
            growth = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(0.99))
            with mock.patch.object(grid_mod, "MAX_NODES", int(10.0 ** rng.uniform(1.0, 4.0))):
                try:
                    ref = _build_grid_by_loop(alpha, 1.0 + span, density, growth)
                except GridSizeError as exc:
                    refused += 1
                    with pytest.raises(GridSizeError, match=f"^{exc}$"):
                        build_grid(alpha, 1.0 + span, density, growth)
                else:
                    assert build_grid(alpha, 1.0 + span, density, growth).nodes.tobytes() == ref.tobytes()
        assert 30 <= refused <= 270

    def test_a_grid_past_the_cap_is_refused_quickly(self):
        # 2.7e8 steps grow from 1e-12 to H_MAX: the refusal reads MAX_NODES + 1 of them, not more
        start = time.process_time()
        with pytest.raises(GridSizeError, match="^grid would exceed 2000000 nodes$"):
            build_grid(1.0, 41.0, points_per_unit_alpha=1e12, growth=1.0000001)
        assert time.process_time() - start <= 0.3

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            RadialGrid.from_nodes(np.array([1.5, 2.0, 3.0]))  # must start at 1
        with pytest.raises(ConfigError):
            RadialGrid.from_nodes(np.array([1.0, 1.0, 2.0]))  # strictly increasing
        with pytest.raises(ConfigError):
            build_grid(-1.0, 41.0)
        for growth in (1.0, 2.0):
            with pytest.raises(ConfigError, match="growth must be > 1 and < 2"):
                build_grid(1.0, 41.0, growth=growth)

    @pytest.mark.parametrize("density", [0.0, -1.0, math.nan])
    def test_nonpositive_density_refused(self, density):
        # refused before any step is built: 0 divides by zero, and -1 makes a negative wall spacing
        with pytest.raises(ConfigError, match=r"^grid\.points_per_unit_alpha must be positive$"):
            build_grid(1.0, 41.0, points_per_unit_alpha=density)

    def test_nan_scale_and_span_refused(self):
        # a NaN alpha or R_max ended the step loop at once and divided by zero
        with pytest.raises(ConfigError, match="^alpha must be positive$"):
            build_grid(math.nan, 41.0)
        with pytest.raises(ConfigError, match=r"^grid\.R_max must exceed 1$"):
            build_grid(1.0, math.nan)

    def test_from_nodes_refusals(self):
        with pytest.raises(ConfigError, match="^grid needs at least 3 nodes$"):
            RadialGrid.from_nodes(np.array([1.0, 2.0]))
        # spacing ratio 3 within a Simpson panel: its first weight is negative
        with pytest.raises(ConfigError, match="^quadrature weights must be positive$"):
            RadialGrid.from_nodes(np.array([1.0, 1.1, 1.4]))

    def test_from_nodes_refuses_nan_inf_and_nan_weights(self):
        # each rule fails a NaN: a NaN node gave all-NaN weights, an infinite one a divide warning
        with pytest.raises(ConfigError, match="^grid nodes must start at 1 and increase strictly$"):
            RadialGrid.from_nodes([1.0, math.nan, 3.0, 4.0])
        with pytest.raises(ConfigError, match="^grid nodes must be finite$"):
            RadialGrid.from_nodes([1.0, 2.0, math.inf])
        # finite spacings whose cubes overflow: NaN weights, refused without a warning
        with pytest.raises(ConfigError, match="^quadrature weights must be positive$"):
            RadialGrid.from_nodes([1.0, 1e150, 1e200])

    def test_weights_positive(self):
        # in-panel spacing ratios stay <= growth, and (h0+h1)(2h0-h1)/(6h0) > 0 needs h1 < 2h0
        for alpha in (0.3, 1.0, 25.0):
            for R_max in (_wall_r_max(alpha), 50.0):  # the wall's and a flow's at n = 3
                for growth in (1.06, 1.99):
                    g = build_grid(alpha, R_max, growth=growth)
                    assert np.all(g.weights > 0.0)


class TestQuadrature:
    def test_polynomial_exactness(self):
        g = build_grid(1.0, 41.0)
        r = g.nodes
        R = g.R_max
        for k in (0, 1, 2):
            exact = (R ** (k + 1) - 1.0) / (k + 1)
            assert np.dot(g.weights, r**k) == pytest.approx(exact, rel=1e-13)

    def test_exponential_moment(self):
        # int_1^inf r^2 e^{-2r} dr = 1.25 e^{-2}
        g = build_grid(1.0, 41.0).refined().refined()
        val = np.dot(g.weights, g.nodes**2 * np.exp(-2.0 * g.nodes))
        assert val == pytest.approx(1.25 * math.exp(-2.0), abs=1e-8)

    def test_weighted_norm_zero(self):
        g = build_grid(1.0, 41.0)
        assert g.weighted_l2_norm(np.zeros(g.size), 3) == 0.0

    def test_weighted_norm_exponential(self):
        g = build_grid(1.0, 41.0).refined().refined()
        val = g.weighted_l2_norm(np.exp(-g.nodes), 3)
        assert val == pytest.approx(math.sqrt(1.25) * math.exp(-1.0), abs=1e-8)

    def test_weighted_norm_algebraic_truncation_corrected(self):
        g = build_grid(1.0, 300.0, points_per_unit_alpha=20.0).refined().refined()
        val = g.weighted_l2_norm(1.0 / g.nodes**2, 2)
        exact = math.sqrt(0.5 * (1.0 - g.R_max**-2))
        assert val == pytest.approx(exact, abs=1e-7)
        assert val == pytest.approx(math.sqrt(0.5), abs=1e-5)

    def test_refinement_convergence_order(self):
        # halving the mesh cuts the norm error by >= 8 until the floor
        g = build_grid(1.0, 41.0)
        exact = math.sqrt(1.25) * math.exp(-1.0)
        errs = []
        for _ in range(3):
            errs.append(abs(g.weighted_l2_norm(np.exp(-g.nodes), 3) - exact))
            g = g.refined()
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_length_mismatch(self):
        g = build_grid(1.0, 41.0)
        with pytest.raises(ConfigError):
            g.weighted_l2_norm(np.zeros(g.size - 1), 3)
        with pytest.raises(ConfigError):
            g.reverse_cumulative(np.zeros(g.size + 2))


def _build_grid_by_loop(alpha, R_max, points_per_unit_alpha, growth):
    """``build_grid``'s nodes with the steps taken one at a time, as a reference."""
    h0 = min(0.2, 1.0 / (points_per_unit_alpha * alpha))
    span = R_max - 1.0
    if span > H_MAX * grid_mod.MAX_NODES:
        raise GridSizeError(f"grid would exceed {grid_mod.MAX_NODES} nodes")
    steps = []
    h = h0
    total = 0.0
    while total < span:
        steps.append(h)
        total += h
        if len(steps) + 1 + len(steps) % 2 > grid_mod.MAX_NODES:
            raise GridSizeError(f"grid would exceed {grid_mod.MAX_NODES} nodes")
        h = min(h * growth, H_MAX)
    hs = np.array(steps) * (span / total)
    if hs.size % 2 == 1:
        hs = np.concatenate([hs[:-1], [0.5 * hs[-1], 0.5 * hs[-1]]])
    nodes = np.empty(hs.size + 1)
    nodes[0] = 1.0
    nodes[1:] = 1.0 + np.cumsum(hs)
    nodes[-1] = R_max
    return nodes


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
    return RadialGrid(nodes=nodes), _composite_weights_by_panel(nodes)


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


@pytest.mark.parametrize("decay", ("exponential", "algebraic"))
@pytest.mark.parametrize("alpha", (0.5, 2.0, 10.0, 100.0, 1000.0))
def test_composite_weights_match_panel_loop_on_grids(alpha, decay):
    p = _model(alpha, u_minus=0.0 if decay == "exponential" else 0.05)
    nodes = build_grid(p.alpha, auto_r_max(p)).nodes
    for nodes in (nodes, nodes[1:]):  # nodes[1:]: an odd interval count, the tail stub
        grid, ref = _grid_and_panel_loop(nodes)
        assert np.all(np.abs(grid.weights - ref) <= 1e-15 * np.abs(ref))


class TestReverseCumulative:
    def test_zero(self):
        g = build_grid(1.0, 41.0)
        assert np.all(g.reverse_cumulative(np.zeros(g.size)) == 0.0)

    def test_exponential_tail(self):
        g = build_grid(1.0, 41.0, points_per_unit_alpha=20.0).refined().refined()
        T = g.reverse_cumulative(np.exp(-g.nodes))
        exact = np.exp(-g.nodes) - math.exp(-g.R_max)
        assert np.max(np.abs(T - exact)) <= 1e-8

    def test_algebraic_tail(self):
        g = build_grid(1.0, 41.0, points_per_unit_alpha=40.0).refined().refined().refined()
        T = g.reverse_cumulative(g.nodes**-5.0)
        exact = (g.nodes**-4.0 - g.R_max**-4.0) / 4.0
        assert np.max(np.abs(T - exact)) <= 1e-8

    def test_last_entry_zero_and_monotone(self):
        g = build_grid(2.0, 21.0)
        T = g.reverse_cumulative(np.exp(-0.5 * g.nodes) * (2.0 + np.sin(g.nodes)))
        assert T[-1] == 0.0
        assert np.all(np.diff(T) <= 0.0)

    @pytest.mark.parametrize("size", range(3, 13))
    def test_each_interval_exact_on_quadratics(self, size):
        # every interval, on both parities and with the odd tail stub, integrates a
        # quadratic exactly, and the cached rule gives the same bytes on a second call
        nodes = 1.0 + np.cumsum(np.r_[0.0, 0.1 * 1.3 ** np.arange(size - 1)])
        g = RadialGrid.from_nodes(nodes)
        q = 2.0 - 3.0 * g.nodes + 0.7 * g.nodes**2
        Q = 2.0 * g.nodes - 1.5 * g.nodes**2 + 0.7 / 3.0 * g.nodes**3
        T = g.reverse_cumulative(q)
        assert np.allclose(T[:-1] - T[1:], np.diff(Q), rtol=1e-13, atol=1e-13)
        assert np.array_equal(g.reverse_cumulative(q), T)

    def test_adjoint_consistency(self):
        # the suffix dot with the global weights matches T up to one panel's error
        g = build_grid(1.0, 41.0, points_per_unit_alpha=20.0)
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
    g = build_grid(alpha, _wall_r_max(alpha))
    T = g.reverse_cumulative(np.exp(-rate * (g.nodes - 1.0)))
    assert np.all(np.diff(T) <= 1e-15)
