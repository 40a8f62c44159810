"""Discrete integral operators: the O(M) apply matches the dense reference and quadratures the kernel."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from dense_operators import dense_operators

from nsk.grid import RadialGrid, auto_r_max, build_grid
from nsk.kernel import ModelParams, green
from nsk.operators import _M2_TAYLOR, TAYLOR_Z, GreenOperator, _moments, _sweep, piece_weights


@pytest.fixture(scope="module")
def setup():
    params = ModelParams(n=3, gamma=1.0, kappa=0.04, mu=0.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    return params, _wall_grid(params, points_per_unit_alpha=12.0)


def _model(n, kappa):
    return ModelParams(n=n, gamma=1.0, kappa=kappa, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)


def _wall_grid(params, **kw):
    return build_grid(params.alpha, auto_r_max(params), **kw)


def _flow_grid(params, **kw):
    return build_grid(params.alpha, auto_r_max(replace(params, u_minus=0.05)), **kw)


def _tiny(M):
    spacing = np.random.default_rng(M).uniform(0.3, 1.0, M - 1)
    return np.concatenate([[1.0], 1.0 + np.cumsum(spacing)])


# id -> (n, kappa, nodes as a function of the model); build_grid always gives odd M
CASES = {
    "test_operators grid": (3, 0.04, lambda p: _wall_grid(p, points_per_unit_alpha=12.0).nodes),
    "even M": (3, 0.04, lambda p: _wall_grid(p, points_per_unit_alpha=12.0).nodes[:-1]),
    "algebraic n=2": (2, 0.2, lambda p: _flow_grid(p).nodes),
    "algebraic n=3": (3, 0.05, lambda p: _flow_grid(p).nodes),
    "algebraic n=4": (4, 0.2, lambda p: _flow_grid(p).nodes),
    "algebraic alpha h = 50": (3, 1e-4, lambda p: _flow_grid(p).nodes),
    "exponential n=2": (2, 0.01, lambda p: _wall_grid(p, points_per_unit_alpha=16.0).nodes),
    "exponential n=4": (4, 0.01, lambda p: _wall_grid(p, points_per_unit_alpha=16.0).nodes),
}
CASES.update({f"n={n} M={M}": (n, 0.3, lambda p, M=M: _tiny(M)) for n in (2, 4) for M in (3, 4, 5, 6)})


@pytest.mark.parametrize("case", CASES)
def test_apply_matches_dense_reference(case):
    n, kappa, nodes = CASES[case]
    params = _model(n, kappa)
    grid = RadialGrid.from_nodes(nodes(params))
    A, Adr = dense_operators(grid, params)
    op = GreenOperator(grid, params)
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.standard_normal(grid.size)
        for got, dense in zip(op.apply(f), (A, Adr)):
            bound = 1e-13 * np.max(np.abs(dense) @ np.abs(f))
            assert np.max(np.abs(got - dense @ f)) <= bound


def _direct_sweep(decay, x):
    """``sum_{j<i} x_j decay_{j+1} ... decay_i`` term by term in long double."""
    d = decay.astype(np.longdouble)
    x = x.astype(np.longdouble)
    out = np.zeros(x.shape, dtype=np.longdouble)
    for row in np.ndindex(x.shape[:-1]):
        for i in range(1, x.shape[-1]):
            out[row][i] = np.dot(x[row][i - 1 :: -1], np.cumprod(d[row][i:0:-1]))
    return out


@pytest.mark.parametrize("M", (2, 3, 4, 5, 159, 2567))
def test_sweep_matches_direct_sum(M):
    # decays exp(-alpha h) over the grids' range of alpha h, on stacked rows; in the
    # last row every third alpha h is past 745, where the decay underflows to exactly 0
    rng = np.random.default_rng(M)
    alpha_h = np.exp(rng.uniform(np.log(1e-2), np.log(30.0), (3, M)))
    alpha_h[2, 1::3] = 800.0
    decay = np.exp(-alpha_h)
    for x in (rng.standard_normal((3, M)), rng.random((3, M))):
        got = _sweep(decay, x)
        ref = _direct_sweep(decay, x)
        assert got.shape == x.shape
        for row in range(3):
            assert np.max(np.abs(got[row] - ref[row])) <= 1e-15 * np.max(np.abs(ref[row]))
        assert np.array_equal(_sweep(decay[0], x[0]), got[0])


def test_rows_match_scalar_kernel(setup):
    # rows of A f and Adr f are (1/kappa) int G(r_i, s) f(s) s^{n-1} ds of the scalar kernel
    # up to the rule's own error (at most 2e-7 of the largest row here): the reference is
    # 40-point Gauss-Legendre on every interval of the thrice-refined grid, split at r_i
    params, grid = setup
    grid = grid.refined().refined().refined()
    r = grid.nodes
    af, adrf = GreenOperator(grid, params).apply(np.cos(r) / r**2)
    xi, wq = np.polynomial.legendre.leggauss(40)
    s = (0.5 * (r[:-1] + r[1:])[:, None] + 0.5 * np.diff(r)[:, None] * xi).ravel()
    ws = (0.5 * np.diff(r)[:, None] * wq).ravel() * np.cos(s) * s ** (params.n - 3) / params.kappa
    for i in (1, 2, 3, 50, grid.size // 2, grid.size - 3, grid.size - 2):
        g, g_dr, _ = green(params.n, params.alpha, r[i], s)
        a_ref, adr_ref = np.dot(ws, g), np.dot(ws, g_dr)
        assert abs(af[i] - a_ref) <= 1e-6 * np.max(np.abs(af))
        assert abs(adrf[i] - adr_ref) <= 1e-6 * np.max(np.abs(adrf))


def test_operator_inverts_helmholtz(setup):
    # for f with f'(1)=0, A applied to (rhs of the Helmholtz ODE) returns f
    params, grid = setup
    op = GreenOperator(grid, params)
    r = grid.nodes
    a = params.alpha
    # manufacture f with zero slope at the wall and fast decay
    f = np.exp(-2.0 * a * (r - 1.0)) * (1.0 + 2.0 * a * (r - 1.0))
    fp = -4.0 * a**2 * (r - 1.0) * np.exp(-2.0 * a * (r - 1.0))
    fpp = (-4.0 * a**2 + 8.0 * a**3 * (r - 1.0)) * np.exp(-2.0 * a * (r - 1.0))
    rhs = params.kappa * (fpp + (params.n - 1) / r * fp - a**2 * f)
    recovered, rec_d = op.apply(rhs)
    assert np.max(np.abs(recovered - f)) <= 5e-4 * np.max(np.abs(f))
    assert np.max(np.abs(rec_d - fp)) <= 1e-3 * np.max(np.abs(fp))


def test_quadrature_convergence_of_operator(setup):
    params, grid = setup
    a = params.alpha

    def err(g):
        rr = g.nodes
        ff = np.exp(-2.0 * a * (rr - 1.0)) * (1.0 + 2.0 * a * (rr - 1.0))
        fp = -4.0 * a**2 * (rr - 1.0) * np.exp(-2.0 * a * (rr - 1.0))
        fpp = (-4.0 * a**2 + 8.0 * a**3 * (rr - 1.0)) * np.exp(-2.0 * a * (rr - 1.0))
        rhs = params.kappa * (fpp + (params.n - 1) / rr * fp - a**2 * ff)
        af, _ = GreenOperator(g, params).apply(rhs)
        return np.max(np.abs(af - ff))

    # the first halving gains less than fourth order (5.3x), because the coarse error is
    # already small; the two after it gain about 16x each
    errs = [err(grid)]
    for _ in range(3):
        grid = grid.refined()
        errs.append(err(grid))
    assert errs[0] <= 3e-5
    assert errs[1] / errs[2] >= 7.0 and errs[2] / errs[3] >= 7.0


def test_memory_is_linear_in_grid_size():
    # dense A and Adr would take 16 M^2 bytes: about 50 GB here
    params = _model(2, 2.5e-5)
    grid = RadialGrid.from_nodes(np.linspace(1.0, 100.0, 50_001))  # alpha h = 0.4
    f = np.cos(grid.nodes)
    tracemalloc.start()
    try:
        af, adrf = GreenOperator(grid, params).apply(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(af)) and np.all(np.isfinite(adrf))
    assert peak < 24 * 2**20


def _panel(h0, h1):
    """The grid on nodes ``1, 1 + h0, 1 + h0 + h1, 1 + h0 + 2 h1``: one panel, whose two
    intervals are the two stencil positions, and the tail stub, the second position again."""
    return RadialGrid.from_nodes(1.0 + np.array([0.0, h0, h0 + h1, h0 + 2.0 * h1]))


def _exp_moment(k, lo, hi, anchor, sign, alpha):
    """``int_lo^hi s^k e^{-alpha |s - anchor|} ds`` by 30-point Gauss-Legendre on 16 equal
    pieces of ``t = alpha |s - anchor|`` up to 80 (``e^{-80}`` is below 1e-34)."""
    span = min(alpha * (hi - lo), 80.0)
    xi, wq = np.polynomial.legendre.leggauss(30)
    edges = np.linspace(0.0, span, 17)
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * np.diff(edges)[:, None] * xi).ravel()
    w = (0.5 * np.diff(edges)[:, None] * wq).ravel()
    s = anchor + sign * t / alpha
    return np.dot(w, np.exp(-t) * s**k) / alpha


@pytest.mark.parametrize("ratio", (0.5, 1.0, 1.9))
@pytest.mark.parametrize("alpha_h", (1e-8, 1e-3, 0.1, 1.0, 10.0, 1e3, 5e3))
def test_piece_weights_integrate_quadratics_against_the_exponential(alpha_h, ratio):
    # h0 = 1, so alpha h0 = alpha_h; on every interval, each weight set integrates
    # {1, s, s^2} e^{-alpha(r_{k+1} - s)} and e^{-alpha(s - r_k)} to 1e-13 relative
    grid = _panel(1.0, ratio)
    x = grid.nodes
    idx, _ = grid.interval_rule
    down, up = piece_weights(grid, alpha_h)
    for k in range(3):
        for w, anchor, sign in ((down[:, k], x[k + 1], -1.0), (up[:, k], x[k], 1.0)):
            assert np.all(np.isfinite(w))
            for p in (0, 1, 2):
                ref = _exp_moment(p, x[k], x[k + 1], anchor, sign, alpha_h)
                assert abs(np.dot(w, x[idx[:, k]] ** p) - ref) <= 1e-13 * abs(ref)


def test_piece_weights_are_continuous_across_the_taylor_switch():
    # alpha times each interval length on either side of the switch, one rounding apart
    for h0, h1 in ((1.0, 0.5), (1.0, 1.0), (1.0, 1.9)):
        grid = _panel(h0, h1)
        for length in (h0, h1):
            below = np.nextafter(TAYLOR_Z, 0.0) / length
            for lo, hi in zip(piece_weights(grid, below), piece_weights(grid, TAYLOR_Z / length)):
                assert np.max(np.abs(lo - hi)) <= 1e-14 * (h0 + h1)


def test_taylor_moments_match_polyval():
    # the Horner loop is numpy's polyval written out: same operations, same order, same bits
    z = np.concatenate(([0.0], np.nextafter(TAYLOR_Z, 0.0) * np.random.default_rng(1).random(200)))
    assert np.array_equal(_moments(z)[2], np.polynomial.polynomial.polyval(z, _M2_TAYLOR))


def test_piece_weights_tend_to_simpson():
    # as alpha -> 0 both weight sets tend to the grid's interval weights, on a grid with
    # both stencil positions and an odd last interval
    grid = RadialGrid.from_nodes(1.0 + np.cumsum([0.0, 0.3, 0.45, 0.5, 0.6, 0.4]))
    _, simpson = grid.interval_rule
    for alpha in (0.0, 1e-12):
        for got in piece_weights(grid, alpha):
            assert got == pytest.approx(simpson, rel=1e-11, abs=0.0)


def test_huge_alpha_h_apply_is_finite_and_quiet():
    # kappa = 1e-8 on the flow grid: alpha h reaches 5e3 and every decay underflows to 0
    params = _model(3, 1e-8)
    grid = _flow_grid(params)
    assert params.alpha * np.max(np.diff(grid.nodes)) > 4e3
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        op = GreenOperator(grid, params)
        af, adrf = op.apply(grid.nodes ** -4.0)
    assert np.all(np.isfinite(af)) and np.all(np.isfinite(adrf))

