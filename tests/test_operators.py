"""Discrete integral operators: the O(M) apply matches the dense reference and quadratures the kernel."""

import tracemalloc

import numpy as np
import pytest
from dense_operators import dense_operators, split_weight_rows

from nsk.grid import ALGEBRAIC, RadialGrid, build_grid
from nsk.kernel import ModelParams, green, green_dr, kernel_params
from nsk.operators import assemble_operators


@pytest.fixture(scope="module")
def setup():
    params = ModelParams(n=3, gamma=1.0, kappa=0.04, mu=0.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    kp = kernel_params(params)
    grid = build_grid(params.n, kp.alpha, points_per_unit_alpha=12.0)
    return params, kp, grid


def _kernel(n, kappa):
    params = ModelParams(n=n, gamma=1.0, kappa=kappa, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    return kernel_params(params)


def _tiny(M):
    spacing = np.random.default_rng(M).uniform(0.3, 1.0, M - 1)
    return np.concatenate([[1.0], 1.0 + np.cumsum(spacing)])


# id -> (n, kappa, nodes as a function of alpha); build_grid always gives odd M
CASES = {
    "test_operators grid": (3, 0.04, lambda a: build_grid(3, a, points_per_unit_alpha=12.0).nodes),
    "even M": (3, 0.04, lambda a: build_grid(3, a, points_per_unit_alpha=12.0).nodes[:-1]),
    "algebraic n=2": (2, 0.2, lambda a: build_grid(2, a, decay=ALGEBRAIC).nodes),
    "algebraic n=3": (3, 0.05, lambda a: build_grid(3, a, decay=ALGEBRAIC).nodes),
    "algebraic n=4": (4, 0.2, lambda a: build_grid(4, a, decay=ALGEBRAIC).nodes),
    "exponential n=2": (2, 0.01, lambda a: build_grid(2, a, points_per_unit_alpha=16.0).nodes),
    "exponential n=4": (4, 0.01, lambda a: build_grid(4, a, points_per_unit_alpha=16.0).nodes),
}
CASES.update({f"n={n} M={M}": (n, 0.3, lambda a, M=M: _tiny(M)) for n in (2, 4) for M in (3, 4, 5, 6)})


@pytest.mark.parametrize("case", CASES)
def test_apply_matches_dense_reference(case):
    n, kappa, nodes = CASES[case]
    kp = _kernel(n, kappa)
    grid = RadialGrid.from_nodes(nodes(kp.alpha), n)
    A, Adr = dense_operators(grid, kp, kappa)
    op = assemble_operators(grid, kp, kappa)
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.standard_normal(grid.size)
        for got, dense in zip(op.apply(f), (A, Adr)):
            bound = 1e-13 * np.max(np.abs(dense) @ np.abs(f))
            assert np.max(np.abs(got - dense @ f)) <= bound


def test_rows_match_scalar_kernel(setup):
    # entries away from the corrected end rows are w_ij G(r_i, s_j) s_j^{n-1} / kappa
    params, kp, grid = setup
    op = assemble_operators(grid, kp, params.kappa)
    W, wl, wr = split_weight_rows(grid.nodes)
    snm1 = grid.measure()
    i = grid.size // 2
    for j in (0, 3, i - 1, i + 1, grid.size - 5):
        unit = np.zeros(grid.size)
        unit[j] = 1.0
        a_col, adr_col = op.apply(unit)
        expect = W[i, j] * green(kp, grid.nodes[i], grid.nodes[j]) * snm1[j] / params.kappa
        assert a_col[i] == pytest.approx(expect, rel=1e-13, abs=1e-300)
        expect = W[i, j] * green_dr(kp, grid.nodes[i], grid.nodes[j]) * snm1[j] / params.kappa
        assert adr_col[i] == pytest.approx(expect, rel=1e-13, abs=1e-300)


def test_operator_inverts_helmholtz(setup):
    # for f with f'(1)=0, A applied to (rhs of the Helmholtz ODE) returns f
    params, kp, grid = setup
    op = assemble_operators(grid, kp, params.kappa)
    r = grid.nodes
    a = kp.alpha
    # manufacture f with zero slope at the wall and fast decay
    f = np.exp(-2.0 * a * (r - 1.0)) * (1.0 + 2.0 * a * (r - 1.0))
    fp = -4.0 * a**2 * (r - 1.0) * np.exp(-2.0 * a * (r - 1.0))
    fpp = (-4.0 * a**2 + 8.0 * a**3 * (r - 1.0)) * np.exp(-2.0 * a * (r - 1.0))
    rhs = params.kappa * (fpp + (params.n - 1) / r * fp - a**2 * f)
    recovered, rec_d = op.apply(rhs)
    assert np.max(np.abs(recovered - f)) <= 5e-4 * np.max(np.abs(f))
    assert np.max(np.abs(rec_d - fp)) <= 1e-3 * np.max(np.abs(fp))


def test_quadrature_convergence_of_operator(setup):
    params, kp, grid = setup
    a = kp.alpha

    def err(g):
        rr = g.nodes
        ff = np.exp(-2.0 * a * (rr - 1.0)) * (1.0 + 2.0 * a * (rr - 1.0))
        fp = -4.0 * a**2 * (rr - 1.0) * np.exp(-2.0 * a * (rr - 1.0))
        fpp = (-4.0 * a**2 + 8.0 * a**3 * (rr - 1.0)) * np.exp(-2.0 * a * (rr - 1.0))
        rhs = params.kappa * (fpp + (params.n - 1) / rr * fp - a**2 * ff)
        af, _ = assemble_operators(g, kp, params.kappa).apply(rhs)
        return np.max(np.abs(af - ff))

    e0 = err(grid)
    e1 = err(grid.refined())
    assert e0 / e1 >= 7.0


def test_memory_is_linear_in_grid_size():
    # dense A and Adr would take 16 M^2 bytes: about 50 GB here
    kp = _kernel(2, 2.5e-5)
    grid = build_grid(2, kp.alpha, decay=ALGEBRAIC)
    assert grid.size >= 50_000
    f = np.cos(grid.nodes)
    tracemalloc.start()
    try:
        af, adrf = assemble_operators(grid, kp, 2.5e-5).apply(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(af)) and np.all(np.isfinite(adrf))
    assert peak < 64 * 2**20
