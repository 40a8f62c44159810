"""End-to-end acceptance suite; one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured numbers behind them.
"""

import math

import numpy as np

from nsk import oracle
from nsk.bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled
from nsk.cli import RunConfig
from nsk.grid import ALGEBRAIC, H_MAX, RadialGrid, auto_r_max, build_grid
from nsk.kernel import (
    KernelParams,
    ModelParams,
    green,
    green_dr_left,
    green_dr_right,
    kernel_params,
    lifting_phi_b,
)
from nsk.limit import integrate_profile, potential_w
from nsk.oracle import cross_validate, fd_reference
from nsk.rates import FIXED, SINGULAR, run_rate_study
from nsk.stationary import decay_diagnostics, solve_stationary

RATE_KAPPAS = tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(7))  # 1e-1 .. 1e-4


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_fixed_mode_rates():
    base = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-1.0, u_minus=0.0)
    res = run_rate_study(RunConfig(model=base, kappas=RATE_KAPPAS), FIXED)
    targets = {"l2_value": 0.75, "l2_derivative": 0.25, "sup": 0.50}
    detail = ", ".join(f"{k}={res.slopes[k]['value']:.3f} (target {t})" for k, t in targets.items())
    ok = all(abs(res.slopes[k]["value"] - t) <= 0.05 for k, t in targets.items())
    _report(1, "fixed-mode convergence rates", ok, detail)


def test_criterion_2_singular_mode_rates():
    base = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    res = run_rate_study(RunConfig(model=base, kappas=RATE_KAPPAS), SINGULAR)
    targets = {"l2_value": 0.75, "l2_derivative": 0.25, "sup": 0.50, "l2_value_y": 0.50}
    detail = ", ".join(f"{k}={res.slopes[k]['value']:.3f} (target {t})" for k, t in targets.items())
    ok = all(abs(res.slopes[k]["value"] - t) <= 0.05 for k, t in targets.items())
    _report(2, "singular-mode convergence rates", ok, detail)


# the six parameter sets of criterion 3, which the benchmark's verify workload also runs
ORACLE_CASES = (
    ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0),
    ModelParams(n=2, gamma=1.4, kappa=0.3, mu=1.0, rho_plus=1.0, rho_b=-0.05, u_minus=0.0),
    ModelParams(n=4, gamma=1.4, kappa=1.0, mu=0.0, rho_plus=0.8, rho_b=-0.05, u_minus=0.0),
    ModelParams(n=3, gamma=2.0, kappa=0.1, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0),
    ModelParams(n=2, gamma=2.0, kappa=1e-2, mu=1.0, rho_plus=1.0, rho_b=-0.05, u_minus=0.0),
    ModelParams(n=3, gamma=1.0, kappa=1e-3, mu=1.0, rho_plus=1.0, rho_b=-0.02, u_minus=0.0),
)


def test_criterion_3_oracle_equivalence():
    sups = []
    ok = True
    for p in ORACLE_CASES:
        sup, passed = cross_validate(p, 1e-6)
        sups.append(sup)
        ok = ok and passed
    # affine-enthalpy cases: both solvers against the closed-form solution
    closed_ok = True
    for p in ORACLE_CASES[3:5]:
        kp = kernel_params(p)
        grid = build_grid(p.n, kp.alpha, points_per_unit_alpha=24.0, growth=1.04)
        field = solve_stationary(p, grid, tol=1e-12)
        exact = lifting_phi_b(kp, p.rho_b, grid.nodes)[0]
        closed_ok &= float(np.max(np.abs(field.phi - exact))) <= 1e-7
        nodes, rho_fd = fd_reference(p)
        exact_fd = p.rho_plus + lifting_phi_b(kp, p.rho_b, nodes)[0]
        closed_ok &= float(np.max(np.abs(rho_fd - exact_fd))) <= 1e-10
    detail = "max sup_diff=%.2e, closed-form clause %s" % (max(sups), closed_ok)
    _report(3, "oracle equivalence over 6 parameter sets", ok and closed_ok, detail)


def test_oracle_node_budget(monkeypatch):
    # each FD level of the reference stays small on the six sets: no return to 1e6-node grids
    counts = []
    solve_fd = oracle.solve_fd

    def counted(params, node_count, R_max, **kw):
        counts.append(node_count)
        return solve_fd(params, node_count, R_max, **kw)

    monkeypatch.setattr(oracle, "solve_fd", counted)
    for p in ORACLE_CASES:
        fd_reference(p)
    assert len(counts) == 12 and max(counts) <= 51_000, counts


def test_criterion_4_bessel_identities():
    orders = [BesselOrder(k) for k in (0, 1, 2, 3, 4)]
    worst_wron = 0.0
    for order in orders:
        up = order.shifted()
        for x in np.geomspace(0.5, 100.0, 61):
            lhs = (
                bessel_i_scaled(order, x) * bessel_k_scaled(up, x)
                + bessel_i_scaled(up, x) * bessel_k_scaled(order, x)
            )
            worst_wron = max(worst_wron, abs(lhs * x - 1.0))
    worst_deriv = 0.0
    for order in orders:
        up = order.shifted()
        for z in np.geomspace(0.1, 50.0, 31):
            h = 1e-5 * max(z, 1.0)
            wi = lambda t: t ** (-order.nu) * bessel_i(order, t)
            wk = lambda t: t ** (-order.nu) * bessel_k(order, t)
            di = (wi(z + h) - wi(z - h)) / (2.0 * h)
            dk = (wk(z + h) - wk(z - h)) / (2.0 * h)
            worst_deriv = max(
                worst_deriv,
                abs(di / (z ** (-order.nu) * bessel_i(up, z)) - 1.0),
                abs(dk / (-(z ** (-order.nu)) * bessel_k(up, z)) - 1.0),
            )
    worst_closed = 0.0
    for x in np.geomspace(0.2, 200.0, 41):
        i_half = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        k_half = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        k_scaled = bessel_k_scaled(BesselOrder(1), x) * math.exp(-x)
        worst_closed = max(worst_closed, abs(k_scaled / k_half - 1.0))
        worst_closed = max(worst_closed, abs(bessel_i(BesselOrder(1), x) / i_half - 1.0))
    # dimension-3 kernel closed forms built on the half-integer functions
    for a in (0.5, 1.0, 40.0, 1000.0):
        kp = KernelParams(nu=BesselOrder(1), alpha=a)
        for r, s in ((1.0, 1.0), (2.0, 1.3), (1.5, 4.0)):
            exact = -math.exp(-a * abs(r - s)) / (2.0 * a * r * s) - (a - 1.0) / (
                2.0 * a * (a + 1.0)
            ) * math.exp(-a * (r + s - 2.0)) / (r * s)
            if exact == 0.0:  # kernel underflows for a|r-s| >> 1; nothing to compare
                continue
            worst_closed = max(worst_closed, abs(green(kp, r, s) / exact - 1.0))
        for r in (1.0, 2.0, 5.0):
            exact = 0.3 * math.exp(-a * (r - 1.0)) / ((a + 1.0) * r)
            val, _ = lifting_phi_b(kp, -0.3, r)
            if exact > 0.0:
                worst_closed = max(worst_closed, abs(val / exact - 1.0))
    ok = worst_wron <= 1e-12 and worst_deriv <= 1e-6 and worst_closed <= 1e-12
    detail = f"wronskian={worst_wron:.2e}, deriv-id={worst_deriv:.2e}, closed-form={worst_closed:.2e}"
    _report(4, "modified-Bessel identity suite", ok, detail)


def test_criterion_5_green_properties():
    worst_sym = worst_neu = worst_hom = 0.0
    c_star = {}
    r, s = np.meshgrid(np.linspace(1.0, 12.0, 25), np.linspace(1.0, 12.0, 25), indexing="ij")
    below, above = r > s, r < s
    for n in (2, 3, 4, 5):
        p = ModelParams(n=n, gamma=1.0, kappa=0.25, mu=0.0, rho_plus=1.0, rho_b=0.0, u_minus=0.0)
        kp = kernel_params(p)
        a = kp.alpha
        g = green(kp, r, s)
        worst_sym = max(worst_sym, np.max(np.abs(g - green(kp, s, r)) / np.abs(g)))
        env = np.exp(-a * np.abs(r - s)) / (r * s) ** ((n - 1) / 2.0)
        c_star[n] = max(
            np.max(np.abs(g) * a / env),
            np.max(np.abs(green_dr_right(kp, r[below], s[below])) / env[below]),
            np.max(np.abs(green_dr_left(kp, r[above], s[above])) / env[above]),
        )
        wall = np.array([1.5, 3.0, 8.0])
        worst_neu = max(worst_neu, np.max(np.abs(green_dr_left(kp, 1.0, wall)) / np.abs(green(kp, 1.0, wall))))
        h = 0.01 / a
        for sj in (2.0, 5.0):
            rs = np.linspace(1.3, 9.0, 17)
            rs = rs[np.abs(rs - sj) >= 6.0 * h]
            f = green(kp, rs + h * np.arange(-2, 3)[:, None], sj)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
            worst_hom = max(worst_hom, np.max(np.abs(d2 + (n - 1) / rs * d1 - a * a * f[2]) / np.abs(f[2])))
    ok = (
        worst_sym <= 1e-12
        and worst_neu <= 1e-12
        and worst_hom <= 1e-6
        and all(v <= 10.0 for v in c_star.values())
    )
    detail = (
        f"symmetry={worst_sym:.2e}, neumann={worst_neu:.2e}, "
        f"helmholtz={worst_hom:.2e}, C*={max(c_star.values()):.2f}"
    )
    _report(5, "Green-kernel property suite", ok, detail)


def test_criterion_6_inflow_outflow_suite():
    tol = 1e-6
    grid = build_grid(3, 1.0, points_per_unit_alpha=40.0, decay=ALGEBRAIC, growth=1.03)
    p = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.02, u_minus=0.05)
    sol = solve_stationary(p, grid, tol=tol)
    flux = sol.rho * sol.u * grid.measure()
    flux_err = float(np.max(np.abs(flux - sol.mass_flux)) / abs(sol.mass_flux))
    scale = max(1.0, float(np.max(np.abs(sol.rho - p.rho_plus))))
    residual_ok = sol.ode_residual_sup <= 10.0 * tol * scale

    ratios = []
    for s in (1.0, 0.5, 0.25, 0.125):
        ps = ModelParams(
            n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0,
            rho_b=-0.04 * s, u_minus=0.1 * math.sqrt(s),
        )
        sols = solve_stationary(ps, grid, tol=tol)
        data = abs(ps.rho_b) + ps.u_minus**2
        ratios.append(float(np.max(grid.nodes**4 * np.abs(sols.rho - 1.0))) / data)
    linear_ok = max(ratios) / min(ratios) <= 2.0 and all(np.isfinite(ratios))

    p_euler = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=0.0, rho_plus=1.0, rho_b=-0.02, u_minus=0.05)
    solve_stationary(p_euler, grid, tol=tol)  # mu = 0 converges: an unconverged solve raises

    p_imp = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.05, u_minus=0.0)
    f_imp = solve_stationary(p_imp, grid, tol=1e-12)
    diffs = []
    for u in (1e-2, 1e-3, 1e-4):
        pu = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.05, u_minus=u)
        su = solve_stationary(pu, grid, tol=1e-12)
        diffs.append(float(np.max(np.abs(su.rho - 1.0 - f_imp.phi))))
    cu = [d / u for d, u in zip(diffs, (1e-2, 1e-3, 1e-4))]
    continuity_ok = max(cu) / min(cu) <= 2.0 and diffs[0] > diffs[1] > diffs[2]

    ok = flux_err <= 1e-12 and residual_ok and linear_ok and continuity_ok
    detail = (
        f"flux={flux_err:.1e}, residual={sol.ode_residual_sup:.1e} (bar {10 * tol:.0e}), "
        f"linearity x{max(ratios) / min(ratios):.2f}, "
        f"u->0 C range x{max(cu) / min(cu):.2f}"
    )
    _report(6, "inflow/outflow suite", ok, detail)


def test_criterion_7_limit_profile_suite():
    worst_energy = 0.0
    for gamma, rho_b0 in ((1.0, -0.1), (1.4, -0.08), (2.0, -0.1)):
        prof = integrate_profile(gamma, 1.0, rho_b0)
        energy = 0.5 * prof.rho_bar_y**2 - potential_w(gamma, 1.0, prof.rho_bar)
        worst_energy = max(worst_energy, float(np.max(np.abs(energy))))
    prof2 = integrate_profile(2.0, 1.0, -0.1)
    exact = 1.0 + (0.1 / math.sqrt(2.0)) * np.exp(-math.sqrt(2.0) * prof2.y_nodes)
    gamma2_err = float(np.max(np.abs(prof2.rho_bar - exact)))
    prof1 = integrate_profile(1.0, 1.0, -0.1)
    m = (prof1.y_nodes >= 5.0) & (prof1.y_nodes <= 10.0)
    rate = -np.polyfit(prof1.y_nodes[m], np.log(prof1.rho_bar[m] - 1.0), 1)[0]
    ok = worst_energy <= 1e-10 and gamma2_err <= 1e-9 and abs(rate - 1.0) <= 0.02
    detail = f"energy={worst_energy:.1e}, gamma2-exact={gamma2_err:.1e}, tail-rate={rate:.4f}"
    _report(7, "limit-profile suite", ok, detail)


def test_criterion_8_impermeable_decay_envelope():
    p = ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1, u_minus=0.0)
    kp = kernel_params(p)
    grid = build_grid(3, kp.alpha, points_per_unit_alpha=16.0)
    field = solve_stationary(p, grid)
    sigma, c_fit = decay_diagnostics(field, kp)
    ok = sigma >= 0.9 * kp.alpha and np.isfinite(c_fit) and c_fit > 0.0
    detail = f"sigma_fit={sigma:.4f} (>= {0.9 * kp.alpha}), C_fit={c_fit:.3f}"
    _report(8, "exponential decay envelope", ok, detail)


def _capped_flow_grid(n: int, alpha: float) -> RadialGrid:
    """The flow grid with the far-field spacing capped at ``0.35/alpha``, as ``build_grid``
    made it before product integration: the same wall spacing, growth and truncation."""
    span = auto_r_max(n, alpha, ALGEBRAIC) - 1.0
    h, h_max = min(0.2, 1.0 / (10.0 * alpha)), min(H_MAX, 0.35 / alpha)
    steps, total = [], 0.0
    while total < span:
        steps.append(h)
        total += h
        h = min(h * 1.06, h_max)
    hs = np.array(steps) * (span / total)
    if hs.size % 2 == 1:
        hs = np.concatenate([hs[:-1], [0.5 * hs[-1], 0.5 * hs[-1]]])
    nodes = 1.0 + np.concatenate([[0.0], np.cumsum(hs)])
    nodes[-1] = 1.0 + span
    return RadialGrid.from_nodes(nodes, n)


def _far_field(sol, at):
    """``phi`` at the radii ``at`` by the cubic Hermite interpolant of ``(phi, phi_r)``."""
    r = sol.grid.nodes
    k = np.clip(np.searchsorted(r, at) - 1, 0, r.size - 2)
    h = r[k + 1] - r[k]
    t = (at - r[k]) / h
    return (
        (1.0 + 2.0 * t) * (1.0 - t) ** 2 * sol.phi[k]
        + t * (1.0 - t) ** 2 * h * sol.rho_r[k]
        + t**2 * (3.0 - 2.0 * t) * sol.phi[k + 1]
        - t**2 * (1.0 - t) * h * sol.rho_r[k + 1]
    )


def test_criterion_9_flow_grids_do_not_scale_with_alpha():
    # product integration resolves e^{-alpha|r-s|}, so the far field needs no 0.35/alpha cap.
    # rho_- and sup_{r>5}|phi| (sampled at the default grid's nodes) agree with a solve on the
    # capped grid within the default grid's own error estimate: its difference to
    # grid.refined(), times 2^4/(2^4 - 1) at fourth order and Roache's safety factor 1.25.
    # That estimate must resolve the far field to 1e-4 (Simpson on this grid: 0.6)
    lines, ok = [], True
    for kappa, capped_size in ((3e-3, 2567), (1e-3, 4439), (1e-4, 14011)):
        for u_minus in (0.05, -0.05):
            p = ModelParams(n=3, gamma=1.0, kappa=kappa, mu=1.0, rho_plus=1.0, rho_b=-0.02, u_minus=u_minus)
            alpha = kernel_params(p).alpha
            grid, capped = RunConfig(model=p).grid(p), _capped_flow_grid(3, alpha)
            ok &= capped.size == capped_size and capped.size >= 10 * grid.size
            lines.append(f"kappa={kappa:g} u={u_minus:+}: M {capped.size} -> {grid.size}")
            if kappa < 1e-3:  # Picard does not contract there
                continue
            at = grid.nodes[grid.nodes > 5.0]
            sols = [solve_stationary(p, g, tol=1e-13, max_iter=400) for g in (grid, grid.refined(), capped)]
            rho = [s.rho_minus for s in sols]
            far = [float(np.max(np.abs(_far_field(s, at)))) for s in sols]
            for name, (coarse, fine, ref) in (("rho_-", rho), ("far sup", far)):
                bound = 1.25 * 16.0 / 15.0 * abs(coarse - fine)
                ok &= abs(coarse - ref) <= bound
                lines.append(f"{name} off {abs(coarse - ref):.1e} (bound {bound:.1e})")
            ok &= abs(far[0] - far[1]) <= 1e-4 * far[0]
            lines.append(f"far sup resolved to {abs(far[0] - far[1]) / far[0]:.1e}")
    _report(9, "flow grids independent of alpha", ok, "; ".join(lines))


def test_criterion_10_residual_order_under_refinement():
    # every row of the operator integrates over the one partition of the grid, so the ODE
    # residual converges at the order of the rule: each halving of every interval cuts its
    # sup by at least 6x (a row-dependent pairing of Simpson panels held it near order 2)
    lines, ok = [], True
    for u_minus in (0.05, 0.2):
        p = ModelParams(n=3, gamma=1.0, kappa=1e-2, mu=1.0, rho_plus=1.0, rho_b=-0.02, u_minus=u_minus)
        grid = RunConfig(model=p).grid(p)
        sups = []
        for _ in range(4):
            sups.append(solve_stationary(p, grid, tol=1e-13, max_iter=400).ode_residual_sup)
            grid = grid.refined()
        cuts = [a / b for a, b in zip(sups, sups[1:])]
        ok &= min(cuts) >= 6.0
        trail = " -> ".join(f"{s:.1e}" for s in sups)
        lines.append(f"u={u_minus:+}: {trail} (min cut x{min(cuts):.1f})")
    _report(10, "residual order under refinement", ok, "; ".join(lines))
