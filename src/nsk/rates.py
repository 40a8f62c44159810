r"""Vanishing-capillarity rate study: sweep kappa, measure, fit slopes.

Two modes:

* ``fixed``: boundary slope ``rho_b`` held fixed; errors of the solution
  against the constant far-field state.  Expected orders 3/4 (weighted L2
  of values), 1/4 (weighted L2 of the derivative), 1/2 (sup).
* ``singular``: ``rho_b = rho_b^0 / sqrt(kappa)``; errors against the
  rescaled boundary-layer profile ``rho_bar((r-1)/sqrt(kappa))``, same
  orders, plus the layer-variable restatement
  ``||rho^kappa(1 + sqrt(kappa) y) - rho_bar||_{L2_y}`` of order 1/2,
  obtained exactly from the radial norm by the change of variables
  (a factor ``kappa^{-1/4}``).

Grids scale with ``alpha = O(kappa^{-1/2})`` so discretization error stays
below the measured gaps at the smallest kappa.  Ordinary least squares on
``(log kappa, log error)`` gives slope and standard error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError
from .limit import LimitProfile, integrate_profile
from .stationary import fit_line, solve_stationary

__all__ = [
    "FIXED",
    "SINGULAR",
    "NORM_KEYS",
    "RateRow",
    "RateStudyResult",
    "run_rate_study",
    "emit_outputs",
    "FLOAT_FORMAT",
    "format_float",
    "write_rows",
]

FIXED = "fixed"
SINGULAR = "singular"
NORM_KEYS = ("l2_value", "l2_derivative", "sup")
L2Y_KEY = "l2_value_y"


@dataclass
class RateRow:
    """One kappa of a study: its fields are the ``summary.json`` row, field for field."""

    kappa: float
    errors: dict = field(default_factory=dict)
    nodes: int = 0
    iterations: int = 0
    failed: str | None = None


@dataclass
class RateStudyResult:
    mode: str
    rows: list
    slopes: dict = field(default_factory=dict)  # norm -> {"value": slope, "stderr": stderr}
    profiles: list = field(default_factory=list)  # (kappa, nodes, rho) kept for emit
    limit: LimitProfile | None = None


def _solve_one(cfg, mode: str, kappa: float, profile: LimitProfile | None):
    base = cfg.model
    rho_b = base.rho_b if mode == FIXED else base.rho_b / math.sqrt(kappa)
    params = replace(base, kappa=kappa, rho_b=rho_b)
    grid = cfg.grid(params)
    sol = solve_stationary(params, grid, tol=cfg.tol, max_iter=cfg.max_iter)
    if mode == FIXED:
        diff = sol.phi
        diff_r = sol.rho_r
    else:
        y = (grid.nodes - 1.0) / math.sqrt(kappa)
        diff = sol.rho - profile.evaluate(y)
        diff_r = sol.rho_r - profile.slope(y) / math.sqrt(kappa)
    errors = {
        "l2_value": grid.weighted_l2_norm(diff, params.n),
        "l2_derivative": grid.weighted_l2_norm(diff_r, params.n),
        "sup": float(np.max(np.abs(diff))),
    }
    for key, err in errors.items():
        if not 0.0 < err < math.inf:
            raise ConfigError(
                f"the {key} error at kappa = {kappa!r} is {err}: "
                "a log-log fit needs positive, finite errors"
            )
    if mode == SINGULAR:
        # exact change of variables r = 1 + sqrt(kappa) y
        errors[L2Y_KEY] = errors["l2_value"] * kappa ** (-0.25)
    row = RateRow(kappa=kappa, errors=errors, nodes=grid.size, iterations=sol.iterations)
    return row, (kappa, grid.nodes, sol.rho)


def run_rate_study(cfg, mode: str) -> RateStudyResult:
    """Sweep ``cfg.kappas`` in ``mode``; ``cfg`` is the run's :class:`nsk.cli.RunConfig`, which checked them.

    ``cfg.model.rho_b`` is the fixed slope, or ``rho_b^0`` in singular mode.  Every
    row solves with ``points_per_unit_alpha >= 16``, ``growth <= 1.05`` and
    ``max_iter >= 400``, on the default ``R_max``.  Every row measures all of
    :data:`NORM_KEYS`, plus :data:`L2Y_KEY` in singular mode.
    """
    if cfg.model.u_minus != 0.0:
        raise ConfigError("the rate study covers the impermeable wall only: it requires u_minus = 0")
    cfg = replace(
        cfg,
        points_per_unit_alpha=max(cfg.points_per_unit_alpha, 16.0),
        growth=min(cfg.growth, 1.05),
        max_iter=max(cfg.max_iter, 400),
        R_max=None,
    )
    profile = None
    if mode == SINGULAR:
        profile = integrate_profile(cfg.model.law, cfg.model.rho_b)

    result = RateStudyResult(mode=mode, rows=[], limit=profile)
    for kappa in cfg.kappas:
        try:
            row, prof = _solve_one(cfg, mode, kappa, profile)
        except SolverError as exc:
            row = RateRow(kappa=kappa, failed=str(exc))
        else:
            result.profiles.append(prof)
        result.rows.append(row)

    norm_keys = NORM_KEYS + ((L2Y_KEY,) if mode == SINGULAR else ())
    good = [row for row in result.rows if row.failed is None]
    if len(good) < 4:
        raise SolverError(
            f"only {len(good)} of {len(result.rows)} kappa rows solved; "
            "a slope fit needs at least 4"
        )
    log_ks = np.log([row.kappa for row in good])
    for key in norm_keys:
        slope, stderr = fit_line(log_ks, np.log([row.errors[key] for row in good]))
        result.slopes[key] = {"value": slope, "stderr": stderr}
    return result


FLOAT_FORMAT = "%.17g"  # 17 significant digits: the round-trip form used in every output file
# rows per write: the values, tuple and text of one write grow with the width, not the row count
WRITE_BLOCK = 1024


def format_float(x: float) -> str:
    """``x`` in :data:`FLOAT_FORMAT`."""
    return FLOAT_FORMAT % float(x)


def write_rows(fh, prefix: str, columns) -> None:
    """Write one CSV line per row of ``columns``: ``prefix`` and the row in :data:`FLOAT_FORMAT`.

    Rows are stacked, formatted and written :data:`WRITE_BLOCK` at a time.
    """
    line = prefix.replace("%", "%%") + ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), WRITE_BLOCK):
        block = np.column_stack([column[lo : lo + WRITE_BLOCK] for column in columns])
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def emit_outputs(result: RateStudyResult, out_dir) -> list:
    """Write rates.csv, profiles.csv, summary.json, and plot.gp; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    good = [row for row in result.rows if row.failed is None]
    norm_keys = sorted(result.slopes)

    # counts are integral, so FLOAT_FORMAT prints them as integers
    table = np.array(
        [[row.kappa, *(row.errors[k] for k in norm_keys), row.nodes, row.iterations] for row in good],
        dtype=float,
    ).reshape(len(good), len(norm_keys) + 3)
    rates = out / "rates.csv"
    with rates.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["kappa"] + norm_keys + ["nodes", "iterations"]) + "\n")
        write_rows(fh, "", table.T)

    profiles = out / "profiles.csv"
    with profiles.open("w", newline="", encoding="utf-8") as fh:
        fh.write("series,kappa,x,value\n")
        for kappa, nodes, rho in result.profiles:
            write_rows(fh, f"rho_kappa,{format_float(kappa)},", (nodes, rho))
            if result.mode == SINGULAR:
                ys = (nodes - 1.0) / math.sqrt(kappa)
                write_rows(fh, f"rho_kappa_y,{format_float(kappa)},", (ys, rho))
        if result.mode == SINGULAR and result.limit is not None:
            write_rows(fh, "rho_bar,0,", (result.limit.y_nodes, result.limit.rho_bar))

    summary = out / "summary.json"
    payload = {"mode": result.mode, "slopes": result.slopes, "rows": [asdict(row) for row in result.rows]}
    summary.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    plot = out / "plot.gp"
    cols = ", ".join(
        f"'rates.csv' using 1:{i + 2} with linespoints title '{k}'"
        for i, k in enumerate(norm_keys)
    )
    plot.write_text(
        "# gnuplot script: log-log error plot and profile overlay\n"
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set key top left\n"
        "set xlabel 'kappa'\n"
        "set ylabel 'error'\n"
        "set terminal pngcairo size 900,600\n"
        "set output 'rates.png'\n"
        f"plot {cols}\n"
        "unset logscale\n"
        "set output 'profiles.png'\n"
        "set xlabel 'r'\n"
        "set ylabel 'rho'\n"
        "plot '< grep \"^rho_kappa,\" profiles.csv' using 3:4 with dots title 'rho^kappa'\n",
        encoding="utf-8",
    )
    return [rates, profiles, summary, plot]
