"""Command-line interface; the only module doing I/O.

Subcommands: ``bessel``, ``kernel``, ``solve``, ``limit-profile``,
``rate-study``, ``verify``.  Exit codes: 0 success, 2 configuration error,
3 solver failure, 64 unknown subcommand (1 for a failed verify).
All numeric output uses 17 significant digits, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rates as rates_mod
from .bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled
from .errors import ConfigError, NskError, SolverError
from .grid import ALGEBRAIC, EXPONENTIAL, build_grid
from .impermeable import solve_impermeable
from .inflow import solve_inflow_outflow
from .kernel import (
    IMPERMEABLE,
    INFLOW,
    ModelParams,
    OUTFLOW,
    green,
    green_dr,
    green_dr_left,
    green_dr_right,
    kernel_params,
)
from .limit import integrate_profile
from .oracle import cross_validate

__all__ = ["parse_config", "dispatch", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64

_MODEL_KEYS = ("n", "gamma", "kappa", "mu", "rho_plus", "rho_b", "u_minus")
_GRID_KEYS = ("points_per_unit_alpha", "R_max", "max_nodes", "growth")
_TOP_KEYS = _MODEL_KEYS + ("tol", "max_iter", "grid", "kappas", "norms")
_REGIME_RULE = {IMPERMEABLE: "u_minus = 0", INFLOW: "u_minus > 0", OUTFLOW: "u_minus < 0"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    model: ModelParams
    tol: float = 1e-10
    max_iter: int = 200
    points_per_unit_alpha: float = 10.0
    R_max: float | None = None
    max_nodes: int = 2_000_000
    growth: float = 1.06
    kappas: tuple | None = None
    norms: tuple | None = None


def _number(value, key: str) -> float:
    """``value`` as a finite float; JSON admits ``NaN`` and ``Infinity``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite")
    return x


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; any unknown key aborts."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [k for k in doc if k not in _TOP_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    missing = [k for k in _MODEL_KEYS if k not in doc]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    vals = {k: _number(doc[k], k) for k in _MODEL_KEYS}
    if vals["n"] != int(vals["n"]):
        raise ConfigError("n must be an integer >= 2")
    vals["n"] = int(vals["n"])
    cfg = RunConfig(model=ModelParams(**vals))
    if "tol" in doc:
        cfg.tol = _number(doc["tol"], "tol")
        if cfg.tol <= 0.0:
            raise ConfigError("tol must be positive")
    if "max_iter" in doc:
        cfg.max_iter = int(_number(doc["max_iter"], "max_iter"))
        if cfg.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
    if "grid" in doc:
        gdoc = doc["grid"]
        if not isinstance(gdoc, dict):
            raise ConfigError("grid must be an object")
        unknown = [k for k in gdoc if k not in _GRID_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key: grid.{unknown[0]}")
        if "points_per_unit_alpha" in gdoc:
            cfg.points_per_unit_alpha = _number(gdoc["points_per_unit_alpha"], "grid.points_per_unit_alpha")
            if cfg.points_per_unit_alpha <= 0.0:
                raise ConfigError("grid.points_per_unit_alpha must be positive")
        if "R_max" in gdoc:
            cfg.R_max = _number(gdoc["R_max"], "grid.R_max")
            if cfg.R_max <= 1.0:
                raise ConfigError("grid.R_max must exceed 1")
        if "max_nodes" in gdoc:
            cfg.max_nodes = int(_number(gdoc["max_nodes"], "grid.max_nodes"))
        if "growth" in gdoc:
            cfg.growth = _number(gdoc["growth"], "grid.growth")
            if cfg.growth <= 1.0:
                raise ConfigError("grid.growth must exceed 1")
    if "kappas" in doc:
        if not isinstance(doc["kappas"], list) or not doc["kappas"]:
            raise ConfigError("kappas must be a non-empty array")
        cfg.kappas = tuple(_number(k, "kappas") for k in doc["kappas"])
    if "norms" in doc:
        if not isinstance(doc["norms"], list):
            raise ConfigError("norms must be an array")
        if not doc["norms"]:
            raise ConfigError("no norms selected")
        cfg.norms = tuple(str(k) for k in doc["norms"])
    return cfg


def _read_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def _build_grid_for(cfg: RunConfig, decay: str):
    return build_grid(
        cfg.model.n,
        kernel_params(cfg.model).alpha,
        points_per_unit_alpha=cfg.points_per_unit_alpha,
        R_max=cfg.R_max,
        decay=decay,
        growth=cfg.growth,
        max_nodes=cfg.max_nodes,
    )


def _write_csv(path: str, header: list, columns: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _ArgError(message)


def _parse_nu(text: str) -> BesselOrder:
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if den.strip() not in ("1", "2"):
            raise ConfigError("--nu must be an integer or half-integer (e.g. 1/2)")
        two_nu = int(num) * (2 // int(den))
    else:
        val = float(s)
        two_nu = int(round(2.0 * val))
        if abs(2.0 * val - two_nu) > 0.0:
            raise ConfigError("--nu must be an integer or half-integer")
    if two_nu < 0:
        raise ConfigError("--nu must be >= 0")
    return BesselOrder(two_nu)


def _cmd_bessel(argv):
    p = _Parser(prog="nsk bessel")
    p.add_argument("--nu", required=True)
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--kind", choices=("i", "k"), default="i")
    p.add_argument("--scaled", action="store_true")
    a = p.parse_args(argv)
    order = _parse_nu(a.nu)
    fn = {
        ("i", False): bessel_i,
        ("i", True): bessel_i_scaled,
        ("k", False): bessel_k,
        ("k", True): bessel_k_scaled,
    }[(a.kind, a.scaled)]
    print(_fmt(fn(order, a.x)))
    return EXIT_OK


def _cmd_kernel(argv):
    p = _Parser(prog="nsk kernel")
    p.add_argument("--config", required=True)
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--s", required=True, type=float)
    a = p.parse_args(argv)
    cfg = _read_config(a.config)
    kp = kernel_params(cfg.model)
    out = {"G": float(green(kp, a.r, a.s))}
    if a.r == a.s:
        out["dG_dr_left"] = float(green_dr_left(kp, a.r, a.s))
        out["dG_dr_right"] = float(green_dr_right(kp, a.r, a.s))
    else:
        out["dG_dr"] = float(green_dr(kp, a.r, a.s))
    print(json.dumps({k: float(_fmt(v)) for k, v in out.items()}, sort_keys=True))
    return EXIT_OK


def _cmd_solve(argv):
    p = _Parser(prog="nsk solve")
    p.add_argument("regime", choices=(IMPERMEABLE, INFLOW, OUTFLOW))
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    a = p.parse_args(argv)
    cfg = _read_config(a.config)
    model = cfg.model
    if model.regime != a.regime:
        raise ConfigError(f"{a.regime} requires {_REGIME_RULE[a.regime]}")

    if a.regime == IMPERMEABLE:
        grid = _build_grid_for(cfg, EXPONENTIAL)
        fieldv, report = solve_impermeable(model, grid, tol=cfg.tol, max_iter=cfg.max_iter)
        header = ["r", "rho", "rho_r", "phi"]
        columns = [grid.nodes, model.rho_plus + fieldv.phi, fieldv.phi_r, fieldv.phi]
        summary = {
            "sup_norm": fieldv.sup_norm,
            "decay_rate_fit": None if np.isnan(fieldv.decay_rate_fit) else fieldv.decay_rate_fit,
        }
    else:
        grid = _build_grid_for(cfg, ALGEBRAIC)
        sol, report = solve_inflow_outflow(model, grid, tol=cfg.tol, max_iter=cfg.max_iter)
        phi = sol.rho - model.rho_plus
        header = ["r", "rho", "rho_r", "u", "phi"]
        columns = [grid.nodes, sol.rho, sol.rho_r, sol.u, phi]
        wv = grid.nodes ** (2 * (model.n - 1))
        wd = grid.nodes ** (2 * model.n - 1)
        summary = {
            "rho_minus": sol.rho_minus,
            "mass_flux": sol.mass_flux,
            "weighted_sup_value": float(np.max(wv * np.abs(phi))),
            "weighted_sup_derivative": float(np.max(wd * np.abs(sol.rho_r))),
        }
    if a.out:
        _write_csv(a.out, header + ["residual"], columns + [np.nan_to_num(report.residual, nan=0.0)])
    summary.update(
        converged=report.converged,
        iterations=report.iterations,
        final_update_sup=report.final_update_sup,
        ode_residual_sup=report.ode_residual_sup,
    )
    if not report.converged:
        raise SolverError(f"no convergence in {report.iterations} iterations")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_limit_profile(argv):
    p = _Parser(prog="nsk limit-profile")
    p.add_argument("--gamma", required=True, type=float)
    p.add_argument("--rho-plus", required=True, type=float)
    p.add_argument("--rho-b0", required=True, type=float)
    p.add_argument("--y-max", type=float, default=60.0)
    p.add_argument("--out")
    a = p.parse_args(argv)
    if a.gamma < 1.0:
        raise ConfigError("gamma must be >= 1")
    if a.rho_plus <= 0.0:
        raise ConfigError("rho_plus must be positive")
    prof = integrate_profile(a.gamma, a.rho_plus, a.rho_b0, y_max=a.y_max)
    if a.out:
        _write_csv(
            a.out, ["y", "rho_bar", "rho_bar_y"], [prof.y_nodes, prof.rho_bar, prof.rho_bar_y]
        )
    print(json.dumps({"rho_minus": prof.rho_minus_limit, "decay_rate": prof.tail_rate}))
    return EXIT_OK


def _cmd_rate_study(argv):
    p = _Parser(prog="nsk rate-study")
    p.add_argument("--mode", required=True, choices=(rates_mod.FIXED, rates_mod.SINGULAR))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)
    cfg = _read_config(a.config)
    kappas = cfg.kappas
    if kappas is None:
        kappas = tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(7))
    norms = cfg.norms if cfg.norms is not None else rates_mod.NORM_KEYS
    study = rates_mod.RateStudyConfig(
        mode=a.mode,
        kappas=kappas,
        base=replace(cfg.model, u_minus=0.0),
        norms=norms,
        points_per_unit_alpha=max(cfg.points_per_unit_alpha, 16.0),
        growth=min(cfg.growth, 1.05),
        tol=cfg.tol,
        max_iter=max(cfg.max_iter, 400),
    )
    result = rates_mod.run_rate_study(study)
    failed = sum(row.failed is not None for row in result.rows)
    if failed:
        sys.stderr.write(f"warning: {failed} of {len(result.rows)} kappa rows failed\n")
    rates_mod.emit_outputs(result, a.out)
    print(
        json.dumps(
            {k: {"value": v[0], "stderr": v[1]} for k, v in sorted(result.slopes.items())},
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_verify(argv):
    p = _Parser(prog="nsk verify")
    p.add_argument("target", choices=(IMPERMEABLE,))
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    a = p.parse_args(argv)
    cfg = _read_config(a.config)
    sup_diff, passed = cross_validate(cfg.model, a.tol)
    print(json.dumps({"sup_diff": sup_diff, "pass": passed}))
    return EXIT_OK if passed else 1


_USAGE = """usage: nsk <subcommand> [options]

subcommands:
  bessel         evaluate modified Bessel functions
  kernel         evaluate the Green kernel G(r,s) and its r-derivative
  solve          solve impermeable | inflow | outflow stationary problems
  limit-profile  integrate the vanishing-capillarity limit profile
  rate-study     kappa-sweep convergence study (fixed | singular)
  verify         cross-validate the solver against the FD oracle
"""

_COMMANDS = {
    "bessel": _cmd_bessel,
    "kernel": _cmd_kernel,
    "solve": _cmd_solve,
    "limit-profile": _cmd_limit_profile,
    "rate-study": _cmd_rate_study,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    if not argv:
        sys.stderr.write(_USAGE)
        return EXIT_USAGE
    cmd = argv[0]
    if cmd in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return EXIT_OK
    handler = _COMMANDS.get(cmd)
    if handler is None:
        sys.stderr.write(f"unknown subcommand: {cmd}\n{_USAGE}")
        return EXIT_USAGE
    try:
        return handler(argv[1:])
    except (_ArgError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except NskError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
