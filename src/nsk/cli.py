"""Command-line interface: the one gate for input from outside the program.

Subcommands: ``bessel``, ``kernel``, ``solve``, ``limit-profile``,
``rate-study``, ``verify``.  Exit codes: ``dispatch`` maps the two error
families, ``ConfigError`` to 2 and ``SolverError`` to 3; 0 success, 64 unknown
subcommand, 1 a failed verify.  Every config number and float flag passes
``_number`` once; range rules live in the types that own them.  Files are
written here and, for ``rate-study``, by ``nsk.rates.emit_outputs``, with 17
significant digits throughout, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rates as rates_mod
from .bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled
from .errors import ConfigError, RangeError, SolverError, WindowEmptyError
from .grid import ALGEBRAIC, EXPONENTIAL, RadialGrid, build_grid
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
from .rates import format_float, write_rows
from .stationary import decay_diagnostics, solve_stationary

__all__ = ["RunConfig", "parse_config", "dispatch", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64

_MODEL_KEYS = ("n", "gamma", "kappa", "mu", "rho_plus", "rho_b", "u_minus")
_GRID_KEYS = ("points_per_unit_alpha", "R_max", "growth")
_TOP_KEYS = _MODEL_KEYS + ("tol", "max_iter", "grid", "kappas")
_INTEGER_KEYS = ("n", "max_iter")
_REGIME_RULE = {IMPERMEABLE: "u_minus = 0", INFLOW: "u_minus > 0", OUTFLOW: "u_minus < 0"}


@dataclass
class RunConfig:
    """Solver settings around the model; the rules of knobs no other type owns."""

    model: ModelParams
    tol: float = 1e-10
    max_iter: int = 200
    points_per_unit_alpha: float = 10.0
    R_max: float | None = None
    growth: float = 1.06
    kappas: tuple = tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(7))

    def __post_init__(self) -> None:
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.points_per_unit_alpha <= 0.0:
            raise ConfigError("grid.points_per_unit_alpha must be positive")

    def grid(self, model: ModelParams) -> RadialGrid:
        """The solve grid for ``model``: exponential decay at the wall, algebraic under a flow."""
        return build_grid(
            model.n,
            kernel_params(model).alpha,
            points_per_unit_alpha=self.points_per_unit_alpha,
            R_max=self.R_max,
            decay=EXPONENTIAL if model.regime == IMPERMEABLE else ALGEBRAIC,
            growth=self.growth,
        )


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


def _integer(value, key: str) -> int:
    x = _number(value, key)
    if x != int(x):
        raise ConfigError(f"{key} must be an integer")
    return int(x)


def _numbers(doc: dict, keys, prefix: str = "") -> dict:
    """Each of ``keys`` present in ``doc``: an int if it counts something, else a float."""
    return {k: (_integer if k in _INTEGER_KEYS else _number)(doc[k], prefix + k) for k in keys if k in doc}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; any unknown key aborts."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [k for k in doc if k not in _TOP_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    missing = [k for k in _MODEL_KEYS if k not in doc]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    model = ModelParams(**_numbers(doc, _MODEL_KEYS))
    options = _numbers(doc, ("tol", "max_iter"))
    if "grid" in doc:
        gdoc = doc["grid"]
        if not isinstance(gdoc, dict):
            raise ConfigError("grid must be an object")
        unknown = [k for k in gdoc if k not in _GRID_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key: grid.{unknown[0]}")
        options.update(_numbers(gdoc, _GRID_KEYS, "grid."))
    if "kappas" in doc:
        if not isinstance(doc["kappas"], list):
            raise ConfigError("kappas must be an array")
        options["kappas"] = tuple(_number(k, "kappas") for k in doc["kappas"])
    return RunConfig(model=model, **options)


def _read_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")  # the encoding JSON requires
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text)


def _write_csv(path: str, header: list, columns: list) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            write_rows(fh, "", columns)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.float_flags = {}  # option string of each type=float flag -> its dest

    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)

    def add_argument(self, *args, **kwargs):  # noqa: D102 - records the float flags
        action = super().add_argument(*args, **kwargs)
        if action.type is float:
            self.float_flags[action.option_strings[0]] = action.dest
        return action

    def parse_args(self, argv):  # noqa: D102 - float flags pass the config gate
        # argparse reads "-1e-3" as an option (its negative-number pattern has no exponent):
        # "--flag value" becomes "--flag=value" wherever value is a float
        joined = []
        for token in argv:
            if joined and joined[-1] in self.float_flags and _is_float(token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        ns = super().parse_args(joined)
        for flag, dest in self.float_flags.items():
            _number(getattr(ns, dest), flag)
        return ns


def _parse_nu(text: str) -> BesselOrder:
    """``--nu`` as ``2``, ``1.5`` or ``3/2``: a non-negative integer or half-integer."""
    from fractions import Fraction  # here, so that no other subcommand loads fractions and decimal

    try:
        # a decimal goes through float, so a huge exponent cannot stall Fraction
        two_nu = 2 * Fraction(text if "/" in text else float(text))
        float(two_nu)  # the order must fit a float
    except (ValueError, OverflowError, ZeroDivisionError):
        two_nu = None
    if two_nu is None or two_nu.denominator != 1 or two_nu < 0:
        raise ConfigError("--nu must be a non-negative integer or half-integer, e.g. 2, 1.5 or 3/2")
    return BesselOrder(int(two_nu))


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
    print(format_float(fn(order, a.x)))
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
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _weighted_sup(grid, k: int, values: np.ndarray) -> float | None:
    """``max r^k |values|`` over the grid, or ``None`` where it is beyond the double range."""
    try:
        weight = grid.power(k)
    except RangeError:
        return None
    with np.errstate(over="ignore"):
        sup = float(np.max(weight * np.abs(values)))
    return sup if math.isfinite(sup) else None


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

    grid = cfg.grid(model)
    sol = solve_stationary(model, grid, tol=cfg.tol, max_iter=cfg.max_iter)
    if a.regime == IMPERMEABLE:
        header = ["r", "rho", "rho_r", "phi"]
        columns = [grid.nodes, sol.rho, sol.rho_r, sol.phi]
    else:
        header = ["r", "rho", "rho_r", "u", "phi"]
        columns = [grid.nodes, sol.rho, sol.rho_r, sol.u, sol.phi]
    if a.out:
        _write_csv(a.out, header + ["residual"], columns + [sol.residual])
    if a.regime == IMPERMEABLE:
        try:
            decay_rate_fit = decay_diagnostics(sol, kernel_params(model))[0]
        except WindowEmptyError:
            decay_rate_fit = None
        summary = {"sup_norm": float(np.max(np.abs(sol.phi))), "decay_rate_fit": decay_rate_fit}
    else:
        summary = {
            "rho_minus": sol.rho_minus,
            "mass_flux": sol.mass_flux,
            "weighted_sup_value": _weighted_sup(grid, 2 * (model.n - 1), sol.phi),
            "weighted_sup_derivative": _weighted_sup(grid, 2 * model.n - 1, sol.rho_r),
        }
    summary.update(
        converged=True,  # an unconverged solve raises; the key stays for readers of the JSON
        iterations=sol.iterations,
        final_update_sup=sol.final_update_sup,
        ode_residual_sup=sol.ode_residual_sup,
    )
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
    result = rates_mod.run_rate_study(_read_config(a.config), a.mode)
    failed = sum(row.failed is not None for row in result.rows)
    if failed:
        sys.stderr.write(f"warning: {failed} of {len(result.rows)} kappa rows failed\n")
    try:
        rates_mod.emit_outputs(result, a.out)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    print(json.dumps(result.slopes, sort_keys=True))
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
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
