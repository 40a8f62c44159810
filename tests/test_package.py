"""The package's public name lists, its import layering, and the modules a CLI run loads."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nsk


def test_import_nsk_loads_no_submodule():
    # the root re-exports nothing, so importing it pulls in no module and no scipy
    probe = "import sys, nsk; print(sorted(m for m in sys.modules if m.startswith(('nsk.', 'scipy'))))"
    env = {**os.environ, "PYTHONPATH": str(Path(nsk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(nsk.__path__)])
def test_every_module_name_resolves(module):
    mod = importlib.import_module(f"nsk.{module}")
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)


def test_every_test_module_names_a_package_module():
    # tests/test_<x>.py tests nsk.<x>; acceptance, manufactured and package test across modules.
    # inflow tests nsk.stationary's flow regimes until it is merged into test_stationary.py.
    cross = {"acceptance", "manufactured", "package", "inflow"}
    names = {m.name for m in pkgutil.iter_modules(nsk.__path__)} | cross
    stems = [p.stem.removeprefix("test_") for p in Path(__file__).parent.glob("test_*.py")]
    assert sorted(stem for stem in stems if stem not in names) == []


def _imports_scipy(tree: ast.AST) -> bool:
    """Whether a module imports scipy or any of its submodules, in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "scipy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "scipy":
                return True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __import__ and importlib.import_module name the module as a string
            if node.value == "scipy" or node.value.startswith("scipy."):
                return True
    return False


def test_no_module_imports_scipy():
    # Bessel functions and the oracle's tridiagonal solve are numpy; scipy is a test dependency
    src = Path(nsk.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if _imports_scipy(ast.parse(p.read_text()))) == []


def _compares_gamma(node: ast.AST) -> bool:
    """Whether ``node`` compares ``gamma`` (a name or an attribute) with a constant."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]

    def is_gamma(o):
        return getattr(o, "id", getattr(o, "attr", None)) == "gamma"

    def is_constant(o):
        return isinstance(o, ast.Constant) or isinstance(o, ast.UnaryOp) and isinstance(o.operand, ast.Constant)

    return any(map(is_gamma, operands)) and any(map(is_constant, operands))


def _gamma_branches(tree: ast.AST) -> list:
    """Lines outside ``class PressureLaw`` that compare ``gamma`` with a constant."""
    law = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "PressureLaw" for n in ast.walk(c)}
    return [node.lineno for node in ast.walk(tree) if _compares_gamma(node) and id(node) not in law]


def test_only_the_pressure_law_branches_on_gamma():
    # the gamma = 1 branches and the domain rule live in nsk.kernel.PressureLaw alone
    src = Path(nsk.__file__).parent
    found = {p.name: _gamma_branches(ast.parse(p.read_text())) for p in src.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _law_gamma_comparisons(tree: ast.AST) -> list:
    """``(method, operator)`` of every comparison of ``gamma`` with a constant inside ``class PressureLaw``."""
    laws = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "PressureLaw"]
    methods = [f for law in laws for f in law.body if isinstance(f, ast.FunctionDef)]
    return [(f.name, *(type(op).__name__ for op in n.ops)) for f in methods for n in ast.walk(f) if _compares_gamma(n)]


def test_the_pressure_law_has_one_gamma_one_branch():
    # the enthalpy difference, the remainder and W share _log_power, whose gamma = 1 limit
    # is the law's one special case; the other comparison is the gamma >= 1 domain rule
    tree = ast.parse((Path(nsk.__file__).parent / "kernel.py").read_text())
    assert sorted(_law_gamma_comparisons(tree)) == [("__post_init__", "GtE"), ("_log_power", "Eq")]


def _scopes_of(tree: ast.AST, matches) -> list:
    """``Class.function`` (or ``function``) of every node of ``tree`` for which ``matches`` holds."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if matches(node):
            uses.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return uses


def _names_bessel_table(node: ast.AST) -> bool:
    """A use of the name ``bessel_ik_scaled`` outside an import."""
    return getattr(node, "id", getattr(node, "attr", None)) == "bessel_ik_scaled"


def test_only_kernel_factors_evaluates_the_bessel_table():
    # one owner of the Bessel tables, so the wall row (c2, the lifting) has one source
    src = Path(nsk.__file__).parent
    modules = [p for p in src.glob("*.py") if p.name != "bessel.py"]
    found = {p.name: _scopes_of(ast.parse(p.read_text()), _names_bessel_table) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {"kernel.py": ["KernelFactors.__init__"]}


def _is_root_of_quotient_by_kappa(node: ast.AST) -> bool:
    """``sqrt(x / kappa)`` (any ``sqrt``) or ``(x / kappa) ** 0.5``, ``kappa`` a name or an attribute."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sqrt":
        arg = node.args[0]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 0.5:
        arg = node.left
    else:
        return False
    return (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Div)
        and getattr(arg.right, "id", getattr(arg.right, "attr", None)) == "kappa"
    )


def test_only_the_model_derives_alpha():
    # alpha = sqrt(h'(rho_+)/kappa) has one source, ModelParams.alpha, which the FD oracle reads too
    src = Path(nsk.__file__).parent
    found = {p.name: _scopes_of(ast.parse(p.read_text()), _is_root_of_quotient_by_kappa) for p in src.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {"kernel.py": ["ModelParams.alpha"]}


def _branches_on_scalar_input(node: ast.AST) -> bool:
    """A call of ``np.ndim`` or ``np.isscalar`` (by any name), or ``a if c else b`` whose test reads an ``.ndim``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None)) in ("ndim", "isscalar")
    return isinstance(node, ast.IfExp) and any(
        isinstance(sub, ast.Attribute) and sub.attr == "ndim" for sub in ast.walk(node.test)
    )


def test_no_module_branches_on_scalar_input():
    # one scalar rule, numpy's: a scalar argument gives a numpy scalar and an array one an array
    # of its shape, so no function inspects its argument to convert its own result
    src = Path(nsk.__file__).parent
    found = {p.name: _scopes_of(ast.parse(p.read_text()), _branches_on_scalar_input) for p in src.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}


def _grid_n_reads(tree: ast.AST) -> list:
    """Scopes that read ``n`` off a grid: ``grid.n`` (any name ending in ``grid``), or
    ``self.n`` inside ``class RadialGrid``."""

    def reads_n_of(node, owner) -> bool:
        if not (isinstance(node, ast.Attribute) and node.attr == "n"):
            return False
        return owner(getattr(node.value, "id", getattr(node.value, "attr", None)) or "")

    off_grid = _scopes_of(tree, lambda node: reads_n_of(node, lambda name: name.endswith("grid")))
    off_self = _scopes_of(tree, lambda node: reads_n_of(node, lambda name: name == "self"))
    return off_grid + [scope for scope in off_self if scope.split(".")[0] == "RadialGrid"]


def test_only_the_model_carries_n():
    # the dimension enters through r^{n-1} and the Bessel order, both read off the model:
    # a grid is geometry alone, so no grid and no model can disagree on n
    from dataclasses import fields

    from nsk.grid import RadialGrid

    src = Path(nsk.__file__).parent
    found = {p.name: _grid_n_reads(ast.parse(p.read_text())) for p in src.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert [f.name for f in fields(RadialGrid)] == ["nodes"]


def _raised_text(node: ast.AST) -> str:
    """The message of ``raise E("literal")``, else ``""``."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return ""
    arg = node.exc.args[0]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


_CONFIG_RULE_WORDS = (
    "points_per_unit_alpha must", "growth must", "R_max must", "kappa values", "tol must", "max_iter must", "n must be an"
)


def test_every_config_rule_has_one_site():
    # each rule on a config key is raised at one site, which every subcommand and library
    # caller reaches: the grid keys' in nsk.grid's rule function (build_grid and RunConfig
    # both call it), the solver keys' in nsk.stationary's (solve_stationary and RunConfig
    # both call it), the kappas rules where a RunConfig is built; and the model keys are
    # listed once, as the fields of ModelParams, whose integer rule on n is the model's own
    # (the CLI only turns an integral float into an int).  verify's --tol is a pass
    # threshold, not the solver's tol, and keeps its own rule where verify judges it
    from dataclasses import fields

    from nsk.kernel import ModelParams

    src = Path(nsk.__file__).parent
    sites = []
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        texts = {_raised_text(node) for node in ast.walk(tree)}
        for text in [t for t in texts if any(word in t for word in _CONFIG_RULE_WORDS)]:
            sites += [(f"{path.stem}.{scope}", text) for scope in _scopes_of(tree, lambda n: _raised_text(n) == text)]
    grid_rules = ["grid.points_per_unit_alpha must be positive", "grid.growth must be > 1 and < 2", "grid.R_max must exceed 1"]
    kappa_rules = [
        "need at least 4 kappa values for a slope fit",
        "kappa values must be positive",
        "kappa values must be strictly decreasing",
    ]
    assert sorted(sites) == sorted(
        [("grid.check_grid_keys", text) for text in grid_rules]
        + [("cli.RunConfig.__post_init__", text) for text in kappa_rules]
        + [("stationary.check_solver_keys", "tol must be positive"), ("cli._cmd_verify", "tol must be positive")]
        + [("stationary.check_solver_keys", text) for text in ("max_iter must be at least 1", "max_iter must be an integer")]
        + [("kernel.ModelParams.__post_init__", "n must be an integer")]
    )

    model_keys = {f.name for f in fields(ModelParams)}

    def lists_model_keys(node) -> bool:
        return isinstance(node, (ast.Tuple, ast.List)) and model_keys <= {getattr(e, "value", None) for e in node.elts}

    found = {p.name: _scopes_of(ast.parse(p.read_text()), lists_model_keys) for p in src.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_import_cli_loads_no_scipy():
    probe = "import sys, nsk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(nsk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# numpy.polynomial, fractions and decimal cost a CLI process 1.6 MiB; only `bessel` parses a Fraction
_UNNEEDED = ("numpy.polynomial", "fractions", "decimal")
_CLI_PROBE = """
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["nsk"] + argv
    try:
        runpy.run_module("nsk.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            sys.exit(f"{argv[0]} exited {exc.code}")
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_run_loads_no_polynomial_or_fractions(tmp_path):
    model = {"n": 3, "gamma": 1, "mu": 1, "rho_plus": 1}
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps(dict(model, kappa=1e-2, rho_b=-0.02, u_minus=0.05)))
    wall = tmp_path / "wall.json"
    wall_doc = dict(model, kappa=1.0, rho_b=-0.1, u_minus=0, kappas=[0.1, 0.03, 0.01, 0.003])
    wall.write_text(json.dumps(wall_doc))
    argvs = [
        ["solve", "inflow", "--config", str(flow), "--out", str(tmp_path / "sol.csv")],
        ["verify", "impermeable", "--config", str(wall)],
        ["rate-study", "--mode", "singular", "--config", str(wall), "--out", str(tmp_path / "study")],
        ["limit-profile", "--gamma", "2", "--rho-plus", "1", "--rho-b0", "-0.1", "--out", str(tmp_path / "p.csv")],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(nsk.__file__).parents[1])}
    probe = [sys.executable, "-c", _CLI_PROBE, json.dumps(argvs)]
    out = subprocess.run(probe, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith(_UNNEEDED)] == []


def _imports_cli(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["nsk", "cli"] for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package resolves against nsk
            module = ".".join(p for p in ("nsk" if node.level else "", node.module or "") if p)
            if module.split(".")[:2] == ["nsk", "cli"]:
                return True
            if module == "nsk" and any(a.name == "cli" for a in node.names):
                return True
    return False


def test_no_module_imports_cli():
    # nsk.cli is the top layer: the rate study reads the RunConfig it is handed
    src = Path(nsk.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if _imports_cli(ast.parse(p.read_text())))
    assert users == []


def test_every_error_is_in_one_exit_code_family():
    # main handles ConfigError (exit 2) and SolverError (exit 3) only, so those two must cover every error
    from nsk import errors
    from nsk.errors import ConfigError, NskError, SolverError

    assert issubclass(errors.RangeError, ConfigError)
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, NskError)}
    for cls in classes - {NskError, ConfigError, SolverError}:
        assert issubclass(cls, ConfigError) != issubclass(cls, SolverError), cls.__name__
    # SolverError is a failed solve and nothing else
    solver = {c.__name__ for c in classes if issubclass(c, SolverError)} - {"SolverError"}
    assert solver == {"NonContractionError", "PositivityError", "NewtonDivergenceError"}


def _catches_package_error(node: ast.AST) -> bool:
    """An ``except`` clause that names ``NskError`` or one of its subclasses, alone or in a tuple."""
    from nsk import errors

    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    names = [getattr(sub, "id", getattr(sub, "attr", "")) for sub in ast.walk(node.type)]
    caught = [getattr(errors, name, None) for name in names]
    return any(isinstance(c, type) and issubclass(c, errors.NskError) for c in caught)


def test_only_main_and_the_rate_study_catch_package_errors():
    # a package error is a refused input or a failed solve: main turns it into its exit code and
    # the rate study records the failed row; no other code catches one and carries on
    src = Path(nsk.__file__).parent
    found = {p.name: _scopes_of(ast.parse(p.read_text()), _catches_package_error) for p in src.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {
        "cli.py": ["main", "main"],
        "rates.py": ["run_rate_study"],
    }


# the bindings the benchmark tracer cannot find: names the package no longer has
_TRACER_MISSING = {
    *(f"nsk.{m}.{f}" for m in ("impermeable", "inflow") for f in ("assemble_operators", "lifting_phi_b")),
    "nsk.impermeable.nonlinearity_impermeable",
    "nsk.impermeable.ode_residual_impermeable",
    "nsk.inflow.nonlinearity_inflow",
    "nsk.inflow.ode_residual_inflow_outflow",
    "nsk.operators.split_weight_rows",
    "nsk.cli.solve_impermeable",
    "nsk.cli.solve_inflow_outflow",
    "nsk.cli.ode_residual_impermeable",
    "nsk.cli.ode_residual_inflow_outflow",
    "nsk.rates.solve_impermeable",
    "nsk.oracle.solve_impermeable",
    "nsk.rates.build_grid",
}


def test_benchmark_tracer_runs_the_cli(tmp_path):
    # perfbench/traced_cli.py wraps functions by the names nsk.cli and the layers bind at import;
    # a binding that moves must not make the traced run fail or drop more spans, and a handler
    # that stops calling through a traced name must not silently lose its span
    root = Path(__file__).resolve().parents[1]
    model = {"n": 3, "gamma": 1, "mu": 1, "rho_plus": 1}
    configs = {
        "kernel": dict(model, kappa=0.01, rho_b=-1, u_minus=0),
        "flow": dict(model, kappa=3e-3, rho_b=-0.02, u_minus=0.05),  # the benchmark's inflow case
        "wall": dict(model, kappa=1, rho_b=-0.1, u_minus=0),  # the benchmark's first verify case
        "thin": dict(model, kappa=1e-3, rho_b=-0.02, u_minus=0),  # the benchmark's sixth verify case
    }
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    verify = {"oracle.cross_validate": 1, "oracle.solve_fd": 2, "grid.build_grid": 1}
    runs = [
        (["kernel", "--config", "@kernel", "--r", "2", "--s", "1"], {}),
        (["solve", "inflow", "--config", "@flow"], {"grid.build_grid": 1}),
        (["verify", "impermeable", "--config", "@wall"], verify),
        (["limit-profile", "--gamma", "1", "--rho-plus", "1", "--rho-b0", "-0.1"], {"limit.integrate_profile": 1}),
        (["verify", "impermeable", "--config", "@thin"], verify),
    ]
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for cli_argv, counts in runs:
        argv = [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans)]
        argv += [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in cli_argv]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        record = json.loads(spans.read_text())
        assert set(record["missing"]) <= _TRACER_MISSING
        names = [span["name"] for span in record["spans"]]
        assert {name: names.count(name) for name in names} == dict(counts, **{"cli.main": 1}), cli_argv[0]
    # the last run, at kappa = 1e-3: its two oracle levels span 1 + 40/alpha, not [1, 21] (oracle.fd_nodes sums them)
    assert [span["count"] for span in record["spans"] if span["name"] == "oracle.solve_fd"] == [1_602, 3_203]
