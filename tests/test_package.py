"""The package's public name lists, its import layering, and that it loads no scipy."""

import ast
import importlib
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


def test_import_cli_loads_no_scipy():
    probe = "import sys, nsk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(nsk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
