"""The package's public name lists and its one route to scipy.special."""

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


def _uses_scipy_special(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["scipy", "special"] for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if parts[:2] == ["scipy", "special"]:
                return True
            if parts == ["scipy"] and any(a.name == "special" for a in node.names):
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr == "special" and isinstance(node.value, ast.Name) and node.value.id == "scipy":
                return True
    return False


def test_scipy_special_only_in_bessel():
    # every Bessel value goes through nsk.bessel, which checks it is finite
    src = Path(nsk.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if _uses_scipy_special(ast.parse(p.read_text())))
    assert users == ["bessel.py"]
