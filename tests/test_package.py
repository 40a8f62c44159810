"""The package's public name list."""

import importlib
import pkgutil

import pytest

import nsk


def test_every_exported_name_resolves():
    missing = [name for name in nsk.__all__ if not hasattr(nsk, name)]
    assert missing == []
    assert len(set(nsk.__all__)) == len(nsk.__all__)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(nsk.__path__)])
def test_every_module_name_resolves(module):
    mod = importlib.import_module(f"nsk.{module}")
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)
