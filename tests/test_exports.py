"""Every name a module of the package exports must exist: a name left in
`__all__` after its definition is deleted breaks `from module import *`.
The names the per-layer benchmark patches are checked in test_tracing.py."""

import importlib
import pkgutil

import pytest

import evabs

MODULES = ["evabs"] + [f"evabs.{m.name}" for m in pkgutil.iter_modules(evabs.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
