"""Every name a module of the package exports must exist: a name left in
`__all__` after its definition is deleted breaks `from module import *`.
Every API name README.md gives must exist too, so a rename cannot leave the
README behind. The names the per-layer benchmark patches are checked in
test_tracing.py."""

import functools
import importlib
import pathlib
import pkgutil
import re

import pytest

import evabs

MODULES = ["evabs"] + [f"evabs.{m.name}" for m in pkgutil.iter_modules(evabs.__path__)]

# what a README name may start with: the package, a module of it by its
# short name, or a class a module exports
_ROOTS = {name.rsplit(".", 1)[-1]: importlib.import_module(name) for name in MODULES}
_ROOTS.update(
    (name, getattr(module, name))
    for module in list(_ROOTS.values())
    for name in getattr(module, "__all__", [])
    if isinstance(getattr(module, name), type)
)
# a file name such as registry.json starts with a module's name too
_FILE_SUFFIXES = {"json", "jsonl", "journal", "lock", "toml", "md", "py", "scn"}


def _readme_api_names():
    """Each backticked dotted name in README.md, a call's arguments cut off,
    whose first part is a root above and whose second is no file suffix."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(.*?\))?`", text)
    return sorted(
        {s for s in spans if s.split(".")[0] in _ROOTS and s.split(".")[1] not in _FILE_SUFFIXES}
    )


README_NAMES = _readme_api_names()


def test_the_readme_names_api():
    # the search finds what it is for: a broken pattern must not pass vacuously
    assert {"SimClock.advance", "ScenarioRunner.run_session", "evabs.channel.Rule"} <= set(
        README_NAMES
    )


@pytest.mark.parametrize("name", README_NAMES)
def test_every_api_name_in_the_readme_resolves(name):
    first, *rest = name.split(".")
    functools.reduce(getattr, rest, _ROOTS[first])


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
