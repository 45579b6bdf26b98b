"""The oldest CPython that pyproject.toml admits is the lowest one CI runs,
and every Python file of the project parses at that version. Only newer
interpreters may be at hand locally, so this catches syntax the oldest one
would refuse (an `except*`, say) before that CI leg does."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parents[1]


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_every_source_parses_on_the_lowest_python_ci_runs():
    # read without tomllib and yaml: the oldest CPython has no tomllib, and
    # the test extra does not install yaml
    pyproject = (ROOT / "pyproject.toml").read_text()
    [floor] = re.findall(r'^requires-python\s*=\s*">=\s*(\d+\.\d+)"', pyproject, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    [matrix] = re.findall(r"^\s*python-version:\s*\[(.*)\]", workflow, re.M)
    assert min(map(_version, re.findall(r"\d+\.\d+", matrix))) == _version(floor)
    tops = ("src", "tests", "perfbench")
    sources = [path for top in tops for path in (ROOT / top).rglob("*.py")]
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_version(floor))
