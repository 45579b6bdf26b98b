"""errors.checked_int, the one check of an integer argument in the package."""

import ast
import pathlib

import pytest

import evabs
from evabs.errors import InvalidInput, ScriptError, checked_int

SOURCES = sorted(pathlib.Path(evabs.__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "value, lo, hi", [(0, 0, None), (5, None, None), (-3, None, 0), (255, 1, 255), (2**80, 0, None)]
)
def test_an_int_in_bounds_is_returned_unchanged(value, lo, hi):
    assert checked_int("x", value, lo, hi) is value


@pytest.mark.parametrize(
    "value, lo, hi, message",
    [
        (True, 0, None, "x must be an integer >= 0, got bool"),
        (1.0, None, None, "x must be an integer, got float"),
        (-1, 0, None, "x must be an integer >= 0, got -1"),
        (256, 1, 255, "x must be an integer >= 1 and <= 255, got 256"),
        (4, None, 3, "x must be an integer <= 3, got 4"),
        (-(10**5000), 0, None, "x must be an integer >= 0, got a 16610-bit int"),
    ],
    ids=["bool", "float", "below-lo", "above-hi", "above-hi-only", "too-many-digits"],
)
def test_anything_else_raises_naming_the_argument_and_its_bounds(value, lo, hi, message):
    with pytest.raises(InvalidInput) as caught:
        checked_int("x", value, lo, hi)
    assert str(caught.value) == message


def test_the_caller_picks_the_error_class():
    with pytest.raises(ScriptError, match="^nth must be an integer >= 1, got 0$"):
        checked_int("nth", 0, 1, error=ScriptError)


def _int_checks(tree):
    """The qualified names of the functions in `tree` that compare type(...)
    with int or call isinstance(..., int), once per check."""
    found = []

    def names_int(node):
        if isinstance(node, ast.Tuple):
            return any(names_int(elt) for elt in node.elts)
        return isinstance(node, ast.Name) and node.id == "int"

    def calls(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == name
        )

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(calls(side, "type") for side in sides) and any(map(names_int, sides)):
                    found.append(owner)
            elif calls(child, "isinstance") and len(child.args) == 2 and names_int(child.args[1]):
                found.append(owner)
            visit(child, owner)

    visit(tree, tree.module)
    return found


def test_only_checked_int_checks_an_int():
    # every int argument goes through errors.checked_int; the text parsers
    # make their int with int() and need no type check
    found = []
    for source in SOURCES:
        tree = ast.parse(source.read_text())
        tree.module = f"evabs.{source.stem}"
        found += _int_checks(tree)
    assert sorted(set(found)) == ["evabs.errors.checked_int"]


def test_the_int_check_finder_sees_each_form():
    code = (
        "def a(v):\n    return type(v) is int\n"
        "def b(v):\n    return isinstance(v, (bytes, int))\n"
        "class C:\n    def d(self, v):\n        return int != type(v)\n"
        "def e(v):\n    return type(v) is str or isinstance(v, float)\n"
    )
    tree = ast.parse(code)
    tree.module = "m"
    assert _int_checks(tree) == ["m.a", "m.b", "m.C.d"]
