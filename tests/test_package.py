"""Package surface: every module's exports exist, no module asserts or
reads `__debug__`, and no record is set through `object.__setattr__`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import knotct
from knotct.pipeline import obstruct

MODULES = [info.name for info in pkgutil.walk_packages(knotct.__path__, "knotct.")]


def test_modules_found():
    assert {"knotct.cli", "knotct.diagram", "knotct.diagram.core", "knotct.exactmath"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _trees():
    paths = sorted(p for root in knotct.__path__ for p in Path(root).rglob("*.py"))
    assert len(paths) >= len(MODULES)
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_no_assert_statements():
    """Internal checks raise typed errors, and no code reads `__debug__`, so
    `python -O` changes no output on any path."""
    found = []
    for path, tree in _trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found


def test_records_set_their_slots_through_their_own_setters():
    """Every record sets its fields through its class's `_setters`, so no
    code names `object.__setattr__`; and `obstruct` is one function, with
    no inner function and no cell for one to capture."""
    found = []
    for path, tree in _trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert not found
    code = obstruct.__code__
    assert code.co_cellvars == () and code.co_freevars == ()
    assert not [c for c in code.co_consts if hasattr(c, "co_code")]
