"""Package surface: every module's exports exist, and no module asserts
or reads `__debug__`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import knotct

MODULES = [info.name for info in pkgutil.walk_packages(knotct.__path__, "knotct.")]


def test_modules_found():
    assert {"knotct.cli", "knotct.diagram", "knotct.diagram.core", "knotct.exactmath"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_no_assert_statements():
    """Internal checks raise typed errors, and no code reads `__debug__`, so
    `python -O` changes no output on any path."""
    paths = sorted(p for root in knotct.__path__ for p in Path(root).rglob("*.py"))
    assert len(paths) >= len(MODULES)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found
