"""Package surface: every module's exports exist, and no module asserts."""

import ast
import importlib
import importlib.util
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
    """Internal checks raise typed errors, which survive `python -O`."""
    found = []
    for name in MODULES:
        path = importlib.util.find_spec(name).origin
        tree = ast.parse(Path(path).read_text(), path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found
