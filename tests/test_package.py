"""Package surface: every module's exports exist."""

import importlib
import pkgutil

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
