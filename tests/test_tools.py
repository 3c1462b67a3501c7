"""The repository's command-line tools outside the package."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ac1_routes_times_every_route():
    ac1_routes = _load("ac1_routes")
    spent, crossings = ac1_routes.route_times(ac1_routes._formulas_specs(2)[::400])
    assert list(spent) == list(ac1_routes.ROUTES)
    assert len(crossings) == 85
    assert all(t >= 0 for t in spent.values())
