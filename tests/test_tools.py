"""The repository's command-line tools outside the package."""

import importlib.util
from pathlib import Path

from knotct.montesinos import parse_spec

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


def test_ac1_digest_pins_every_four_hundredth_report():
    ac1_digest = _load("ac1_digest")
    specs = ac1_digest._formulas_specs(2)
    assert ac1_digest.digest(specs[::400]) == (
        85, "f767af3b521ce2b64b3e4bcd6a7c0d6fbbe4a4c4e3ee67825b1f116c579f8792")
    assert (ac1_digest.report_line(parse_spec("P(2,2,-1)"))
            == "NotAKnot: 2 even-denominator tangles force extra components")


def test_closed_forms_derivation_reproduces_the_published_polynomials():
    closed_forms = _load("closed_forms")
    grid = closed_forms.branches(3)
    for label, a2 in [
        ("o1", "1 + 2b + c + d + e + ab + bc + bd + be + cd + ce + de"),
        ("o1p(sign=1)", "1 + 2b + c + d + ab + bc + bd + cd"),
        ("o3p(sign=-1)", "-1 - 2b - 2c + bc"),
        ("e3", "2"),
    ]:
        names, cases = grid[label]
        derived_a2, derived_w3x4, closed_a2, closed_w3x4 = closed_forms.derive(cases)
        assert closed_forms.show(derived_a2, names) == a2
        assert (derived_a2, derived_w3x4) == (closed_a2, closed_w3x4)
    assert closed_forms.show(closed_forms.derive(grid["e3"][1])[1], "a") == "-4 + 4a"


def test_closed_forms_fit_rejects_values_of_higher_degree():
    closed_forms = _load("closed_forms")
    cube = {(x, y): x**3 + y for x in range(-3, 4) for y in range(-3, 4)}
    assert closed_forms.fit(cube, 2) is None
    assert closed_forms.show(closed_forms.fit(cube, 3), "xy") == "y + x^3"
