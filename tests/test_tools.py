"""The repository's command-line tools outside the package."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from knotct.montesinos import parse_spec

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


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


def test_bench_pairs_alternates_the_sides_and_assembles_the_record():
    bench_pairs = _load("bench_pairs")
    schedule = bench_pairs.plan([bench_pairs.seed_range("classify=11-13"),
                                 bench_pairs.seed_range("genus=31-32")],
                                [bench_pairs.seed_range("classify=21")])
    assert schedule == [
        ("parent", "classify", 11, 0), ("change", "classify", 11, 0),
        ("change", "classify", 12, 0), ("parent", "classify", 12, 0),
        ("parent", "classify", 13, 0), ("change", "classify", 13, 0),
        ("parent", "genus", 31, 0), ("change", "genus", 31, 0),
        ("change", "genus", 32, 0), ("parent", "genus", 32, 0),
        ("parent", "classify", 21, 1), ("change", "classify", 21, 1),
    ]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_range("classify")

    seen = []

    def run(side, argv):
        """A result as perfbench/run.py prints it: the change is 20% faster,
        and better in every pair but seed 13."""
        seen.append((side, argv))
        seed, trace = int(argv[argv.index("--seed") + 1]), argv[-1] == "1"
        if trace:
            obstruct = 0.1 if side == "parent" else 0.08
            metrics = {"pipeline.obstruct.self_s": obstruct, "pipeline.obstruct.calls": 4800,
                       "oracle.jones.self_s": 0.0}
        else:
            p50 = seed / 1000 * (1 if side == "parent" or seed == 13 else 0.8)
            metrics = {"item_p50_ms": p50, "throughput_per_s": 1 / p50}
        return {"correct": True, "attempted": 4800, "failed": 0,
                "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}

    runs = list(bench_pairs.bench(schedule, 15, run))
    assert [(side, argv[3], int(argv[5]), int(argv[9])) for side, argv in seen] == schedule
    assert seen[0][1] == ["python3", "perfbench/run.py", "--workload", "classify",
                          "--seed", "11", "--seconds", "15", "--trace", "0"]
    assert runs[2]["command"] == (
        "python3 perfbench/run.py --workload classify --seed 12 --seconds 15 --trace 0")
    bounds = {"throughput_per_s": "higher", "item_p50_ms": "lower", "setup_s": "lower"}
    rec = bench_pairs.record(42, "what changed", "abc", "def", "Opening.", runs, bounds, "a host")
    earlier = json.loads((ROOT / "BENCH_41.json").read_text())
    assert list(rec) == list(earlier)
    assert all(list(r) == list(earlier["runs"][0]) for r in rec["runs"])
    assert rec["point"] == 42 and rec["parent_commit"] == "abc" and rec["change_commit"] == "def"
    assert rec["note"] == (
        "Opening. classify (11-13, 3 pairs): throughput_per_s 83.33 -> 104.2 (+25.0%, change "
        "better in 2/3, parent IQR 76.92-90.91); item_p50_ms 0.012 -> 0.0096 (-20.0%, change "
        "better in 2/3, parent IQR 0.011-0.013); correct true and 0 failed items over both sides. "
        "genus (31-32, 2 pairs): throughput_per_s 31.75 -> 39.69 (+25.0%, change better in 2/2, "
        "parent IQR 31-32.51); item_p50_ms 0.0315 -> 0.0252 (-20.0%, change better in 2/2, "
        "parent IQR 0.03075-0.03225); correct true and 0 failed items over both sides. "
        "Traced classify 21 (raw seconds): pipeline.obstruct.self_s 0.100 -> 0.080; "
        "calls equal on both sides.")
