"""Command-line interface: subcommands, output formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import knotct
from knotct import pipeline, sweeps
from knotct.cli import main
from knotct.errors import BudgetExceeded, NonIntegralA2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "P(1,1,1)")
    assert code == 0
    assert "a2 = 1" in out
    assert "genus = 1" in out


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "DT(2,4)", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["a2"] == 2 and d["genus"] == 2
    assert d["method"]["a2"] == "closed_form"


def test_invariants_method_choice(capsys):
    code, out, _ = run(capsys, "invariants", "P(1,1,1)", "--method", "skein", "--json")
    assert code == 0
    assert json.loads(out)["method"]["a2"] == "skein_engine"


def test_invariants_closed_without_formula_fails(capsys):
    code, _, err = run(capsys, "invariants", "FAM:o3p(b=1,c=1,sign=1)", "--method", "closed")
    assert code == 1
    assert "no published closed form" in err


def test_invariants_closed_on_montesinos_spec_is_a_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "M(1/2,1/3,1/3)", "--method", "closed")
    assert code == 2
    assert "--method closed needs a family spec" in err


def test_obstruct_json(capsys):
    code, out, _ = run(capsys, "obstruct", "P(-1,1,1)", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "no_pcs" and d["fired_rule"] == "genus_ne_2"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "Q(1,2)")
    assert code == 2 and "error" in err


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "nope", "--bound", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("M(1/0)", "zero denominator"),
        # bracket continued fractions with no value
        ("M([0])", "zero denominator while evaluating entry 1"),
        ("M([1,1])", "zero denominator while evaluating entry 1"),
        ("M([2,1,1])", "zero denominator while evaluating entry 2"),
    ],
)
def test_spec_without_value_exit_code(capsys, spec, message):
    code, _, err = run(capsys, "obstruct", spec)
    assert code == 2 and message in err


def _cli(argv, **env):
    src = os.path.dirname(list(knotct.__path__)[0])
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-m", "knotct.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("budget", ["abc", "0", "-3"])
def test_bad_crossing_budget_exit_code(budget):
    p = _cli(["invariants", "P(3,5,7)"], KNOTCT_CROSSING_BUDGET=budget)
    assert p.returncode == 2
    assert "KNOTCT_CROSSING_BUDGET" in p.stderr
    assert "Traceback" not in p.stderr


def test_computation_error_prints_stage_note():
    # a2 = 0 falls through to w3, which has no route past the skein budget
    p = _cli(["obstruct", "FAM:o1p(a=-2,b=-2,c=1,d=1,sign=1)"], KNOTCT_CROSSING_BUDGET="3")
    assert p.returncode == 1
    assert "exceeds the skein budget 3" in p.stderr
    assert "obstruction stage: w3" in p.stderr
    assert "Traceback" not in p.stderr


def test_sweep_failure_names_the_spec(monkeypatch, capsys):
    obstruct = pipeline.obstruct

    def failing(f):
        if str(f) == "F1R(0,0,0,0,0,1)":
            raise pipeline._note(BudgetExceeded("30 crossings exceeds the skein budget 24"),
                                 "obstruction stage: w3")
        return obstruct(f)

    monkeypatch.setattr(pipeline, "obstruct", failing)
    with pytest.raises(BudgetExceeded) as info:
        sweeps.classify_genus2(1, "fig1")
    assert info.value.__notes__ == ["obstruction stage: w3", "spec: F1R(0,0,0,0,0,1)"]
    code, out, err = run(capsys, "classify-genus2", "--scope", "fig1", "--bound", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: 30 crossings exceeds the skein budget 24",
        "obstruction stage: w3",
        "spec: F1R(0,0,0,0,0,1)",
    ]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "o1", "--bound", "0"],
    ["classify-genus2", "--scope", "fig1", "--bound", "0"],
    ["verify", "--suite", "genus", "--bound", "0"],
])
def test_bound_zero_is_a_validation_error(argv):
    p = _cli(argv)
    assert p.returncode == 2
    assert "bound must be >= 1" in p.stderr
    assert "Traceback" not in p.stderr


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "e3", "--bound", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "FAM:e3(a=1)" in lines
    assert any("mirror=1" in ln for ln in lines)


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "e3", "--bound", "1", "--csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and rows[0]["family"] == "e3"
    for row in rows:
        assert row["verdict"] in ("no_pcs", "inconclusive")
        assert row["fired_rule"]


def test_verify_suite_output(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "signatures")
    assert code == 0
    assert all(ln.startswith("ok") for ln in out.strip().splitlines())


def test_twists(capsys):
    code, out, _ = run(capsys, "twists", "P(3,5,1)")
    assert code == 0
    assert "3 twist regions" in out


def test_classify_writes_csv(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "classify-genus2", "--scope", "fig1", "--bound", "1", "--csv", str(target)
    )
    assert code == 0
    assert "survivors" in out
    rows = list(csv.DictReader(target.open()))
    assert rows
    survivors = [r for r in rows if r["verdict"] == "inconclusive"]
    assert len(survivors) == 8
    for r in survivors:
        assert r["a2"] == "0" and r["fired_rule"] == "none"


def test_classify_alternating_bound_three(capsys):
    # 48 specs here have no closed form and more than 24 crossings
    code, out, _ = run(capsys, "classify-genus2", "--scope", "alternating_montesinos",
                       "--bound", "3")
    assert code == 0
    head, *survivors = out.splitlines()
    assert head == "scope=alternating_montesinos bound=3: 6560 eliminated, 16 survivors"
    assert len(survivors) == 16
    assert all(line.startswith("survivor ") and "  ~ " in line for line in survivors)


def test_classify_csv_to_unwritable_path_exits_2(tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    p = _cli(["classify-genus2", "--scope", "montesinos", "--bound", "3", "--csv", str(target)])
    assert p.returncode == 2
    assert f"cannot write {target}" in p.stderr
    assert "Traceback" not in p.stderr


def test_classify_csv_path_is_opened_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(*args):
        raise AssertionError("the sweep ran before the CSV path was checked")

    monkeypatch.setattr("knotct.sweeps.classify_genus2", sweep)
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run(capsys, "classify-genus2", "--scope", "fig1", "--bound", "1",
                       "--csv", str(target))
    assert code == 2 and "cannot write" in err


@pytest.mark.parametrize("spec, a2, w3", [
    ("F1R(1,1,2,2,1,1)", -9, "-19"),  # 25 crossings: over the skein budget
    ("F1R(2,2,0,1,2,2)", -14, "-47/2"),  # 27 crossings: over the Jones budget too
])
def test_invariants_all_leaves_out_routes_past_their_budget(capsys, spec, a2, w3):
    code, out, _ = run(capsys, "invariants", spec, "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["a2"], d["w3"], d["genus"]) == (a2, w3, 2)
    assert d["method"]["a2"] == d["method"]["w3"] == "closed_form"


@pytest.mark.parametrize("spec, method, message", [
    ("F1R(1,1,2,2,1,1)", "skein", "25 crossings exceeds the skein budget 24"),
    ("F1R(2,2,0,1,2,2)", "oracle", "27 crossings exceeds Jones budget 26"),
])
def test_invariants_named_route_past_its_budget_fails(capsys, spec, method, message):
    code, _, err = run(capsys, "invariants", spec, "--method", method)
    assert code == 1 and message in err


def test_invariants_all_without_a2_raises_the_first_budget_error(capsys, monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    code, _, err = run(capsys, "invariants", "M(1/3,2/5,-1/3,1/5)")  # no closed form
    assert code == 1
    assert err.splitlines() == ["error: 15 crossings exceeds the skein budget 5"]


def test_invariants_credits_w3_to_the_route_that_gave_it(capsys, monkeypatch):
    # the e3 closed form gives a2 only, so w3 comes from the next route
    code, out, _ = run(capsys, "invariants", "FAM:e3(a=1)", "--json")
    assert code == 0 and json.loads(out)["method"]["w3"] == "skein_engine"

    def over_budget(d):
        raise BudgetExceeded(f"{d.n} crossings exceeds the skein budget 0")

    monkeypatch.setattr("knotct.cli.skein_a2", over_budget)
    code, out, _ = run(capsys, "invariants", "FAM:e3(a=1)", "--json")
    d = json.loads(out)
    assert code == 0 and (d["a2"], d["w3"]) == (2, "0")
    assert d["method"]["a2"] == "closed_form" and d["method"]["w3"] == "oracle"


@pytest.mark.parametrize("route", ["knotct.cli.skein_a2", "knotct.cli.a2_w3_from_jones"])
def test_invariants_all_leaves_out_only_budget_errors(capsys, monkeypatch, route):
    def broken(arg):
        raise NonIntegralA2("-V''(1)/6 = 1/2 is not an integer")

    monkeypatch.setattr(route, broken)
    code, _, err = run(capsys, "invariants", "P(3,5,7)")
    assert code == 1 and "is not an integer" in err


def test_closed_output_pipe_exits_2_without_a_traceback():
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.Popen([sys.executable, "-m", "knotct.cli", "enumerate", "--family", "o1",
                          "--bound", "3"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert p.stdout.readline().startswith("FAM:o1(")
    p.stdout.close()  # the listing is far larger than the pipe buffer
    err = p.stderr.read()
    assert p.wait(timeout=120) == 2
    assert "Traceback" not in err


_COLD_START = """
import sys
bare = set(sys.modules)
import json
import knotct.cli
added = {"import": set(sys.modules) - bare}
knotct.cli.main(["invariants", SPEC, "--json"])
added["invariants"] = set(sys.modules) - bare
knotct.cli.main(["obstruct", SPEC, "--json"])
added["obstruct"] = set(sys.modules) - bare
print(json.dumps({k: sorted(v) for k, v in added.items()}))
"""


def test_single_spec_queries_load_only_what_they_run():
    # measured against the modules a bare interpreter already holds, so
    # whatever a site .pth file imports does not count
    spec = "FAM:o1(a=1,b=1,c=1,d=1,e=1)"
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-c", _COLD_START.replace("SPEC", repr(spec))],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert p.returncode == 0, p.stderr
    added = {k: set(v) for k, v in json.loads(p.stdout.splitlines()[-1]).items()}
    assert "knotct.cli" in added["import"]
    assert not added["import"] & {"dataclasses", "inspect", "csv", "knotct.sweeps"}
    assert not added["invariants"] & {"knotct.pipeline", "knotct.sweeps"}
    assert "knotct.pipeline" in added["obstruct"]
    assert "knotct.sweeps" not in added["obstruct"]
