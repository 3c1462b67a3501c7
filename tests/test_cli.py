"""Command-line interface: subcommands, output formats, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tomllib
from fractions import Fraction

import pytest

import knotct
from knotct import pipeline, sweeps
from knotct.cli import invariant_report, main
from knotct.errors import BudgetExceeded, InconsistentDiagram, NonIntegralA2
from knotct.montesinos import FamilySpec, parse_spec
from knotct.oracle import conway_polynomial, seifert_pipeline


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
    assert d["a2"] == 2 and d["genus"] == 1
    assert d["method"]["a2"] == "closed_form"
    # the Seifert route agrees: half the Conway degree and the genus of the
    # diagram's own Seifert surface are both 1
    sd = seifert_pipeline(parse_spec("DT(2,4)").diagram())
    assert conway_polynomial(sd).degree_span()[1] // 2 == sd.surface_genus == 1


def test_invariants_method_choice(capsys):
    code, out, _ = run(capsys, "invariants", "P(1,1,1)", "--method", "gauss", "--json")
    assert code == 0
    assert json.loads(out)["method"]["a2"] == "gauss_diagram"


def test_invariants_closed_without_formula_fails(capsys):
    code, _, err = run(capsys, "invariants", "P(-2,3,7)", "--method", "closed")
    assert code == 1
    assert "closed forms cover only three-strand odd pretzels" in err


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


@pytest.mark.parametrize("argv", [["obstruct", "M(2/1)"], ["invariants", "M(1/1,1/1,1/1)"]])
def test_spec_of_integer_tangles_exits_2(capsys, argv):
    # every tangle is an integer, so the input names the unknot: an input
    # error with no stage note
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines() == ["error: no nontrivial tangles after normalization"]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["obstruct", "P(2,2,1)"], "2 even-denominator tangles force extra components"),
        (["invariants", "P(2,2)"], "2 even-denominator tangles force extra components"),
        (["obstruct", "M(1/2,1/2,1/3)"], "2 even-denominator tangles force extra components"),
    ],
)
def test_link_spec_exits_2(argv, message):
    p = _cli(argv)
    assert p.returncode == 2
    assert p.stderr.splitlines()[0] == f"error: {message}"
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("method", ["closed", "gauss", "oracle", "all"])
@pytest.mark.parametrize("spec, message", [
    ("P(2,2,1)", "2 even-denominator tangles force extra components"),
    ("P(1,1,1,1)", "2 components"),
], ids=["P(2,2,1)", "P(1,1,1,1)"])
def test_link_spec_exits_2_under_every_method(spec, message, method):
    # a link from its tangle pairs, and one of unit strands, which has none:
    # one message per spec, whichever method is asked for
    p = _cli(["invariants", spec, "--method", method])
    assert p.returncode == 2
    assert p.stderr.splitlines()[0] == f"error: {message}"
    assert "Traceback" not in p.stderr


def test_closed_method_builds_no_diagram(monkeypatch):
    builds = []

    def counted(spec):
        builds.append(spec)
        return diagram(spec)

    diagram = FamilySpec.diagram
    monkeypatch.setattr(FamilySpec, "diagram", counted)
    rep = invariant_report(parse_spec("P(3,5,7)"), "closed")
    assert (rep.a2, rep.w3) == (18, Fraction(75, 2)) and builds == []
    assert dict(rep.method) == {"a2": "closed_form", "w3": "closed_form"}


@pytest.mark.parametrize("spec, surfaces", [("F1L(1,1,1,1,1,1)", 1), ("F1R(2,2,2,2,2,2)", 1),
                                            ("F1L(-2,-2,-2,-2,-1,0)", 2)])
def test_invariants_builds_one_surface_unless_simplify_moves(monkeypatch, spec, surfaces):
    # sigma and the genus read the same surface when simplify returns the
    # diagram itself; a diagram that simplifies gets a second one
    built = []

    def counted(d):
        built.append(d)
        return pipeline_of(d)

    pipeline_of = knotct.oracle.seifert_pipeline
    monkeypatch.setattr(knotct.oracle, "seifert_pipeline", counted)
    rep = invariant_report(parse_spec(spec))
    assert len(built) == surfaces and dict(rep.method)["genus"] == "oracle"


def test_link_spec_error_has_no_stage_note():
    # a link spec is an input error, not a fault of the genus stage that meets it
    p = _cli(["obstruct", "P(2,-2,1)"])
    assert p.returncode == 2
    assert p.stderr.splitlines() == ["error: 2 even-denominator tangles force extra components"]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("P(\u00b2,3,5)", "parse error at position 2: expected 'integer'"),
        ("FAM:o1(a=1,a=2,b=1,c=1,d=1,e=1)", "o1: parameter a is given twice"),
    ],
)
def test_malformed_spec_exits_2(spec, message):
    p = _cli(["invariants", spec])
    assert p.returncode == 2
    assert message in p.stderr
    assert "Traceback" not in p.stderr


# the function each obstruction stage calls, replaced by one that fails
STAGE_CALLS = {
    "genus": "knotct.pipeline.genus",
    "a2": "knotct.gauss.gauss_a2",
    "w3": "knotct.gauss.gauss_w3",
    "sigma": "knotct.pipeline.signature_alternating",
}


@pytest.mark.parametrize("stage", STAGE_CALLS)
def test_computation_error_prints_stage_note(capsys, monkeypatch, stage):
    # genus 2, and an M(...) spec has no closed form, so a2 = 0 and w3 = 0
    # come from the Gauss diagram and sigma = 0 from its alternating
    # diagram; the spec is FAM:o1p(a=-2,b=-2,c=1,d=1,sign=1)
    def inconsistent(*args):
        raise InconsistentDiagram("chord without an end", stage=stage)

    monkeypatch.setattr(STAGE_CALLS[stage], inconsistent)
    code, _, err = run(capsys, "obstruct", "M(-4/11,1/3,1/3|1)")
    assert code == 1
    assert err.splitlines()[-1] == f"obstruction stage: {stage}"
    assert "Traceback" not in err


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


def test_survivor_check_failure_names_its_stage_and_spec():
    # the first survivor's Jones check is over a budget of 8 crossings
    p = _cli(["classify-genus2", "--scope", "alternating_montesinos", "--bound", "2"],
             KNOTCT_CROSSING_BUDGET="8")
    assert p.returncode == 1 and p.stdout == ""
    assert p.stderr.splitlines() == [
        "error: 13 crossings exceeds Jones budget 8",
        "survivor check: Jones",
        "spec: FAM:o1p(a=-2,b=-2,c=1,d=1,sign=1)",
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


@pytest.mark.parametrize("spec, twists", [("P(1,1,1,1,1,1,-1)", 1), ("P(-1,1,1)", 0)])
def test_twists_of_an_all_unit_pretzel(capsys, spec, twists):
    # the (2, 5) torus knot and the unknot, counted on their simplified diagrams
    code, out, _ = run(capsys, "twists", spec)
    assert code == 0 and out == f"{spec}: {twists} twist regions; gate does not fire\n"


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
    # 908 specs here have more than 24 crossings; obstruct takes their a2
    # and w3 from closed forms
    code, out, _ = run(capsys, "classify-genus2", "--scope", "alternating_montesinos",
                       "--bound", "3")
    assert code == 0
    head, *survivors = out.splitlines()
    assert head == "scope=alternating_montesinos bound=3: 6560 eliminated, 16 survivors"
    assert len(survivors) == 16
    assert all(line.startswith("survivor ") and "  ~ " in line for line in survivors)


# sha256 of the `classify-genus2 --bound 3 --csv` file: the survivors' rows
# (values, verdict, rule) and every eliminated spec with the rule that fired.
# Recorded before obstruct took a2/w3 from the Gauss diagram formulas instead
# of the skein engine and Conway; the CSV has no method column.
VERDICT_MAP_SHA256 = {
    "montesinos": "273e3fa776a12b5359b835cc0ec23e1211854528a4e1ad0e68be7bca7ebfb15e",
    "alternating_montesinos": "ed3f866f591b92017fec0f214e6639c9f7a5cb55feb4c32e2414f006fc089d1e",
}


@pytest.mark.parametrize("scope", sorted(VERDICT_MAP_SHA256))
def test_classify_bound_three_verdict_map_is_pinned(capsys, tmp_path, scope):
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "classify-genus2", "--scope", scope, "--bound", "3",
                     "--csv", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == VERDICT_MAP_SHA256[scope]


def test_classify_montesinos_bound_four_verdict_map_is_pinned(capsys, tmp_path):
    # recorded before genus and the twist-box layouts were memoized
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "classify-genus2", "--scope", "montesinos", "--bound", "4",
                       "--csv", str(target))
    assert code == 0
    assert out.splitlines()[0] == "scope=montesinos bound=4: 112848 eliminated, 534 survivors"
    assert (hashlib.sha256(target.read_bytes()).hexdigest()
            == "4c42141b3f702fe652bacb464598841d8e2e84e5d2b63137b8df3610956477af")


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
    ("F1R(1,1,2,2,1,1)", -9, "-19"),  # 25 crossings
    ("F1R(2,2,0,1,2,2)", -14, "-47/2"),  # 27 crossings: over the Jones budget
])
def test_invariants_all_leaves_out_routes_past_their_budget(capsys, spec, a2, w3):
    code, out, _ = run(capsys, "invariants", spec, "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["a2"], d["w3"], d["genus"]) == (a2, w3, 2)
    assert d["method"]["a2"] == d["method"]["w3"] == "closed_form"


@pytest.mark.parametrize("spec, method, message", [
    ("F1R(2,2,0,1,2,2)", "oracle", "27 crossings exceeds Jones budget 26"),
])
def test_invariants_named_route_past_its_budget_fails(capsys, spec, method, message):
    code, _, err = run(capsys, "invariants", spec, "--method", method)
    assert code == 1 and message in err


def test_invariants_gauss_route_has_no_crossing_budget(capsys, monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    for spec, a2, w3 in (("F1R(1,1,2,2,1,1)", -9, "-19"), ("F1R(2,2,0,1,2,2)", -14, "-47/2")):
        code, out, _ = run(capsys, "invariants", spec, "--method", "gauss", "--json")
        d = json.loads(out)
        assert code == 0 and (d["a2"], d["w3"]) == (a2, w3)
        assert d["method"]["a2"] == d["method"]["w3"] == "gauss_diagram"


def test_invariants_all_past_the_jones_budget_takes_gauss_values(capsys, monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    code, out, err = run(capsys, "invariants", "M(1/3,2/5,-1/3,1/5)", "--json")  # no closed form
    d = json.loads(out)
    assert code == 0 and err == ""
    assert (d["a2"], d["w3"]) == (2, "3/2")
    assert d["method"]["a2"] == d["method"]["w3"] == "gauss_diagram"


def test_invariants_credits_w3_to_the_route_that_gave_it(capsys):
    # an M(...) spec has no closed form, so w3 comes from the next route
    code, out, _ = run(capsys, "invariants", "M(1/3,2/5,-1/3,1/5)", "--json")
    d = json.loads(out)
    assert code == 0 and d["method"]["a2"] == d["method"]["w3"] == "gauss_diagram"
    code, out, _ = run(capsys, "invariants", "M(1/3,2/5,-1/3,1/5)", "--method", "oracle", "--json")
    e = json.loads(out)
    assert code == 0 and (e["a2"], e["w3"]) == (d["a2"], d["w3"])
    assert e["method"]["a2"] == e["method"]["w3"] == "oracle"


def test_invariants_past_the_jones_budget_without_a_closed_form(capsys, monkeypatch):
    # 33 crossings and no closed form: past the Jones budget of 26, so only
    # the Gauss diagram formulas give a2 and w3, as Jones does at budget 40
    spec = "M(2/5,3/7,-4/9,5/11,2/7,3/8|1)"
    code, out, _ = run(capsys, "invariants", spec, "--json")
    d = json.loads(out)
    assert code == 0 and (d["a2"], d["w3"]) == (3, "-1")
    assert d["method"]["a2"] == d["method"]["w3"] == "gauss_diagram"
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "40")
    code, out, _ = run(capsys, "invariants", spec, "--method", "oracle", "--json")
    e = json.loads(out)
    assert code == 0 and (e["a2"], e["w3"]) == (3, "-1")


@pytest.mark.parametrize("route", ["knotct.gauss.gauss_a2", "knotct.oracle.a2_w3_from_jones"])
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


@pytest.mark.parametrize("argv", [
    ["obstruct", "F1L(1,-1,2,0,1,-2)", "--json"],
    ["invariants", "P(3,5,7)", "--json"],
    ["enumerate", "--family", "e3", "--bound", "1"],
])
def test_closed_buffered_pipe_exits_2_without_a_traceback(argv):
    """An output that fits the buffer fails only when stdout is flushed,
    which `main` does inside its guard, not the interpreter at exit."""
    src = os.path.dirname(list(knotct.__path__)[0])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first write
    try:
        p = subprocess.run([sys.executable, "-m", "knotct.cli", *argv], stdout=write,
                           stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert p.returncode == 2, p.stderr
    assert "Exception ignored" not in p.stderr and "Traceback" not in p.stderr


def _python(script):
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout.splitlines()


def test_main_and_its_import_leave_the_collector_as_they_find_it():
    lines = _python("import gc, json\n"
                    "state = lambda: [gc.isenabled(), gc.get_freeze_count()]\n"
                    "states = [state()]\n"
                    "import knotct.cli\n"
                    "states.append(state())\n"
                    "knotct.cli.main(['obstruct', 'F1L(1,-1,2,0,1,-2)', '--json'])\n"
                    "states.append(state())\n"
                    "print(json.dumps(states))")
    assert json.loads(lines[0])["verdict"] == "inconclusive"
    assert json.loads(lines[1]) == [[True, 0]] * 3


def test_the_module_run_freezes_after_the_command():
    lines = _python("import gc, runpy, sys\n"
                    "sys.argv = ['knotct', 'invariants', 'F1L(-2,-2,-2,-2,-1,0)', '--json']\n"
                    "try:\n"
                    "    runpy.run_module('knotct.cli', run_name='__main__')\n"
                    "except SystemExit as exc:\n"
                    "    print(exc.code, gc.get_freeze_count())")
    assert len(lines) == 2
    assert json.loads(lines[0])["genus"] == 1
    code, frozen = map(int, lines[1].split())
    assert code == 0 and frozen > 0


def test_the_console_script_calls_the_process_entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    # the function the module's `__main__` block calls
    assert scripts["knotct"] == "knotct.cli:run"


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


def _cold_start_modules(spec):
    """The modules that importing `knotct.cli`, then its `invariants` and
    `obstruct` queries on `spec`, add to a bare interpreter's: measured
    against what it already holds, so whatever a site .pth file imports
    does not count."""
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-c", _COLD_START.replace("SPEC", repr(spec))],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert p.returncode == 0, p.stderr
    return {k: set(v) for k, v in json.loads(p.stdout.splitlines()[-1]).items()}


def test_single_spec_queries_load_only_what_they_run():
    added = _cold_start_modules("FAM:o1(a=1,b=1,c=1,d=1,e=1)")
    assert "knotct.cli" in added["import"]
    assert not added["import"] & {"dataclasses", "inspect", "csv", "knotct.sweeps"}
    assert "knotct.cf_calculus" not in added["import"]
    assert not added["invariants"] & {"knotct.pipeline", "knotct.sweeps"}
    assert "knotct.cf_calculus" in added["invariants"]  # the family's tangle pairs
    assert "knotct.pipeline" in added["obstruct"]
    assert "knotct.sweeps" not in added["obstruct"]
    # a six-box spec has no tangle pairs, so no step compiles the CF calculus
    six_box = _cold_start_modules("F1L(1,-1,2,0,1,-2)")
    assert "knotct.pipeline" in six_box["obstruct"]
    assert not set().union(*six_box.values()) & {"knotct.cf_calculus", "knotct.sweeps"}


def test_obstruct_on_a_closed_form_spec_loads_no_oracle():
    src = os.path.dirname(list(knotct.__path__)[0])
    script = ("import json, sys, knotct.cli\n"
              "knotct.cli.main(['obstruct', 'P(3,5,7)', '--json'])\n"
              "print(json.dumps(sorted(sys.modules)))")
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    assert p.returncode == 0, p.stderr
    assert '"fired_rule": "genus_ne_2"' in p.stdout
    loaded = set(json.loads(p.stdout.splitlines()[-1]))
    assert "knotct.pipeline" in loaded
    assert not loaded & {"knotct.oracle", "knotct.kauffman", "knotct.gauss"}
