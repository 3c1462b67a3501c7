"""Acceptance gate: the eight bounded-scale reproduction criteria.

Each test prints exactly one PASS/FAIL line for its criterion.  All
comparisons are exact (integer / rational equality); runtime limits are
asserted with wall-clock measurements.
"""

import itertools
import time
from fractions import Fraction

import pytest

from knotct.invariants import closed_form
from knotct.montesinos import parse_spec
from knotct.oracle import (
    a2_w3_from_jones,
    alternating_genus,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)
from knotct.exactmath import LaurentPoly
from knotct.pipeline import montesinos_length, twist_gate
from knotct.sweeps import classify_genus2, o2_alternating_a2_w3, verify_suite


def _report(name, ok):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_ac1_formula_oracle_agreement():
    t0 = time.monotonic()
    rep = verify_suite("formulas", bound=2)
    elapsed = time.monotonic() - t0
    ok = rep["passed"] and elapsed < 600
    for c in rep["checks"]:
        if not c["passed"]:
            print("counterexample:", c["name"], c["counterexample"])
    _report(f"AC1 four-way a2 / three-way w3 agreement, |param| <= 2 ({elapsed:.0f}s)", ok)


def test_ac2_zero_family(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "44")
    ok = True
    for a in range(6):
        f = parse_spec(f"F1L({a},{a + 1},0,0,{a + 1},0)")
        rep = closed_form(f)
        a2, w3 = a2_w3_from_jones(jones_via_kauffman(f.diagram().simplify()))
        ok = ok and rep.a2 == 0 and rep.w3 == 0 and a2 == 0 and w3 == 0
    _report("AC2 zero family a2 = w3 = 0 for a in [0,5], closed form and oracle", ok)


def test_ac3_alternating_regime_has_no_double_zero():
    t0 = time.monotonic()
    hits = [
        (a, b, c, d, e)
        for a, c, e in itertools.product(range(7), repeat=3)
        for b, d in itertools.product(range(1, 7), repeat=2)
        if o2_alternating_a2_w3(a, b, c, d, e) == (0, Fraction(0))
    ]
    elapsed = time.monotonic() - t0
    ok = not hits and elapsed < 1
    _report(f"AC3 no a2 = w3 = 0 tuple in the alternating regime sweep ({elapsed:.2f}s)", ok)


def test_ac4_signature_table():
    rep = verify_suite("signatures")
    ok = rep["passed"] and len(rep["checks"]) == 9
    _report("AC4 signature table, 9 cases, Goeritz count and Seifert oracle", ok)


def test_ac5_genus_formulas():
    rep = verify_suite("genus", bound=3)
    ok = rep["passed"]
    _report("AC5 genus = 2 across families (|param| <= 3) and oracle agreement", ok)


def test_ac6_cf_identities():
    rep = verify_suite("cf_identities")
    ok = rep["passed"]
    _report("AC6 CF rewrites on 10k fuzzed inputs, [3,2] = 2/5, round trips", ok)


def test_ac7_classification_reproduction():
    t0 = time.monotonic()
    run = classify_genus2(2, "alternating_montesinos")
    elapsed = time.monotonic() - t0
    ok = elapsed < 900
    ok = ok and run.failures == ()
    ok = ok and all(rule != "none" for rule in run.eliminated.values())
    for f in run.survivors:
        ok = ok and str(f) in run.matches
        ok = ok and twist_gate(f).twists <= 6
        ok = ok and montesinos_length(f) <= 3
    _report(
        f"AC7 sweep at bound 2: {len(run.eliminated)} eliminated with recorded "
        f"rules, {len(run.survivors)} survivors in the known families ({elapsed:.0f}s)",
        ok,
    )


def test_ac8_unknot_sanity():
    d = parse_spec("P(-1,1,1)").diagram().simplify()
    v = jones_via_kauffman(d)
    a2, w3 = a2_w3_from_jones(v)
    sd = seifert_pipeline(d)
    ok = (
        v == LaurentPoly.one()
        and a2 == 0
        and w3 == 0
        and oracle_signature(sd) == 0
        and alternating_genus(d, sd) == 0
    )
    _report("AC8 P(-1,1,1) unknot: V = 1, a2 = 0, sigma = 0, genus 0", ok)
