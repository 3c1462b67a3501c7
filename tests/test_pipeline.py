"""Obstruction pipeline, classification sweeps, and verification suites."""

import pytest

from knotct.errors import KnotctError
from knotct.montesinos import FamilySpec, parse_spec
from knotct.pipeline import (
    FIRED_RULES,
    alternating_build,
    is_alternating_knot,
    montesinos_length,
    obstruct,
    twist_gate,
)
from knotct.sweeps import SIGNATURE_CASES, classify_genus2, verify_suite


def test_unknot_obstruction():
    v = obstruct(parse_spec("P(-1,1,1)"))
    assert v.verdict == "no_pcs"
    assert v.fired_rule == "genus_ne_2"
    assert v.evidence.genus == 0


def test_trefoil_obstructed_by_genus():
    v = obstruct(parse_spec("P(1,1,1)"))
    assert v.verdict == "no_pcs" and v.fired_rule == "genus_ne_2"
    assert v.evidence.genus == 1


def test_genus_two_a2_fires():
    v = obstruct(parse_spec("FAM:o1(a=1,b=1,c=1,d=1,e=1)"))
    assert v.fired_rule in ("a2_nonzero", "w3_nonzero", "tau_nonzero_via_sigma")
    assert v.verdict == "no_pcs"


def test_survivor_is_inconclusive():
    v = obstruct(parse_spec("FAM:o1p(a=1,b=2,c=-2,d=-2,sign=-1)"))
    assert v.verdict == "inconclusive" and v.fired_rule == "none"
    assert v.evidence.a2 == 0 and v.evidence.w3 == 0


def test_a2_past_the_skein_budget_comes_from_conway(monkeypatch):
    spec = parse_spec("M(1/3,2/5,-1/3,1/5)")  # 15 crossings, no closed form
    v = obstruct(spec)
    assert v.evidence.method["a2"] == "skein_engine"
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    w = obstruct(spec)
    assert w.evidence.method["a2"] == "oracle"
    assert w.evidence.a2 == v.evidence.a2 != 0
    assert w.fired_rule == v.fired_rule == "a2_nonzero"


def test_fired_rule_vocabulary():
    for spec in ("P(1,1,1)", "P(3,5,1)", "FAM:e3(a=1)", "DT(2,4)"):
        assert obstruct(parse_spec(spec)).fired_rule in FIRED_RULES


def test_verdict_consistency():
    for spec in ("P(1,1,1)", "FAM:o2(a=1,b=-1,c=2,d=1,e=-2)"):
        v = obstruct(parse_spec(spec))
        assert (v.verdict == "no_pcs") == (v.fired_rule != "none")


def test_alternating_certification():
    two_bridge = parse_spec("M(1/2,1/3)")
    assert is_alternating_knot(two_bridge)
    all_pos = parse_spec("M(1/2,1/3,1/3)")
    assert is_alternating_knot(all_pos)
    b = alternating_build(all_pos)
    assert b is not None and b.diagram().is_alternating()


def test_alternating_build_for_mixed_signs():
    f = FamilySpec("o1p", dict(a=-2, b=-1, c=2, d=1), sign_variant=-1)
    from knotct.pipeline import _to_montesinos

    m = _to_montesinos(f)
    if is_alternating_knot(m):
        b = alternating_build(m)
        assert b is not None and b.diagram().is_alternating()


def test_montesinos_length():
    assert montesinos_length(parse_spec("M(1/2,1/3,1/3)")) == 3
    assert montesinos_length(parse_spec("P(-1,1,1)")) == 0  # unknot


def test_twist_gate():
    g = twist_gate(parse_spec("P(3,5,1)"))
    assert g.twists == 3 and not g.fires
    g = twist_gate(parse_spec("M(1/2,2/5,2/5,2/5)"))
    assert g.twists >= 7 and g.fires
    with pytest.raises(KnotctError):
        twist_gate(parse_spec("P(3,5,-2)"))  # no alternating build


def test_signature_cases_well_formed():
    assert len(SIGNATURE_CASES) == 9
    for name, expected, family, sign, tuples in SIGNATURE_CASES:
        assert len(tuples) >= 3, name
        assert expected == ">0" or isinstance(expected, int)


def test_verify_signatures_suite():
    rep = verify_suite("signatures")
    assert rep["passed"] is True
    assert len(rep["checks"]) == 9


def test_verify_claim42_suite():
    rep = verify_suite("claim42", bound=6)
    assert rep["passed"] is True


def test_classify_small_fig1():
    run = classify_genus2(1, "fig1")
    assert run.failures == ()
    assert len(run.survivors) == 8
    for f in run.survivors:
        assert f.family == "fig1_left"
    for rule in run.eliminated.values():
        assert rule in FIRED_RULES and rule != "none"


def test_classify_alternating_bound_one():
    run = classify_genus2(1, "alternating_montesinos")
    assert run.failures == ()
    for f in run.survivors:
        assert str(f) in run.matches
