"""Obstruction pipeline, classification sweeps, and verification suites."""

import pytest

from knotct.diagram import montesinos_diagram
from knotct.errors import KnotctError
from knotct.invariants import closed_form, skein_a2
from knotct.montesinos import FAMILY_NAMES, FamilySpec, _normal_pairs, enumerate_family, parse_spec
from knotct.oracle import conway_polynomial, seifert_pipeline
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


def test_a2_without_a_closed_form_comes_from_the_gauss_diagram(monkeypatch):
    spec = parse_spec("M(1/3,2/5,-1/3,1/5)")  # 15 crossings, no closed form
    d = spec.diagram()
    v = obstruct(spec)
    assert v.evidence.method["a2"] == "gauss_diagram"
    assert v.evidence.a2 == skein_a2(d) == conway_polynomial(seifert_pipeline(d)).coefficient(2)
    # the Gauss diagram route has no crossing budget
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    w = obstruct(spec)
    assert w.evidence.method["a2"] == "gauss_diagram"
    assert w.evidence.a2 == v.evidence.a2 != 0
    assert w.fired_rule == v.fired_rule == "a2_nonzero"


def test_obstruct_builds_from_the_genus_gate_pairs(monkeypatch):
    # a genus-two family or M(...) spec's own diagram() is the build of its
    # normalized pairs, so obstruct builds from the pairs its genus gate holds
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 2)]
    specs += [parse_spec(t) for t in ("M(1/3,2/5,-1/3,1/5)", "M(-4/11,1/3,1/3|1)")]
    for f in specs:
        d, e = f.diagram(), montesinos_diagram(*_normal_pairs(f))
        assert (d.crossings, d.over_entry) == (e.crossings, e.over_entry), str(f)
    # a2 = w3 = 0 from the closed form, so the signature gate builds the diagram
    survivor = parse_spec("FAM:o1p(a=1,b=2,c=-2,d=-2,sign=-1)")
    want = obstruct(survivor)
    monkeypatch.setattr(FamilySpec, "diagram", None)
    assert obstruct(survivor) == want and want.evidence.sigma == 0


def test_obstruct_reads_the_closed_forms():
    # obstruct reads a family spec's a2 and w3 as closed_form gives them,
    # mirror sign included, and credits both to the closed form
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 2)]
    assert any(f.mirror for f in specs)
    for f in specs:
        v = obstruct(f)
        rep = closed_form(f)
        assert (v.evidence.a2, v.evidence.w3) == (rep.a2, rep.w3), str(f)
        assert v.evidence.method["a2"] == v.evidence.method["w3"] == "closed_form"


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
    # two-bridge knots are alternating even when no sign-coherent shift exists
    mixed = parse_spec("M(1/3,-2/5)")
    assert is_alternating_knot(mixed) and alternating_build(mixed) is None
    all_pos = parse_spec("M(1/2,1/3,1/3)")
    assert is_alternating_knot(all_pos)
    b = alternating_build(all_pos)
    assert b is not None and montesinos_diagram(*b).is_alternating()


def test_alternating_build_for_mixed_signs():
    m = parse_spec("M(1/3,-2/5,1/3|1)")
    assert is_alternating_knot(m)
    assert not m.diagram().is_alternating()
    alt = alternating_build(m)
    assert alt == ([(1, 3), (3, 5), (1, 3)], 0)  # M(1/3,3/5,1/3)
    b = montesinos_diagram(*alt)
    assert b.is_alternating() and b.is_reduced()


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
