"""Closed-form invariants and the recursive skein engine."""

from fractions import Fraction

import pytest

from knotct.errors import BudgetExceeded, InvalidInput, NoFormula, ValidationError
from knotct.invariants import (
    InvariantReport,
    a2_dt,
    a2_pretzel,
    closed_form,
    skein_a2,
    skein_w3,
    w3_dt,
    w3_pretzel,
)
from knotct.montesinos import FamilySpec, enumerate_family, parse_spec
from knotct.oracle import a2_w3_from_jones, jones_via_kauffman


def test_pretzel_closed_vs_skein():
    for x, y, z in [(0, 0, 0), (1, 1, -1), (2, -1, 1), (1, 2, 0)]:
        d = parse_spec(f"P({2 * x + 1},{2 * y + 1},{2 * z + 1})").diagram()
        assert a2_pretzel(x, y, z) == skein_a2(d)
        assert w3_pretzel(x, y, z) == skein_w3(d)


def test_double_twist_closed_vs_skein():
    for x, y in [(1, 1), (1, -1), (2, 1), (-2, -1)]:
        d = parse_spec(f"DT({2 * x},{2 * y})").diagram()
        assert a2_dt(x, y) == skein_a2(d)
        assert w3_dt(x, y) == skein_w3(d)


def test_trefoil_values():
    d = parse_spec("P(1,1,1)").diagram()
    assert skein_a2(d) == 1
    assert abs(skein_w3(d)) == Fraction(1, 2)


def test_figure_eight_values():
    d = parse_spec("DT(2,-2)").diagram()
    assert skein_a2(d) == -1
    assert skein_w3(d) == 0


def test_skein_matches_jones_on_sample():
    for text in ("P(3,5,-2)", "FAM:o1(a=1,b=1,c=1,d=1,e=1)", "F1L(1,0,1,0,1,0)"):
        d = parse_spec(text).diagram().simplify()
        a2, w3 = a2_w3_from_jones(jones_via_kauffman(d))
        assert skein_a2(d) == a2
        assert skein_w3(d) == w3


@pytest.mark.parametrize("family", ["o1", "o2", "o5", "e1"])
def test_closed_form_matches_skein(family):
    for f in enumerate_family(family, 1):
        d = f.diagram()
        if d.n > 16:
            continue
        rep = closed_form(f)
        assert rep.a2 == skein_a2(d), str(f)
        if rep.w3 is not None:
            assert rep.w3 == skein_w3(d), str(f)


def test_mirror_negates_w3_keeps_a2():
    base = FamilySpec("e1", dict(a=1, b=1, c=1, d=1, e=1))
    mirr = FamilySpec("e1", dict(a=1, b=1, c=1, d=1, e=1), mirror=True)
    rb, rm = closed_form(base), closed_form(mirr)
    assert rb.a2 == rm.a2
    assert rb.w3 == -rm.w3 != 0
    assert skein_w3(mirr.diagram()) == -skein_w3(base.diagram())


def test_no_formula_families():
    with pytest.raises(NoFormula):
        closed_form(FamilySpec("o3", dict(a=2, b=1, c=1), sign_variant=-1))
    with pytest.raises(NoFormula):
        closed_form(FamilySpec("o1p", dict(a=1, b=1, c=1, d=1), sign_variant=1))


def test_partial_formulas_return_none_w3():
    rep = closed_form(FamilySpec("e2", dict(a=1, b=1, c=1)))
    assert rep.a2 == 2 and rep.w3 is None
    rep = closed_form(FamilySpec("o3", dict(a=2, b=1, c=1), sign_variant=1))
    assert rep.w3 is None


def test_skein_budget(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        skein_a2(parse_spec("P(3,3,3)").diagram())


@pytest.mark.parametrize("budget", ["abc", "2.5", "0", "-1"])
def test_bad_budget_is_a_validation_error(monkeypatch, budget):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", budget)
    d = parse_spec("P(1,1,1)").diagram()
    with pytest.raises(ValidationError):
        skein_a2(d)
    with pytest.raises(ValidationError):
        jones_via_kauffman(d)


def test_skein_rejects_links():
    d = parse_spec("P(1,1,1)").diagram().smooth(0)  # two components
    with pytest.raises(Exception):
        skein_a2(d)


def test_invariant_report_validation():
    with pytest.raises(InvalidInput):
        InvariantReport(w3=Fraction(1, 3))
    rep = InvariantReport(a2=1, w3=Fraction(-3, 4), sigma=2)
    d = rep.to_dict()
    assert d["w3"] == "-3/4" and d["a2"] == 1 and d["sigma"] == 2
