"""Closed-form invariants and the recursive skein engine."""

import hashlib
import random
from fractions import Fraction

import pytest
from test_diagram import template_knots, trefoil
from test_montesinos import _conversion_specs

from knotct import invariants
from knotct.errors import (
    BudgetExceeded,
    InvalidInput,
    KnotctError,
    NoFormula,
    NotAKnot,
    ValidationError,
)
from knotct.gauss import _gauss_word
from knotct.invariants import (
    InvariantReport,
    _cancelling,
    _key,
    _simplify,
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
    for route in (skein_a2, skein_w3):
        with pytest.raises(NotAKnot):
            route(d)


def test_invariant_report_validation():
    with pytest.raises(InvalidInput):
        InvariantReport(w3=Fraction(1, 3))
    rep = InvariantReport(a2=1, w3=Fraction(-3, 4), sigma=2)
    d = rep.to_dict()
    assert d["w3"] == "-3/4" and d["a2"] == 1 and d["sigma"] == 2


def test_word_key_invariant_under_rotation_and_relabelling():
    rng = random.Random(20240814)
    for d in template_knots():
        w = _gauss_word(d)
        key = _key(w)
        for _ in range(5):
            ids = dict(zip({p >> 2 for p in w}, rng.sample(range(1000), d.n)))
            s = rng.randrange(len(w))
            e = [ids[p >> 2] << 2 | p & 3 for p in w[s:] + w[:s]]
            assert _key(e) == key


def test_word_key_tells_mirror_images_apart():
    w, m = _gauss_word(trefoil()), _gauss_word(trefoil().mirror())
    assert _key(m) != _key(w)
    assert _key([p ^ 3 for p in m]) == _key(w)  # mirroring switches every crossing


def passage(c, over, positive):
    return c << 2 | over << 1 | positive


def test_reidemeister_one_removes_a_kink():
    w = _gauss_word(trefoil())
    assert _cancelling(w) == ()
    kink = [passage(9, 1, 1), passage(9, 0, 1)]
    assert _cancelling(kink) == (9,)
    assert _cancelling(w[:1] + kink + w[1:]) == (9,)
    assert _cancelling(kink[:1] + w + kink[1:]) == (9,)  # across the base point
    assert _simplify(w[:3] + kink + w[3:]) == w


def test_reidemeister_two_needs_one_strand_over_and_opposite_signs():
    w = _gauss_word(trefoil())
    for over_a, over_b, sign_a, sign_b, cancels in [
        (1, 1, 1, 0, True),  # one strand over at both: slides apart
        (0, 0, 0, 1, True),
        (1, 1, 1, 1, False),  # same-sign clasp
        (1, 0, 1, 0, False),  # the strands interlock
    ]:
        a, b = passage(7, over_a, sign_a), passage(8, over_b, sign_b)
        for clasp in (w[:2] + [a, b] + w[2:4] + [a ^ 2, b ^ 2] + w[4:],  # parallel
                      w[:2] + [a, b] + w[2:4] + [b ^ 2, a ^ 2] + w[4:]):  # antiparallel
            assert (_cancelling(clasp) == (7, 8)) is cancels
            assert (_simplify(clasp) == w) is cancels


def test_memos_are_capped_without_changing_values(monkeypatch):
    ds = [d for d in template_knots() if d.n <= 16]
    expected = [(skein_a2(d), skein_w3(d)) for d in ds]
    monkeypatch.setattr(invariants, "_MEMO_CAP", 8)
    monkeypatch.setattr(invariants, "_A2_MEMO", {})
    monkeypatch.setattr(invariants, "_W3_MEMO", {})
    for d, want in zip(ds, expected):
        assert (skein_a2(d), skein_w3(d)) == want
        assert len(invariants._A2_MEMO) <= 8 and len(invariants._W3_MEMO) <= 8


def test_closed_forms_are_pinned():
    # sha256 over the closed-form report, or the error's type and message,
    # of every bound-3 family spec and formulas-suite spec (mirrored pretzels
    # and double twists included); recorded with the closed forms written in
    # `Fraction` arithmetic
    outcomes = []
    for f in _conversion_specs():
        try:
            outcomes.append(repr(closed_form(f)))
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 59_512
    assert digest == "dfb062409ea10639f2dbc1605bffb13d752314e4f6d3c2824c46ec8c32b00cb0"


def test_closed_form_builds_one_fraction_per_w3(monkeypatch):
    # a2 and 4*w3 are computed in integers; the one Fraction is the w3 value
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(invariants, "Fraction", Counted)
    for f in _conversion_specs()[::7]:
        made.clear()
        try:
            rep = closed_form(f)
        except NoFormula:
            continue
        assert len(made) == (rep.w3 is not None), str(f)
