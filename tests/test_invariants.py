"""Closed-form invariants and the recursive skein engine."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from test_diagram import fresh_skein_memos, template_knots, trefoil
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
from knotct.diagram.core import _cancelling, _gauss_word, _reduce_word
from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import (
    InvariantReport,
    _key,
    closed_a2_w3,
    closed_form,
    skein_a2,
    skein_w3,
)
from knotct.montesinos import FAMILY_NAMES, FamilySpec, enumerate_family, parse_spec
from knotct.oracle import a2_w3_from_jones, jones_via_kauffman
from knotct.sweeps import _FORMULAS_CROSSING_CAP, _formulas_specs


def test_pretzel_closed_vs_skein():
    for x, y, z in [(0, 0, 0), (1, 1, -1), (2, -1, 1), (1, 2, 0)]:
        f = parse_spec(f"P({2 * x + 1},{2 * y + 1},{2 * z + 1})")
        rep, d = closed_form(f), f.diagram()
        assert (rep.a2, rep.w3) == (skein_a2(d), skein_w3(d))


def test_double_twist_closed_vs_skein():
    for x, y in [(1, 1), (1, -1), (2, 1), (-2, -1)]:
        f = parse_spec(f"DT({2 * x},{2 * y})")
        rep, d = closed_form(f), f.diagram()
        assert (rep.a2, rep.w3) == (skein_a2(d), skein_w3(d))


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
    # the pretzels other than the odd three-strand ones are the only family
    # specs without a closed form
    for text in ("P(-2,3,7)", "P(3,5,7,9,11)", "P(3,5)"):
        with pytest.raises(NoFormula):
            closed_form(parse_spec(text))


def test_closed_forms_give_both_values():
    # e2, e3 and the plus branch of o3 gave a2 alone before their w3 was derived
    for f in (FamilySpec("e2", dict(a=1, b=1, c=1)), FamilySpec("e3", dict(a=2)),
              FamilySpec("o3", dict(a=2, b=1, c=1), sign_variant=1),
              FamilySpec("o4p", dict(b=1, c=1, d=1), sign_variant=-1)):
        rep, d = closed_form(f), f.diagram()
        assert (rep.a2, rep.w3) == (gauss_a2(d), gauss_w3(d)), str(f)
        assert dict(rep.method) == {"a2": "closed_form", "w3": "closed_form"}


# the sign branches whose a2 and w3 forms were derived from the Gauss diagram
# formulas by interpolation, and those where only w3 was
DERIVED = {("o1p", 1), ("o1p", -1), ("o3", -1), ("o3p", 1), ("o3p", -1),
           ("o4", -1), ("o4p", 1), ("o4p", -1)}
DERIVED_W3 = {("o3", 1), ("e2", None), ("e3", None)}


def _derived_specs(bound):
    """Every spec of the derived branches within the bound, mirrors included."""
    branches = DERIVED | DERIVED_W3
    return [f for family in sorted({family for family, _ in branches})
            for f in enumerate_family(family, bound)
            if (f.family, f.sign_variant) in branches]


def test_derived_forms_match_the_gauss_diagram():
    specs = _derived_specs(3)
    assert len(specs) == 3_942
    bad = []
    for f in specs:
        d, rep = f.diagram(), closed_form(f)
        if (rep.a2, rep.w3) != (gauss_a2(d), gauss_w3(d)):
            bad.append(str(f))
    assert not bad, bad[:5]


def test_derived_forms_match_jones_on_a_sample(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "40")
    bad = []
    for f in random.Random(20261019).sample(_derived_specs(3), 48):
        rep = closed_form(f)
        if (rep.a2, rep.w3) != a2_w3_from_jones(jones_via_kauffman(f.diagram())):
            bad.append(str(f))
    assert not bad, bad


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
    w = list(_gauss_word(trefoil()))  # the diagram's cached word is a tuple
    assert _cancelling(w) == ()
    kink = [passage(9, 1, 1), passage(9, 0, 1)]
    assert _cancelling(kink) == (9,)
    assert _cancelling(w[:1] + kink + w[1:]) == (9,)
    assert _cancelling(kink[:1] + w + kink[1:]) == (9,)  # across the base point
    assert _reduce_word(w[:3] + kink + w[3:]) == w


def test_reidemeister_two_needs_one_strand_over_and_opposite_signs():
    w = list(_gauss_word(trefoil()))
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
            assert (_reduce_word(clasp) == w) is cancels


def test_memos_are_capped_without_changing_values(monkeypatch):
    ds = [d for d in template_knots() if d.n <= 16]
    expected = [(skein_a2(d), skein_w3(d)) for d in ds]
    monkeypatch.setattr(invariants, "_MEMO_CAP", 8)
    word_key = fresh_skein_memos(monkeypatch, words=4)
    for d, want in zip(ds, expected):
        assert (skein_a2(d), skein_w3(d)) == want
        assert len(invariants._A2_MEMO) <= 8 and len(invariants._W3_MEMO) <= 8
        assert word_key.cache_info().currsize <= 4
    assert word_key.cache_info().hits > 0


def test_each_word_is_keyed_once(monkeypatch):
    # w3 re-keys the words a2 has just keyed, and neighbouring six-box specs
    # share sub-words; the word LRU computes each distinct word's key once
    requests, computed = [], []
    key = invariants._key

    def counting_key(w):
        computed.append(w)
        return key(w)

    monkeypatch.setattr(invariants, "_key", counting_key)
    word_key = fresh_skein_memos(monkeypatch)

    def requesting(w):
        requests.append(w)
        return word_key(w)

    monkeypatch.setattr(invariants, "_word_key", requesting)
    specs = [f for f in _formulas_specs(2) if f.family.startswith("fig1")]
    start = random.Random(2028).randrange(len(specs) - 200)
    for f in specs[start:start + 200]:
        d = f.diagram()
        if d.component_count() == 1 and d.n <= _FORMULAS_CROSSING_CAP:
            skein_a2(d)
            skein_w3(d)
    assert len(computed) == len(set(requests)) > 200
    assert len(requests) > 4 * len(computed)


def _dict_method_repr(rep):
    """repr of a report, with its method shown as the dict it was when the
    pin below was recorded."""
    fields = ", ".join(f"{name}={getattr(rep, name)!r}" for name in rep.__slots__[:-1])
    return f"InvariantReport({fields}, method={dict(rep.method)!r})"


def test_closed_forms_are_pinned():
    # sha256 over the closed-form report, or the error's type and message,
    # of every bound-3 family spec and formulas-suite spec (mirrored pretzels
    # and double twists included); recorded with the derived forms in place
    outcomes = []
    for f in _conversion_specs():
        try:
            outcomes.append(_dict_method_repr(closed_form(f)))
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 59_512
    assert digest == "8a970713a0e2646587f333d4d5663982a8e067f9ea12091d48f1f3103f6d72ef"


def test_values_that_predate_the_derived_forms_are_unchanged():
    # sha256 over every a2 and w3 that a closed form gave, over the specs
    # above, before the derived forms were added ("-" for a w3 it did not
    # give); recorded on the code before them
    lines = []
    for f in _conversion_specs():
        branch = (f.family, f.sign_variant)
        if branch in DERIVED:
            continue
        try:
            rep = closed_form(f)
        except NoFormula:
            continue
        lines.append(f"{f} {rep.a2} {'-' if branch in DERIVED_W3 else rep.w3}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 55_956
    assert digest == "5c3835153418d000393ce73977e0b8e2826876475d3d219a716b791b1b21c88d"


def test_closed_forms_are_pinned_on_a_wider_grid():
    # sha256 over (a2, 4*w3), or the error's type and message, of every
    # bound-4 family spec (mirrors and both signs included) and both six-box
    # templates on [-3, 3]^6; recorded on the expanded polynomials that the
    # twist-band steps replaced
    specs = [f for family in FAMILY_NAMES for f in enumerate_family(family, 4)]
    assert len(specs) == 113_382
    for family in ("fig1_left", "fig1_right"):
        for vals in itertools.product(range(-3, 4), repeat=6):
            specs.append(FamilySpec(family, dict(zip("abcdef", vals))))
    outcomes = []
    for f in specs:
        try:
            a2, w3 = closed_a2_w3(f)
            outcomes.append(f"{a2} {4 * w3}")
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "bd083f51e9e4babc4f3b887c3d5f38ec57727dd78768ae2b35cab0417c5bb8d4"


# the twist bands that `_closed_a2_w3x4` names, as (family, sign variant,
# parameter); a pretzel's band x is its strand q = 2x + 1
BANDS = (
    [("pretzel", None, q) for q in ("q1", "q2", "q3")]
    + [("double_twist", None, "x"), ("o1", None, "b"), ("o5", None, "c"),
       ("o2", None, "d"), ("o2", None, "b")]
    + [("e1", None, "a")]
    + [("o3", s, p) for s in (1, -1) for p in "cb"]
    + [("o4", s, p) for s in (1, -1) for p in "dcb"]
    + [("fig1_left", None, p) for p in "cb"]
    + [("fig1_right", None, p) for p in "cba"]
)
_NAMES = {"pretzel": ("q1", "q2", "q3"), "double_twist": "xy", "o1": "abcde",
          "o2": "abcde", "o3": "abc", "o4": "abcd", "o5": "abcde", "e1": "abcde",
          "fig1_left": "abcdef", "fig1_right": "abcdef"}


def _band_steps(family, sign, band):
    """[(spec at k, spec at k + 1)] of unmirrored specs, one pair per
    admissible k of `band` and values of the other parameters: odd strands
    in [-5, 5] for a pretzel, [-1, 1] for a six-box template, and [-2, 2]
    with k in [-3, 2] for the rest."""
    if family == "pretzel":
        others, ks, step = range(-5, 6, 2), range(-5, 4, 2), 2
    elif family.startswith("fig1"):
        others, ks, step = range(-1, 2), range(-1, 1), 1
    else:
        others, ks, step = range(-2, 3), range(-3, 3), 1
    rest = [p for p in _NAMES[family] if p != band]
    pairs = []
    for vals in itertools.product(others, repeat=len(rest)):
        for k in ks:
            try:
                pairs.append(tuple(FamilySpec(family, {**dict(zip(rest, vals)), band: j}, sign)
                                   for j in (k, k + step)))
            except ValidationError:
                pass
    return pairs


def _band_rule_breaks(pairs):
    """The pairs whose Gauss (a2, 4*w3) break the band rule: with A, W at k
    and L the step of a2, W at k + 1 is W + 2A + L(L + 1)."""
    bad = []
    for f, g in pairs:
        d, e = f.diagram(), g.diagram()
        a2, w, step = gauss_a2(d), 4 * gauss_w3(d), gauss_a2(e) - gauss_a2(d)
        if 4 * gauss_w3(e) - w != 2 * a2 + step * (step + 1):
            bad.append(str(g))
    return bad


@pytest.mark.parametrize("family,sign,band", BANDS)
def test_closed_forms_follow_the_twist_band_rule(family, sign, band):
    pairs = _band_steps(family, sign, band)
    assert len(pairs) >= 16
    bad = _band_rule_breaks(pairs)
    assert not bad, bad[:5]


def test_a_parameter_that_is_no_band_breaks_the_rule():
    # fig1_left's d counts twists that the closed form does not take as a band
    pairs = _band_steps("fig1_left", None, "d")
    assert (len(pairs), len(_band_rule_breaks(pairs))) == (486, 388)


def test_closed_form_builds_one_fraction_per_w3(monkeypatch):
    # a2 and 4*w3 are computed in integers; the one Fraction is the w3
    # value, built on the first call for it and shared by every later one
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(invariants, "Fraction", Counted)
    for f in _conversion_specs()[::7]:
        invariants._quarter.cache_clear()
        made.clear()
        try:
            rep = closed_form(f)
        except NoFormula:
            continue
        assert len(made) == (rep.w3 is not None), str(f)
        made.clear()
        assert closed_form(f).w3 is rep.w3 and not made, str(f)
