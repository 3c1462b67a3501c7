"""Montesinos normal forms, family specs, parsing, and genus formulas."""

import hashlib
import random
from fractions import Fraction

import pytest

from knotct.diagram import montesinos_diagram
from knotct.errors import InvalidInput, NotAKnot, ParseError, ValidationError
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    MontesinosSpec,
    enumerate_family,
    family_to_montesinos,
    genus,
    parse_spec,
)
from knotct.oracle import conway_polynomial, seifert_pipeline


def test_normalization_truncates_and_shifts():
    # 7/3 = 2 + 1/3: the integer part moves into gamma
    m = MontesinosSpec([Fraction(7, 3), Fraction(1, 2), Fraction(1, 3)], 0)
    assert all(abs(f) < 1 for f in m.tangles)
    assert m.gamma == 2


def test_gamma_shift_identity():
    # M(f - 1 | gamma + 1) and M(f | gamma) name the same knot: the total
    # fraction gamma + sum(tangles) is preserved by normalization
    a = MontesinosSpec([Fraction(1, 3) - 1, Fraction(1, 2), Fraction(1, 3)], 1)
    b = MontesinosSpec([Fraction(1, 3), Fraction(1, 2), Fraction(1, 3)], 0)
    assert a.gamma + sum(a.tangles) == b.gamma + sum(b.tangles)
    assert genus(a).genus == genus(b).genus


def test_unknot_rejected():
    with pytest.raises(InvalidInput):
        MontesinosSpec([Fraction(-1), Fraction(1), Fraction(1)], 0)


def test_two_even_denominators_rejected():
    with pytest.raises(NotAKnot):
        MontesinosSpec([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)], 0)


def test_two_component_parity_rejected():
    # no even denominator and sum(beta) + gamma even: a two-component link
    with pytest.raises(NotAKnot):
        MontesinosSpec([Fraction(1, 3), Fraction(1, 3)])
    MontesinosSpec([Fraction(1, 3), Fraction(1, 3)], 1)


def _builder_says_knot(fracs, gamma):
    """Whether the template diagram of the raw spec has one component: the
    builder takes the fractions after the same integer-part shift as the
    spec, done here independently."""
    norm = []
    for f in fracs:
        n = int(f)
        gamma += n
        if f != n:
            norm.append(f - n)
    return montesinos_diagram(norm, gamma, expect_knot=False).component_count() == 1


def _spec_says_knot(fracs, gamma):
    try:
        MontesinosSpec(fracs, gamma)
    except NotAKnot:
        return False
    return True


def test_knot_rule_matches_builder_on_random_specs():
    rng = random.Random(20261018)
    checked = 0
    for _ in range(2500):
        fracs = []
        for _ in range(rng.randint(1, 5)):
            alpha = rng.randint(2, 15)
            fracs.append(Fraction(rng.randint(-3 * alpha, 3 * alpha), alpha))
        gamma = rng.randint(-4, 4)
        if all(f.denominator == 1 for f in fracs):
            continue  # no nontrivial tangle: InvalidInput, not a knot question
        checked += 1
        assert _spec_says_knot(fracs, gamma) == _builder_says_knot(fracs, gamma), (fracs, gamma)
    assert checked > 2000


def test_knot_rule_matches_builder_on_families():
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 2):
            fracs, gamma = f.fraction_form()
            if f.mirror:
                fracs, gamma = [-x for x in fracs], -gamma
            assert _spec_says_knot(fracs, gamma) == _builder_says_knot(fracs, gamma), str(f)


def test_genus_breakdowns_pinned():
    # sha256 over every bound-3 family spec's breakdown, in enumeration
    # order, recorded with the search-based normal forms and the
    # diagram-built knot test that the closed forms replaced
    h = hashlib.sha256()
    n = 0
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 3):
            b = genus(family_to_montesinos(f))
            h.update(f"{f}:{b.genus}:{b.type}:{b.per_tangle}:{b.p}\n".encode())
            n += 1
    assert n == 25468
    assert h.hexdigest() == "c2a05a9e1127fde1a339bda27eae38d938c5c1452d1252a74c6bb53770a461c7"


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_enumerated_specs_have_genus_two(family):
    specs = list(enumerate_family(family, 1)) or list(enumerate_family(family, 2))
    assert specs, f"family {family} enumerates nothing at bound 2"
    for f in specs:
        m = family_to_montesinos(f)
        assert genus(m).genus == 2, str(f)


def test_enumerate_includes_mirrors():
    specs = list(enumerate_family("e3", 1))
    assert any(f.mirror for f in specs)
    assert any(not f.mirror for f in specs)


def test_family_constraints():
    with pytest.raises(ValidationError):
        FamilySpec("o3", dict(a=1, b=1, c=1), sign_variant=1)  # needs |a| >= 2
    with pytest.raises(ValidationError):
        FamilySpec("o1p", dict(a=-1, b=1, c=2, d=2), sign_variant=1)
    with pytest.raises(ValidationError):
        FamilySpec("e2", dict(a=0, b=1, c=1))


def test_parse_spec_forms():
    assert parse_spec("P(3,5,-2)").family == "pretzel"
    assert parse_spec("DT(2,4)").family == "double_twist"
    assert parse_spec("F1L(1,1,1,1,1,1)").family == "fig1_left"
    assert parse_spec("F1R(0,1,0,1,0,1)").family == "fig1_right"
    f = parse_spec("FAM:o1(a=1,b=1,c=1,d=1,e=1)")
    assert f.family == "o1" and dict(f.params)["a"] == 1
    m = parse_spec("M(1/2,1/3,1/3)")
    assert isinstance(m, MontesinosSpec)


def test_parse_spec_rejects_garbage():
    for bad in ("", "Q(1,2)", "P(1,", "FAM:nope(a=1)", "M(1/0)", "M([0])", "M([1,1])"):
        with pytest.raises((ParseError, ValidationError, InvalidInput)):
            parse_spec(bad)


def test_spec_string_round_trip():
    for text in ("P(3,5,-2)", "DT(2,4)", "FAM:e3(a=1,mirror=1)"):
        f = parse_spec(text)
        again = parse_spec(str(f))
        assert str(again) == str(f)


def test_genus_breakdown_fields():
    m = MontesinosSpec([Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)], 0)
    g = genus(m)
    assert g.genus >= 1
    assert isinstance(g.type, str) and g.type
    assert len(g.per_tangle) == len(m.tangles)


def test_even_case_three_reads_the_shortest_leading_run():
    # even forms (2, 2, -4) and (-2, -2, -2, -2) have leading runs 2 and 4,
    # so p = 2 is less than every form's length; every bound-3 family spec
    # has p equal to its shortest form's length, which cannot tell the two
    m = MontesinosSpec([Fraction(9, 14), Fraction(-4, 5)])
    b = genus(m)
    assert (b.genus, b.type, b.per_tangle, b.p) == (1, "even_caseIII", (3, 4), 2)
    # a two-tangle Montesinos knot is two-bridge, so its genus is half the
    # Conway degree: 1 + 3z^2
    conway = conway_polynomial(seifert_pipeline(m.diagram()))
    assert conway.degree_span() == (0, 2 * b.genus)


def test_diagram_matches_spec():
    d = parse_spec("M(1/2,1/3,1/3)").diagram()
    assert d.component_count() == 1
