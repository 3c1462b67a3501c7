"""Gauss diagram formulas for a2 and w3, against the other routes and a naive
count of the five w3 patterns."""

import itertools
import random
from fractions import Fraction

import pytest
from braids import closed_braid
from test_diagram import template_knots, trefoil

from knotct.errors import KnotctError, NotAKnot
from knotct.gauss import _chords, gauss_a2, gauss_w3
from knotct.invariants import skein_a2, skein_w3
from knotct.montesinos import enumerate_family, parse_spec
from knotct.oracle import a2_w3_from_jones, conway_polynomial, jones_via_kauffman, seifert_pipeline
from knotct.sweeps import _FORMULAS_CROSSING_CAP, _formulas_specs

W3_PATTERNS = ("U0 U1 O2 O0 U2 O1", "U0 O1 U2 O0 U1 O2", "U0 O1 O2 U1 O0 U2",
               "O0 U1 U0 O2 O1 U2", "O0 U1 O2 U0 O1 U2")


def pattern(chords):
    """The passage word that a set of (start, end, over_first) chords induces,
    labelled by first appearance."""
    passages = sorted((pos, k, "UO"[bool(over)] if pos == s else "OU"[bool(over)])
                      for k, (s, e, over) in enumerate(chords) for pos in (s, e))
    labels = {}
    return " ".join(f"{kind}{labels.setdefault(k, len(labels))}" for _, k, kind in passages)


def naive_w3(d):
    """-1/2 times the signed count of the five patterns, over every triple."""
    starts, ends, over, signs = _chords(d)
    total = 0
    for tri in itertools.combinations(range(len(starts)), 3):
        if pattern([(starts[x], ends[x], over[x]) for x in tri]) in W3_PATTERNS:
            total += signs[tri[0]] * signs[tri[1]] * signs[tri[2]]
    return Fraction(-total, 2)


def test_anchor_knots():
    d = trefoil()
    assert (gauss_a2(d), gauss_w3(d)) == (skein_a2(d), skein_w3(d))
    assert gauss_a2(d) == 1 and abs(gauss_w3(d)) == Fraction(1, 2)
    m = d.mirror()
    assert (gauss_a2(m), gauss_w3(m)) == (gauss_a2(d), -gauss_w3(d))
    e = parse_spec("DT(2,-2)").diagram()  # figure-eight
    assert (gauss_a2(e), gauss_w3(e)) == (-1, 0)
    u = parse_spec("P(-1,1,1)").diagram().simplify()  # unknot, no crossings
    assert (gauss_a2(u), gauss_w3(u)) == (0, 0)


def test_links_are_rejected():
    for d in (closed_braid([1, 1], 2), closed_braid([], 2)):
        for route in (gauss_a2, gauss_w3):
            with pytest.raises(NotAKnot):
                route(d)


def test_prefix_table_count_matches_the_triple_scan():
    ds = template_knots() + [parse_spec(t).diagram() for t in (
        "F1L(-2,0,0,-2,-2,-1)", "F1R(2,0,1,1,-1,2)", "FAM:o3(a=2,b=-2,c=2,sign=-1)",
        "FAM:o1p(a=-2,b=-2,c=1,d=1,sign=1)", "M(1/3,2/5,-1/3,1/5)")]
    for d in ds:
        assert gauss_w3(d) == naive_w3(d) == skein_w3(d)


def test_skein_engine_is_the_reference_for_both_counts():
    # no command runs the skein recursion; it checks the Gauss counts on a
    # seeded sample of the formulas suite's knot diagrams, which that suite
    # compares only with Jones, Conway and the closed forms
    n = 0
    for f in random.Random(20261019).sample(_formulas_specs(2), 5000):
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() == 1 and d.n <= _FORMULAS_CROSSING_CAP:
            n += 1
            assert (gauss_a2(d), gauss_w3(d)) == (skein_a2(d), skein_w3(d)), str(f)
    assert n == 4_728


def large_family_diagrams():
    """Bound-4 knots of 25-30 crossings from the sign-branch families o1',
    o3 and o4' and from e2, one in every ten in enumeration order."""
    out = []
    for fam in ("o1p", "o3", "o4p", "e2"):
        for f in enumerate_family(fam, 4):
            d = f.diagram()
            if 25 <= d.n <= 30 and d.component_count() == 1:
                out.append((f, d))
    return out[::10]


def test_large_diagrams_agree_with_conway_and_jones(monkeypatch):
    # past the skein's budget: only Conway (a2) and Jones (a2, w3) compare
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "30")
    cases = large_family_diagrams()
    assert len(cases) >= 20
    bad = []
    for f, d in cases:
        ja2, jw3 = a2_w3_from_jones(jones_via_kauffman(d))
        ca2 = conway_polynomial(seifert_pipeline(d)).coefficient(2)
        if not gauss_a2(d) == ja2 == ca2 or gauss_w3(d) != jw3:
            bad.append(str(f))
    assert not bad, bad[:5]
