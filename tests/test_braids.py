"""Cross-route agreement on closed braids: non-Montesinos, mostly
non-alternating diagrams that the twist-box templates never produce."""

import random
from fractions import Fraction

import pytest
from braids import closed_braid
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_diagram import assert_faces_match_the_dart_orbits, reference_nugatory, reference_simplify

from knotct.diagram.core import _cancelling, _gauss_word
from knotct.exactmath import LaurentPoly
from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import skein_a2, skein_w3
from knotct.oracle import (
    DEFAULT_JONES_BUDGET,
    a2_w3_from_jones,
    conway_polynomial,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)


@st.composite
def braid_words(draw):
    strands = draw(st.sampled_from([3, 4]))
    gens = [g for g in range(1 - strands, strands) if g]
    return draw(st.lists(st.sampled_from(gens), max_size=16)), strands


def agreed_a2_w3(d):
    """(a2, w3) after checking that Jones, skein, Gauss diagram and Conway
    give the same a2, Jones, skein and Gauss diagram the same w3, and Jones
    and Conway the same determinant.
    It also checks the nugatory crossings against the cut-vertex search (a
    generator used once in a braid word gives one), and the face table and
    twist regions against the dart-orbit reference."""
    assert d.nugatory_crossings() == reference_nugatory(d)
    assert_faces_match_the_dart_orbits(d)
    v = jones_via_kauffman(d)
    nabla = conway_polynomial(seifert_pipeline(d))
    a2, w3 = a2_w3_from_jones(v)
    assert a2 == skein_a2(d) == gauss_a2(d) == nabla.coefficient(2)
    assert w3 == skein_w3(d) == gauss_w3(d)
    # |V(-1)| = |nabla(2i)|, which involves every Conway coefficient
    v_at_minus_one = sum(c * (-1) ** e for e, c in v.coeffs.items())
    assert abs(v_at_minus_one) == abs(sum(c * (-4) ** (e // 2) for e, c in nabla.coeffs.items()))
    return a2, w3


@given(braid_words())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_braid_closures_agree_across_routes(braid):
    d = closed_braid(*braid)
    assume(d.component_count() == 1)
    agreed_a2_w3(d)


@pytest.mark.parametrize("word, strands, a2, w3", [
    ([1, 1, 1], 2, 1, Fraction(-1, 2)),  # right-handed trefoil
    ([-1, -1, -1], 2, 1, Fraction(1, 2)),  # its mirror
    ([1, -2, 1, -2], 3, -1, 0),  # figure-eight, amphichiral
])
def test_braid_anchors(word, strands, a2, w3):
    assert agreed_a2_w3(closed_braid(word, strands)) == (a2, w3)


def test_simplify_keeps_the_jones_polynomial_of_braid_closures():
    rng = random.Random(7)
    knots = removed = 0
    while knots < 1500:
        strands = rng.choice([2, 3, 4, 5])
        gens = [g for g in range(1 - strands, strands) if g]
        d = closed_braid([rng.choice(gens) for _ in range(rng.randint(1, 20))], strands)
        if d.component_count() != 1:
            continue
        knots += 1
        s = d.simplify()
        assert s.n <= d.n
        assert s.n == 0 or _cancelling(_gauss_word(s)) == ()
        assert jones_via_kauffman(s) == jones_via_kauffman(d)
        assert s.canonical_key() == reference_simplify(d).canonical_key()
        removed += d.n - s.n
    assert removed > 10000


# Markov's theorem: two braids have isotopic closures exactly when a sequence
# of braid relations, conjugations and (de)stabilizations carries one to the
# other.  Each closure is read by every route that has no braid in it.


def _relation_spot(word):
    """The first place where a braid relation rewrites `word`: adjacent far
    generators commute, and s_i s_j s_i = s_j s_i s_j for |i - j| = 1 with
    one sign throughout; None when there is none."""
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if abs(abs(a) - abs(b)) >= 2:
            return k, [b, a]
        if k + 2 < len(word) and word[k + 2] == a and abs(abs(a) - abs(b)) == 1 \
                and (a > 0) == (b > 0):
            return k, [b, a, b]
    return None


@st.composite
def markov_moves(draw):
    """(word, strands) of a braid, and of a braid with an isotopic closure."""
    strands = draw(st.sampled_from([2, 3, 4]))
    signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    word = draw(st.lists(st.sampled_from([s * g for g in range(1, strands) for s in signs]),
                         min_size=1, max_size=9))
    moved, n = list(word), strands
    for move in draw(st.lists(st.sampled_from(["rotate", "conjugate", "stabilize", "cancel",
                                               "relation"]), min_size=1, max_size=3)):
        gens = [g for g in range(1 - n, n) if g]
        k = draw(st.integers(0, len(moved)))
        if move == "rotate":  # u v -> v u: conjugation by u
            moved = moved[k:] + moved[:k]
        elif move == "conjugate":
            g = draw(st.sampled_from(gens))
            moved = [g] + moved + [-g]
        elif move == "stabilize":  # a new strand, joined by s_n or its inverse
            moved.append(draw(st.sampled_from([n, -n])))
            n += 1
        elif move == "cancel":
            g = draw(st.sampled_from(gens))
            moved[k:k] = [g, -g]
        elif (spot := _relation_spot(moved)) is not None:
            k, rewritten = spot
            moved[k:k + len(rewritten)] = rewritten
        elif n > 2:  # no spot: insert s_i s_j s_i (s_j s_i s_j)^-1, a trivial word
            i = draw(st.integers(1, n - 2))
            moved[k:k] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    return (word, strands), (moved, n)


def closure_invariants(d):
    return (gauss_a2(d), gauss_w3(d), conway_polynomial(seifert_pipeline(d)),
            oracle_signature(seifert_pipeline(d)))


@given(markov_moves())
@settings(max_examples=250, derandomize=True, deadline=None)
def test_markov_moves_keep_the_closure_invariants(pair):
    (word, strands), (moved, n) = pair
    d, e = closed_braid(word, strands), closed_braid(moved, n)
    assume(d.component_count() == 1)
    assert e.component_count() == 1
    invariants = closure_invariants(d)
    assert closure_invariants(e) == invariants
    # a braid of one sign closes to a positive (negative) braid knot, whose
    # signature is negative (positive) unless it is the unknot (Rudolph,
    # Geom. Dedicata 13, 1982, who counts signatures with the other sign)
    a2, w3, nabla, sigma = invariants
    if len({g > 0 for g in word}) == 1 and nabla != LaurentPoly.one():
        assert sigma * word[0] < 0
    if max(d.n, e.n) <= DEFAULT_JONES_BUDGET:
        assert jones_via_kauffman(d) == jones_via_kauffman(e)
