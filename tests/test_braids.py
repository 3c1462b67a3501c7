"""Cross-route agreement on closed braids: non-Montesinos, mostly
non-alternating diagrams that the twist-box templates never produce."""

from fractions import Fraction

import pytest
from braids import closed_braid
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_diagram import reference_nugatory

from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import skein_a2, skein_w3
from knotct.oracle import a2_w3_from_jones, conway_polynomial, jones_via_kauffman, seifert_pipeline


@st.composite
def braid_words(draw):
    strands = draw(st.sampled_from([3, 4]))
    gens = [g for g in range(1 - strands, strands) if g]
    return draw(st.lists(st.sampled_from(gens), max_size=16)), strands


def agreed_a2_w3(d):
    """(a2, w3) after checking that Jones, skein, Gauss diagram and Conway
    give the same a2, Jones, skein and Gauss diagram the same w3, and Jones
    and Conway the same determinant.
    It also checks the nugatory crossings against the cut-vertex search: a
    generator used once in a braid word gives one."""
    assert d.nugatory_crossings() == reference_nugatory(d)
    v = jones_via_kauffman(d)
    nabla = conway_polynomial(seifert_pipeline(d))
    a2, w3 = a2_w3_from_jones(v)
    assert a2 == skein_a2(d) == gauss_a2(d) == nabla.coefficient(2)
    assert w3 == skein_w3(d) == gauss_w3(d)
    # |V(-1)| = |nabla(2i)|, which involves every Conway coefficient
    assert abs(v.evaluate(-1)) == abs(sum(c * (-4) ** (e // 2) for e, c in nabla.coeffs.items()))
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
