"""Property-based tests: algebraic identities that must hold everywhere."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from knotct.cf_calculus import (
    ContinuedFraction,
    evaluate,
    rewrite_identity,
    to_even_cf,
    to_strict_cf,
)
from knotct.errors import KnotctError, PatternMismatch
from knotct.exactmath import LaurentPoly
from knotct.invariants import skein_a2, skein_w3
from knotct.montesinos import parse_spec
from knotct.oracle import jones_via_kauffman

entries = st.lists(
    st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0),
    min_size=1,
    max_size=6,
)


@given(entries, st.sampled_from(["3.1", "3.2", "3.3", "3.4", "3.5"]), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_rewrites_preserve_value(ents, rule, pos):
    try:
        c = ContinuedFraction(ents)
    except KnotctError:
        return
    try:
        r = rewrite_identity(c, rule, pos)
    except PatternMismatch:
        return
    if isinstance(r, tuple):
        off, r = r
    else:
        off = 0
    assert off + evaluate(r) == evaluate(c)


@given(st.integers(3, 199), st.integers(1, 198))
@settings(max_examples=200, deadline=None)
def test_strict_cf_round_trip(q, p):
    if q % 2 == 0 or 2 * p >= q:
        return
    f = Fraction(p, q)
    if f.denominator % 2 == 0 or 2 * f.numerator >= f.denominator:
        return
    assert evaluate(to_strict_cf(f)) == f
    assert evaluate(to_strict_cf(-f)) == -f


@given(st.integers(-199, 199), st.integers(2, 199))
@settings(max_examples=200, deadline=None)
def test_even_cf_round_trip(p, q):
    f = Fraction(p, q)
    if f == 0 or abs(f) >= 1 or (f.numerator % 2) == (f.denominator % 2):
        return
    assert evaluate(to_even_cf(f)) == f


@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), min_size=1, max_size=5)
)
@settings(max_examples=100, deadline=None)
def test_invert_variable_involution(coeffs):
    p = LaurentPoly(coeffs)
    assert p.invert_variable().invert_variable() == p

    def at(q, x):
        return sum(c * x ** e for e, c in q.coeffs.items())
    assert at(p.invert_variable(), Fraction(2)) == at(p, Fraction(1, 2))


odd = st.integers(-3, 3).map(lambda v: 2 * v + 1)


@given(odd, odd, odd)
@settings(max_examples=20, deadline=None)
def test_pretzel_mirror_antisymmetry(p, q, r):
    d = parse_spec(f"P({p},{q},{r})").diagram().simplify()
    if d.n == 0:
        return
    m = d.mirror()
    assert skein_a2(m) == skein_a2(d)
    assert skein_w3(m) == -skein_w3(d)


@given(odd, odd, odd)
@settings(max_examples=15, deadline=None)
def test_jones_mirror_inverts_variable(p, q, r):
    d = parse_spec(f"P({p},{q},{r})").diagram().simplify()
    assert jones_via_kauffman(d.mirror()) == jones_via_kauffman(d).invert_variable()


@given(odd, odd, odd)
@settings(max_examples=15, deadline=None)
def test_jones_at_one_is_one(p, q, r):
    d = parse_spec(f"P({p},{q},{r})").diagram().simplify()
    assert sum(jones_via_kauffman(d).coeffs.values()) == 1
