"""Subtractive continued fractions: evaluation, rewrites, normal forms."""

from fractions import Fraction

import pytest

from knotct.cf_calculus import (
    ContinuedFraction,
    EvenCF,
    StrictCF,
    evaluate,
    rewrite_identity,
    to_even_cf,
    to_strict_cf,
)
from knotct.errors import DivisionByZero, InvalidInput, PatternMismatch


def test_evaluate_basic():
    # 1/(3 - 1/2) = 2/5
    assert evaluate([3, 2]) == Fraction(2, 5)
    assert evaluate([2]) == Fraction(1, 2)
    assert evaluate([-2]) == Fraction(-1, 2)


def test_division_by_zero_detected():
    with pytest.raises(DivisionByZero):
        ContinuedFraction([1, 1])  # 1 - 1/1 = 0 in the tail


def test_rewrite_31_preserves_value():
    c = ContinuedFraction([3, 2])
    r = rewrite_identity(c, "3.1", 2)
    assert evaluate(r) == evaluate(c)
    assert r.entries == (2, -2)


def test_rewrite_32_preserves_value():
    c = ContinuedFraction([3, 1, 4])
    r = rewrite_identity(c, "3.2", 2)
    assert evaluate(r) == evaluate(c)
    assert len(r.entries) == len(c.entries) - 1


def test_rewrite_33_preserves_value():
    c = ContinuedFraction([3, -1])
    r = rewrite_identity(c, "3.3", 2)
    assert evaluate(r) == evaluate(c)
    assert r.entries == (4,)


def test_rewrite_34_offset():
    c = ContinuedFraction([2, 2, 5])
    off, r = rewrite_identity(c, "3.4", 2)
    assert off + evaluate(r) == evaluate(c)


def test_rewrite_35_offset():
    c = ContinuedFraction([-2, -2, 5])
    off, r = rewrite_identity(c, "3.5", 2)
    assert off + evaluate(r) == evaluate(c)


def test_rewrite_pattern_mismatch():
    with pytest.raises(PatternMismatch):
        rewrite_identity(ContinuedFraction([3, 5]), "3.1", 2)
    with pytest.raises(PatternMismatch):
        rewrite_identity(ContinuedFraction([3, 5]), "3.4", 1)


def test_strict_cf_round_trip():
    for q in range(3, 60, 2):
        for p in range(1, q):
            if 2 * p > q or Fraction(p, q).denominator != q:
                continue
            for s in (1, -1):
                f = Fraction(s * p, q)
                assert to_strict_cf(f).value() == f


def test_strict_cf_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        to_strict_cf(Fraction(2, 3))  # not in the half-open range |f| < 1/2


def test_even_cf_round_trip():
    for q in range(2, 60):
        for p in range(-q + 1, q):
            f = Fraction(p, q)
            if f == 0 or (f.numerator % 2) == (f.denominator % 2):
                continue
            e = to_even_cf(f)
            assert e.value() == f
            assert all(c % 2 == 0 and c != 0 for c in e.entries)


def test_even_cf_rejects_odd_odd():
    with pytest.raises(InvalidInput):
        to_even_cf(Fraction(3, 5))


def test_greedy_forms_valid_up_to_denominator_101():
    strict = even = 0
    for q in range(2, 102):
        for p in range(-q + 1, q):
            x = Fraction(p, q)
            if p == 0 or x.denominator != q:
                continue
            if q % 2 and 2 * abs(p) < q:
                s = to_strict_cf(x)
                assert StrictCF(s.pairs) == s and evaluate(s.entries) == x, x
                strict += 1
            if (p + q) % 2:
                e = to_even_cf(x)
                assert EvenCF(e.entries) == e and evaluate(e.entries) == x, x
                even += 1
    assert (strict, even) == (2106, 4180)


def test_greedy_forms_known_entries():
    # nearest even entry, then nearest integer; ties go to the smaller |entry|
    assert to_strict_cf(Fraction(1, 3)).entries == (2, -1)
    assert to_strict_cf(Fraction(-1, 3)).entries == (-2, 1)
    assert to_even_cf(Fraction(2, 5)).entries == (2, -2)
    assert to_even_cf(Fraction(1, 2)).entries == (2,)


def test_leading_run_and_b_total():
    e = EvenCF([2, 2, -4])
    assert e.leading_run(2) == 2
    s = to_strict_cf(Fraction(2, 5))
    assert s.b_total() == sum(abs(b) for _, b in s.pairs)
