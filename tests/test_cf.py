"""Subtractive continued fractions: evaluation, rewrites, normal forms."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import knotct
from knotct import cf_calculus
from knotct.cf_calculus import (
    ContinuedFraction,
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
                assert evaluate(to_strict_cf(f)) == f


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
            assert evaluate(e) == f
            assert all(c % 2 == 0 and c != 0 for c in e)


def test_even_cf_rejects_odd_odd():
    with pytest.raises(InvalidInput):
        to_even_cf(Fraction(3, 5))


def _is_strict(entries):
    return len(entries) % 2 == 0 and all(
        a % 2 == 0 and a != 0 and b != 0 and not (abs(a) == 2 and a * b > 0)
        for a, b in zip(entries[0::2], entries[1::2])
    )


def test_greedy_forms_valid_up_to_denominator_101():
    strict = even = 0
    for q in range(2, 102):
        for p in range(-q + 1, q):
            x = Fraction(p, q)
            if p == 0 or x.denominator != q:
                continue
            if q % 2 and 2 * abs(p) < q:
                s = to_strict_cf(x)
                assert type(s) is tuple and _is_strict(s) and evaluate(s) == x, x
                strict += 1
            if (p + q) % 2:
                e = to_even_cf(x)
                assert type(e) is tuple and evaluate(e) == x, x
                assert all(c % 2 == 0 and c != 0 for c in e), x
                even += 1
    assert (strict, even) == (2106, 4180)


def test_greedy_forms_known_entries():
    # nearest even entry, then nearest integer; ties go to the smaller |entry|
    assert to_strict_cf(Fraction(1, 3)) == (2, -1)
    assert to_strict_cf(Fraction(-1, 3)) == (-2, 1)
    assert to_even_cf(Fraction(2, 5)) == (2, -2)
    assert to_even_cf(Fraction(1, 2)) == (2,)


def test_leading_run_and_b_total():
    # the genus formulas read the even form's leading run and the strict
    # form's sum of |b_j| straight off the entry tuples
    assert to_even_cf(Fraction(9, 14)) == (2, 2, -4)
    s = to_strict_cf(Fraction(2, 5))
    assert s == (2, -2) and sum(abs(b) for b in s[1::2]) == 2


def _outcome(convert, x):
    try:
        return convert(x)
    except InvalidInput as exc:
        return (type(exc).__name__, str(exc))


def test_normal_form_entries_are_pinned():
    # sha256 over both normal forms (or the error) of every reduced p/q with
    # 2 <= q <= 200, recorded before the forms became plain tuples
    h = hashlib.sha256()
    n = 0
    for q in range(2, 201):
        for p in range(-q + 1, q):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            h.update(f"{x}:{_outcome(to_strict_cf, x)}:{_outcome(to_even_cf, x)}\n".encode())
            n += 1
    assert n == 24462
    assert h.hexdigest() == "266128dd859480da9e34440c3f405efd9696117c5f3f22bfdf79056f0e8dbba3"


def test_integer_pairs_convert_as_their_fractions():
    # a pair (p, q) stands for Fraction(p, q): unreduced, negative-denominator
    # and out-of-range pairs give the same entries or the same error
    for q in range(-30, 31):
        for p in range(-2 * abs(q) - 1, 2 * abs(q) + 2):
            if q == 0:
                continue
            x = Fraction(p, q)
            for convert in (to_strict_cf, to_even_cf):
                assert _outcome(convert, (p, q)) == _outcome(convert, x), (convert, p, q)
    with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
        to_strict_cf((1, 0))


@pytest.mark.parametrize(
    "entries, position", [([1, 1], 1), ([0], 1), ([2, 1, 1], 2), ([4, 2, 1, 1], 3)]
)
def test_division_by_zero_positions(entries, position):
    with pytest.raises(DivisionByZero) as info:
        evaluate(entries)
    assert info.value.position == position
    assert str(info.value) == f"zero denominator while evaluating entry {position}"


@pytest.mark.parametrize(
    "convert, x, expansion, message",
    [
        # value-correct but not strict: an odd leading entry, then a_j * b_j > 0
        (to_strict_cf, Fraction(2, 5), [3, 2], "even-position entry 3 must be even nonzero"),
        (to_strict_cf, Fraction(-2, 5), [-2, 1, -2, -1],
         "strictness violated: a_j=-1, b_j=-1"),
        (to_strict_cf, Fraction(2, 5), [2, 0], "b_j entries must be nonzero"),
        (to_strict_cf, Fraction(2, 5), [2, -1],
         "greedy strict expansion [2, -1] does not represent 2/5"),
        (to_strict_cf, Fraction(1, 3), [3], "greedy strict expansion [3] does not represent 1/3"),
        # value-correct but with odd entries, then strict-looking but wrong-valued
        (to_even_cf, Fraction(1, 2), [3, 1], "entry 3 must be even and nonzero"),
        (to_even_cf, Fraction(9, 14), [2, 2, 4],
         "greedy even expansion [2, 2, 4] does not represent 9/14"),
    ],
)
def test_normal_forms_reject_bad_expansions(monkeypatch, convert, x, expansion, message):
    monkeypatch.setattr(cf_calculus, "_greedy_entries", lambda x, steps: list(expansion))
    with pytest.raises(InvalidInput) as info:
        convert(x)
    assert str(info.value) == message


def test_normal_form_check_survives_optimized_mode():
    src = os.path.dirname(list(knotct.__path__)[0])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from fractions import Fraction\n"
        "from knotct import cf_calculus\n"
        "from knotct.errors import InvalidInput\n"
        "cf_calculus._greedy_entries = lambda x, steps: [-2, 1, -2, -1]\n"
        "try:\n"
        "    cf_calculus.to_strict_cf(Fraction(-2, 5))\n"
        "except InvalidInput as exc:\n"
        "    print(exc)\n"
    )
    p = subprocess.run([sys.executable, "-O", "-c", code, src], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "strictness violated: a_j=-1, b_j=-1"
