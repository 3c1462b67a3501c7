"""Subtractive continued-fraction calculus.

A list [c1, c2, ..., cn] of integers stands for the nested fraction

    1 / (c1 - 1/(c2 - ... - 1/cn))

All values are exact rationals.  Besides plain evaluation this module
implements the five rewriting identities used when normalizing tangle
fractions, and conversion of a reduced fraction into the two normal forms
consumed by the genus formulas, each returned as its tuple of entries:

* strict form  (2a1, b1, 2a2, b2, ...)  (odd-position entries even; whenever
  |a_j| = 1 the pair must satisfy a_j * b_j < 0), and
* even form    (2c1, 2c2, ..., 2cm)     (every entry even).

Both are computed in closed form by greedy expansion: each entry is the
integer nearest to the tail value it stands for, among the even integers
in the even form and at the odd positions of the strict form, among all
integers at the strict form's even positions; a tie goes to the entry of
smaller absolute value.  Neither normal form is unique.  Each conversion
checks its result's structure and evaluates it once to compare with the
input; a failed check raises `InvalidInput`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, InvalidInput, PatternMismatch
from .records import Record

__all__ = [
    "ContinuedFraction",
    "evaluate",
    "rewrite_identity",
    "to_strict_cf",
    "to_even_cf",
]


def _evaluate_entries(entries):
    """Exact value of the subtractive CF; raises DivisionByZero(position)."""
    if not entries:
        raise InvalidInput("empty continued fraction")
    # walk inside-out on the tail E_i = num/den: E_i = c_i - 1/E_{i+1}
    num, den = entries[-1], 1
    for pos in range(len(entries) - 2, -1, -1):
        if num == 0:
            raise DivisionByZero(pos + 2)
        num, den = entries[pos] * num - den, num
    if num == 0:
        raise DivisionByZero(1)
    return Fraction(den, num)


class ContinuedFraction(Record):
    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(c) for c in entries)
        _evaluate_entries(entries)  # validates at construction
        object.__setattr__(self, "entries", entries)

    def __iter__(self):
        return iter(self.entries)


def evaluate(cf) -> Fraction:
    """Value of a ContinuedFraction or of any sequence of integer entries."""
    return _evaluate_entries(tuple(cf))


# ---------------------------------------------------------------------------
# rewrite identities


def rewrite_identity(cf: ContinuedFraction, rule: str, position: int):
    """Apply one of the five rewrite rules at a 1-based position.

    Rules "3.1"-"3.3" return a ContinuedFraction; "3.4"/"3.5" return
    (offset, ContinuedFraction) since they produce an additive constant.
    Raises PatternMismatch when the rule's pattern is absent.
    """
    c = list(cf.entries)
    n = len(c)
    if rule == "3.1":
        # [..., c_{n-1}, +-2] = [..., c_{n-1} -+ 1, -+2]
        if position != n or n < 2 or abs(c[-1]) != 2:
            raise PatternMismatch(f"rule 3.1 needs trailing +-2 at position {n}")
        s = c[-1] // 2
        return ContinuedFraction(c[:-2] + [c[-2] - s, -c[-1]])
    if rule == "3.2":
        # interior +-1 folds into both neighbours
        i = position - 1
        if not (1 <= i <= n - 2) or abs(c[i]) != 1:
            raise PatternMismatch("rule 3.2 needs an interior +-1 with i >= 2")
        s = c[i]
        return ContinuedFraction(c[: i - 1] + [c[i - 1] - s] + [c[i + 1] - s] + c[i + 2 :])
    if rule == "3.3":
        # trailing +-1 folds into its neighbour
        if position != n or n < 2 or abs(c[-1]) != 1:
            raise PatternMismatch("rule 3.3 needs trailing +-1")
        return ContinuedFraction(c[:-2] + [c[-2] - c[-1]])
    if rule == "3.4":
        k = position
        if k < 1 or k > n or any(v != 2 for v in c[:k]):
            raise PatternMismatch("rule 3.4 needs a leading run of 2's of length k")
        rest = c[k:]
        if rest:
            return 1, ContinuedFraction([-(k + 1), rest[0] - 1] + rest[1:])
        return 1, ContinuedFraction([-(k + 1)])
    if rule == "3.5":
        k = position
        if k < 1 or k > n or any(v != -2 for v in c[:k]):
            raise PatternMismatch("rule 3.5 needs a leading run of -2's of length k")
        rest = c[k:]
        if rest:
            return -1, ContinuedFraction([k + 1, rest[0] + 1] + rest[1:])
        return -1, ContinuedFraction([k + 1])
    raise ValueError(f"unknown rule {rule!r}")


# ---------------------------------------------------------------------------
# normal forms by greedy nearest-entry expansion


def _greedy_entries(x: Fraction, steps):
    """Entries of a subtractive CF of x, each the nearest multiple of its step.

    Entry j stands for the tail value E_j (E_1 = 1/x, E_j = c_j - 1/E_{j+1})
    and is the multiple of steps[j % len(steps)] nearest to E_j; a tie goes
    to the entry of smaller absolute value.  The expansion stops when an
    entry equals its tail exactly.  Since |c_j - E_j| <= 1, the next tail
    1/(c_j - E_j) has a denominator no larger than E_j's, smaller except at a
    tie on an integer tail, so the expansion terminates.
    """
    p, q = x.denominator, x.numerator  # E_1 = p/q with q > 0
    if q < 0:
        p, q = -p, -q
    out = []
    while True:
        m = steps[len(out) % len(steps)]
        lo = m * (p // (m * q))  # largest multiple of m at most E_j
        side = 2 * p - (2 * lo + m) * q  # sign of E_j minus the midpoint of lo, lo + m
        c = lo if side < 0 or (side == 0 and abs(lo) < abs(lo + m)) else lo + m
        out.append(c)
        p, q = q, c * q - p  # E_{j+1} = 1/(c_j - E_j)
        if q == 0:
            return out
        if q < 0:
            p, q = -p, -q


def to_strict_cf(x) -> tuple:
    """Strict continued fraction of x = beta/alpha (alpha odd, |x| < 1/2).

    Entries alternate the nearest even integer and the nearest integer to
    the tail they stand for.  The strict form's leading entry is a nonzero
    even integer, which forces |value| < 1/2; fractions in (1/2, 1) have no
    strict expansion, so callers must first absorb a unit into the
    surrounding twist count gamma to reach the half-range representative.
    """
    x = Fraction(x)
    alpha, beta = x.denominator, x.numerator
    if alpha <= 1 or alpha % 2 == 0 or beta == 0 or 2 * abs(beta) >= alpha:
        raise InvalidInput(f"{x} is not a half-range odd-denominator tangle fraction")
    entries = tuple(_greedy_entries(x, (2, 1)))
    for two_a, b in zip(entries[0::2], entries[1::2]):
        if two_a % 2 != 0 or two_a == 0:
            raise InvalidInput(f"even-position entry {two_a} must be even nonzero")
        if b == 0:
            raise InvalidInput("b_j entries must be nonzero")
        if abs(two_a) == 2 and two_a * b > 0:
            raise InvalidInput(f"strictness violated: a_j={two_a // 2}, b_j={b}")
    if len(entries) % 2 or _evaluate_entries(entries) != x:
        raise InvalidInput(f"greedy strict expansion {list(entries)} does not represent {x}")
    return entries


def to_even_cf(x) -> tuple:
    """Even continued fraction of x = beta/alpha (exactly one of them even).

    Every entry is the even integer nearest to the tail it stands for.
    """
    x = Fraction(x)
    alpha, beta = x.denominator, x.numerator
    if alpha <= 1 or not (-alpha < beta < alpha) or beta == 0:
        raise InvalidInput(f"{x} is not a normalized tangle fraction")
    if (alpha + beta) % 2 == 0:
        raise InvalidInput(f"{x}: exactly one of numerator/denominator must be even")
    entries = tuple(_greedy_entries(x, (2,)))
    for c in entries:
        if c % 2 != 0 or c == 0:
            raise InvalidInput(f"entry {c} must be even and nonzero")
    if _evaluate_entries(entries) != x:
        raise InvalidInput(f"greedy even expansion {list(entries)} does not represent {x}")
    return entries
