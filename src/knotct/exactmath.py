"""Exact arithmetic substrate: integer Laurent polynomials.

Everything here is exact — no floating point anywhere.  A Laurent polynomial
is kept as a sparse map from integer exponent to integer coefficient, and is
evaluated at rational points as `fractions.Fraction`.  Integer determinants,
interpolation and signatures live with their one caller, `knotct.oracle`.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "LaurentPoly",
    "laurent_derivative_at_one",
]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable.

    Stored as {exponent: coefficient} with no zero coefficients.  Immutable
    in practice: all operations return new instances.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in dict(coeffs).items():
                if v:
                    c[int(e)] = int(v)
        self.coeffs = c

    @classmethod
    def term(cls, coeff, exponent=0):
        return cls({exponent: coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant equals its int, so hashes as it
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        c = dict(self.coeffs)
        for e, v in other.coeffs.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.term(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        c = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("only non-negative powers")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by x^k."""
        return LaurentPoly({e + k: v for e, v in self.coeffs.items()})

    def invert_variable(self):
        """x -> 1/x."""
        return LaurentPoly({-e: v for e, v in self.coeffs.items()})

    def coefficient(self, e):
        return self.coeffs.get(e, 0)

    def degree_span(self):
        """(min exponent, max exponent); (0, 0) for the zero polynomial."""
        if not self.coeffs:
            return (0, 0)
        return (min(self.coeffs), max(self.coeffs))

    def evaluate(self, x):
        """Exact evaluation at a nonzero Rational (or integer) point."""
        x = Fraction(x)
        return sum((v * x ** e for e, v in self.coeffs.items()), Fraction(0))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self.coeffs):
            parts.append(f"{self.coeffs[e]}*x^{e}")
        return "LaurentPoly(" + " + ".join(parts) + ")"


def laurent_derivative_at_one(p: LaurentPoly, order: int) -> int:
    """order-th formal derivative of p, evaluated at 1, exactly.

    Each term c*x^e contributes c * e(e-1)...(e-order+1).
    """
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be in 0..3")
    total = 0
    for e, c in p.coeffs.items():
        f = 1
        for k in range(order):
            f *= e - k
        total += c * f
    return total
