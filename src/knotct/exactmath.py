"""Exact Laurent polynomials: the value type of the two polynomial oracles.

`jones_via_kauffman` returns the Jones polynomial V(t) and
`conway_polynomial` the Conway polynomial in z as a `LaurentPoly`, a sparse
map from integer exponent to integer coefficient; both routes compute
their coefficients as packed integers and only hand the result over in
this form.  Callers compare polynomials, read coefficients and degree
spans, invert the variable (mirror images) and take derivatives at 1 (a2
and w3 from V), all exactly.  No arithmetic is defined on the type.
"""

from __future__ import annotations

__all__ = [
    "LaurentPoly",
    "laurent_derivative_at_one",
]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable.

    Stored as {exponent: coefficient} with no zero coefficients.  Immutable
    in practice: `invert_variable` returns a new instance.
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
    def one(cls):
        return cls({0: 1})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant equals its int, so hashes as it
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

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

    def __repr__(self):
        terms = " + ".join(f"{self.coeffs[e]}*x^{e}" for e in sorted(self.coeffs))
        return f"LaurentPoly({terms or 0})"


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
