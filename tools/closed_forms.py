"""Re-derive the closed forms for a2 and w3 from the Gauss diagram formulas.

    PYTHONPATH=src python3 tools/closed_forms.py

An order-n Vassiliev invariant is a polynomial of degree at most n in the
twist counts of a twist sequence (Trapp, "Twist sequences and Vassiliev
invariants", JKTR 3, 1994), so a2 (order 2) and 4*w3 (order 3) of every
sign branch of the eleven genus-two families, of the odd three-strand
pretzels P(2x+1,2y+1,2z+1) and of the double twists DT(2x,2y) are
polynomials of total degree <= 2 and <= 3 in the parameters.

For each branch the tool interpolates both polynomials exactly, in
`Fraction`s, from `gauss_a2` and `gauss_w3` on the branch's bound-3 grid
(parameters in [-3, 3], unmirrored specs), and fits the values of
`invariants.closed_form` on the same grid the same way.  A fit solves the
square system on a lower set of grid nodes, which is unisolvent, and then
checks the polynomial at every grid point.  It prints each derived pair and
compares the coefficients.  It then checks the branches whose forms were
derived this way against the Gauss route on every bound-4 spec, mirrors
included.  The six-box families are left out: they have six parameters.

It exits 1 when any closed form differs from its derived polynomial, or
from the Gauss route at bound 4, and 0 otherwise; a run takes about half a
minute.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product

from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import closed_form
from knotct.montesinos import FAMILY_NAMES, FamilySpec, enumerate_family

# the branches whose a2 and w3 forms were derived here, and those whose w3 was
DERIVED = {("o1p", 1), ("o1p", -1), ("o3", -1), ("o3p", 1), ("o3p", -1),
           ("o4", -1), ("o4p", 1), ("o4p", -1)}
DERIVED_W3 = {("o3", 1), ("e2", None), ("e3", None)}


def branches(bound):
    """{label: (variable names, [(point, unmirrored spec)])} over the
    bound's grid, one entry per family branch."""
    out = {}
    for fam in FAMILY_NAMES:
        for f in enumerate_family(fam, bound):
            if not f.mirror:
                label = fam if f.sign_variant is None else f"{fam}(sign={f.sign_variant})"
                names = "".join(k for k, _ in f.params)
                out.setdefault(label, (names, []))[1].append((f.param_values(), f))
    span = range(-bound, bound + 1)
    out["pretzel"] = ("xyz", [
        ((x, y, z), FamilySpec("pretzel", dict(q1=2 * x + 1, q2=2 * y + 1, q3=2 * z + 1)))
        for x, y, z in product(span, repeat=3)])
    out["double_twist"] = ("xy", [
        ((x, y), FamilySpec("double_twist", dict(x=x, y=y)))
        for x, y in product([v for v in span if v], repeat=2)])
    return out


def _monomials(k, n):
    """Exponent tuples of total degree <= n in k variables, by degree."""
    return sorted((e for e in product(range(n + 1), repeat=k) if sum(e) <= n),
                  key=lambda e: (sum(e), [-x for x in e]))


def _at(mono, point):
    v = 1
    for x, e in zip(point, mono):
        v *= x**e
    return v


def _solve(rows, rhs):
    """The solution of a square, nonsingular system, in Fractions."""
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    n = len(m)
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


def fit(values, n):
    """{exponents: coefficient} of the polynomial of total degree <= n that
    takes the given {point: value} on a full grid, or None when none does.

    The nodes are the first n + 1 values of each axis, and the points whose
    node indices sum to at most n determine the polynomial."""
    k = len(next(iter(values)))
    axes = [sorted({p[i] for p in values})[:n + 1] for i in range(k)]
    monos = _monomials(k, n)
    nodes = [tuple(axes[i][j] for i, j in enumerate(m)) for m in monos]
    coef = dict(zip(monos, _solve([[_at(m, p) for m in monos] for p in nodes],
                                  [values[p] for p in nodes])))
    for p, v in values.items():
        if sum(c * _at(m, p) for m, c in coef.items()) != v:
            return None
    return {m: c for m, c in coef.items() if c}


def show(poly, names):
    """A polynomial as text, e.g. '1 + 2b + c - ab^2'."""
    if poly is None:
        return "no polynomial of that degree"
    terms = []
    for m, c in poly.items():
        var = "".join(x + (f"^{e}" if e > 1 else "") for x, e in zip(names, m) if e)
        mag = "" if abs(c) == 1 and var else str(abs(c))
        terms.append(("- " if c < 0 else "+ ") + mag + var)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def derive(cases):
    """(derived a2, derived 4*w3, closed form's a2, closed form's 4*w3),
    each as {exponents: coefficient} or None."""
    gauss = [{}, {}]
    closed = [{}, {}]
    for point, f in cases:
        d = f.diagram()
        gauss[0][point], gauss[1][point] = gauss_a2(d), 4 * gauss_w3(d)
        rep = closed_form(f)
        closed[0][point], closed[1][point] = rep.a2, 4 * rep.w3
    return (fit(gauss[0], 2), fit(gauss[1], 3), fit(closed[0], 2), fit(closed[1], 3))


def bound_four_mismatches():
    """(specs checked, those whose closed form differs from the Gauss route)
    over the bound-4 specs of the derived branches, mirrors included."""
    derived = DERIVED | DERIVED_W3
    n, bad = 0, []
    for fam in sorted({fam for fam, _ in derived}):
        for f in enumerate_family(fam, 4):
            if (fam, f.sign_variant) in derived:
                n += 1
                d, rep = f.diagram(), closed_form(f)
                if (rep.a2, rep.w3) != (gauss_a2(d), gauss_w3(d)):
                    bad.append(str(f))
    return n, bad


def main():
    ok = True
    for label, (names, cases) in branches(3).items():
        a2, w3x4, closed_a2, closed_w3x4 = derive(cases)
        same = a2 is not None and w3x4 is not None and (a2, w3x4) == (closed_a2, closed_w3x4)
        ok &= same
        print(f"{label}: a2 = {show(a2, names)}; 4*w3 = {show(w3x4, names)}"
              + ("" if same else f"  DIFFERS: closed form a2 = {show(closed_a2, names)}; "
                                 f"4*w3 = {show(closed_w3x4, names)}"))
    n, bad = bound_four_mismatches()
    ok &= not bad
    print(f"bound 4: {n} specs of the derived branches, {len(bad)} differ from the Gauss route"
          + (f", e.g. {', '.join(bad[:5])}" if bad else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
