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
compares the coefficients.  The six-box families are left out of the
derivation: they have six parameters.

It then checks every family branch against the Gauss route at bound 4:
every spec that `enumerate_family` draws for o1', o3, o3', o4, o4', e2
and e3 (mirrors included), every third one for o1, o2, o5 and e1, each
odd three-strand pretzel and double twist and its mirror, and every 101st
spec of each six-box family on [-4, 4]^6.  The strides keep a run near
50 s on a 2-core x86-64 host.

It exits 1 when any closed form differs from its derived polynomial, or
from the Gauss route at bound 4, and 0 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import islice, product

from knotct.gauss import gauss_a2, gauss_w3
from knotct.invariants import closed_form
from knotct.montesinos import FAMILY_NAMES, FamilySpec, enumerate_family

# the bound-4 check's stride per family, where it is not 1
STRIDES = {"o1": 3, "o2": 3, "o5": 3, "e1": 3, "fig1_left": 101, "fig1_right": 101}


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


def bound_four_specs():
    """The specs of the bound-4 check, each family thinned by its stride."""
    span = range(-4, 5)
    for fam in FAMILY_NAMES:
        yield from islice(enumerate_family(fam, 4), 0, None, STRIDES.get(fam, 1))
    for mirror in (False, True):
        for x, y, z in product(span, repeat=3):
            yield FamilySpec("pretzel", dict(q1=2 * x + 1, q2=2 * y + 1, q3=2 * z + 1),
                             mirror=mirror)
        for x, y in product([v for v in span if v], repeat=2):
            yield FamilySpec("double_twist", dict(x=x, y=y), mirror=mirror)
    for fam in ("fig1_left", "fig1_right"):
        for vals in islice(product(span, repeat=6), 0, None, STRIDES[fam]):
            yield FamilySpec(fam, dict(zip("abcdef", vals)))


def bound_four_mismatches():
    """(specs checked, those whose closed form differs from the Gauss
    route) over `bound_four_specs`."""
    n, bad = 0, []
    for f in bound_four_specs():
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
    print(f"bound 4: {n} specs of every family branch, {len(bad)} differ from the Gauss route"
          + (f", e.g. {', '.join(bad[:5])}" if bad else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
