"""a2 and w3 from Gauss-diagram formulas, on the knot's signed Gauss word.

Walk the knot from a base point and write each passage as U (under) or O
(over); a crossing is a chord between its two passages, labelled 0, 1, 2...
in order of first appearance.  For an arrow-diagram pattern P, <P> is the
sum, over the sets of crossings whose passages appear in the order P, of the
product of their signs (Polyak & Viro, "Gauss diagram formulas for
Vassiliev invariants", IMRN 1994; Goussarov, Polyak & Viro, "Finite type
invariants of classical and virtual knots", Topology 39, 2000).  Then

    a2 = <U0 O1 O0 U1>
    w3 = -1/2 * (<U0 U1 O2 O0 U2 O1> + <U0 O1 U2 O0 U1 O2>
                 + <U0 O1 O2 U1 O0 U2> + <O0 U1 U0 O2 O1 U2>
                 + <O0 U1 O2 U0 O1 U2>)

with w3 normalized as V'''(1)/72 + V''(1)/24 for the Jones polynomial V, as
in `knotct.kauffman.a2_w3_from_jones`.  The a2 formula is the classical one.
The five-term w3 combination was fitted, not derived: it is one member of a
family of base-pointed combinations, chosen so that it matches the skein
engine and the Jones route, against which the test suite checks it.

Both counts run over the chords' (start, end) positions.  a2 is a pairwise
scan.  w3 fixes the first two chords X, Y of a pattern (X starts first) and
reads the signed count of third chords Z from a two-dimensional prefix table
over (start label, end rank), one table for over-first and one for
under-first chords; the pairs that take part are

    X, Y both under-first, interleaved: over-first Z, Z.s in (Y.s, X.e),
        Z.e in (X.e, Y.e)                                    (first term)
    X under-first, Y over-first, interleaved: under-first Z,
        Z.s in (Y.s, X.e), Z.e > Y.e                         (second)
    X under-first, Y over-first, Y nested in X: over-first Z,
        Z.s in (Y.s, Y.e), Z.e > X.e                         (third)
    X over-first, Y under-first, interleaved: over-first Z,
        Z.s in (Y.s, Y.e), Z.e > Y.e                 (fourth and fifth)

so w3 costs O(n^2) for n crossings.  Neither count has a crossing budget or
a memo.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .diagram.core import PlanarDiagram, _gauss_word
from .errors import NotAKnot

__all__ = ["gauss_a2", "gauss_w3"]


def _chords(d):
    """(starts, ends, over_first, signs) of the knot's chords, in order of
    first appearance, so the starts increase."""
    if d.component_count() != 1:
        raise NotAKnot(f"Gauss diagram formulas need a knot, got {d.component_count()} components")
    label = {}
    starts, ends, over, signs = [], [], [], []
    for i, p in enumerate(_gauss_word(d)):
        k = label.get(p >> 2)
        if k is None:
            label[p >> 2] = len(starts)
            starts.append(i)
            ends.append(0)
            over.append(p & 2)
            signs.append(1 if p & 1 else -1)
        else:
            ends[k] = i
    return starts, ends, over, signs


def gauss_a2(d: PlanarDiagram) -> int:
    """a2 = <U0 O1 O0 U1>: under-first chords X, over-first Y with
    X.s < Y.s < X.e < Y.e."""
    starts, ends, over, signs = _chords(d)
    total = 0
    for x, ex in enumerate(ends):
        if over[x]:
            continue
        k = 0
        for y in range(x + 1, len(starts)):
            if starts[y] > ex:
                break
            if over[y] and ends[y] > ex:
                k += signs[y]
        total += signs[x] * k
    return total


def gauss_w3(d: PlanarDiagram) -> Fraction:
    """w3 as -1/2 times the five-pattern Gauss diagram sum."""
    starts, ends, over, signs = _chords(d)
    n = len(starts)
    # rank[x]: how many chords end before x does; below[x]: how many chords
    # start before x ends (all of them labelled below that count)
    order = sorted(range(n), key=ends.__getitem__)
    rank = [0] * n
    for r, x in enumerate(order):
        rank[x] = r
    below = [bisect_left(starts, e) for e in ends]
    # tables[f][i][j]: signed count of chords with over bit f, label < i and
    # end rank < j
    w = n + 1
    zero = [0] * w
    tables = {0: [zero], 2: [zero]}
    for x in range(n):
        for f, rows in tables.items():
            row = rows[-1]
            if f == over[x]:
                row = row[:]
                for j in range(rank[x] + 1, w):
                    row[j] += signs[x]
            rows.append(row)
    O, U = tables[2], tables[0]

    def count(t, l1, l2, r1, r2):
        hi, lo = t[l2], t[l1]
        return hi[r2] - lo[r2] - hi[r1] + lo[r1]

    total = 0
    for x in range(n):
        ex, rx, ox = ends[x], rank[x], over[x]
        for y in range(x + 1, n):
            if starts[y] > ex:
                break
            ry, oy = rank[y], over[y]
            if ends[y] > ex:
                if not ox and not oy:
                    c = count(O, y + 1, below[x], rx + 1, ry)
                elif not ox:
                    c = count(U, y + 1, below[x], ry + 1, n)
                elif not oy:
                    c = count(O, y + 1, below[y], ry + 1, n)
                else:
                    continue
            elif not ox and oy:
                c = count(O, y + 1, below[y], rx + 1, n)
            else:
                continue
            total += signs[x] * signs[y] * c
    return Fraction(-total, 2)
