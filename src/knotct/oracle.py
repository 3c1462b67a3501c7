"""Brute-force ground truth for knot invariants.

Two independent pipelines:

* Kauffman-bracket state sum -> Jones polynomial V(t), from which a2 and w3
  follow by exact derivative evaluation at t = 1; it lives in
  `knotct.kauffman`, and this module re-exports its public names.
* Seifert's algorithm on the diagram itself -> Seifert matrix V of the
  disc-and-band surface -> Conway polynomial, signature, and (on reduced
  alternating diagrams) the genus.  The Conway polynomial comes from
  p(u) = det(uV - V^T), evaluated once at u = 2^B by an integer Bareiss
  determinant whose signed base-2^B digits are the coefficients (B from a
  bound on their absolute sum: the Kronecker substitution); the powers of
  z = s - 1/s are peeled off with binomial coefficients.  The same kernel
  gives the characteristic polynomial of V + V^T, whose sign changes count
  its positive eigenvalues (Descartes; all its roots are real).

The Seifert matrix is computed combinatorially.  Discs are stacked by the
nesting depth of their Seifert circles; homology cycles are fundamental
cycles of a spanning tree of the Seifert graph, realized as boundary-hugging
walks on discs joined by band cores.  Linking numbers are half the signed
count of mutual projection crossings, which come in exactly three local
shapes: two cores through the same half-twisted band, a dive of a deeper
walk through a shallower walk on the same disc, and a band core climbing
over the walks of the outer disc it is attached to.

Each surface datum is read once from a table the diagram has cached into
lists indexed by face, circle, band end (2 * crossing + e, e = 0 at the
under-in arc and 1 at the over-in arc) and band:

* regions (the complement of the circles): the faces of `face_table`,
  glued through each smoothed crossing's gap by a union-find over face
  indices, each named by its root face; the outer region is the largest
  face's;
* circles 0, 1, ..., the circle and foot at each band end: one walk per
  circle from its least arc through the tables of `ends`, which checks
  that the regions at the corners (`face_of_corner`) where its arcs end
  are one region, and those where they start another: its two sides.  The
  tree's root is the circle of the least representative, a circle's arc
  whose head is its last band end, which the walk records;
* depth and orientation of each circle: one breadth-first pass over the
  regions from the outer one, the circles being the edges of their tree;
* the basis: each circle's band ends in crossing order, a breadth-first
  spanning tree from the root, and per band off it a cycle listed by the
  band ends it leaves from;
* band uses: one per cycle through a band, made once with its rank among
  the band's uses and its keys (positions on the circles at both ends).
  The twist term of the matrix is summed as the uses are made, the dives
  run only on circles that carry two walks or more and the climbs only
  over bands whose circles differ in depth;
* band twists: the crossing signs of `over_entry`.
"""

from __future__ import annotations

from itertools import compress
from operator import ne

from .diagram.core import PlanarDiagram
from .errors import (
    GenusMismatch,
    InconsistentDiagram,
    NotAKnot,
    NotAlternating,
    NotReduced,
)
from .exactmath import LaurentPoly
from .kauffman import DEFAULT_JONES_BUDGET, a2_w3_from_jones, jones_via_kauffman
from .records import Record

__all__ = [
    "SeifertData",
    "jones_via_kauffman",
    "a2_w3_from_jones",
    "seifert_pipeline",
    "oracle_signature",
    "conway_polynomial",
    "alternating_genus",
    "DEFAULT_JONES_BUDGET",
]

# Handedness constants of the Seifert-surface model, pinned by the anchor
# diagrams (trefoil and figure-eight Conway polynomials and signatures),
# like the twist-box constants in diagram.construct.
SEIFERT_TWIST_SIGN = -1  # sign of the in-band crossing of two cores, per crossing sign
LEFT_DART = 1  # face traversal direction whose face lies left of the arc

# stages named by the internal consistency checks (InconsistentDiagram.stage)
_SURFACE = "oracle: Seifert surface"
_MATRIX = "oracle: Seifert matrix"
_CONWAY = "oracle: Conway polynomial"


# ---------------------------------------------------------------------------
# Seifert pipeline


class SeifertData(Record):
    __slots__ = ("surface_genus", "seifert_matrix", "circles")

    def __init__(self, surface_genus, seifert_matrix, circles):
        set_genus, set_matrix, set_circles = type(self)._setters
        set_genus(self, surface_genus)
        set_matrix(self, seifert_matrix)  # of row tuples
        set_circles(self, circles)


class _Surface:
    """Combinatorial disc-and-band Seifert surface of a knot diagram."""

    def __init__(self, d: PlanarDiagram):
        faces, face_of_corner = d.face_table()
        heads, tails = d.ends()
        rows, over = d.crossings, d.over_entry
        self.over = over
        n = len(rows)

        # regions: faces glued through the gap of each smoothed crossing
        # (corners 1 and 3 where the over strand enters at 3, else 0 and 2),
        # each named by its root face in a union-find over face indices
        region = list(range(len(faces)))
        for corners, o in zip(face_of_corner, over):
            f, g = (corners[1], corners[3]) if o == 3 else (corners[0], corners[2])
            while region[f] != f:
                f = region[f]
            while region[g] != g:
                g = region[g]
            region[f] = g
        for f, r in enumerate(region):
            while region[r] != r:
                r = region[r]
            region[f] = r
        sizes = list(map(len, faces))
        outer = region[sizes.index(max(sizes))]  # the largest face, the first on ties

        # circles 0, 1, ..., each walked once from its least arc: the walk
        # numbers the feet, checks that the regions at the head and tail
        # corners of its arcs stay the same and finds the representative.
        # Per band end 2 * crossing + e, e = 0 for the under-in arc and 1 for
        # the over-in arc: the circle of that arc and n times the foot's
        # index on it, so that a rank below n added to it stays between feet
        self.circle_at = circle_at = [-1] * (2 * n)
        self.foot_at = foot_at = [0] * (2 * n)
        near = [[] for _ in faces]  # region -> the regions across its circles
        sides, reps = [], []
        ends = 2 * n * n
        for a0, (ci, s) in sorted(heads.items()):
            if circle_at[2 * ci + (s > 0)] >= 0:
                continue  # on a circle walked already
            c = len(sides)
            head_side = region[face_of_corner[ci][s]]
            ci, s = tails[a0]
            tail_side = behind = region[face_of_corner[ci][s]]  # behind: at a's tail
            a, k, last = a0, 0, -1
            while True:
                ci, s = heads[a]
                corners = face_of_corner[ci]
                if region[corners[s]] != head_side or behind != tail_side:
                    raise InconsistentDiagram("circle side regions not constant", _SURFACE)
                # the smoothing turns over-in to under-out, under-in to over-out
                end, t = (2 * ci + 1, 2) if s else (2 * ci, 4 - over[ci])
                if circle_at[end] >= 0:
                    raise InconsistentDiagram(f"circle {c} meets band end {end} again", _SURFACE)
                circle_at[end], foot_at[end] = c, k
                k += n
                if end > last:
                    last, rep = end, a
                behind = region[corners[t]]
                a = rows[ci][t]
                if a == a0:
                    break
            sides.append((head_side, tail_side))
            near[head_side].append(tail_side)
            near[tail_side].append(head_side)
            reps.append(rep)
            ends -= k
        if ends:
            raise InconsistentDiagram(f"{ends // n} band ends on no circle", _SURFACE)
        self.root = reps.index(min(reps))

        # region tree, breadth first from the outer region; a region off
        # the tree keeps level -2, so a circle beside it fails the check
        level = [-2] * len(faces)
        level[outer] = 0
        order = [outer]
        for r in order:
            for r2 in near[r]:
                if level[r2] < 0:
                    level[r2] = level[r] + 1
                    order.append(r2)
        # per circle: the orientation and the depth of its inner region
        self.eta, self.depth = eta, depth = [], []
        for head_side, tail_side in sides:
            dh, dt = level[head_side], level[tail_side]
            if abs(dh - dt) != 1:
                raise InconsistentDiagram("circle sides not nested by 1", _SURFACE)
            # the face at an arc's head corner is the one walked along the arc (+1)
            eta.append(LEFT_DART if dh > dt else -LEFT_DART)
            depth.append(max(dh, dt))

    # -- homology basis -----------------------------------------------------

    def fundamental_cycles(self):
        """Cycles as ordered band traversals, each named by the band end it
        leaves from (end e of band e >> 1, towards end e ^ 1): each band off
        a breadth-first spanning tree of the Seifert graph, rooted at the
        circle of the least representative, closed up by the tree path
        through the apex of its two ends."""
        circle_at, root = self.circle_at, self.root
        s = len(self.eta)
        ends_at = [[] for _ in range(s)]  # circle -> its band ends, by crossing
        for ci, (c1, c2) in enumerate(zip(circle_at[::2], circle_at[1::2])):
            if c1 == c2:
                raise InconsistentDiagram(f"band {ci} has both ends on circle {c1}", _SURFACE)
            ends_at[c1].append(2 * ci)
            ends_at[c2].append(2 * ci + 1)
        # circle -> its end of the band to its parent circle (-1 at the root), depth
        up, level = [-1] * s, [-1] * s
        level[root] = 0
        off_tree = [True] * len(self.over)
        order = [root]
        for u in order:
            for e in ends_at[u]:
                v = circle_at[e ^ 1]
                if level[v] < 0:
                    up[v], level[v], off_tree[e >> 1] = e ^ 1, level[u] + 1, False
                    order.append(v)
        cycles = []
        for ci in compress(range(len(off_tree)), off_tree):
            # traversal: band ci from end 0 to end 1, then the tree path from
            # the circle of end 1 to the apex and down to the circle of end 0,
            # found by climbing from the deeper end until the two ends meet
            u, v = circle_at[2 * ci], circle_at[2 * ci + 1]
            path, down = [2 * ci], []
            while u != v:
                if level[u] > level[v]:
                    e = up[u]
                    down.append(e ^ 1)
                    u = circle_at[e ^ 1]
                elif up[v] < 0:  # both ends climbed to the root's level apart
                    raise InconsistentDiagram(
                        f"tree paths of band {ci} do not meet below the root", _SURFACE)
                else:
                    e = up[v]
                    path.append(e)
                    v = circle_at[e ^ 1]
            path.extend(reversed(down))
            cycles.append(path)
        return cycles

    # -- Seifert matrix -----------------------------------------------------

    def seifert_matrix(self):
        circle_at, foot_at, over, depth, eta = (
            self.circle_at, self.foot_at, self.over, self.depth, self.eta)
        cycles = self.fundamental_cycles()
        m, top = len(cycles), len(over) - 1
        W = [[0] * m for _ in range(m)]
        # each band's uses (cycle, direction, from key, to key) in cycle
        # order, made once: a cycle crosses a band at most once, so a use's
        # rank r among the band's uses is their count so far.  Its key is
        # foot_at + r at the under-in end and foot_at + n - 1 - r at the
        # other, which orders positions on a circle as the pairs would.
        uses = [[] for _ in over]
        # walks: per circle, (cycle, entry key, exit key) in cycle order
        on_circle = [[] for _ in eta]
        for idx, path in enumerate(cycles):
            # the walk on each circle runs from the band the cycle enters it
            # by to the band it leaves by: start with the last band's entry
            e = path[-1]
            r = len(uses[e >> 1])
            ct, key, twist = circle_at[e ^ 1], foot_at[e ^ 1] + (r if e & 1 else top - r), 0
            for e in path:
                ci = e >> 1
                lst = uses[ci]
                r = len(lst)
                if e & 1:
                    di, kf, kt = -1, foot_at[e] + top - r, foot_at[e - 1] + r
                else:
                    di, kf, kt = 1, foot_at[e] + r, foot_at[e + 1] + top - r
                # (T1) the core crosses its band's half twist and, there,
                # the cores of the cycles through the band before it
                twist += over[ci]
                for j, dj, _, _ in lst:
                    eps = SEIFERT_TWIST_SIGN * (over[ci] - 2) * di * dj
                    W[idx][j] += eps
                    W[j][idx] += eps
                lst.append((idx, di, kf, kt))
                if ct != circle_at[e]:
                    raise InconsistentDiagram(
                        f"cycle {idx} jumps from circle {ct} to {circle_at[e]}", _MATRIX)
                on_circle[ct].append((idx, key, kf))
                ct, key = circle_at[e ^ 1], kt
            W[idx][idx] += SEIFERT_TWIST_SIGN * (twist - 2 * len(path))

        # (T2) dives of the deeper-ranked walk through the shallower one
        for walks in on_circle:
            if len(walks) < 2:
                continue
            for x, (a, lo, hi) in enumerate(walks):
                for b, lo_b, hi_b in walks[x + 1:]:  # b hugs deeper than a
                    if lo < hi:
                        dive = (lo < lo_b < hi) - (lo < hi_b < hi)
                    else:  # the interval wraps past the circle's first foot
                        dive = (lo_b > lo or lo_b < hi) - (hi_b > lo or hi_b < hi)
                    W[a][b] += dive
                    W[b][a] -= dive

        # (T3) band cores climbing over walks of the outer disc; a band
        # between sibling circles routes its core clear of every walk
        at_depth = list(map(depth.__getitem__, circle_at))
        for ci in compress(range(len(over)), map(ne, at_depth[::2], at_depth[1::2])):
            c1, c2 = circle_at[2 * ci], circle_at[2 * ci + 1]
            outer = c1 if depth[c1] < depth[c2] else c2
            for i, di, key_from, key_to in uses[ci]:
                leaving = (c1 if di == 1 else c2) == outer
                s_ev = -eta[outer] if leaving else eta[outer]
                p = key_from if leaving else key_to
                for j, lo, hi in on_circle[outer]:
                    if j != i and ((lo < p < hi) if lo < hi else (p > lo or p < hi)):
                        W[i][j] += s_ev
                        W[j][i] += s_ev

        odd = [w & 1 for row in W for w in row]
        if 1 in odd:
            i, j = divmod(odd.index(1), m)
            raise InconsistentDiagram(f"odd crossing count at ({i},{j})", _MATRIX)
        return tuple([tuple([w >> 1 for w in row]) for row in W])


def seifert_pipeline(d: PlanarDiagram) -> SeifertData:
    """Genus, Seifert matrix and circle count of the disc-and-band surface
    that Seifert's algorithm gives on the knot diagram d.

    Checks, each raising the error named:
    * the component count: NotAKnot unless d is a knot;
    * the face table: InconsistentDiagram at `diagram: face table` unless
      d has the n + 2 faces of a planar knot diagram;
    * the surface (`oracle: Seifert surface`): each circle's sides are one
      region each and one level apart in the region tree, every band end
      is on one circle once, no band joins a circle to itself, the tree
      paths of each band meet, and the first Betti number n - circles + 1
      is even and not negative (the Betti parity);
    * the matrix (`oracle: Seifert matrix`): each cycle runs on from the
      circle it reached, every crossing count is even, and there are as
      many cycles as the Betti number (the matrix size).
    """
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    if d.n == 0:
        return SeifertData(0, (), 1)
    surface = _Surface(d)
    circles = len(surface.eta)  # one orientation per circle
    m = d.n - circles + 1
    if m < 0 or m % 2:
        raise InconsistentDiagram(
            f"first Betti number {m} from {d.n} crossings, {circles} circles", _SURFACE)
    matrix = surface.seifert_matrix() if m else ()
    if len(matrix) != m:
        raise InconsistentDiagram(f"{len(matrix)} homology cycles, expected {m}", _MATRIX)
    return SeifertData(m // 2, matrix, circles)


def oracle_signature(sd: SeifertData) -> int:
    """Signature of V + V^T, for the Seifert matrix V."""
    v = sd.seifert_matrix
    n = len(v)
    return _signature([[v[i][j] + v[j][i] for j in range(n)] for i in range(n)])


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968); every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - aik * rk[j]) // prev
        prev = p
    return sign * a[-1][-1]


def _det_polynomial(a, c) -> list:
    """Integer coefficients, lowest first, of p(u) = det(uA - C) for square
    integer matrices A and C, read from one Bareiss determinant at u = 2^B
    (Kronecker substitution).  The sum of their absolute values is at most
    the permanent of |A| + |C|, so at most the product of its row sums; with
    B one bit beyond that bound they are the signed base-2^B digits of
    p(2^B).  A digit left over above u^n, n = dim A, raises
    InconsistentDiagram at the Conway stage."""
    bound = 1
    for ra, rc in zip(a, c):
        bound *= sum(map(abs, ra)) + sum(map(abs, rc))
    bits = bound.bit_length() + 1
    u, half = 1 << bits, 1 << (bits - 1)
    value = _bareiss_det([[u * x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)])
    out = []
    for _ in range(len(a) + 1):
        out.append(((value + half) & (u - 1)) - half)  # the digit in [-half, half)
        value = (value - out[-1]) >> bits
    if value:
        raise InconsistentDiagram(f"digit {value} left over above u^{len(a)}", _CONWAY)
    return out


def _signature(rows) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric integer
    matrix S, given as rows.  p(u) = det(uI - S), read from one packed
    determinant as for Conway, has only real roots, so by Descartes' rule
    the sign changes of its coefficients count the positive eigenvalues
    exactly; the rank is n less the multiplicity of the root 0.
    """
    n = len(rows)
    if n == 0:
        return 0
    p = _det_polynomial([[int(i == j) for j in range(n)] for i in range(n)], rows)
    signs = [c > 0 for c in p if c]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    rank = n - next(k for k, c in enumerate(p) if c)
    return 2 * positive - rank


def conway_polynomial(sd: SeifertData) -> LaurentPoly:
    """Conway polynomial in z, as det(sV - s^-1 V^T) rewritten via z = s - 1/s.

    p(u) = det(uV - V^T) has degree at most m = dim V; its coefficients are
    the digits of one Bareiss determinant at u = 2^B (`_det_polynomial`), and
    det(sV - s^-1 V^T) = s^-m p(s^2).  The powers of z are peeled off from
    the top, z^e = sum_j (-1)^j C(e, j) s^(e - 2j), each binomial from the
    one before it.  A power of z below 0 and a constant term other than 1
    (det(V - V^T) = 1 for a knot) raise InconsistentDiagram at the Conway
    stage.
    """
    v = sd.seifert_matrix
    n = len(v)
    if n == 0:
        return LaurentPoly.one()
    det = _det_polynomial(v, list(zip(*v)))  # det[k]: coefficient of s^(2k - n)
    out = {}
    for k in range(n, -1, -1):
        c = det[k]
        if not c:
            continue
        e = 2 * k - n
        if e < 0:
            raise InconsistentDiagram(f"negative power z^{e} in det(sV - V^T/s)", _CONWAY)
        out[e] = c
        for j in range(e + 1):  # c * (-1)^j C(e, j): the coefficient of s^(e - 2j) in c z^e
            det[k - j] -= c
            c = -c * (e - j) // (j + 1)
    nabla = LaurentPoly(out)
    if nabla.coefficient(0) != 1:  # knots: det(V - V^T) = 1
        raise InconsistentDiagram(
            f"constant term {nabla.coefficient(0)} of {nabla}, not 1", _CONWAY)
    return nabla


def alternating_genus(d: PlanarDiagram, sd: SeifertData) -> int:
    """Genus of the knot of a reduced alternating diagram d: the genus of
    its Seifert surface sd (`seifert_pipeline(d)`), which is minimal there
    (Crowell 1959; Murasugi 1958).

    Checks, each raising the error named: NotAlternating unless d is
    alternating, NotReduced if it has a nugatory crossing; the Conway
    polynomial's own checks (`conway_polynomial`: no digit left over, no
    negative power of z, and the constant term 1), each InconsistentDiagram
    at `oracle: Conway polynomial`; and GenusMismatch unless the Conway
    degree is 2g, for the surface genus g.
    """
    if not d.is_alternating():
        raise NotAlternating("genus shortcut needs an alternating diagram")
    if not d.is_reduced():
        raise NotReduced("genus shortcut needs a reduced diagram")
    g = sd.surface_genus
    span = conway_polynomial(sd).degree_span()
    if span[1] != 2 * g:
        raise GenusMismatch(f"Conway degree {span[1]} vs surface genus {g}")
    return g
