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
  bound on their absolute sum: the Kronecker substitution); z = s - 1/s
  powers come from a signed Pascal table.  The same kernel gives the
  characteristic polynomial of V + V^T, whose sign changes count its
  positive eigenvalues (Descartes; all its roots are real).

The Seifert matrix is computed combinatorially.  Discs are stacked by the
nesting depth of their Seifert circles; homology cycles are fundamental
cycles of a spanning tree of the Seifert graph, realized as boundary-hugging
walks on discs joined by band cores.  Linking numbers are half the signed
count of mutual projection crossings, which come in exactly three local
shapes: two cores through the same half-twisted band, a dive of a deeper
walk through a shallower walk on the same disc, and a band core climbing
over the walks of the outer disc it is attached to.

Each surface datum is read from a table the diagram has cached:

* circles 0, 1, ..., their feet in order and the circles of each band:
  one walk per circle from its least arc through the tables of `ends`.
  The tree's root is the circle of the least representative: a circle's
  arc whose head is its last band end (by crossing, under-in first).  A
  union-find over arcs, joined end by end in that order, roots each circle
  there, since each join keeps the later strand piece's root, its last arc;
* regions (the complement of the circles): the faces of `face_table`,
  glued through each smoothed crossing's gap by a union-find over face
  indices; a circle's two sides are the regions at the corners
  (`face_of_corner`) where its arcs end and start, and the outer region is
  the largest face's;
* band twists: the crossing signs of `over_entry`.
"""

from __future__ import annotations

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
        object.__setattr__(self, "surface_genus", surface_genus)
        object.__setattr__(self, "seifert_matrix", seifert_matrix)  # of row tuples
        object.__setattr__(self, "circles", circles)


class _Surface:
    """Combinatorial disc-and-band Seifert surface of a knot diagram."""

    def __init__(self, d: PlanarDiagram):
        faces, face_of_corner = d.face_table()
        heads, tails = d.ends()
        rows, over = d.crossings, d.over_entry
        self.over = over

        # regions: faces glued through the gap of each smoothed crossing
        glued = list(range(len(faces)))

        def find(f):
            while glued[f] != f:
                glued[f] = f = glued[glued[f]]
            return f

        for ci, corners in enumerate(face_of_corner):
            gap = 1 if over[ci] == 3 else 0
            glued[find(corners[gap])] = find(corners[gap + 2])
        region = [find(f) for f in range(len(faces))]
        sizes = [len(face) for face in faces]
        outer = region[sizes.index(max(sizes))]  # the largest face, the first on ties

        # circles 0, 1, ..., each walked once from its least arc: the walk
        # numbers the feet, checks that the regions at the head and tail
        # corners of its arcs stay the same and finds the representative.
        # Per band end 2 * crossing + e, e = 0 for the under-in arc and 1 for
        # the over-in arc: the circle of that arc and the foot's index on it
        ends = 2 * len(rows)
        self.circle_at = circle_at = [-1] * ends
        self.foot_at = foot_at = [0] * ends
        sides, reps = [], []
        for a0 in sorted(heads):
            ci, s = heads[a0]
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
                end = 2 * ci + (s > 0)
                if circle_at[end] >= 0:
                    raise InconsistentDiagram(f"circle {c} meets band end {end} again", _SURFACE)
                circle_at[end], foot_at[end] = c, k
                k += 1
                if end > last:
                    last, rep = end, a
                t = 2 if s else 4 - over[ci]  # the smoothing turns under-in to over-out
                behind = region[corners[t]]
                a = rows[ci][t]
                if a == a0:
                    break
            sides.append((head_side, tail_side))
            reps.append(rep)
            ends -= k
        if ends:
            raise InconsistentDiagram(f"{ends} band ends on no circle", _SURFACE)
        self.root = reps.index(min(reps))

        # region tree -> depths, then per-circle inner region and orientation
        radj = {}
        for r1, r2 in sides:
            radj.setdefault(r1, []).append(r2)
            radj.setdefault(r2, []).append(r1)
        depth = {outer: 0}
        order = [outer]
        for r in order:
            for r2 in radj.get(r, ()):
                if r2 not in depth:
                    depth[r2] = depth[r] + 1
                    order.append(r2)
        self.eta, self.depth = [], []
        for head_side, tail_side in sides:
            dh, dt = depth[head_side], depth[tail_side]
            if abs(dh - dt) != 1:
                raise InconsistentDiagram("circle sides not nested by 1", _SURFACE)
            # the face at an arc's head corner is the one walked along the arc (+1)
            self.eta.append(LEFT_DART if dh > dt else -LEFT_DART)
            self.depth.append(max(dh, dt))

    # -- homology basis -----------------------------------------------------

    def fundamental_cycles(self):
        """Cycles as ordered band traversals [(crossing, from_circle, to_circle)]:
        each band off a breadth-first spanning tree of the Seifert graph,
        rooted at the circle of the least representative, closed up by the
        tree path through the apex of its two ends."""
        circle_at, root = self.circle_at, self.root
        n, s = len(circle_at) // 2, len(self.eta)
        bands_at = [[] for _ in range(s)]  # circle -> [(crossing, far circle)]
        for ci in range(n):
            c1, c2 = circle_at[2 * ci], circle_at[2 * ci + 1]
            if c1 == c2:
                raise InconsistentDiagram(f"band {ci} has both ends on circle {c1}", _SURFACE)
            bands_at[c1].append((ci, c2))
            bands_at[c2].append((ci, c1))
        up, level = [None] * s, [-1] * s  # circle -> (parent circle, crossing), depth
        level[root] = 0
        tree = [False] * n
        order = [root]
        for u in order:
            for ci, v in bands_at[u]:
                if level[v] < 0:
                    up[v], level[v], tree[ci] = (u, ci), level[u] + 1, True
                    order.append(v)
        cycles = []
        for ci in range(n):
            if tree[ci]:
                continue
            # traversal: band ci from c1 to c2, then the tree path c2 -> apex -> c1,
            # found by climbing from the deeper end until the two ends meet
            u, v = circle_at[2 * ci], circle_at[2 * ci + 1]
            bands, down = [(ci, u, v)], []
            while u != v:
                if level[u] > level[v]:
                    par, e = up[u]
                    down.append((e, par, u))
                    u = par
                elif up[v] is None:  # both ends climbed to the root's level apart
                    raise InconsistentDiagram(
                        f"tree paths of band {ci} do not meet below the root", _SURFACE)
                else:
                    par, e = up[v]
                    bands.append((e, v, par))
                    v = par
            bands.extend(reversed(down))
            cycles.append(bands)
        return cycles

    # -- Seifert matrix -----------------------------------------------------

    def seifert_matrix(self):
        circle_at, foot_at, over = self.circle_at, self.foot_at, self.over
        cycles = self.fundamental_cycles()
        m = len(cycles)
        # each band's uses [cycle, direction, from key, to key] in cycle order;
        # a cycle crosses a band at most once
        uses = [[] for _ in over]
        cycle_uses = []
        for idx, bands in enumerate(cycles):
            row = []
            for ci, cf, _ in bands:
                use = [idx, 1 if cf == circle_at[2 * ci] else -1]
                uses[ci].append(use)
                row.append(use)
            cycle_uses.append(row)
        # a use's key at a band end: foot index * m + its rank among the
        # band's uses, counted from the under-in end's side and reversed on
        # the other; it orders positions on a circle as the pairs would
        for ci, lst in enumerate(uses):
            last = len(lst) - 1
            for r, use in enumerate(lst):
                k0 = foot_at[2 * ci] * m + r
                k1 = foot_at[2 * ci + 1] * m + last - r
                use += (k0, k1) if use[1] == 1 else (k1, k0)

        # walks: per circle, (cycle, entry key, exit key) in cycle order
        on_circle = [[] for _ in self.eta]
        for idx, (bands, row) in enumerate(zip(cycles, cycle_uses)):
            k = len(bands)
            for j in range(k):
                ct, nf = bands[j][2], bands[(j + 1) % k][1]
                if ct != nf:
                    raise InconsistentDiagram(
                        f"cycle {idx} jumps from circle {ct} to {nf}", _MATRIX)
                on_circle[ct].append((idx, row[j][3], row[(j + 1) % k][2]))

        W = [[0] * m for _ in range(m)]

        # (T1) shared half-twisted bands
        for ci, lst in enumerate(uses):
            eps = SEIFERT_TWIST_SIGN * (1 if over[ci] == 3 else -1)
            for x, (i, di, _, _) in enumerate(lst):
                W[i][i] += eps
                for j, dj, _, _ in lst[x + 1:]:
                    W[i][j] += eps * di * dj
                    W[j][i] += eps * di * dj

        # (T2) dives of the deeper-ranked walk through the shallower one
        for walks in on_circle:
            for x, (a, lo, hi) in enumerate(walks):
                for b, lo_b, hi_b in walks[x + 1:]:  # b hugs deeper than a
                    dive = _inside(lo_b, lo, hi) - _inside(hi_b, lo, hi)
                    W[a][b] += dive
                    W[b][a] -= dive

        # (T3) band cores climbing over walks of the outer disc
        depth, eta = self.depth, self.eta
        for ci, lst in enumerate(uses):
            c1, c2 = circle_at[2 * ci], circle_at[2 * ci + 1]
            if depth[c1] == depth[c2]:
                continue  # sibling band: core routed clear of every walk
            outer = c1 if depth[c1] < depth[c2] else c2
            for i, di, key_from, key_to in lst:
                leaving = (c1 if di == 1 else c2) == outer
                s_ev = -eta[outer] if leaving else eta[outer]
                p = key_from if leaving else key_to
                for j, lo, hi in on_circle[outer]:
                    if j != i and _inside(p, lo, hi):
                        W[i][j] += s_ev
                        W[j][i] += s_ev

        for i, row in enumerate(W):
            for j, w in enumerate(row):
                if w % 2:
                    raise InconsistentDiagram(f"odd crossing count at ({i},{j})", _MATRIX)
        return tuple(tuple(w // 2 for w in row) for row in W)


def _inside(p, lo, hi):
    """p strictly inside the forward cyclic interval (lo, hi)."""
    if lo < hi:
        return lo < p < hi
    return p > lo or p < hi


def seifert_pipeline(d: PlanarDiagram) -> SeifertData:
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
    the top, z^e = sum_j (-1)^j C(e, j) s^(e - 2j) read from a signed Pascal
    table.
    """
    v = sd.seifert_matrix
    n = len(v)
    if n == 0:
        return LaurentPoly.one()
    det = _det_polynomial(v, list(zip(*v)))  # det[k]: coefficient of s^(2k - n)
    z_powers = [[1]]  # z^e, coefficients of s^e, s^(e-2), ..., s^-e
    for _ in range(n):
        z = z_powers[-1]
        z_powers.append([a - b for a, b in zip(z + [0], [0] + z)])
    out = {}
    for k in range(n, -1, -1):
        c = det[k]
        if not c:
            continue
        e = 2 * k - n
        if e < 0:
            raise InconsistentDiagram(f"negative power z^{e} in det(sV - V^T/s)", _CONWAY)
        out[e] = c
        for j, b in enumerate(z_powers[e]):
            det[k - j] -= c * b
    nabla = LaurentPoly(out)
    if nabla.coefficient(0) != 1:  # knots: det(V - V^T) = 1
        raise InconsistentDiagram(
            f"constant term {nabla.coefficient(0)} of {nabla}, not 1", _CONWAY)
    return nabla


def alternating_genus(d: PlanarDiagram, sd: SeifertData) -> int:
    if not d.is_alternating():
        raise NotAlternating("genus shortcut needs an alternating diagram")
    if not d.is_reduced():
        raise NotReduced("genus shortcut needs a reduced diagram")
    g = sd.surface_genus
    span = conway_polynomial(sd).degree_span()
    if span[1] != 2 * g:
        raise GenusMismatch(f"Conway degree {span[1]} vs surface genus {g}")
    return g
