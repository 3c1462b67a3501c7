"""Brute-force ground truth for knot invariants.

Two independent pipelines:

* Kauffman-bracket state sum -> Jones polynomial V(t), from which a2 and w3
  follow by exact derivative evaluation at t = 1; it lives in
  `knotct.kauffman`, and this module re-exports its public names.
* Seifert's algorithm on the diagram itself -> Seifert matrix V of the
  disc-and-band surface -> Conway polynomial, signature, and (on reduced
  alternating diagrams) the genus.  The Conway polynomial comes from
  p(u) = det(uV - V^T), evaluated at u = 0..dim V by integer Bareiss
  determinants and interpolated exactly in integers over one factorial
  denominator; z = s - 1/s powers come from a signed Pascal table.  The same
  kernel gives the characteristic polynomial of V + V^T, whose sign changes
  count its positive eigenvalues (Descartes; all its roots are real).

The Seifert matrix is computed combinatorially.  Discs are stacked by the
nesting depth of their Seifert circles; homology cycles are fundamental
cycles of a spanning tree of the Seifert graph, realized as boundary-hugging
walks on discs joined by band cores.  Linking numbers are half the signed
count of mutual projection crossings, which come in exactly three local
shapes: two cores through the same half-twisted band, a dive of a deeper
walk through a shallower walk on the same disc, and a band core climbing
over the walks of the outer disc it is attached to.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .diagram.core import _DSU, PlanarDiagram
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
        self.d = d
        self.circle_of = d.seifert_circle_of()
        faces, face_of_dart, face_of_corner = d.face_table()

        # regions: faces glued through the gap of each smoothed crossing
        regions = _DSU(range(len(faces)))
        for ci in range(d.n):
            gaps = (1, 3) if d.over_entry[ci] == 3 else (0, 2)
            regions.union(face_of_corner[ci][gaps[0]], face_of_corner[ci][gaps[1]])
        outer_face = max(range(len(faces)), key=lambda fi: (len(faces[fi]), -fi))
        self.outer_region = regions.find(outer_face)

        # left/right regions per circle (constant along the circle)
        circles = sorted(set(self.circle_of.values()))
        self.circles = circles
        arcs_of = {c: [] for c in circles}
        for a, c in self.circle_of.items():
            arcs_of[c].append(a)
        region_side = {}
        for c in circles:
            rl = rr = None
            for a in arcs_of[c]:
                fl = regions.find(face_of_dart[(a, LEFT_DART)])
                fr = regions.find(face_of_dart[(a, -LEFT_DART)])
                if rl is None:
                    rl, rr = fl, fr
                elif (rl, rr) != (fl, fr):
                    raise InconsistentDiagram("circle side regions not constant", _SURFACE)
            region_side[c] = (rl, rr)

        # region tree -> depths, then per-circle inner region and orientation
        radj = {}
        for c, (rl, rr) in region_side.items():
            radj.setdefault(rl, []).append((rr, c))
            radj.setdefault(rr, []).append((rl, c))
        depth = {self.outer_region: 0}
        queue = deque([self.outer_region])
        while queue:
            r = queue.popleft()
            for r2, _ in radj.get(r, []):
                if r2 not in depth:
                    depth[r2] = depth[r] + 1
                    queue.append(r2)
        self.eta = {}
        self.depth_c = {}
        for c, (rl, rr) in region_side.items():
            if abs(depth[rl] - depth[rr]) != 1:
                raise InconsistentDiagram("circle sides not nested by 1", _SURFACE)
            inner = rl if depth[rl] > depth[rr] else rr
            self.eta[c] = 1 if inner == rl else -1
            self.depth_c[c] = depth[inner]

        # feet: crossings in order along each circle (knot orientation)
        def next_seifert(a):
            ci, s = d.head_of(a)
            o = d.over_entry[ci]
            nxt = d.crossings[ci][4 - o] if s == 0 else d.crossings[ci][2]
            return ci, nxt

        self.feet = {}
        for c in circles:
            a0 = min(arcs_of[c])
            seq = []
            a = a0
            while True:
                ci, a = next_seifert(a)
                seq.append(ci)
                if a == a0:
                    break
            if len(seq) != len(arcs_of[c]):
                raise InconsistentDiagram(
                    f"circle {c}: {len(seq)} feet for {len(arcs_of[c])} arcs", _SURFACE)
            self.feet[c] = seq

        # band endpoints: circle1 carries the under-in arc, circle2 the over-in
        self.band = {}
        for ci in range(d.n):
            o = d.over_entry[ci]
            c1 = self.circle_of[d.crossings[ci][0]]
            c2 = self.circle_of[d.crossings[ci][o]]
            if c1 == c2:
                raise InconsistentDiagram(f"band {ci} has both ends on circle {c1}", _SURFACE)
            self.band[ci] = (c1, c2)

    # -- homology basis -----------------------------------------------------

    def fundamental_cycles(self):
        """Cycles as ordered band traversals [(crossing, from_circle, to_circle)]."""
        bands_at = {c: [] for c in self.circles}  # circle -> [(crossing, far circle)]
        for ci, (c1, c2) in self.band.items():
            bands_at[c1].append((ci, c2))
            bands_at[c2].append((ci, c1))
        tree_parent = {self.circles[0]: None}  # circle -> (parent circle, crossing)
        queue = deque([self.circles[0]])
        tree_edges = set()
        while queue:
            u = queue.popleft()
            for ci, v in bands_at[u]:
                if v not in tree_parent:
                    tree_parent[v] = (u, ci)
                    tree_edges.add(ci)
                    queue.append(v)
        cycles = []
        for ci in sorted(self.band):
            if ci in tree_edges:
                continue
            c1, c2 = self.band[ci]

            def path_to_root(c):
                out = [c]
                while tree_parent[c] is not None:
                    c = tree_parent[c][0]
                    out.append(c)
                return out

            p1, p2 = path_to_root(c1), path_to_root(c2)
            common = set(p1) & set(p2)
            i1 = next(i for i, c in enumerate(p1) if c in common)
            i2 = next(i for i, c in enumerate(p2) if c in common)
            if p1[i1] != p2[i2]:
                raise InconsistentDiagram(f"tree paths of band {ci} meet at two apexes", _SURFACE)
            # traversal: band ci from c1 to c2, then tree path c2 -> apex -> c1
            bands = [(ci, c1, c2)]
            c = c2
            for k in range(i2):
                par, e = tree_parent[c]
                bands.append((e, c, par))
                c = par
            down = []
            c = c1
            for k in range(i1):
                par, e = tree_parent[c]
                down.append((e, par, c))
                c = par
            bands.extend(reversed(down))
            cycles.append(bands)
        return cycles

    # -- Seifert matrix -----------------------------------------------------

    def seifert_matrix(self):
        d = self.d
        cycles = self.fundamental_cycles()
        m = len(cycles)
        if m == 0:
            return ()
        # per-cycle structure
        uses = {}  # crossing -> list of (cycle index, direction)
        walks = []  # per cycle: list of (circle, entry crossing, exit crossing)
        for idx, bands in enumerate(cycles):
            for ci, cf, ct in bands:
                c1, _ = self.band[ci]
                uses.setdefault(ci, []).append((idx, 1 if cf == c1 else -1))
            w = []
            k = len(bands)
            for j in range(k):
                ci, cf, ct = bands[j]
                cj, nf, nt = bands[(j + 1) % k]
                if ct != nf:
                    raise InconsistentDiagram(
                        f"cycle {idx} jumps from circle {ct} to {nf}", _MATRIX)
                w.append((ct, ci, cj))
            walks.append(w)

        # refined foot positions: (foot index on circle, tie-break rank)
        footpos = {c: {ci: i for i, ci in enumerate(self.feet[c])} for c in self.circles}

        def refined(circle, crossing, cyc):
            group = sorted(i for i, _ in uses.get(crossing, ()))
            rank = group.index(cyc)
            if self.band[crossing][0] != circle:
                rank = len(group) - 1 - rank
            return (footpos[circle][crossing], rank)

        intervals = {}  # cycle -> list of (circle, lo refined, hi refined)
        for idx, w in enumerate(walks):
            intervals[idx] = [
                (circle, refined(circle, centry, idx), refined(circle, cexit, idx))
                for circle, centry, cexit in w
            ]

        def inside(p, lo, hi):
            """p strictly inside the forward cyclic interval (lo, hi)."""
            if lo < hi:
                return lo < p < hi
            return p > lo or p < hi

        W = [[0] * m for _ in range(m)]

        # (T1) shared half-twisted bands
        for ci, lst in uses.items():
            eps = d.sign(ci)
            for x in range(len(lst)):
                i, di = lst[x]
                for y in range(x, len(lst)):
                    j, dj = lst[y]
                    contrib = SEIFERT_TWIST_SIGN * eps * di * dj
                    if i == j:
                        W[i][i] += contrib
                    else:
                        W[i][j] += contrib
                        W[j][i] += contrib

        # (T2) dives of the deeper-ranked walk through the shallower one
        for a in range(m):
            for b in range(a + 1, m):  # b hugs deeper than a
                for circle_b, lo_b, hi_b in intervals[b]:
                    for circle_a, lo_a, hi_a in intervals[a]:
                        if circle_a != circle_b:
                            continue
                        if inside(lo_b, lo_a, hi_a):
                            W[a][b] += 1
                            W[b][a] -= 1
                        if inside(hi_b, lo_a, hi_a):
                            W[a][b] -= 1
                            W[b][a] += 1

        # (T3) band cores climbing over walks of the outer disc
        for ci, lst in uses.items():
            c1, c2 = self.band[ci]
            d1, d2 = self.depth_c[c1], self.depth_c[c2]
            if d1 == d2:
                continue  # sibling band: core routed clear of every walk
            outer = c1 if d1 < d2 else c2
            for i, di in lst:
                leaving = next(cf for e, cf, ct in cycles[i] if e == ci) == outer
                s_ev = -self.eta[outer] * (1 if leaving else -1)
                p = refined(outer, ci, i)
                for j in range(m):
                    if j == i:
                        continue
                    for circle_j, lo_j, hi_j in intervals[j]:
                        if circle_j == outer and inside(p, lo_j, hi_j):
                            W[i][j] += s_ev
                            W[j][i] += s_ev

        V = []
        for i in range(m):
            row = []
            for j in range(m):
                if W[i][j] % 2:
                    raise InconsistentDiagram(f"odd crossing count at ({i},{j})", _MATRIX)
                row.append(W[i][j] // 2)
            V.append(tuple(row))
        return tuple(V)


def seifert_pipeline(d: PlanarDiagram) -> SeifertData:
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    if d.n == 0:
        return SeifertData(0, (), 1)
    circles = d.seifert_circles()
    m = d.n - circles + 1
    if m < 0 or m % 2:
        raise InconsistentDiagram(
            f"first Betti number {m} from {d.n} crossings, {circles} circles", _SURFACE)
    matrix = _Surface(d).seifert_matrix() if m else ()
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


def _interpolate(values) -> list:
    """Integer coefficients, lowest first, of the polynomial of degree below
    len(values) through the points (u, values[u]), u = 0, 1, ...  A
    non-integral coefficient raises InconsistentDiagram at the Conway stage;
    it cannot arise for a characteristic polynomial, which is monic with
    integer coefficients.

    Newton form p(u) = sum_k D^k p(0) * u(u-1)...(u-k+1) / k!, summed in
    integers over the common denominator (len(values) - 1)!.
    """
    n = len(values)
    denom = 1
    for k in range(2, n):
        denom *= k
    acc = [0] * n
    falling = [1]  # coefficients of u(u-1)...(u-k+1)
    row, scale = list(values), denom  # scale = denom / k!
    for k in range(n):
        if k:
            scale //= k
            falling = [(falling[i - 1] if i else 0) - (k - 1) * (falling[i] if i < k else 0)
                       for i in range(k + 1)]
        lead = row[0] * scale
        for i, c in enumerate(falling):
            acc[i] += lead * c
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = []
    for i, c in enumerate(acc):
        q, r = divmod(c, denom)
        if r:
            raise InconsistentDiagram(
                f"interpolated coefficient {Fraction(c, denom)} of u^{i}", _CONWAY)
        coeffs.append(q)
    return coeffs


def _signature(rows) -> int:
    """Signature (#positive - #negative eigenvalues) of a symmetric integer
    matrix S, given as rows.  p(u) = det(uI - S), interpolated from Bareiss
    determinants at u = 0..n as for Conway, has only real roots, so by
    Descartes' rule the sign changes of its coefficients count the positive
    eigenvalues exactly; the rank is n less the multiplicity of the root 0.
    """
    n = len(rows)
    if n == 0:
        return 0
    p = _interpolate([_bareiss_det([[(u if i == j else 0) - rows[i][j] for j in range(n)]
                                    for i in range(n)]) for u in range(n + 1)])
    signs = [c > 0 for c in p if c]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    rank = n - next(k for k, c in enumerate(p) if c)
    return 2 * positive - rank


def conway_polynomial(sd: SeifertData) -> LaurentPoly:
    """Conway polynomial in z, as det(sV - s^-1 V^T) rewritten via z = s - 1/s.

    p(u) = det(uV - V^T) has degree at most m = dim V; it is evaluated at
    u = 0..m by integer Bareiss determinants and interpolated exactly, and
    det(sV - s^-1 V^T) = s^-m p(s^2).  The powers of z are peeled off from
    the top, z^e = sum_j (-1)^j C(e, j) s^(e - 2j) read from a signed Pascal
    table.
    """
    v = sd.seifert_matrix
    n = len(v)
    if n == 0:
        return LaurentPoly.one()
    values = [_bareiss_det([[u * v[i][j] - v[j][i] for j in range(n)] for i in range(n)])
              for u in range(n + 1)]
    det = _interpolate(values)  # det[k]: coefficient of s^(2k - n)
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
