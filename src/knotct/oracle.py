"""Brute-force ground truth for knot invariants.

Two independent pipelines:

* Kauffman-bracket state sum -> Jones polynomial V(t), from which a2 and w3
  follow by exact derivative evaluation at t = 1.
* Seifert's algorithm on the diagram itself -> Seifert matrix of the
  disc-and-band surface -> Conway polynomial, signature, and (on reduced
  alternating diagrams) the genus.

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

from dataclasses import dataclass
from fractions import Fraction

from .budget import crossing_budget
from .diagram.core import _DSU, PlanarDiagram
from .errors import (
    BudgetExceeded,
    GenusMismatch,
    InconsistentDiagram,
    NonIntegralA2,
    NotAKnot,
    NotAlternating,
    NotReduced,
)
from .exactmath import LaurentPoly, laurent_derivative_at_one, signature_of_sym

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

DEFAULT_JONES_BUDGET = 26

# Handedness constants of the Seifert-surface model, pinned by the anchor
# diagrams (trefoil and figure-eight Conway polynomials and signatures),
# like the twist-box constants in diagram.construct.
SEIFERT_TWIST_SIGN = -1  # sign of the in-band crossing of two cores, per crossing sign
LEFT_DART = 1  # face traversal direction whose face lies left of the arc

_DELTA = LaurentPoly({2: -1, -2: -1})  # loop value -A^2 - A^-2

# stages named by the internal consistency checks (InconsistentDiagram.stage)
_KAUFFMAN = "oracle: Kauffman bracket"
_SURFACE = "oracle: Seifert surface"
_MATRIX = "oracle: Seifert matrix"
_CONWAY = "oracle: Conway polynomial"


# ---------------------------------------------------------------------------
# Kauffman bracket / Jones


def _div_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division (leading coefficient of d must be a unit)."""
    de = max(d.coeffs)
    dc = d.coeffs[de]
    q = LaurentPoly.zero()
    while p:
        e = max(p.coeffs)
        c = p.coeffs[e]
        if c % dc:
            raise InconsistentDiagram("inexact division", _KAUFFMAN)
        t = LaurentPoly.term(c // dc, e - de)
        q = q + t
        p = p - t * d
    return q


def jones_via_kauffman(d: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial V(t) of a knot diagram via the Kauffman bracket.

    The bracket is summed crossing by crossing; a state is the planar
    pairing of the open arc-ends on the frontier, so the number of live
    states stays small on tangle-shaped diagrams.
    """
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    budget = crossing_budget(DEFAULT_JONES_BUDGET)
    if d.n > budget:
        raise BudgetExceeded(f"{d.n} crossings exceeds Jones budget {budget}")
    if d.n == 0:
        return LaurentPoly.one()

    pos = d.positions()

    def occ_other(ci, s):
        a = d.crossings[ci][s]
        o1, o2 = pos[a]
        return o2 if o1 == (ci, s) else o1

    # greedy processing order: prefer crossings with many half-done arcs
    order = []
    processed = set()
    remaining = set(range(d.n))
    while remaining:
        if not order:
            best = min(remaining)
        else:
            best = max(
                remaining,
                key=lambda ci: (
                    sum(1 for s in range(4) if occ_other(ci, s)[0] in processed or occ_other(ci, s)[0] == ci),
                    -ci,
                ),
            )
        order.append(best)
        processed.add(best)
        remaining.discard(best)

    states = {frozenset(): LaurentPoly.one()}
    processed = set()
    for ci in order:
        slots = [(ci, s) for s in range(4)]
        new_states = {}
        for key, val in states.items():
            pairing = {}
            for pr in key:
                p, q = tuple(pr)
                pairing[p] = q
                pairing[q] = p
            for joins, w in ((((0, 1), (2, 3)), LaurentPoly.term(1, 1)),
                             (((1, 2), (3, 0)), LaurentPoly.term(1, -1))):
                adj = {}

                def add_edge(u, v):
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)

                seen_arc = set()
                for s in range(4):
                    p = (ci, s)
                    o = occ_other(ci, s)
                    if o[0] == ci:
                        a = d.crossings[ci][s]
                        if a not in seen_arc:
                            seen_arc.add(a)
                            add_edge(p, o)
                    elif p in pairing:
                        q = pairing[p]
                        if q in slots:
                            a = (p, q) if p < q else (q, p)
                            if a not in seen_arc:
                                seen_arc.add(a)
                                add_edge(p, q)
                        else:
                            add_edge(p, ("ext", q))
                    else:
                        add_edge(p, ("ext", o))
                for s, t in joins:
                    add_edge((ci, s), (ci, t))
                # trace components of the local degree<=2 graph
                nodes = set(adj)
                loops = 0
                new_pairs = []
                while nodes:
                    start = next(iter(nodes))
                    comp = {start}
                    stack = [start]
                    while stack:
                        u = stack.pop()
                        for v in adj[u]:
                            if v not in comp:
                                comp.add(v)
                                stack.append(v)
                    nodes -= comp
                    ends = [u for u in comp if isinstance(u[0], str)]
                    if not ends:
                        loops += 1
                    elif len(ends) == 2:
                        new_pairs.append(frozenset((ends[0][1], ends[1][1])))
                    else:
                        raise InconsistentDiagram(f"frontier strand with ends {ends}", _KAUFFMAN)
                kept = [pr for pr in key if not (set(pr) & set(slots))]
                nkey = frozenset(kept) | frozenset(new_pairs)
                nval = val * w * _DELTA ** loops
                if nkey in new_states:
                    new_states[nkey] = new_states[nkey] + nval
                else:
                    new_states[nkey] = nval
        states = new_states
        processed.add(ci)

    total = LaurentPoly.zero()
    for key, val in states.items():
        if key:
            raise InconsistentDiagram(
                f"{len(key)} open frontier pairs after the last crossing", _KAUFFMAN)
        total = total + val
    total = total * _DELTA ** d.free_loops
    bracket = _div_exact(total, _DELTA)
    w = d.writhe()
    f = bracket.shift(-3 * w)
    if w % 2:
        f = -f
    # substitute A = t^(-1/4)
    coeffs = {}
    for e, c in f.coeffs.items():
        if e % 4:
            raise InconsistentDiagram(f"bracket exponent {e} not divisible by 4", _KAUFFMAN)
        coeffs[-e // 4] = coeffs.get(-e // 4, 0) + c
    return LaurentPoly(coeffs)


def a2_w3_from_jones(v: LaurentPoly):
    """(a2, w3) from V''(1) = -6 a2 and w3 = V'''(1)/72 + V''(1)/24."""
    d2 = laurent_derivative_at_one(v, 2)
    d3 = laurent_derivative_at_one(v, 3)
    a2 = Fraction(-d2, 6)
    if a2.denominator != 1:
        raise NonIntegralA2(f"-V''(1)/6 = {a2} is not an integer")
    w3 = Fraction(d3, 72) + Fraction(d2, 24)
    return int(a2), w3


# ---------------------------------------------------------------------------
# Seifert pipeline


@dataclass(frozen=True)
class SeifertData:
    surface_genus: int
    seifert_matrix: tuple  # of row tuples
    circles: int


class _Surface:
    """Combinatorial disc-and-band Seifert surface of a knot diagram."""

    def __init__(self, d: PlanarDiagram):
        self.d = d
        pos = d.positions()
        self.circle_of = d.seifert_circle_of()

        def is_head(ci, s):
            return s == 0 or s == d.over_entry[ci]

        def endpoint(dart):
            a, direction = dart
            o1, o2 = pos[a]
            if direction == 1:
                return o1 if is_head(*o1) else o2
            return o1 if not is_head(*o1) else o2

        faces = d.faces()
        face_of_dart = {}
        corner_face = {}  # (ci, s) -> face index, quadrant between slots s, s+1
        for fi, orbit in enumerate(faces):
            for dart in orbit:
                face_of_dart[dart] = fi
                ci, s = endpoint(dart)
                corner_face[(ci, s)] = fi
        if len(corner_face) != 4 * d.n:
            raise InconsistentDiagram(
                f"{len(corner_face)} face corners at {d.n} crossings", _SURFACE)

        # regions: faces glued through the gap of each smoothed crossing
        regions = _DSU(range(len(faces)))
        for ci in range(d.n):
            gaps = (1, 3) if d.over_entry[ci] == 3 else (0, 2)
            regions.union(corner_face[(ci, gaps[0])], corner_face[(ci, gaps[1])])
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
        queue = [self.outer_region]
        while queue:
            r = queue.pop(0)
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
        tree_parent = {self.circles[0]: None}  # circle -> (parent circle, crossing)
        order = [self.circles[0]]
        queue = [self.circles[0]]
        tree_edges = set()
        while queue:
            u = queue.pop(0)
            for ci, (c1, c2) in self.band.items():
                if u not in (c1, c2):
                    continue
                v = c2 if u == c1 else c1
                if v not in tree_parent:
                    tree_parent[v] = (u, ci)
                    tree_edges.add(ci)
                    order.append(v)
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
    v = sd.seifert_matrix
    n = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
    return signature_of_sym(sym)


def _laurent_det(rows):
    """Determinant of a matrix of LaurentPoly, by minor expansion with a
    memo on column subsets."""
    n = len(rows)
    memo = {}

    def minor(r, cols):
        if r == n:
            return LaurentPoly.one()
        key = cols
        if key in memo:
            return memo[key]
        total = LaurentPoly.zero()
        sign = 1
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if entry:
                sub = minor(r + 1, cols[:k] + cols[k + 1 :])
                term = entry * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


def conway_polynomial(sd: SeifertData) -> LaurentPoly:
    """Conway polynomial in z, as det(sV - s^-1 V^T) rewritten via z = s - 1/s."""
    v = sd.seifert_matrix
    n = len(v)
    if n == 0:
        return LaurentPoly.one()
    s = LaurentPoly.term(1, 1)
    s_inv = LaurentPoly.term(1, -1)
    rows = [[s * v[i][j] - s_inv * v[j][i] for j in range(n)] for i in range(n)]
    det = _laurent_det(rows)
    z = LaurentPoly({1: 1, -1: -1})
    out = {}
    while det:
        e = max(det.coeffs)
        c = det.coeffs[e]
        if e < 0:
            raise InconsistentDiagram(f"negative power z^{e} in det(sV - V^T/s)", _CONWAY)
        out[e] = c
        det = det - c * z ** e
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
