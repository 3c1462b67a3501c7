"""Diagram construction from tangle templates.

Crossings are created with four geometric ports listed counterclockwise
SE=0, NE=1, NW=2, SW=3; strand A runs along the SE-NW diagonal (ports 0,2)
and strand B along NE-SW (ports 1,3).  `a_over` picks which diagonal is the
over strand.  Tangles carry four named leads (NW, NE, SW, SE): ports, the
ints 4*crossing + port, or junctions of the trivial tangles, negative ints.
`solder` records each wire at its two ends (a port's mate, a junction's
leads), and `emit` walks each net once; nets of junctions alone are closed
loops that never touch a crossing, free loops.

Handedness of twist boxes is fixed by two module constants, pinned by the
calibration tests (double-twist and pretzel anchors), not by convention
folklore.

Each rational tangle, and the gamma box, is wired once by a fresh `Builder`
and kept as a table (`_template`, an LRU cache of `_TEMPLATE_MEMO_SIZE`,
1,024, entries: a bound-4 sweep meets 607 distinct tangles, and a full memo
stays under 1 MB; a failed expansion is not cached).  `montesinos_diagram`
walks the chain over the tables a strand at a time and fills their rows in,
which gives the PD code of the chain wired in one builder, bit for bit.
"""

from __future__ import annotations

import collections
import functools
from array import array
from fractions import Fraction

from ..errors import InconsistentDiagram, InvalidInput, NotAKnot
from .core import PlanarDiagram

__all__ = [
    "Builder",
    "montesinos_diagram",
    "pretzel_diagram",
    "double_twist_diagram",
    "fig1_left_diagram",
    "fig1_right_diagram",
    "additive_cf",
]

# a_over flag of a single positive (right-handed) half twist, by box axis
H_POS_A_OVER = False
V_POS_A_OVER = False
# handedness flip of the double-twist template's vertical box
DT_V_SIGN = -1

_EMIT = "construction: emit"  # InconsistentDiagram.stage of the emission checks


class Builder:
    """Accumulates crossings and soldered wires, then emits a PD."""

    def __init__(self):
        self.a_over = []
        self.mate = []  # port -> what it is soldered to (None: not yet)
        self.leads = []  # junction ~j -> everything soldered to j
        self.wires = 0

    # -- wiring ---------------------------------------------------------------

    def solder(self, a, b):
        self.wires += 1
        if a >= 0:
            self.mate[a] = b
        else:
            self.leads[~a].append(b)
        if b >= 0:
            self.mate[b] = a
        else:
            self.leads[~b].append(a)

    def junction(self):
        self.leads.append([])
        return ~(len(self.leads) - 1)

    def new_crossing(self, a_over):
        ci = len(self.a_over)
        self.a_over.append(bool(a_over))
        self.mate += (None, None, None, None)
        return ci

    # -- tangle primitives ----------------------------------------------------

    def zero_tangle(self):
        top, bot = self.junction(), self.junction()
        return {"NW": top, "NE": top, "SW": bot, "SE": bot}

    def inf_tangle(self):
        left, right = self.junction(), self.junction()
        return {"NW": left, "SW": left, "NE": right, "SE": right}

    def htwist(self, t, sign):
        """One half twist added on the right side of the tangle."""
        p = 4 * self.new_crossing(H_POS_A_OVER if sign > 0 else not H_POS_A_OVER)
        self.solder(t["NE"], p + 2)
        self.solder(t["SE"], p + 3)
        t["NE"] = p + 1
        t["SE"] = p

    def vtwist(self, t, sign):
        """One half twist added at the bottom of the tangle."""
        p = 4 * self.new_crossing(V_POS_A_OVER if sign > 0 else not V_POS_A_OVER)
        self.solder(t["SW"], p + 2)
        self.solder(t["SE"], p + 1)
        t["SW"] = p + 3
        t["SE"] = p

    def hbox(self, m):
        """Horizontal twist box with m signed half twists (0 = trivial)."""
        t = self.zero_tangle()
        for _ in range(abs(m)):
            self.htwist(t, m)
        return t

    def vbox(self, m):
        t = self.inf_tangle()
        for _ in range(abs(m)):
            self.vtwist(t, m)
        return t

    # -- tangle composition ---------------------------------------------------

    def stack(self, top, bot):
        self.solder(top["SW"], bot["NW"])
        self.solder(top["SE"], bot["NE"])
        return {"NW": top["NW"], "NE": top["NE"], "SW": bot["SW"], "SE": bot["SE"]}

    def hjoin(self, left, right):
        self.solder(left["NE"], right["NW"])
        self.solder(left["SE"], right["SW"])
        return {"NW": left["NW"], "SW": left["SW"], "NE": right["NE"], "SE": right["SE"]}

    def numerator_close(self, t):
        self.solder(t["NW"], t["NE"])
        self.solder(t["SW"], t["SE"])

    # -- emission -------------------------------------------------------------

    def _check_wiring(self):
        # With every junction in use soldered twice and every port once, each
        # net is a path between two ports or a loop of junctions alone.
        for lj in self.leads:
            if lj and len(lj) != 2:
                raise InconsistentDiagram(f"junction with {len(lj)} leads", _EMIT)
        if None in self.mate:
            p = self.mate.index(None)
            raise InconsistentDiagram(f"crossing {p >> 2} port {p & 3} is not soldered", _EMIT)
        # a second wire at a port overwrites its mate but still counts here
        if 2 * self.wires != len(self.mate) + sum(map(len, self.leads)):
            raise InconsistentDiagram("a port is soldered twice", _EMIT)

    def emit(self):
        self._check_wiring()
        mate, leads = self.mate, self.leads
        on_path = [False] * len(leads)
        # orient: walk each component, entering at p and leaving at p ^ 2;
        # an arc runs from an exit port through its net to an entry port; a
        # miswired walk that would never end meets a junction that does not
        # lead back, or a port numbered before, and raises there
        arc = [-1] * len(mate)
        entry = [False] * len(mate)
        starts = []
        next_arc = 0
        for start in range(len(mate)):
            if 2 * next_arc == len(mate):
                break  # each arc numbers two ports: every port is numbered
            if arc[start] >= 0:
                continue
            starts.append(next_arc)
            p = start
            while True:
                entry[p] = True
                q = p ^ 2
                prev, r = q, mate[q]
                while r < 0:
                    lj = leads[~r]
                    if prev not in lj:
                        raise InconsistentDiagram(f"junction {~r} does not lead back", _EMIT)
                    on_path[~r] = True
                    prev, r = r, lj[lj[0] == prev]
                if arc[r] >= 0:
                    raise InconsistentDiagram(f"crossing {r >> 2} port {r & 3} met twice", _EMIT)
                arc[q] = arc[r] = next_arc
                next_arc += 1
                p = r
                if p == start:
                    break
        # nets of junctions alone are closed loops that touch no crossing
        free = 0
        for j, lj in enumerate(leads):
            if on_path[j] or not lj:
                continue
            free += 1
            on_path[j] = True
            stack = [j]
            while stack:
                for x in leads[stack.pop()]:
                    if not on_path[~x]:
                        on_path[~x] = True
                        stack.append(~x)
        # each crossing starts at the port where its under strand enters
        crossings, over_entry = [], []
        for ci, a_is_over in enumerate(self.a_over):
            b = 4 * ci
            u, o = (b + 1, b) if a_is_over else (b, b + 1)
            s = u if entry[u] else u + 2
            crossings.append((arc[s], arc[b | (s + 1) & 3], arc[s ^ 2], arc[b | (s + 3) & 3]))
            over_entry.append(((o if entry[o] else o + 2) - s) % 4)
        d = PlanarDiagram(crossings, over_entry, free)
        # the walk above numbered each strand's arcs consecutively, in order
        starts.append(next_arc)
        d._components = tuple(tuple(range(a, z)) for a, z in zip(starts, starts[1:]))
        return d


# -- additive continued fractions for tangle layout ---------------------------


def additive_cf(p, q):
    """All-positive (or all-negative) additive CF of p/q, for integers p and
    q > 0 with |p/q| >= 1.

    p/q = q1 + 1/(q2 + 1/(...)), every q_i of the same sign as p.
    """
    if p == 0:
        raise InvalidInput("additive CF of 0")
    s = 1 if p > 0 else -1
    p = abs(p)
    if p < q:
        raise InvalidInput(f"|{Fraction(s * p, q)}| < 1 has no all-positive additive CF")
    out = []
    while q:
        a = p // q
        out.append(s * a)
        p, q = q, p - a * q
    return out


_TEMPLATE_MEMO_SIZE = 1 << 10
_Table = collections.namedtuple("_Table", "n exits len0 len1 lead step slots over")


@functools.lru_cache(maxsize=_TEMPLATE_MEMO_SIZE)
def _template(beta, alpha):
    """Tangle beta/alpha as a `_Table`, from the additive CF of its reciprocal
    as alternating vertical/horizontal twist boxes, innermost entry first;
    alpha = 0 keys the gamma box.  Strand 0 runs from lead NW, strand 1 from
    the lower lead left; entering k ports, a strand passes k + 1 arcs, its
    slots, strand 0's first.  A table holds n; the lead each lead runs to;
    the ports each strand enters; the lead and step that enter port 0;
    `emit`'s rows in slots, 4n per way the strands run (block rev0 + 2 *
    rev1); and the n over_entry flags for strands running alike, then not."""
    b = Builder()
    cf = additive_cf(alpha if beta > 0 else -alpha, abs(beta)) if alpha and beta else ()
    entries = cf if alpha else (0, beta)  # gamma: beta horizontal half twists
    t = b.inf_tangle() if len(entries) % 2 else b.zero_tangle()
    for j in range(len(entries), 0, -1):
        for _ in range(abs(entries[j - 1])):
            (b.vtwist if j % 2 else b.htwist)(t, entries[j - 1])
    end = 4 * (n := b.new_crossing(False))  # port end + x closes lead x of the table
    for x, name in enumerate(("NW", "NE", "SW", "SE")):
        b.solder(t[name], end + x)
    b._check_wiring()  # then `emit`'s walk, with its guards, on the closed tangle
    slot, entry, strand, exits = [0] * end, bytearray(end), bytearray(end), bytearray(4)
    walks, x, i = [], 0, 0
    for k in (0, 1):
        ports, prev, r = [], end + x, b.mate[end + x]
        while True:
            while r < 0:
                if prev not in (lj := b.leads[~r]):
                    raise InconsistentDiagram(f"junction {~r} does not lead back", _EMIT)
                prev, r = r, lj[lj[0] == prev]
            if r >= end:
                break
            if entry[r] or entry[r ^ 2]:
                raise InconsistentDiagram(f"crossing {r >> 2} port {r & 3} met twice", _EMIT)
            slot[r], slot[r ^ 2], entry[r], strand[r], strand[r ^ 2] = i, i + 1, 1, k, k
            ports.append(r)
            prev, r, i = r ^ 2, b.mate[r ^ 2], i + 1
        exits[x], exits[r - end] = r - end, x
        walks += (x, ports), (r - end, [p ^ 2 for p in reversed(ports)])
        x, i = 2 if exits[0] == 1 else 1, i + 1
    if 2 * sum(entry) != end:
        raise InconsistentDiagram("a closed loop inside a tangle", _EMIT)
    rows = []
    for ci, a_is_over in enumerate(b.a_over[:n]):
        c = 4 * ci
        u, o = (c + 1, c) if a_is_over else (c, c + 1)
        s = u if entry[u] else u + 2
        oe = ((o if entry[o] else o + 2) - s) % 4
        rows.append((tuple(slot[c | (s + j) & 3] for j in range(4)), strand[s], oe, strand[o]))
    over = bytes(oe if ku == ko or not mixed else 4 - oe
                 for mixed in (False, True) for _, ku, oe, ko in rows)
    slots = [s for rev in ((False, False), (True, False), (False, True), (True, True))
             for row, k, _, _ in rows for s in (row[2:] + row[:2] if rev[k] else row)]
    lead, step = next(((x, ports.index(0)) for x, ports in walks if 0 in ports), (0, 0))
    return _Table(n, bytes(exits), len(walks[0][1]), len(walks[2][1]), lead, step,
                  bytes(slots) if 2 * n < 255 else array("i", slots), over)


# -- knot templates -----------------------------------------------------------


def _finish(b: Builder):
    d = b.emit()
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    return d


def _walk(tables, walked, t, x, pos):
    """Walk the strand entering tangle t by lead x round the chain, giving each
    tangle strand passed its arcs from pos on, over its slots, and direction."""
    t0, x0 = t, x
    while True:
        tb = tables[t]
        y = tb.exits[x]
        k = 1 if x and y else 0
        if walked[t][k] is not None:  # a strand met twice: raise, never loop
            raise InconsistentDiagram(f"tangle {t} strand {k} met twice", _EMIT)
        n = tb.len1 if k else tb.len0
        walked[t][k] = range(pos + n - 1, pos - 2, -1) if x > y else range(pos - 1, pos + n), x > y
        pos += n
        t, x = (t + 1 if y & 1 else t - 1) % len(tables), y ^ 1  # NE, SE: on to NW, SW
        if t == t0 and x == x0:
            return


def montesinos_diagram(fractions, gamma=0):
    """Cyclic chain of rational tangles, plus gamma extra half twists; each
    tangle fraction is a (beta, alpha) pair of coprime integers, alpha > 0.
    The PD code is the one `Builder.emit` gives for the chain in one builder."""
    tables = [_template(beta, alpha) for beta, alpha in fractions]
    if gamma:
        tables.append(_template(gamma, 0))
    walked = [[None, None] for _ in tables]
    m = 2 * sum(tb.n for tb in tables)
    t0 = next((t for t, tb in enumerate(tables) if tb.n), 0)
    _walk(tables, walked, t0, tables[t0].lead, -tables[t0].step)  # arc 0 leaves port 0
    if any(None in w for w in walked):
        components = 1  # plus one per walk over the strands left: knots or free loops
        for t, tb in enumerate(tables):
            for x in range(4):
                if walked[t][1 if x and tb.exits[x] else 0] is None:
                    _walk(tables, walked, t, x, 0)
                    components += 1
        raise NotAKnot(f"{components} components")
    rows, over = [], []
    for t, (tb, ((r0, rev0), (r1, rev1))) in enumerate(zip(tables, walked)):
        la = [*r0, *r1] if t != t0 else [a % m for a in (*r0, *r1)]  # arcs before port 0 last
        n, state, mixed = tb.n, rev0 + 2 * rev1, rev0 ^ rev1
        rows += zip(*[map(la.__getitem__, tb.slots[4 * n * state:4 * n * (state + 1)])] * 4)
        over += tb.over[n * mixed:n * (mixed + 1)]
    d = PlanarDiagram(rows, over)
    d._components = (tuple(range(m)),)
    return d


def pretzel_diagram(qs):
    return montesinos_diagram([(1, q) if q > 0 else (-1, -q) for q in qs])


def double_twist_diagram(m_h, m_v):
    """Closure of a vertical box of m_v half twists with m_h horizontal half
    twists added outside; DT(2x,2y) has m_h = 2x, m_v = 2y.  The vertical box
    is built with flipped handedness so that the tangle fraction becomes
    m_h - 1/m_v, matching the anchor a2(DT(2,2)) = 1 (trefoil, not figure-8).
    """
    if m_h % 2 or m_v % 2:
        raise InvalidInput("double twist boxes need even twist counts")
    m_h, m_v = -m_h, -m_v  # chirality pinned by the w3(DT(2,2)) = 1/2 anchor
    b = Builder()
    t = b.vbox(DT_V_SIGN * m_v)
    for _ in range(abs(m_h)):
        b.htwist(t, m_h)
    b.numerator_close(t)
    return _finish(b)


def fig1_left_diagram(a, b, c, d, e, f):
    """Six-twist-box knot family extending a 6-crossing genus-2 template.

    Non-negative parameters keep the diagram alternating with sigma = 0;
    all parameters zero gives the 6-crossing template itself.  Box slots are
    attached in a fixed arborescent order (right/bottom) with axes calibrated
    so the family's quadratic a2 and cubic w3 polynomials hold.
    """
    bl = Builder()
    t = bl.zero_tangle()
    for attach, axis, n in (
        ("r", "v", b),
        ("r", "v", c),
        ("b", "v", a),
        ("r", "h", d),
        ("b", "h", e),
        ("r", "h", f),
    ):
        m = 2 * int(n) + 1
        box = bl.hbox(m) if axis == "h" else bl.vbox(m)
        t = bl.hjoin(t, box) if attach == "r" else bl.stack(t, box)
    bl.numerator_close(t)
    return _finish(bl)


# octahedral wiring of the nine-crossing template: vertices 0-2 are the inner
# triangle (double boxes), 3-5 the outer triangle (single boxes); rotation
# system lists neighbors counterclockwise, leads assigned by per-slot offset
_OCTA_ROT = {}
for _k in range(3):
    _OCTA_ROT[_k] = (3 + _k, (_k + 1) % 3, (_k - 1) % 3, 3 + (_k - 1) % 3)
    _OCTA_ROT[3 + _k] = tuple(
        reversed((_k, (_k + 1) % 3, 3 + (_k + 1) % 3, 3 + (_k - 1) % 3))
    )
_OCTA_LEADS = ("NE", "NW", "SW", "SE")  # counterclockwise around a box


def fig1_right_diagram(a, b, c, d, e, f):
    """Six-twist-box knot family extending a 9-crossing genus-2 template.

    The underlying 4-valent graph is the octahedron (not a tangle tree), so
    the boxes are wired by an explicit rotation system.  All parameters zero
    gives the 9-crossing alternating template with a2 = 0 and w3 = -1/2.
    """
    counts = [-(2 + 2 * int(v)) for v in (a, b, c)] + [
        1 + 2 * int(v) for v in (d, e, f)
    ]
    offsets = (0, 0, 0, 1, 1, 1)
    bl = Builder()
    tangles = [bl.hbox(m) for m in counts]
    done = set()
    for i in range(6):
        for idx, nb in enumerate(_OCTA_ROT[i]):
            if (nb, i) in done:
                continue
            la = tangles[i][_OCTA_LEADS[(offsets[i] + idx) % 4]]
            lb = tangles[nb][_OCTA_LEADS[(offsets[nb] + _OCTA_ROT[nb].index(i)) % 4]]
            bl.solder(la, lb)
            done.add((i, nb))
    return _finish(bl)
