"""Diagram construction from tangle templates.

Crossings are created with four geometric ports listed counterclockwise
SE=0, NE=1, NW=2, SW=3; strand A runs along the SE-NW diagonal (ports 0,2)
and strand B along NE-SW (ports 1,3).  `a_over` picks which diagonal is the
over strand.  Tangles carry four named leads (NW, NE, SW, SE): ports, the
ints 4*crossing + port, or junctions of the trivial tangles, negative ints.
`solder` records each wire at its two ends (a port's mate, a junction's
leads).

Handedness of twist boxes is fixed by two module constants, pinned by the
calibration tests (double-twist and pretzel anchors), not by convention
folklore.

Each rational tangle, and each twist box, is wired once by a fresh `Builder`
and kept as a table (`_template`, an LRU cache of `_TEMPLATE_MEMO_SIZE`,
1,024, entries: an AC1 sweep and a bound-4 sweep together meet 620
distinct tables, and a full memo stays under 1 MB; a failed expansion is
not cached).  A box of m half twists is the table of m/0 when horizontal
(the gamma box) and of 1/|m| or -1/|m| when vertical.  One walk, `_diagram`,
builds all five templates: it follows the strands over the tables, from
lead to lead through a table of links, and fills their rows in, which gives
the PD code of the template wired twist by twist in one builder, bit for
bit.  The links are
  - the Montesinos chain: NE and SE of each tangle to NW and SW of the next
    (a pretzel is a chain of vertical boxes);
  - the double twist: the chain of its vertical box and a gamma box of its
    horizontal twists;
  - fig1_left: vertical boxes b, c, a, then horizontal boxes d, e, f, in that
    order, each joined to the tangle of the boxes before it, on its right (c,
    d, f) or below it (a, e), and the whole closed at the numerator;
  - fig1_right: horizontal boxes a to f at the vertices of an octahedron,
    wired by its rotation system (`_OCTA_ROT`).
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

_EMIT = "construction: emit"  # InconsistentDiagram.stage of the wiring and walk checks


class Builder:
    """Accumulates crossings and soldered wires: one tangle, for its table."""

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

    # -- checks ---------------------------------------------------------------

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
_CHAIN_MEMO_SIZE = 1 << 6  # one entry per chain length; the family sweeps use 1 to 4
_Table = collections.namedtuple("_Table", "n exits len0 len1 lead step slots over")


@functools.lru_cache(maxsize=_TEMPLATE_MEMO_SIZE)
def _template(beta, alpha):
    """Tangle beta/alpha as a `_Table`, from the additive CF of its reciprocal
    as alternating vertical/horizontal twist boxes, innermost entry first;
    alpha = 0 keys the horizontal box of beta half twists, the gamma box
    (beta = 0 the zero tangle).  Strand 0 runs from lead NW, strand 1 from
    the lower lead left; entering k ports, a strand passes k + 1 arcs, its
    slots, strand 0's first.  A table holds n; the lead each lead runs to;
    the ports each strand enters; the lead and step that enter port 0;
    the PD rows in slots, each from the port where its under strand
    enters, 4n per way the strands run (block rev0 + 2 * rev1); and the n
    over_entry flags for strands running alike, then not."""
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
    b._check_wiring()  # then a guarded walk of the two strands of the closed tangle
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


def _walk(tables, links, walked, t, x, pos):
    """Walk the strand entering tangle t by lead x through the tangles, giving
    each tangle strand passed, walked[2 * t + k] for strand k of tangle t,
    its arcs from pos on, over its slots, as a range that steps back where
    the strand runs from its last slot to its first; lead y of tangle t is
    wired to lead links[4 * t + y] & 3 of tangle links[4 * t + y] >> 2."""
    start = 4 * t + x
    while True:
        tb = tables[t]
        y = tb.exits[x]
        i = 2 * t + 1 if x and y else 2 * t
        if walked[i] is not None:  # a strand met twice: raise, never loop
            raise InconsistentDiagram(f"tangle {t} strand {i & 1} met twice", _EMIT)
        n = tb.len1 if i & 1 else tb.len0
        walked[i] = range(pos + n - 1, pos - 2, -1) if x > y else range(pos - 1, pos + n)
        pos += n
        to = links[4 * t + y]
        if to == start:
            return
        t, x = to >> 2, to & 3


def _diagram(tables, links):
    """The knot of the tangle tables wired lead to lead by links, with the PD
    code that wiring the tangles twist by twist in one builder, in the order
    of the tables, gives: crossings numbered tangle by tangle, and arcs along
    the strand from where port 0 of the first tangle with crossings is
    entered."""
    walked = [None] * (2 * len(tables))
    m = 2 * sum(tb.n for tb in tables)
    t0 = next((t for t, tb in enumerate(tables) if tb.n), 0)
    _walk(tables, links, walked, t0, tables[t0].lead, -tables[t0].step)  # arc 0 leaves port 0
    if None in walked:
        components = 1  # plus one per walk over the strands left: knots or free loops
        for t, tb in enumerate(tables):
            for x in range(4):
                if walked[2 * t + 1 if x and tb.exits[x] else 2 * t] is None:
                    _walk(tables, links, walked, t, x, 0)
                    components += 1
        raise NotAKnot(f"{components} components")
    rows, over = [], []
    for t, tb in enumerate(tables):
        r0, r1 = walked[2 * t], walked[2 * t + 1]
        la = [*r0, *r1] if t != t0 else [a % m for a in (*r0, *r1)]  # arcs before port 0 last
        n, rev0, rev1 = tb.n, r0.step < 0, r1.step < 0
        state, mixed = rev0 + 2 * rev1, rev0 ^ rev1
        rows += zip(*[map(la.__getitem__, tb.slots[4 * n * state:4 * n * (state + 1)])] * 4)
        over += tb.over[n * mixed:n * (mixed + 1)]
    d = PlanarDiagram(rows, over)
    d._components = (tuple(range(m)),)
    return d


@functools.lru_cache(maxsize=_CHAIN_MEMO_SIZE)
def _chain(k):
    """Links of a cyclic chain of k tangles: NE and SE of each to NW and SW
    of the next."""
    links = []
    for t in range(k):
        before, after = 4 * ((t - 1) % k), 4 * ((t + 1) % k)
        links += before + 1, after, before + 3, after + 2
    return tuple(links)


def montesinos_diagram(fractions, gamma=0):
    """Cyclic chain of rational tangles, plus gamma extra half twists; each
    tangle fraction is a (beta, alpha) pair of coprime integers, alpha > 0."""
    tables = [_template(beta, alpha) for beta, alpha in fractions]
    if gamma:
        tables.append(_template(gamma, 0))
    return _diagram(tables, _chain(len(tables)))


def pretzel_diagram(qs):
    return montesinos_diagram([(1, q) if q > 0 else (-1, -q) for q in qs])


def double_twist_diagram(m_h, m_v):
    """Closure of a vertical box of m_v half twists with m_h horizontal half
    twists added outside; DT(2x,2y) has m_h = 2x, m_v = 2y.  The vertical box
    is built with flipped handedness so that the tangle fraction becomes
    m_h - 1/m_v, matching the anchor a2(DT(2,2)) = 1 (trefoil, not figure-8).
    The box of m half twists along an axis is a tangle table: m/0 horizontal
    (the gamma box), 1/|m| or -1/|m| vertical, so the knot is the chain of
    that vertical box and the gamma box of the horizontal twists.
    """
    if m_h % 2 or m_v % 2:
        raise InvalidInput("double twist boxes need even twist counts")
    if not m_v:
        raise InvalidInput("a double twist needs a nonzero vertical box")
    m_v = DT_V_SIGN * -m_v  # chirality pinned by the w3(DT(2,2)) = 1/2 anchor
    return montesinos_diagram([(1 if m_v > 0 else -1, abs(m_v))], -m_h)


def _six_box_links(sides):
    """Links of six boxes joined in table order to the tangle of the first,
    each on its right ("r": its NE and SE to the box's NW and SW) or below it
    ("b": its SW and SE to the box's NW and NE), then closed at the
    numerator (NW to NE, SW to SE)."""
    links = [0] * 24

    def wire(p, q):
        links[p], links[q] = q, p

    nw, ne, sw, se = 0, 1, 2, 3
    for t, side in enumerate(sides, 1):
        if side == "r":
            wire(ne, 4 * t), wire(se, 4 * t + 2)
            ne, se = 4 * t + 1, 4 * t + 3
        else:
            wire(sw, 4 * t), wire(se, 4 * t + 1)
            sw, se = 4 * t + 2, 4 * t + 3
    wire(nw, ne), wire(sw, se)
    return tuple(links)


# fig1_left's boxes in table order b, c, a, d, e, f: c, d and f each on the
# right of the tangle so far, a and e below it
_FIG1_LEFT_LINKS = _six_box_links("rbrbr")


def fig1_left_diagram(a, b, c, d, e, f):
    """Six-twist-box knot family extending a 6-crossing genus-2 template.

    Non-negative parameters keep the diagram alternating with sigma = 0;
    all parameters zero gives the 6-crossing template itself.  Box slots are
    attached in a fixed arborescent order (right/bottom) with axes calibrated
    so the family's quadratic a2 and cubic w3 polynomials hold: b, c and a
    are vertical boxes, d, e and f horizontal ones, of 2n + 1 half twists.
    """
    tables = [_template(1 if m > 0 else -1, abs(m)) for m in (2 * int(n) + 1 for n in (b, c, a))]
    tables += [_template(2 * int(n) + 1, 0) for n in (d, e, f)]
    return _diagram(tables, _FIG1_LEFT_LINKS)


# octahedral wiring of the nine-crossing template: vertices 0-2 are the inner
# triangle (double boxes), 3-5 the outer triangle (single boxes); rotation
# system lists neighbors counterclockwise, leads assigned by per-slot offset
_OCTA_ROT = {}
for _k in range(3):
    _OCTA_ROT[_k] = (3 + _k, (_k + 1) % 3, (_k - 1) % 3, 3 + (_k - 1) % 3)
    _OCTA_ROT[3 + _k] = tuple(
        reversed((_k, (_k + 1) % 3, 3 + (_k + 1) % 3, 3 + (_k - 1) % 3))
    )
_OCTA_LEADS = (1, 0, 2, 3)  # NE, NW, SW, SE: counterclockwise around a box
_OCTA_OFFSETS = (0, 0, 0, 1, 1, 1)


def _octahedral_links():
    """Links of boxes 0-5 at the octahedron's vertices: the lead of box i
    towards each neighbour to that neighbour's lead towards i."""
    links = [0] * 24
    for i, rot in _OCTA_ROT.items():
        for idx, nb in enumerate(rot):
            links[4 * i + _OCTA_LEADS[(_OCTA_OFFSETS[i] + idx) % 4]] = \
                4 * nb + _OCTA_LEADS[(_OCTA_OFFSETS[nb] + _OCTA_ROT[nb].index(i)) % 4]
    return tuple(links)


_FIG1_RIGHT_LINKS = _octahedral_links()


def fig1_right_diagram(a, b, c, d, e, f):
    """Six-twist-box knot family extending a 9-crossing genus-2 template.

    The underlying 4-valent graph is the octahedron (not a tangle tree), so
    the boxes are wired by an explicit rotation system.  All parameters zero
    gives the 9-crossing alternating template with a2 = 0 and w3 = -1/2.
    Every box is horizontal: a, b and c of -(2 + 2n) half twists, d, e and
    f of 2n + 1.
    """
    counts = [-(2 + 2 * int(v)) for v in (a, b, c)] + [1 + 2 * int(v) for v in (d, e, f)]
    return _diagram([_template(m, 0) for m in counts], _FIG1_RIGHT_LINKS)
