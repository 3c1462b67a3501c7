"""Diagram construction from tangle templates.

Crossings have four geometric ports listed counterclockwise SE=0, NE=1,
NW=2, SW=3; strand A runs along the SE-NW diagonal (ports 0,2) and strand B
along NE-SW (ports 1,3).  `a_over` picks which diagonal is the over strand.
A port is the int 4*crossing + port; a tangle has four leads, NW, NE, SW
and SE, numbered 0 to 3.

Handedness of twist boxes is fixed by two module constants, pinned by the
calibration tests (double-twist and pretzel anchors), not by convention
folklore.

Each rational tangle, and each twist box, is written once as a table
(`_template`, an LRU cache of `_TEMPLATE_MEMO_SIZE`, 1,024, entries: an AC1
sweep and a bound-4 sweep together meet 620 distinct tables, and a full memo
stays under 1 MB; a failed expansion is not cached), straight from the twist
boxes of its continued fraction.  The trivial tangle inside joins the leads
in pairs (`_TRIVIAL`) by four arms, one from each lead; a half twist takes
the arms at its two leads through its crossing, in by one port and out by
the opposite one to the other's lead (`_TWISTS`).  So a box adds one port
to each of its two arms per crossing, and each strand of the tangle runs in
along one arm and out along the arm joined to it: each port's slot along
its strand is its place on its arm, counted from the strand's lead, with no
wiring and no search; a half twist that takes one lead twice or both arms
along one diagonal, or a junction that does not lead back, raises
`InconsistentDiagram`.  A box of m half twists is the table of m/0 when
horizontal (the gamma box) and of 1/|m| or -1/|m| when vertical.  One walk,
`_diagram`, builds all five templates: it follows the strands over the
tables, from lead to lead through a table of links, and fills their rows
in, which gives the PD code of the template wired twist by twist in one
builder, bit for bit.  The links are
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

_EMIT = "construction: emit"  # InconsistentDiagram.stage of the table writer's checks
# a half twist by box axis, vertical then horizontal: the leads whose arms it
# takes through its crossing (SW and SE; NE and SE) and the ports they enter
# it by; each leaves by the opposite port, to the other's lead
_TWISTS = ((2, 3, 2, 1), (1, 3, 2, 3))
# the lead each lead is joined to inside the zero and the infinity tangle
_TRIVIAL = ((1, 0, 3, 2), (2, 3, 0, 1))


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
    cf = additive_cf(alpha if beta > 0 else -alpha, abs(beta)) if alpha and beta else ()
    entries = cf if alpha else (0, beta)  # gamma: beta horizontal half twists
    pair = _TRIVIAL[len(entries) % 2]
    # arm a starts at lead a: at[x] is the arm now at lead x, size[a] its ports
    at, size, boxes, n = [0, 1, 2, 3], [0, 0, 0, 0], [], 0
    for j in range(len(entries) - 1, -1, -1):
        if not (m := entries[j]):
            continue
        l1, l2, e1, e2 = _TWISTS[j % 2]
        if l1 == l2:
            raise InconsistentDiagram(f"lead {l1} is soldered twice", _EMIT)
        if e1 == e2:
            raise InconsistentDiagram(f"crossing {n} port {e1} met twice", _EMIT)
        if not (e1 ^ e2) & 1:  # the other diagonal would close on itself
            raise InconsistentDiagram("a closed loop inside a tangle", _EMIT)
        x, y = at[l1], at[l2]  # box crossing i: arm x enters by e1, e2 alternately
        boxes.append((abs(m), (H_POS_A_OVER if j % 2 else V_POS_A_OVER) ^ (m < 0),
                      x, y, size[x], size[y], e1, e2))
        size[x] += abs(m)
        size[y] += abs(m)
        if m % 2:
            at[l1], at[l2] = y, x
        n += abs(m)
    # strand k runs in from lead x along arm a, then out along the arm b
    # joined to it: arm[a] = (slot of its port 0, slot step, entry port flip, k)
    exits, arm, lens, slot = bytearray(4), [None] * 4, [], 0
    for k in (0, 1):
        x = 2 if k and exits[0] == 1 else k
        a = at[x]
        b = pair[a]
        if b == a or pair[b] != a:
            raise InconsistentDiagram(f"junction of lead {a} does not lead back", _EMIT)
        y = at.index(b)
        exits[x], exits[y] = y, x
        arm[a], arm[b] = (slot + size[a] - 1, -1, 2, k), (slot + size[a], 1, 0, k)
        lens.append(size[a] + size[b])
        slot += lens[k] + 1
    # the slot blocks by (rev0, rev1), t where the strand runs backwards:
    # a row turns by two ports where its under strand does
    ff, tf, ft, tt, over, mixed = [], [], [], [], bytearray(), bytearray()
    for m, a_over, x, y, qx, qy, e1, e2 in boxes:
        sx, dx, fx, kx = arm[x]
        sy, dy, fy, ky = arm[y]
        sx, sy = sx + dx * qx, sy + dy * qy
        for i in range(m):
            px, py = (e1 ^ fx, e2 ^ fy) if i % 2 == 0 else (e2 ^ fx, e1 ^ fy)
            if px & 1 == a_over:  # x passes the under diagonal
                u, pu, ku, o, po, ko = sx, px, kx, sy, py, ky
            else:
                u, pu, ku, o, po, ko = sy, py, ky, sx, px, kx
            if (oe := (po - pu) & 3) == 1:
                row, turned = (u, o, u + 1, o + 1), (u + 1, o + 1, u, o)
            else:
                row, turned = (u, o + 1, u + 1, o), (u + 1, o, u, o + 1)
            ff += row
            tt += turned
            tf += row if ku else turned
            ft += turned if ku else row
            over.append(oe)
            mixed.append(oe if ku == ko else 4 - oe)
            sx += dx
            sy += dy
    # no half twist takes lead NW, and crossing 0 is the first on the arm joined
    # to NW's, entered by port 2: strand 0 run backwards enters port 0 last
    lead, step = (exits[0], lens[0] - 1) if n else (0, 0)
    ff += tf
    ff += ft
    ff += tt
    over += mixed
    return _Table(n, bytes(exits), *lens, lead, step,
                  bytes(ff) if 2 * n < 255 else array("i", ff), bytes(over))


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
