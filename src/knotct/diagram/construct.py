"""Diagram construction from tangle templates.

Crossings are created with four geometric ports listed counterclockwise
SE=0, NE=1, NW=2, SW=3; strand A runs along the SE-NW diagonal (ports 0,2)
and strand B along NE-SW (ports 1,3).  `a_over` picks which diagonal is the
over strand.  Tangles carry four named leads (NW, NE, SW, SE); connections
are soldered through a union-find of "nets", so closed component loops that
never touch a crossing come out as free loops.

Handedness of twist boxes is fixed by two module constants, pinned by the
calibration tests (double-twist and pretzel anchors), not by convention
folklore.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InconsistentDiagram, InvalidInput, NotAKnot
from .core import PlanarDiagram

__all__ = [
    "TwistLayout",
    "Builder",
    "rational_tangle",
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


class TwistLayout:
    """Provenance of a diagram emitted by `Builder`: its crossings sit in
    twist boxes, the framing `twist_number` needs."""


class Builder:
    """Accumulates crossings and soldered connections, then emits a PD."""

    def __init__(self):
        self.a_over = []
        self.parent = {}
        self._j = 0

    # -- net plumbing ---------------------------------------------------------

    def _find(self, x):
        p = self.parent
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def solder(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def junction(self):
        self._j += 1
        return ("J", self._j)

    def port(self, ci, g):
        tok = ("P", ci, g)
        self._find(tok)
        return tok

    def new_crossing(self, a_over):
        ci = len(self.a_over)
        self.a_over.append(bool(a_over))
        for g in range(4):
            self._find(("P", ci, g))
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
        ci = self.new_crossing(H_POS_A_OVER if sign > 0 else not H_POS_A_OVER)
        self.solder(t["NE"], self.port(ci, 2))
        self.solder(t["SE"], self.port(ci, 3))
        t["NE"] = self.port(ci, 1)
        t["SE"] = self.port(ci, 0)

    def vtwist(self, t, sign):
        """One half twist added at the bottom of the tangle."""
        ci = self.new_crossing(V_POS_A_OVER if sign > 0 else not V_POS_A_OVER)
        self.solder(t["SW"], self.port(ci, 2))
        self.solder(t["SE"], self.port(ci, 1))
        t["SW"] = self.port(ci, 3)
        t["SE"] = self.port(ci, 0)

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

    def denominator_close(self, t):
        self.solder(t["NW"], t["SW"])
        self.solder(t["NE"], t["SE"])

    # -- emission -------------------------------------------------------------

    def emit(self):
        n = len(self.a_over)
        groups = {}
        for ci in range(n):
            for g in range(4):
                groups.setdefault(self._find(("P", ci, g)), []).append((ci, g))
        free = 0
        for tok in list(self.parent):
            r = self._find(tok)
            if r not in groups:
                groups[r] = []
        wire_at = {}
        for root, ports in groups.items():
            if len(ports) == 0:
                free += 1
            elif len(ports) == 2:
                wire_at[ports[0]] = ports[1]
                wire_at[ports[1]] = ports[0]
            else:
                raise InconsistentDiagram(f"net with {len(ports)} ports", _EMIT)
        # orient: walk each component, marking entry/exit ports
        entry = {}
        arc_of_port = {}
        next_arc = 0
        for ci0 in range(n):
            for g0 in range(4):
                if (ci0, g0) in entry:
                    continue
                p = (ci0, g0)
                while True:
                    entry[p] = True
                    q = (p[0], (p[1] + 2) % 4)
                    entry[q] = False
                    r = wire_at[q]
                    arc_of_port[q] = arc_of_port[r] = next_arc
                    next_arc += 1
                    p = r
                    if p == (ci0, g0):
                        break
        crossings, over_entry = [], []
        for ci in range(n):
            under_is_a = not self.a_over[ci]
            upair = (0, 2) if under_is_a else (1, 3)
            g_start = upair[0] if entry[(ci, upair[0])] else upair[1]
            opair = (1, 3) if under_is_a else (0, 2)
            g_over = opair[0] if entry[(ci, opair[0])] else opair[1]
            crossings.append(tuple(arc_of_port[(ci, (g_start + k) % 4)] for k in range(4)))
            oe = (g_over - g_start) % 4
            if oe not in (1, 3):
                raise InconsistentDiagram(f"crossing {ci}: strands enter {oe} slots apart", _EMIT)
            over_entry.append(oe)
        return PlanarDiagram(crossings, over_entry, free, TwistLayout())


# -- additive continued fractions for tangle layout ---------------------------


def additive_cf(x):
    """All-positive (or all-negative) additive CF of a rational x with |x| >= 1.

    x = q1 + 1/(q2 + 1/(...)), every q_i of the same sign as x.
    """
    x = Fraction(x)
    if x == 0:
        raise InvalidInput("additive CF of 0")
    s = 1 if x > 0 else -1
    p, q = abs(x.numerator), abs(x.denominator)
    if p < q:
        raise InvalidInput(f"|{x}| < 1 has no all-positive additive CF")
    out = []
    while q:
        a = p // q
        out.append(s * a)
        p, q = q, p - a * q
    return out


def rational_tangle(b: Builder, frac):
    """Tangle of fraction beta/alpha, built from the additive CF of its
    reciprocal as alternating vertical/horizontal twist boxes, innermost
    entry first."""
    frac = Fraction(frac)
    if frac == 0:
        return b.zero_tangle()
    entries = additive_cf(1 / frac)
    k = len(entries)
    t = b.inf_tangle() if k % 2 == 1 else b.zero_tangle()
    for j in range(k, 0, -1):
        m = entries[j - 1]
        twist = b.vtwist if j % 2 == 1 else b.htwist
        for _ in range(abs(m)):
            twist(t, m)
    return t


# -- knot templates -----------------------------------------------------------


def _finish(b: Builder, expect_knot=True):
    d = b.emit()
    if expect_knot and d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    return d


def montesinos_diagram(fractions, gamma=0, expect_knot=True):
    """Cyclic chain of rational tangles, plus gamma extra half twists."""
    b = Builder()
    tangles = [rational_tangle(b, f) for f in fractions]
    if gamma:
        tangles.append(b.hbox(gamma))
    for i in range(len(tangles)):
        t, u = tangles[i], tangles[(i + 1) % len(tangles)]
        b.solder(t["NE"], u["NW"])
        b.solder(t["SE"], u["SW"])
    return _finish(b, expect_knot)


def pretzel_diagram(qs, expect_knot=True):
    return montesinos_diagram([Fraction(1, q) for q in qs], 0, expect_knot)


def double_twist_diagram(m_h, m_v, expect_knot=True):
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
    return _finish(b, expect_knot)


def fig1_left_diagram(a, b, c, d, e, f, expect_knot=True):
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
    return _finish(bl, expect_knot)


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


def fig1_right_diagram(a, b, c, d, e, f, expect_knot=True):
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
    return _finish(bl, expect_knot)
