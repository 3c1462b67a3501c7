"""Order-two and order-three knot invariants.

Two independent routes to a2 (the Conway z^2 coefficient) and w3 (the
primitive order-three invariant, quarter-integer valued):

* closed forms per named family — polynomial formulas in the family
  parameters for the genus-two Montesinos families that have one, the odd
  three-strand pretzels, the double twist knots, and the two six-box
  genus-two families;
* a skein-recursion engine on arbitrary knot diagrams, resolving via the
  crossing-change relations

      a2(K+) - a2(K-) = lk(K', K'')
      w3(K+) - w3(K-) = (a2(K') + a2(K''))/2
                        - (a2(K+) + a2(K-) + lk(K', K'')^2)/4

  where K' u K'' is the oriented smoothing, toward a descending (hence
  trivial) diagram.  It works on the knot's signed Gauss word (Polyak-Viro,
  IMRN 1994), which holds everything the recursion needs: a switch flips
  two passages, the smoothing splits the word in two, and Reidemeister I/II
  moves delete passages.

The two routes must agree exactly wherever both apply; that cross-check is
the backbone of the test suite.
"""

from __future__ import annotations

from array import array
from fractions import Fraction

from .budget import crossing_budget
from .diagram import PlanarDiagram
from .errors import BudgetExceeded, InconsistentDiagram, InvalidInput, NoFormula
from .records import Record

__all__ = [
    "InvariantReport",
    "a2_dt",
    "w3_dt",
    "a2_pretzel",
    "w3_pretzel",
    "w3_twist_formula",
    "closed_form",
    "skein_a2",
    "skein_w3",
    "DEFAULT_SKEIN_BUDGET",
]

DEFAULT_SKEIN_BUDGET = 24


# =============================================================================
# report


class InvariantReport(Record):
    """Invariant values plus per-field provenance.

    `method` maps field names to one of {"closed_form", "skein_engine",
    "oracle"}.  Any field may be None when no route produced it (the e2/e3
    closed forms cover a2 only; a verdict that fires early stops computing);
    `sigma`, `tau`, `genus` are filled by callers that compute them.
    """

    __slots__ = ("a2", "w3", "sigma", "tau", "genus", "method")

    def __init__(self, a2=None, w3=None, sigma=None, tau=None, genus=None, method=None):
        if w3 is not None and 4 % w3.denominator != 0:
            raise InvalidInput(f"w3 denominator {w3.denominator} does not divide 4")
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "w3", w3)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "method", {} if method is None else method)

    def to_dict(self):
        def frac(x):
            return None if x is None else str(Fraction(x))

        return {
            "a2": self.a2,
            "w3": frac(self.w3),
            "sigma": self.sigma,
            "tau": frac(self.tau),
            "genus": self.genus,
            "method": dict(self.method),
        }


# =============================================================================
# closed forms


def a2_dt(x, y):
    """a2 of the double twist knot DT(2x,2y)."""
    return x * y


def w3_dt(x, y):
    """w3 of the double twist knot DT(2x,2y)."""
    return Fraction(x * y * (x + y), 4)


def a2_pretzel(x, y, z):
    """a2 of the odd pretzel knot P(2x+1,2y+1,2z+1)."""
    return (x + 1) * (y + 1) * (z + 1) - x * y * z


def w3_pretzel(x, y, z):
    """w3 of the odd pretzel knot P(2x+1,2y+1,2z+1)."""
    return Fraction(
        x * y * (x + y)
        + y * z * (y + z)
        + z * x * (z + x)
        + 4 * x * y * z
        + (x + y + z) ** 2
        + 2 * (x * y + y * z + z * x)
        + 3 * (x + y + z)
        + 2,
        4,
    )


def w3_twist_formula(w3_0, a2_0, lk, n):
    """w3 after n full twists on two parallel strands of linking number lk.

    w3(K_n) = w3(K_0) + (n/2) a2(K_0) + (n/4) lk (lk - n).  Valid when both
    components of the two-strand link being twisted are unknots; the caller
    guarantees that hypothesis.
    """
    return Fraction(w3_0) + Fraction(n * a2_0, 2) + Fraction(n * lk * (lk - n), 4)


def _closed_a2_w3(f):
    """(a2, w3-or-None) for the unmirrored spec, or raise NoFormula."""
    p = dict(f.params)
    s = f.sign_variant
    a, b, c, d, e = (p.get(k) for k in "abcde")
    F = Fraction
    fam = f.family
    if fam == "pretzel":
        qs = f.param_values()
        if len(qs) != 3 or any(q % 2 == 0 for q in qs):
            raise NoFormula("closed forms cover only three-strand odd pretzels")
        x, y, z = ((q - 1) // 2 for q in qs)
        return a2_pretzel(x, y, z), w3_pretzel(x, y, z)
    if fam == "double_twist":
        x, y = p["x"], p["y"]
        return a2_dt(x, y), w3_dt(x, y)
    if fam == "o1":
        a2 = (c + 1) * (d + 1) * (e + 1) - c * d * e + b * (a + c + d + e + 2)
        w3 = (
            w3_pretzel(c, d, e)
            + F(b, 2) * ((c + 1) * (d + 1) * (e + 1) - c * d * e)
            + F(b, 4) * (a + c + d + e + 2) * (a + b + c + d + e + 2)
        )
        return a2, w3
    if fam == "o2":
        a2 = d * (c + e + 1) + b * (a + d + e + 1)
        w3 = F(
            d * (c + e + 1) * (c + d + e + 1)
            + 2 * b * d * (1 + c + e)
            + b * (a + d + e + 1) * (a + b + d + e + 1),
            4,
        )
        return a2, w3
    if fam == "o3":
        if s != 1:
            raise NoFormula("no closed form for the minus branch of o3")
        # only a2 here: the published w3 line for this family fails the
        # diagram-level cross-check (skein engine and Jones derivatives
        # agree against it), so w3 goes through the skein engine
        return a * b + b * c + c * a + a - b - c, None
    if fam == "o4":
        if s != 1:
            raise NoFormula("no closed form for the minus branch of o4")
        a2 = a + a * c + a * d + c * d + b * c + b * d
        w3 = F(
            c * d * (c + d)
            + a * a * (1 + c + d)
            + a * (c * c + 1 + 2 * d + d * d + 2 * c + 4 * c * d)
            + 2 * b * (a + a * c + a * d + c * d)
            + b * (c + d) * (b + c + d),
            4,
        )
        return a2, w3
    if fam == "o5":
        a2 = (a + 1) * (d + 1) * (e + 1) - a * d * e + c * (b + d + e + 1)
        w3 = F(
            a * a * (1 + d + e)
            + (1 + d) * (1 + e) * (2 + d + e)
            + a * (3 + 4 * d + d * d + 4 * e + e * e + 4 * d * e)
            + 2 * c * ((a + 1) * (d + 1) * (e + 1) - a * d * e)
            + c * (b + d + e + 1) * (b + c + d + e + 1),
            4,
        )
        return a2, w3
    if fam == "e1":
        a2 = b * c + d * e + a * c + a * e
        w3 = F(
            b * c * (b + c)
            + d * e * (d + e)
            + 2 * a * (b * c + d * e)
            + a * (c + e) * (a + c + e),
            4,
        )
        return a2, w3
    if fam == "e2":
        # bracket form [2],[−2,2a],[2,2b],[−2,2c]; the published −2b is for
        # the opposite sign of the third tangle's even entry
        return 2 * b, None
    if fam == "e3":
        return 2, None
    if fam == "fig1_left":
        fv = p["f"]
        a2 = (
            1
            + a * (1 + b + c)
            + d
            + d * e
            + b * (c - e - fv)
            + d * fv
            + e * fv
            - c * (e + fv)
        )
        w3 = F(
            2 * c
            + a * a * (1 + b + c)
            - d
            + 2 * c * d
            - d * d
            - 2 * e
            - c * c * e
            - 2 * d * e
            + 2 * c * d * e
            - d * d * e
            + c * e * e
            - d * e * e
            + b * b * (c - e - fv)
            - (2 + c * c + d * (2 + d) + 4 * d * e + e * e - 2 * c * (d + 2 * e)) * fv
            + (c - d - e) * fv * fv
            + a
            * (
                b * b
                + 4 * b * c
                + (1 + c) * (1 + c - 2 * e - 2 * fv)
                - 2 * b * (-1 + e + fv)
            )
            + b
            * (
                2
                + c * c
                + e * e
                + 4 * e * fv
                + fv * fv
                - 4 * c * (e + fv)
                + 2 * d * (1 + e + fv)
            ),
            4,
        )
        return a2, w3
    if fam == "fig1_right":
        fv = p["f"]
        a2 = (
            c * (1 - e - fv)
            + a * (1 + b + c - d - fv)
            + b * (1 + c - d - e)
            - 2 * (d + e + fv)
        )
        w3 = F(
            -2
            + c
            + c * c
            - 6 * d
            - 4 * c * d
            + 2 * d * d
            + a * a * (1 + b + c - d - fv)
            - 6 * fv * (1 + c)
            - c * c * fv
            + 2 * d * fv
            + fv * fv * (2 + c)
            + b * b * (1 + c - d - e)
            - c * e * (6 + c - 2 * fv)
            + 2 * e * (-3 + d + fv)
            + e * e * (2 + c)
            + a
            * (
                1
                + b * b
                + 4 * b * c
                + c * c
                - 6 * d
                - 6 * fv
                + (d + fv) ** 2
                - 4 * e
                - 2 * b * (-2 + 2 * d + e + fv)
                - 2 * c * (-2 + d + e + 2 * fv)
            )
            + b
            * (
                1
                + c * c
                - 6 * d
                - 6 * e
                - 4 * fv
                + (d + e) ** 2
                - 2 * c * (-2 + d + 2 * e + fv)
            ),
            4,
        )
        return a2, w3
    raise NoFormula(f"no published closed form for family {fam!r}")


def closed_form(f) -> InvariantReport:
    """InvariantReport from the family's published formula.

    Covers o1, o2, o3/o4 (plus branch), o5, e1, e2/e3 (a2 only), odd
    three-strand pretzels, double twists, and the two six-box families;
    everything else raises NoFormula.  A mirrored spec keeps a2 and negates
    w3 (even/odd order behavior under mirroring).
    """
    a2, w3 = _closed_a2_w3(f)
    if f.mirror and w3 is not None:
        w3 = -w3
    method = {"a2": "closed_form"}
    if w3 is not None:
        method["w3"] = "closed_form"
    return InvariantReport(a2=a2, w3=w3, method=method)


# =============================================================================
# skein engine
#
# The recursion runs on signed Gauss words.  A knot's word lists the
# passages met on a walk from a base point, each coded as
# crossing*4 + over*2 + positive; crossing ids are arbitrary labels.  Every
# move deletes passages and keeps the order of the rest, so a word keeps its
# base point: along a branch of the recursion the descending prefix of the
# walk only grows and the crossing count only falls, which ends it.  The
# memo key forgets the base point (recursing on the key's rotation instead
# would move it, and the walk would never end).

_A2_MEMO = {}
_W3_MEMO = {}
# above the ~21k entries each memo reaches over the formulas suite, so a
# full sweep loses no hit; a memo that reaches the cap starts over
_MEMO_CAP = 1 << 16


def _gauss_word(d):
    """Signed Gauss word of a knot diagram, walked from its least arc: each
    arc leads into the passage at its head."""
    word = []
    for a in d.components()[0] if d.n else ():
        ci, s = d.head_of(a)
        word.append(ci << 2 | (s != 0) << 1 | (d.sign(ci) > 0))
    return word


def _first_nondescending(w):
    """First passage that meets its crossing for the first time from below,
    or None when the word is descending, hence unknotted."""
    seen = set()
    for p in w:
        c = p >> 2
        if c not in seen:
            if not p & 2:
                return p
            seen.add(c)
    return None


def _switch(w, c):
    """Crossing change at c: both passages flip over/under and sign."""
    return [p ^ 3 if p >> 2 == c else p for p in w]


def _split(w, c):
    """(lk, word, word) of the oriented smoothing at c.

    The two components are the stretches of the walk between c's passages,
    each without the crossings the two share; lk is half the signed count
    of those shared crossings.
    """
    i, j = (k for k, p in enumerate(w) if p >> 2 == c)
    inner, outer = w[i + 1:j], w[j + 1:] + w[:i]
    shared = {p >> 2 for p in inner} & {p >> 2 for p in outer}
    total = sum(1 if p & 1 else -1 for p in inner if p >> 2 in shared)
    if total % 2:
        raise InconsistentDiagram(f"odd inter-component crossing sum {total}",
                                  stage="skein: oriented smoothing")
    return (total // 2,
            [p for p in inner if p >> 2 not in shared],
            [p for p in outer if p >> 2 not in shared])


def _cancelling(w):
    """Crossings that one Reidemeister move removes, or () when none does.

    R1: a crossing whose passages are cyclically adjacent (a kink).  R2: two
    crossings adjacent on both strands, with one strand over at both and
    opposite signs (a clasp that slides apart).  Two segments of a connected
    diagram that no other strand crosses bound a disc, so both moves are
    sound on words of classical knot diagrams.
    """
    seen = set()
    prev = w[-1]
    for p in w:
        a, b = prev >> 2, p >> 2
        if a == b:
            return (a,)
        # the same over bit and opposite signs; a second such adjacency of
        # the pair uses the other two passages, since an a-b-a stretch
        # would put a's over and under passage beside one passage of b
        if (prev ^ p) & 3 == 1:
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                return pair
            seen.add(pair)
        prev = p
    return ()


def _simplify(w):
    """Delete kinks and cancelling clasps until none is left."""
    while w:
        gone = _cancelling(w)
        if not gone:
            break
        w = [p for p in w if p >> 2 not in gone]
    return w


def _key(w):
    """The least crossing-relabelled rotation of the word, as bytes.

    Crossings are renumbered in order of first appearance.  Equal keys hold
    for exactly the words that differ by rotation and relabelling.

    A least rotation opens with crossing 0 from below, so only rotations
    that start at an under-passage compete; they are narrowed one position
    at a time, and only the winner is relabelled.  Where two rotations
    agree so far, their entries at the next position compare like this: a
    crossing seen before in the rotation sorts below a new one, one first
    seen further back (so numbered lower) below one seen more recently, and
    then the over and sign bits decide.  How far back a passage's partner
    lies is a property of the word position, not of the rotation's start.
    """
    m = len(w)
    back = [0] * m  # cyclic distance back to the other passage
    first = {}
    for i, p in enumerate(w):
        j = first.setdefault(p >> 2, i)
        if j != i:
            back[i], back[j] = i - j, m - i + j
    w2, back2 = w + w, back + back
    cands = [s for s, p in enumerate(w) if not p & 2]
    for k in range(m):
        if len(cands) < 2:
            break
        least, keep = None, []
        for s in cands:
            d = back2[s + k]
            v = (m - d if d <= k else m) << 2 | w2[s + k] & 3
            if least is None or v < least:
                least, keep = v, [s]
            elif v == least:
                keep.append(s)
        cands = keep
    labels = {}
    row = [labels.setdefault(q >> 2, len(labels)) << 2 | q & 3
           for q in w2[cands[0]:cands[0] + m]] if m else []
    return array("H" if m < 0x8000 else "L", row).tobytes()


def _remember(memo, key, val):
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = val
    return val


def _a2(w):
    key = _key(w)
    val = _A2_MEMO.get(key)
    if val is not None:
        return val
    p = _first_nondescending(w)
    if p is None:
        return _remember(_A2_MEMO, key, 0)
    lk, _, _ = _split(w, p >> 2)
    return _remember(_A2_MEMO, key,
                     _a2(_simplify(_switch(w, p >> 2))) + (lk if p & 1 else -lk))


def _w3(w):
    key = _key(w)
    val = _W3_MEMO.get(key)
    if val is not None:
        return val
    p = _first_nondescending(w)
    if p is None:
        return _remember(_W3_MEMO, key, Fraction(0))
    sw = _simplify(_switch(w, p >> 2))
    lk, inner, outer = _split(w, p >> 2)
    a2_here, a2_there = _a2(w), _a2(sw)
    a2_pos, a2_neg = (a2_here, a2_there) if p & 1 else (a2_there, a2_here)
    delta = Fraction(_a2(_simplify(inner)) + _a2(_simplify(outer)), 2) - Fraction(
        a2_pos + a2_neg + lk * lk, 4
    )
    return _remember(_W3_MEMO, key, _w3(sw) + (delta if p & 1 else -delta))


def _check_input(d):
    if d.component_count() != 1:
        raise InvalidInput(f"skein engine needs a knot, got {d.component_count()} components")
    budget = crossing_budget(DEFAULT_SKEIN_BUDGET)
    if d.n > budget:
        raise BudgetExceeded(f"{d.n} crossings exceeds the skein budget {budget}")


def skein_a2(d: PlanarDiagram) -> int:
    """a2 of a knot diagram by crossing-change recursion."""
    _check_input(d)
    return _a2(_simplify(_gauss_word(d)))


def skein_w3(d: PlanarDiagram) -> Fraction:
    """w3 of a knot diagram by crossing-change recursion."""
    _check_input(d)
    return _w3(_simplify(_gauss_word(d)))
