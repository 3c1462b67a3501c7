"""Order-two and order-three knot invariants.

Two routes to a2 (the Conway z^2 coefficient) and w3 (the primitive
order-three invariant, quarter-integer valued):

* closed forms per named family — for every sign branch of the eleven
  genus-two Montesinos families, the odd three-strand pretzels, the double
  twist knots, and the two six-box genus-two families, each giving both a2
  and w3, mostly as a small base knot plus twist bands (`_band`);
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

No command runs the skein engine: `obstruct`, `invariants` and the verify
suites read a diagram's a2 and w3 from `knotct.gauss`, which counts
sub-diagrams of the same word with no recursion, memo or budget.  The
engine is the test suite's independent reference for those counts.
`knotct.diagram.core` owns the Gauss word and its reduction by
Reidemeister I/II moves (`_reduce_word`), and both counts and
`PlanarDiagram.simplify` read a diagram's word reduced once (`_reduced_word`).

`diagram_genus` is the genus that `obstruct` and the CLI's report read off
the diagram of a spec without tangle pairs.
"""

from __future__ import annotations

import functools
from array import array
from fractions import Fraction

from .budget import crossing_budget
from .diagram.core import PlanarDiagram, _reduce_word, _reduced_word
from .errors import BudgetExceeded, InconsistentDiagram, InvalidInput, NoFormula, NotAKnot
from .records import Record

__all__ = [
    "InvariantReport",
    "closed_form",
    "closed_a2_w3",
    "diagram_genus",
    "skein_a2",
    "skein_w3",
    "DEFAULT_SKEIN_BUDGET",
]

DEFAULT_SKEIN_BUDGET = 24


# =============================================================================
# report


class InvariantReport(Record):
    """Invariant values plus per-field provenance.

    `method` is a tuple of (field, route) pairs sorted by field name, each
    route one of {"closed_form", "gauss_diagram", "oracle"}; a tuple is
    kept as given, and any other mapping (or None) becomes its sorted
    items, so reports compare and hash alike whatever order the routes
    were found in.  Any field may be None when no route produced it (a
    verdict that fires early stops computing); `sigma`, `tau`, `genus` are
    filled by callers that compute them.
    """

    __slots__ = ("a2", "w3", "sigma", "tau", "genus", "method")

    def __init__(self, a2=None, w3=None, sigma=None, tau=None, genus=None, method=()):
        if w3 is not None and 4 % w3.denominator != 0:
            raise InvalidInput(f"w3 denominator {w3.denominator} does not divide 4")
        if not isinstance(method, tuple):
            method = tuple(sorted(dict(method or ()).items()))
        set_a2, set_w3, set_sigma, set_tau, set_genus, set_method = type(self)._setters
        set_a2(self, a2)
        set_w3(self, w3)
        set_sigma(self, sigma)
        set_tau(self, tau)
        set_genus(self, genus)
        set_method(self, method)

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


def _band(a2, w3x4, k, lk):
    """(a2, 4*w3) after k more full twists of a band (`_closed_a2_w3x4`)."""
    return a2 + k * lk, w3x4 + 2 * k * a2 + k * lk * (lk + k)


def _odd_pretzel(x, y, z):
    """(a2, 4*w3) of P(2x+1,2y+1,2z+1): the trefoil plus bands z, y, x."""
    a2, w = _band(1, 2, z, 1)
    a2, w = _band(a2, w, y, 1 + z)
    return _band(a2, w, x, 1 + y + z)


def _o2_a2_w3x4(a, b, c, d, e):
    """(a2, 4*w3) of o2, the unknot plus bands d and b; `sweeps` reads it too."""
    a2, w = _band(0, 0, d, c + e + 1)
    return _band(a2, w, b, a + d + e + 1)


def _closed_a2_w3x4(f):
    """(a2, 4*w3) for the unmirrored spec, both ints, or raise NoFormula.

    Every branch but e2 and e3 is a base knot plus twist bands: parameters
    k counting full twists of two antiparallel strands.  `_band` adds k:
    a2 += k*lk and 4*w3 += 2*k*a2 + k*lk*(lk + k) (the twist sequences of
    Trapp, JKTR 3, 1994).  Switching a crossing of the (k+1)-th twist and
    cancelling its clasp leaves k twists, and the oriented smoothing
    K' u K'' there is the same for every k (the band's other crossings
    become kinks).  A larger k adds negative crossings in every band below,
    so by the crossing-change formulas above a2 grows by lk = -lk(K', K'')
    per twist and 4*w3 by 2*a2 + lk*(lk + 1) - 2*(a2(K') + a2(K'')): the
    rule holds when a2(K') + a2(K'') = 0.

    Bands: x, y, z of the odd pretzel; x of the double twist; b of o1; c of
    o5; d, b of o2; c, b of o3; d, c, b of o4; c, b of fig1_left; c, b, a
    of fig1_right; a of e1, whose base DT(2b,2c) # DT(2d,2e) has bands b
    and d in its summands (not in e1: the smoothing keeps the other
    summand).  Each base is its branch's polynomial with the bands at 0, as
    `tools/closed_forms.py` interpolates it from the Gauss diagram formulas;
    that tool also derived o1', o3, o3', o4, o4' and w3 of e2 and e3.
    """
    fam, s = f.family, f.sign_variant
    v = [x for _, x in f.params]  # the values in the family's parameter order
    # branches whose knots are another branch's: o1'(s) is o1 with e =
    # (s - 1)/2, whose tangle 1/(2e + 1) is then the half twist s, and
    # o3'(s), o4'(s), which have no a, are o3, o4 with a = s and sign -s
    if fam == "o1p":
        fam, v = "o1", v + [(s - 1) // 2]
    elif fam in ("o3p", "o4p"):
        fam, v, s = fam[:2], [s] + v, -s
    if fam == "double_twist":
        x, y = v
        return _band(0, 0, x, y)
    if fam == "o1":
        a, b, c, d, e = v
        a2, w = _odd_pretzel(c, d, e)
        return _band(a2, w, b, a + c + d + e + 2)
    if fam == "o2":
        return _o2_a2_w3x4(*v)
    # the minus branch of o3 and o4 is the mirror image of the plus branch
    # at a -> -a and every other parameter x -> -x - 1, so its w3 is negated
    if fam == "o3":
        a, b, c = v
        if s == -1:
            a, b, c = -a, -b - 1, -c - 1
        a2, w = _band(a, a * a - a, c, a - 1)
        a2, w = _band(a2, w, b, a + c - 1)
        return a2, s * w
    if fam == "o4":
        a, b, c, d = v
        if s == -1:
            a, b, c, d = -a, -b - 1, -c - 1, -d - 1
        a2, w = _band(a, a * a + a, d, a)
        a2, w = _band(a2, w, c, a + d)
        a2, w = _band(a2, w, b, c + d)
        return a2, s * w
    if fam == "o5":
        a, b, c, d, e = v
        a2, w = _odd_pretzel(a, d, e)
        return _band(a2, w, c, b + d + e + 1)
    if fam == "e1":
        a, b, c, d, e = v
        # DT(2b,2c) # DT(2d,2e), whose a2 and w3 add, plus band a
        a2, w = _band(0, 0, b, c)
        a2_de, w_de = _band(0, 0, d, e)
        return _band(a2 + a2_de, w + w_de, a, c + e)
    if fam == "e2":
        a, b, c = v
        # bracket form [2],[−2,2a],[2,2b],[−2,2c]; the published −2b is for
        # the opposite sign of the third tangle's even entry; w3 derived
        return 2 * b, 2 * b * (a + b + c + 2) + 2 * a * c
    if fam == "e3":
        (a,) = v
        return 2, 4 * (a - 1)  # w3 derived
    if fam == "fig1_left":
        a, b, c, d, e, fv = v
        u = e + fv
        a2 = 1 + a + d * (1 + u) + e * fv
        w = (a * a + a * (1 - 2 * u) - (d + 1) * (d + 2 * u)
             - (d + u) * (d * u + e * fv) - d * e * fv)
        a2, w = _band(a2, w, c, a - u)
        return _band(a2, w, b, a + c - u)
    if fam == "fig1_right":
        a, b, c, d, e, fv = v
        t = d + e + fv
        a2, w = -2 * t, 2 * (t * t - d * e - d * fv - e * fv) - 6 * t - 2
        a2, w = _band(a2, w, c, 1 - e - fv)
        a2, w = _band(a2, w, b, c - d - e + 1)
        return _band(a2, w, a, b + c - d - fv + 1)
    # a pretzel, the one family left
    if len(v) != 3 or any(q % 2 == 0 for q in v):
        raise NoFormula("closed forms cover only three-strand odd pretzels")
    return _odd_pretzel(*[(q - 1) // 2 for q in v])


_CLOSED_METHOD = (("a2", "closed_form"), ("w3", "closed_form"))


def closed_form(f) -> InvariantReport:
    """InvariantReport of a2 and w3 from the family's closed form.

    Covers every branch of the eleven genus-two families, odd three-strand
    pretzels, double twists, and the two six-box families; any other
    pretzel raises NoFormula.  A mirrored spec keeps a2 and negates w3
    (even/odd order behavior under mirroring).
    """
    a2, w3 = closed_a2_w3(f)
    return InvariantReport(a2=a2, w3=w3, method=_CLOSED_METHOD)


def closed_a2_w3(f):
    """(a2, w3) of `closed_form`, without its report: the one place that
    applies the mirror (a2 kept, w3 negated).  Raises NoFormula as it does."""
    a2, w3x4 = _closed_a2_w3x4(f)
    return a2, _quarter(-w3x4 if f.mirror else w3x4)


# a bound-4 sweep of the families meets 1,108 distinct values of 4*w3
_QUARTER_MEMO_SIZE = 1 << 12


@functools.lru_cache(maxsize=_QUARTER_MEMO_SIZE)
def _quarter(n):
    """Fraction(n, 4), one immutable object per value shared by every
    report that holds it."""
    return Fraction(n, 4)


# =============================================================================
# genus of a diagram


def diagram_genus(d, sd=None):
    """(genus, route) of a spec without tangle pairs (a six-box template or
    an all-integer pretzel), read off one of its diagrams: 0 by closed form
    with no crossings, the oracle's alternating genus on a reduced
    alternating diagram, else (None, None).  `sd` is d's SeifertData when
    the caller has built it already; otherwise the surface is built here."""
    if d.n == 0:
        return 0, "closed_form"
    if d.is_alternating() and d.is_reduced():
        # imported here, so a query that never builds a Seifert surface does
        # not load the oracle
        from .oracle import alternating_genus, seifert_pipeline

        return alternating_genus(d, seifert_pipeline(d) if sd is None else sd), "oracle"
    return None, None


# =============================================================================
# skein engine
#
# The recursion runs on signed Gauss words (`diagram.core._gauss_word`).  A
# knot's word lists the passages met on a walk from a base point, each coded
# as crossing*4 + over*2 + positive; crossing ids are arbitrary labels.  Every
# move deletes passages and keeps the order of the rest, so a word keeps its
# base point: along a branch of the recursion the descending prefix of the
# walk only grows and the crossing count only falls, which ends it.  The
# memo key forgets the base point (recursing on the key's rotation instead
# would move it, and the walk would never end).  `_word_key`, an LRU of the
# last `_WORD_MEMO_SIZE` exact words, keys each word once: `_w3` re-keys the
# words `_a2` has just keyed, and neighbouring specs share sub-words, so
# most requests repeat a recent word (81% on a formulas benchmark run) and a
# small bound loses few of them.

_A2_MEMO = {}
_W3_MEMO = {}
# above the ~21k entries each memo reaches over the formulas suite, so a
# full sweep loses no hit; a memo that reaches the cap starts over
_MEMO_CAP = 1 << 16
_WORD_MEMO_SIZE = 1 << 10


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


@functools.lru_cache(maxsize=_WORD_MEMO_SIZE)
def _word_key(w):
    """`_key` of a word given as a tuple.  Repeats come close together: on
    every third spec of the formulas suite (10,654 diagrams) the recursion
    asks for 99,946 keys of 20,019 distinct words, and 1,024 words (about
    0.6 MB at 22 crossings) compute 20,190 keys, 256 words 20,330."""
    return _key(w)


def _remember(memo, key, val):
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = val
    return val


def _a2(w):
    key = _word_key(tuple(w))
    val = _A2_MEMO.get(key)
    if val is not None:
        return val
    p = _first_nondescending(w)
    if p is None:
        return _remember(_A2_MEMO, key, 0)
    lk, _, _ = _split(w, p >> 2)
    return _remember(_A2_MEMO, key,
                     _a2(_reduce_word(_switch(w, p >> 2))) + (lk if p & 1 else -lk))


def _w3(w):
    key = _word_key(tuple(w))
    val = _W3_MEMO.get(key)
    if val is not None:
        return val
    p = _first_nondescending(w)
    if p is None:
        return _remember(_W3_MEMO, key, Fraction(0))
    sw = _reduce_word(_switch(w, p >> 2))
    lk, inner, outer = _split(w, p >> 2)
    a2_here, a2_there = _a2(w), _a2(sw)
    a2_pos, a2_neg = (a2_here, a2_there) if p & 1 else (a2_there, a2_here)
    delta = Fraction(_a2(_reduce_word(inner)) + _a2(_reduce_word(outer)), 2) - Fraction(
        a2_pos + a2_neg + lk * lk, 4
    )
    return _remember(_W3_MEMO, key, _w3(sw) + (delta if p & 1 else -delta))


def _knot_word(d):
    """The simplified signed Gauss word of a knot diagram within the skein
    budget: the diagram's one reduced word (`_reduced_word`)."""
    if d.component_count() != 1:
        raise NotAKnot(f"skein engine needs a knot, got {d.component_count()} components")
    budget = crossing_budget(DEFAULT_SKEIN_BUDGET)
    if d.n > budget:
        raise BudgetExceeded(f"{d.n} crossings exceeds the skein budget {budget}")
    return _reduced_word(d)


def skein_a2(d: PlanarDiagram) -> int:
    """a2 of a knot diagram by crossing-change recursion."""
    return _a2(_knot_word(d))


def skein_w3(d: PlanarDiagram) -> Fraction:
    """w3 of a knot diagram by crossing-change recursion."""
    return _w3(_knot_word(d))
