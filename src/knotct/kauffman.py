"""Kauffman-bracket state sum -> Jones polynomial V(t), and a2, w3 from it.

Twist regions are contracted one at a time into a frontier of open arcs
(Bar-Natan's tangle-by-tangle contraction, restricted to the bracket, with
Kauffman's twist recurrence for the two weighted pairings of each
region).  The contraction is split in two.  `_plan` runs it on partner-index
states alone, once per wiring of the regions (the chain-end adjacency that
`_chain_ends` packs), and keeps which state each state goes to under each
pairing and how many loops that closes.  The numeric pass walks the plan
with the diagram's own region weights, each state's value one packed
Laurent polynomial in x = A^2.  This is the first of the two pipelines of
`knotct.oracle`, which re-exports the public names.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache

from .budget import crossing_budget
from .diagram.core import PlanarDiagram
from .errors import BudgetExceeded, InconsistentDiagram, NonIntegralA2, NotAKnot
from .exactmath import LaurentPoly, laurent_derivative_at_one

__all__ = ["jones_via_kauffman", "a2_w3_from_jones", "DEFAULT_JONES_BUDGET"]

DEFAULT_JONES_BUDGET = 26

# stage named by the internal consistency checks (InconsistentDiagram.stage)
_KAUFFMAN = "oracle: Kauffman bracket"

# The two pairings of a twist chain's four ends, listed as the slots of its first
# crossing's left corner, then those of its last crossing's right corner:
# `e` joins the two ends on each side, `1` runs each end through the chain
# to the far side.
_E_JOIN = (1, 0, 3, 2)
_ONE_JOIN = (3, 2, 1, 0)

# The formulas suite (AC1) wires the regions of its 32,059 diagrams and of
# their mirrors in 525 ways, whose plans retain about 150 KB; 1,024 plans of
# Montesinos knots of up to 26 crossings retain about 0.6 MB.  The regions
# weigh in 183 ways, (p, q, bits) below; 512 weights of chains of up to 11
# crossings retain about 0.2 MB.
_PLAN_MEMO_SIZE = 1 << 10
_WEIGHT_MEMO_SIZE = 1 << 9


@lru_cache(maxsize=_WEIGHT_MEMO_SIZE)
def _region_weights(p, q, bits):
    """(shift, e, one) of a twist chain of p crossings with an even left
    corner and q with an odd one, in any order along the chain:
    `e[l]` and `one[l]` are the weights of the chain's two pairings times
    delta^l, for the l = 0, 1, 2 loops a pairing closes, each a polynomial
    in x = A^2 packed as `jones_via_kauffman` packs a value, `shift` bits
    higher, so that a value times a weight is shifted right by `shift`.

    The smoothing of a crossing that joins the slots of its left corner is
    its e: X = A^-1 * 1 + A * e for an even corner and X = A * 1 + A^-1 * e
    for an odd one.  Along the chain 1 and e commute and e^k = delta^(k-1) e,
    so A^(p+q) X_1 ... X_(p+q) = x^q * 1 + E * e, with
    E = sum C(p, i) C(q, j) x^(i + q - j) delta^(i + j - 1) over
    (i, j) != (0, 0): choosing e at i and j crossings of the two kinds.
    As 1 + x delta = -x^2 and 1 + delta / x = -x^-2, delta E + x^q =
    x^q (1 + x delta)^p (1 + delta / x)^q = x^q (-x^2)^(p-q), so E is
    x^(q+1) ((-x^2)^m - 1) / (-x^2 - 1) with m = p - q: the sum of
    (-1)^t x^(q+1+2t) over t from 0 to m - 1, or minus that sum over t
    from m to -1 when m < 0 (Kauffman's twist recurrence, Topology 26, 1987).
    """
    m = p - q
    lowest = q + min(0, 2 * m + 1)  # least exponent of x^q and of E
    shift = max(0, 2 - lowest)  # delta^2 takes both two lower
    e = 0
    for t in range(min(m, 0), max(m, 0)):
        e += (-1 if t % 2 else 1) << (q + 1 + 2 * t + shift) * bits
    e = [-e if m < 0 else e]
    one = [1 << (q + shift) * bits]
    for w in (e, one):
        for _ in range(2):  # times delta = -(x + 1/x), exact: digits 0 and 1 are 0
            w.append(-(w[-1] << bits) - (w[-1] >> bits))
    return shift * bits, tuple(e), tuple(one)


def _chain_ends(rows, chains):
    """The wiring key of the chains of a diagram with crossing rows `rows`:
    entry 4r + e is the end 4r' + e' at the other end of the arc at end e of
    chain r, packed as the bytes of an unsigned array."""
    far = array("I", [0]) * (4 * len(chains))
    at = {}  # arc -> the end met first on it
    for r, chain in enumerate(chains):
        (c1, left), (ck, last) = chain[0], chain[-1]
        row1, rowk = rows[c1], rows[ck]
        ends = (row1[left], row1[(left + 1) % 4], rowk[(last + 2) % 4], rowk[(last + 3) % 4])
        for e, a in enumerate(ends, 4 * r):
            other = at.pop(a, None)
            if other is None:
                at[a] = e
            else:
                far[e], far[other] = other, e
    return far.tobytes()


def _chain_order(far):
    """Greedy processing order of the chains: chain 0 first, then always the
    chain left with the greatest key (count of its ends whose arc ends at a
    processed chain or at itself, stamp of the last raise of that count).
    `far[4r + e]` is the end 4r' + e' at the other end of the arc at end e
    of chain r.  A raise takes the next stamp up and chain r starts at -r,
    so among equal counts the latest raise goes first, then the least index."""
    m = len(far) // 4
    key = [(sum(x >> 2 == r for x in far[4 * r:4 * r + 4]), -r) for r in range(m)]
    left, order, stamp = list(range(1, m)), [0], 0
    while left:
        last = order[-1]
        for x in far[4 * last:4 * last + 4]:
            stamp += 1
            key[x >> 2] = (key[x >> 2][0] + 1, stamp)
        r = max(left, key=key.__getitem__)
        left.remove(r)
        order.append(r)
    return order


def _trace(outside, join):
    """(loops, frontier pairs) of one pairing of a chain's four ends.

    `outside[s]` is where end s leads away from the chain: a frontier index
    (>= 0), or another end t of the same chain encoded as -1 - t; `join[s]`
    is the end the pairing joins s to.
    """
    seen = [False] * 4
    pairs = []
    for s in range(4):
        if seen[s] or outside[s] < 0:
            continue
        t = join[s]
        seen[s] = seen[t] = True
        while outside[t] < 0:
            u = -1 - outside[t]
            t = join[u]
            seen[u] = seen[t] = True
        pairs.append((outside[s], outside[t]))
    loops = 0
    for s in range(4):
        if seen[s]:
            continue
        loops += 1
        t = s
        while not seen[t]:
            u = join[t]
            seen[t] = seen[u] = True
            t = -1 - outside[u]
    return loops, pairs


@lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan(key):
    """The contraction of the chains wired as `key` (from `_chain_ends`)
    on partner-index states, as (typecode, the bytes of one flat unsigned
    array of that typecode), immutable as the memo shares it: per chain in
    processing order, the chain's index and its count of states after it,
    then per state before it, in the order they were first reached, the
    state that its `e` pairing leads to, the loops that closes, and the
    same for its `1` pairing.  The states after the last chain must be the
    one empty state.

    The frontier is the ordered list of open arcs (one end at a processed
    chain); a state is the tuple of partner indices into that list, i.e.
    the planar pairing of the open arcs by the smoothed strands behind
    them.  Each chain closes the frontier arcs that end at it, meets its
    own other ends and opens new arcs, with an old-to-new index remap.
    """
    far = array("I", key)
    frontier = []  # the processed end behind each open arc
    states = [()]
    flat = []
    for r in _chain_order(far):
        remap = [None] * len(frontier)  # kept: new index; closed by end e: -1 - e
        template = [0] * 4  # outside[e] for ends that meet the chain or open an arc
        closing, opening = [], []  # (end, old index) and ends
        for e in range(4):
            other = far[4 * r + e]
            if other >> 2 == r:
                template[e] = -1 - (other & 3)
            elif other in frontier:
                i = frontier.index(other)
                closing.append((e, i))
                remap[i] = -1 - e
            else:
                opening.append(e)
        kept = [i for i, x in enumerate(remap) if x is None]
        for k, i in enumerate(kept):
            remap[i] = k
        for k, e in enumerate(opening):
            template[e] = len(kept) + k
        frontier = [frontier[i] for i in kept] + [4 * r + e for e in opening]
        fresh = [0] * len(opening)

        index = {}  # state after the chain -> its index
        at = len(flat) + 1
        flat += (r, 0)
        for state in states:
            outside = list(template)
            for e, i in closing:
                outside[e] = remap[state[i]]
            nxt = [remap[state[i]] for i in kept] + fresh
            # both pairings pair up the same frontier indices, so each
            # overwrites every entry the other one wrote
            for join in (_E_JOIN, _ONE_JOIN):
                loops, pairs = _trace(outside, join)
                if loops > 2:
                    raise InconsistentDiagram(f"a pairing of four ends closed {loops} loops",
                                              _KAUFFMAN)
                for x, y in pairs:
                    nxt[x] = y
                    nxt[y] = x
                flat += (index.setdefault(tuple(nxt), len(index)), loops)
        flat[at] = len(index)
        states = list(index)

    if states != [()]:
        raise InconsistentDiagram(
            f"{len(states[0]) // 2} open frontier pairs after the last crossing", _KAUFFMAN)
    code = "H" if max(flat) >> 16 == 0 else "I"
    return code, array(code, flat).tobytes()


def jones_via_kauffman(d: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial V(t) of a knot diagram via the Kauffman bracket.

    The bracket is summed one twist region at a time
    (`PlanarDiagram.twist_regions`): a region is a chain of crossings, a
    4-ended tangle whose bracket is a weighted sum of its two end pairings,
    so each step takes in a whole region, and a lone crossing is a chain of
    one.  `_plan` gives the steps for the way the regions are wired, and
    this pass walks them with the regions' weights (`_region_weights`).

    A state's value is x^a * delta^l summed over the smoothings behind it,
    with a its A-smoothings and l its closed loops, so the bracket is
    A^-n * value / delta once every region is in.  A value is kept as one
    int: the coefficient of x^k is the signed digit at position k + n + 2
    in base 2^(2n + 4).  A smoothing closes at most n + 1 loops, n while
    arcs are open, so every exponent is at least -n - 1 and each value is a
    multiple of the base: shifting right by a digit divides exactly.  A
    coefficient is at most 2^n * 2^(n + 1) < 2^(2n + 3) in absolute value,
    so the digits read back as signed residues.  The last loop is divided
    out by -(1 + x^2) = x * delta, and a nonzero remainder is an
    inconsistency.  V(t) = (-A^3)^-writhe * bracket at A = t^(-1/4).
    """
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    budget = crossing_budget(DEFAULT_JONES_BUDGET)
    n = d.n
    if n > budget:
        raise BudgetExceeded(f"{n} crossings exceeds Jones budget {budget}")
    if n == 0:
        return LaurentPoly.one()

    chains = d.twist_regions()
    bits = 2 * n + 4
    vals = [1 << (n + 2) * bits]
    code, plan = _plan(_chain_ends(d.crossings, chains))
    steps = iter(memoryview(plan).cast(code))
    # each step reads its chain and state count, then zip takes exactly
    # four entries of `steps` per value
    for r in steps:
        new = [0] * next(steps)
        chain = chains[r]
        q = sum(left & 1 for _, left in chain)
        shift, e, one = _region_weights(len(chain) - q, q, bits)
        for val, x, lx, y, ly in zip(vals, steps, steps, steps, steps):
            new[x] += val * e[lx]
            new[y] += val * one[ly]
        vals = [v >> shift for v in new]

    acc, rest = divmod(-vals[0], 1 + (1 << 2 * bits))
    if rest or not acc:
        raise InconsistentDiagram("the state sum is not a nonzero multiple of the loop value",
                                  _KAUFFMAN)
    writhe = d.writhe()
    sign = -1 if writhe % 2 else 1
    mask = (1 << bits) - 1
    half = 1 << bits - 1
    skip = ((acc & -acc).bit_length() - 1) // bits  # the zero digits at the bottom
    acc >>= skip * bits
    e = 2 * skip - 3 * n - 2 - 3 * writhe  # A-exponent of the digit at the bottom
    coeffs = {}
    while acc:
        c = acc & mask
        acc >>= bits
        if c:
            if c >= half:  # a negative digit borrowed one from the next
                c -= mask + 1
                acc += 1
            if e % 4:
                raise InconsistentDiagram(f"bracket exponent {e} not divisible by 4", _KAUFFMAN)
            coeffs[-e // 4] = sign * c
        e += 2
    return LaurentPoly(coeffs)


def a2_w3_from_jones(v: LaurentPoly):
    """(a2, w3) from V''(1) = -6 a2 and w3 = V'''(1)/72 + V''(1)/24."""
    d2 = laurent_derivative_at_one(v, 2)
    d3 = laurent_derivative_at_one(v, 3)
    a2, rest = divmod(-d2, 6)
    if rest:
        raise NonIntegralA2(f"-V''(1)/6 = {Fraction(-d2, 6)} is not an integer")
    return a2, Fraction(d3 + 3 * d2, 72)
