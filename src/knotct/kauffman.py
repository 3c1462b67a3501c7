"""Kauffman-bracket state sum -> Jones polynomial V(t), and a2, w3 from it.

Twist regions are contracted one at a time into a frontier of open arcs
(Bar-Natan's tangle-by-tangle contraction, restricted to the bracket, with
Kauffman's twist recurrence for the two weighted pairings of each
region).  A state is the tuple of partner indices pairing the frontier arcs;
its value counts states by (closed loops, A-smoothings), packed into one
int, and the bracket is assembled once at the end by Horner in the loop
value.  This is the first of the two pipelines of `knotct.oracle`, which
re-exports the public names.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

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


def _chain_weights(chain, stride):
    """The bracket X_1 ... X_k = a*1 + b*e of a twist chain, as the key of
    a's single state and b's (key, state count) pairs; a key packs
    loops * stride + the number of A-smoothings.

    The smoothing of a crossing that joins the slots of its left corner is
    its e: the A-smoothing when that corner is even, so X = A^-1 * 1 + A * e,
    and the B-smoothing otherwise, X = A * 1 + A^-1 * e.  Along the chain
    1 and e commute and e^m = delta^(m-1) * e, with delta kept as one more
    closed loop, so every count is a number of states.  With p crossings of
    the first kind and q of the second, choosing e at i and j of them gives
    C(p, i) * C(q, j) states with i + j - 1 loops and i + q - j
    A-smoothings.  For k like crossings, b_k = sum_i C(k, i) A^(2i - k)
    delta^(i - 1) solves b_(k+1) = A^(1-k) + (A^-1 + A * delta) b_k, which
    is A^(1-k) - A^3 b_k once delta = -A^2 - A^-2 is put in (Kauffman,
    Topology 26, 1987).
    """
    q = sum(left % 2 for _, left in chain)
    p = len(chain) - q
    return q, [((i + j - 1) * stride + i + q - j, comb(p, i) * comb(q, j))
               for i in range(p + 1) for j in range(q + 1) if i or j]


def _chain_ends(rows, chains):
    """(arcs, far) of the chains of a diagram with crossing rows `rows`:
    `arcs[r][e]` is the arc at end e of chain r, and `far[r][e]` the
    (chain, end) at that arc's other end."""
    arcs = []
    at = {}  # arc -> the (chain, end)s it meets
    for r, chain in enumerate(chains):
        (c1, left), (ck, last) = chain[0], chain[-1]
        row1, rowk = rows[c1], rows[ck]
        ends = (row1[left], row1[(left + 1) % 4], rowk[(last + 2) % 4], rowk[(last + 3) % 4])
        arcs.append(ends)
        for e, a in enumerate(ends):
            at.setdefault(a, []).append((r, e))
    far = []
    for r, ends in enumerate(arcs):
        far.append([])
        for e, a in enumerate(ends):
            x, y = at[a]
            far[r].append(y if x == (r, e) else x)
    return arcs, far


def _chain_order(far):
    """Greedy processing order of the chains: chain 0 first, then always a
    chain with the most ends whose arc ends at a processed chain or at
    itself.  `far[r][e]` is the (chain, end) at the other end of end e's
    arc.  The candidates sit in a bucket queue, one stack per count of such
    ends (0 to 4), so among equals the chain whose count rose last goes
    first, then the least index; an entry left behind by a raised count is
    stale and skipped."""
    count = [sum(r2 == r for r2, _ in ends) for r, ends in enumerate(far)]
    buckets = [[] for _ in range(5)]
    for r in range(len(far) - 1, 0, -1):
        buckets[count[r]].append(r)
    done = [True] + [False] * (len(far) - 1)
    order = [0]
    while len(order) < len(far):
        for r2, _ in far[order[-1]]:
            if not done[r2]:
                count[r2] += 1
                buckets[count[r2]].append(r2)
        k = 4
        while True:
            while not buckets[k]:
                k -= 1
            r = buckets[k].pop()
            if not done[r] and count[r] == k:
                break
        done[r] = True
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


def jones_via_kauffman(d: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial V(t) of a knot diagram via the Kauffman bracket.

    The bracket is summed one twist region at a time
    (`PlanarDiagram.twist_regions`): a region is a chain of crossings, a
    4-ended tangle whose bracket is a weighted sum of its two end pairings,
    so each step takes in a whole region, and a lone crossing is a chain of
    one.  The frontier is the ordered list of open arcs (one end at a
    processed chain); a state is the tuple of partner indices into that
    list, i.e. the planar pairing of the open arcs by the smoothed strands
    behind them.  Each chain gets one plan: which ends close a frontier arc,
    which meet another end of the chain and which open a new arc, with the
    old-to-new index remap.

    A state's value counts its smoothings by key loops * (n + 1) +
    A-smoothings, packed into one int with `bits` = 2n + 2 bits per key
    (Kronecker substitution): a count is at most 2^n and never negative, so
    shifting and adding the ints adds the counts key by key without carries.
    `_jones_from_counts` turns the last state's counts into V(t).
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
    arcs, far = _chain_ends(d.crossings, chains)
    stride, bits = n + 1, 2 * n + 2
    block = stride * bits  # a shift by `block` closes one more loop
    frontier = []  # open arcs
    done = [False] * len(chains)
    states = {(): 1}
    for r in _chain_order(far):
        remap = [None] * len(frontier)  # kept: new index; closed by end e: -1 - e
        template = [0] * 4  # outside[e] for ends that meet the chain or open an arc
        closing, opening = [], []  # (end, old index) and ends
        for e, (r2, e2) in enumerate(far[r]):
            if r2 == r:
                template[e] = -1 - e2
            elif done[r2]:
                i = frontier.index(arcs[r][e])
                closing.append((e, i))
                remap[i] = -1 - e
            else:
                opening.append(e)
        kept = [i for i, x in enumerate(remap) if x is None]
        for k, i in enumerate(kept):
            remap[i] = k
        for k, e in enumerate(opening):
            template[e] = len(kept) + k
        frontier = [frontier[i] for i in kept] + [arcs[r][e] for e in opening]
        fresh = [0] * len(opening)
        done[r] = True
        one, e_counts = _chain_weights(chains[r], stride)
        one *= bits
        e_counts = [(k * bits, c) for k, c in e_counts]

        new_states = {}
        get = new_states.get
        for state, val in states.items():
            outside = list(template)
            for e, i in closing:
                outside[e] = remap[state[i]]
            nxt = [remap[state[i]] for i in kept] + fresh
            # both pairings pair up the same frontier indices, so each
            # overwrites every entry the other one wrote
            loops, pairs = _trace(outside, _E_JOIN)
            for x, y in pairs:
                nxt[x] = y
                nxt[y] = x
            nkey = tuple(nxt)
            shift = loops * block
            total = get(nkey, 0)
            for k, c in e_counts:
                total += (val << (shift + k)) * c
            new_states[nkey] = total
            loops, pairs = _trace(outside, _ONE_JOIN)
            for x, y in pairs:
                nxt[x] = y
                nxt[y] = x
            nkey = tuple(nxt)
            new_states[nkey] = get(nkey, 0) + (val << (loops * block + one))
        states = new_states

    val = states.pop((), 0)
    if states:
        raise InconsistentDiagram(
            f"{len(next(iter(states))) // 2} open frontier pairs after the last crossing",
            _KAUFFMAN)
    return _jones_from_counts(val, n, bits, d.writhe())


def _jones_from_counts(val, n, bits, writhe):
    """V(t) from the state counts of a knot diagram packed as in
    `jones_via_kauffman`: bracket = sum over loops l of P_l * delta^(l - 1),
    summed by Horner in the loop value delta = -A^2 - A^-2 on the same
    packing, then V(t) = (-A^3)^-writhe * bracket at A = t^(-1/4).

    The Horner sum has signed coefficients; each is at most
    2^n * 2^(l - 1) <= 4^n < 2^(bits - 1) in absolute value, because a state
    of a connected n-crossing diagram closes at most n + 1 loops, so its
    digits are read back as signed residues.
    """
    block = (n + 1) * bits
    mask = (1 << block) - 1
    if val & mask:
        raise InconsistentDiagram("a state closed no loop", _KAUFFMAN)
    by_loops = []  # P_l for l = 1, 2, ..., in powers of x = A^2 times A^n
    val >>= block
    while val:
        by_loops.append(val & mask)
        val >>= block
    top = len(by_loops)
    if top > n + 1:
        raise InconsistentDiagram(f"a state closed {top} loops, more than {n + 1}", _KAUFFMAN)
    # x^(top-1) * A^n * bracket = sum_l P_l x^(top-l) (x delta)^(l-1), x delta = -(1 + x^2)
    acc = by_loops[-1]
    for loops in range(top - 1, 0, -1):
        acc = (by_loops[loops - 1] << (bits * (top - loops))) - acc - (acc << 2 * bits)
    sign = -1 if writhe % 2 else 1
    low = 1 << bits
    half = low >> 1
    coeffs = {}
    e = -n - 2 * (top - 1) - 3 * writhe  # A-exponent of the digit at x^0
    while acc:
        c = acc & (low - 1)
        if c >= half:
            c -= low
        if c:
            if e % 4:
                raise InconsistentDiagram(f"bracket exponent {e} not divisible by 4", _KAUFFMAN)
            coeffs[-e // 4] = sign * c
        acc = (acc - c) >> bits
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
