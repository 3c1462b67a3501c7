"""Oriented planar diagrams as PD codes.

A crossing is a 4-tuple of int arc ids (taken as given) listed
counterclockwise from the incoming under-strand (slot 0).  The over strand
occupies slots 1 and 3; `over_entry` records which of the two is its
incoming end.  Orientation is therefore fully encoded positionally: slots 0
and over_entry are arc heads, slots 2 and (4 - over_entry) are arc tails.

Sign convention: a crossing is positive when the over strand enters at slot 3
(right-hand rule).  All operations are pure; diagrams are immutable.

The diagram owns this convention.  Validation records each arc's head and
tail (the crossing and slot where it ends and where it starts), so strand
walks are table lookups.  The face table (the faces as orbits of a flat
corner-successor table, with the face of each corner) and the twist regions
read off its bigons are traced once, on first use, and cached, as is the
list of nugatory crossings read off the face table; the Seifert
circles are not, since the one walk of the Seifert surface
(`knotct.oracle`) numbers them.  A knot diagram whose face table breaks
Euler's formula (n + 2 faces) is not planar and is refused there.
A crossing is nugatory when two of its corners lie in one face: on a
connected projection those are exactly its cut vertices, kinks included.

A knot's signed Gauss word (`_gauss_word`) lists its passages along the
strand; it is walked once, off the head table, and cached like the face
table.  One finder, `_cancelling`, reads off the word the crossings that a
Reidemeister I or II move removes, and one loop, `_reduce_word`, deletes
them until none is left.  `simplify` and the skein engine of
`knotct.invariants` both reduce words with it: `simplify` then rebuilds
the diagram once, without the crossings the reduced word has lost.
"""

from __future__ import annotations

from array import array
from operator import itemgetter

from ..errors import InconsistentDiagram, InvalidInput, NotAKnot, NotAlternating, NotReduced

__all__ = [
    "PlanarDiagram",
    "signature_alternating",
]

_FACES = "diagram: face table"  # the stage of the planarity check
_SLOT_0, _SLOT_2 = itemgetter(0), itemgetter(2)


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


# -- signed Gauss words --------------------------------------------------


def _gauss_word(d):
    """Signed Gauss word of a knot diagram, as a tuple, walked once along its
    first component and kept in the diagram's `_word` slot: each arc leads
    into the passage at its head, coded as crossing*4 + over*2 + positive."""
    if d._word is None:
        heads, over_entry, word = d._heads, d.over_entry, []
        for a in d.components()[0] if d.n else ():
            ci, s = heads[a]
            o = over_entry[ci]
            if s and s != o:
                raise InconsistentDiagram(f"arc {a} has no head")
            word.append(ci << 2 | (s != 0) << 1 | (o == 3))
        d._word = tuple(word)
    return d._word


def _cancelling(w):
    """Crossings that one Reidemeister move removes, or () when none does.

    R1: a crossing whose passages are cyclically adjacent (a kink).  R2: two
    crossings adjacent on both strands, with one strand over at both and
    opposite signs (a clasp that slides apart).  Two segments of a connected
    diagram that no other strand crosses bound a disc, so both moves are
    sound on words of classical knot diagrams.

    On a knot's word these are the PD slot conditions, since two passages
    in a row are the two ends of one arc.  R1 finds an arc with both ends
    at one crossing, c[s] == c[s + 1]: ends at opposite slots would close
    one strand of the crossing into a component of its own.  R2 finds two
    arcs that join the same two crossings and meet different passages at
    each, one the over and one the under strand, so they sit at adjacent
    slots of both; the shared over bit keeps one arc over at both ends.
    The opposite signs are the finder's own condition: two same-sign
    crossings joined so are both nugatory, not the corners of a bigon.
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


def _reduce_word(w):
    """Delete kinks and cancelling clasps until none is left."""
    while w:
        gone = _cancelling(w)
        if not gone:
            break
        w = [p for p in w if p >> 2 not in gone]
    return w


class PlanarDiagram:
    __slots__ = ("crossings", "over_entry", "free_loops",
                 "_components", "_heads", "_tails", "_faces", "_nugatory",
                 "_twists", "_word", "_key")

    def __init__(self, crossings, over_entry, free_loops=0):
        crossings = tuple(map(tuple, crossings))
        over_entry = tuple(over_entry)
        if len(crossings) != len(over_entry):
            raise InvalidInput("crossings and over_entry length mismatch")
        for c in crossings:
            if len(c) != 4:
                raise InvalidInput("each crossing needs 4 arc slots")
        for o in over_entry:
            if o not in (1, 3):
                raise InvalidInput("over_entry must be 1 or 3")
        self.crossings = crossings
        self.over_entry = over_entry
        self.free_loops = int(free_loops)
        self._components = None
        self._faces = None
        self._nugatory = None
        self._twists = None
        self._word = None
        self._key = None
        self._validate()

    # -- structural invariants ------------------------------------------------

    def _validate(self):
        """Check in one pass that each arc has one head and one tail, and
        record the arc -> head and arc -> tail tables: the 2n head slots must
        hold 2n different arcs, and the tail slots the same arcs."""
        heads, tails = {}, {}
        for ci, ((a, b, c, d), o) in enumerate(zip(self.crossings, self.over_entry)):
            heads[a], tails[c] = (ci, 0), (ci, 2)
            if o == 1:
                heads[b], tails[d] = (ci, 1), (ci, 3)
            else:
                heads[d], tails[b] = (ci, 3), (ci, 1)
        if len(heads) != 2 * len(self.crossings) or heads.keys() != tails.keys():
            for a, occ in self.positions().items():
                if len(occ) != 2:
                    raise InvalidInput(f"arc {a} occurs {len(occ)} times, expected 2")
                k = sum(1 for end in occ if self._is_head(*end))
                if k != 1:
                    raise InvalidInput(f"arc {a} has {k} heads, expected 1")
        self._heads = heads
        self._tails = tails

    def _is_head(self, ci, s):
        return s == 0 or s == self.over_entry[ci]

    # -- basic queries --------------------------------------------------------

    @property
    def n(self):
        return len(self.crossings)

    def arcs(self):
        return sorted(self._heads)

    def positions(self):
        """arc -> [(crossing, slot), (crossing, slot)], both in slot order and
        the arcs in order of first occurrence."""
        seen = {}
        for ci, c in enumerate(self.crossings):
            for s, a in enumerate(c):
                seen.setdefault(a, []).append((ci, s))
        return seen

    def ends(self):
        """(heads, tails): arc -> (crossing, slot) where it ends and where it
        starts, the tables validation recorded."""
        return self._heads, self._tails

    def head_of(self, arc):
        """(crossing, slot) where `arc` ends, as recorded by validation; a
        diagram changed since then may no longer have a head there."""
        ci, s = self._heads[arc]
        if not self._is_head(ci, s):
            raise InconsistentDiagram(f"arc {arc} has no head")
        return ci, s

    def sign(self, ci):
        return 1 if self.over_entry[ci] == 3 else -1

    def signs(self):
        return [self.sign(i) for i in range(self.n)]

    def writhe(self):
        return sum(self.signs())

    def positive_count(self):
        """y(D): the number of positive crossings."""
        return sum(1 for s in self.signs() if s > 0)

    def next_arc(self, arc):
        """The arc following `arc` along its strand."""
        ci, s = self.head_of(arc)
        if s == 0:
            return self.crossings[ci][2]
        return self.crossings[ci][4 - self.over_entry[ci]]

    def components(self):
        """Partition of arcs into oriented cycles, in traversal order."""
        if self._components is None:
            left = set(self._heads)
            comps = []
            while left:
                start = min(left)
                cyc = []
                a = start
                while True:
                    cyc.append(a)
                    left.discard(a)
                    a = self.next_arc(a)
                    if a == start:
                        break
                comps.append(tuple(cyc))
            self._components = tuple(comps)
        return self._components

    def component_count(self):
        return len(self.components()) + self.free_loops

    # -- predicates -----------------------------------------------------------

    def is_alternating(self):
        """Passages alternate along every strand: each arc starts and ends
        in passages of different kinds, under at slots 0 (head) and 2 (tail).
        The n arcs that end under and the n that start under are then
        disjoint, and so together all 2n arcs: none runs under to under or,
        by count, over to over."""
        rows = self.crossings
        return set(map(_SLOT_0, rows)).isdisjoint(map(_SLOT_2, rows))

    def nugatory_crossings(self):
        """Crossings removable by untwisting: those with two corners in one
        face.  On a connected projection (any knot diagram) these are the
        cut vertices of the arc graph, including kinks (an arc with both ends
        on one crossing).  Computed once: `is_reduced` and the routes that
        then check reducedness again (`signature_alternating`,
        `oracle.alternating_genus`) read one list."""
        if self._nugatory is None:
            face_of_corner = self.face_table()[1]
            self._nugatory = [ci for ci, faces in enumerate(face_of_corner) if len(set(faces)) < 4]
        return self._nugatory

    def is_reduced(self):
        return not self.nugatory_crossings()

    # -- faces ----------------------------------------------------------------

    def face_table(self):
        """(faces, face_of_corner) of the underlying 4-valent map, computed
        once.  Corner 4 * ci + s is the quadrant between slots s and s + 1 of
        crossing ci.  The next corner of its face is at the far end of the
        arc at slot s + 1: that arc's tail if it ends at slot s + 1, else its
        head, so each arc sets the successors of the corners just before its
        two ends.  A face is an orbit of corners; the orbits are walked from
        the tail corner, then the head corner, of each arc in order.
        `face_of_corner[ci][s]` is the index of the face at corner 4 * ci + s.
        A knot diagram with other than n + 2 faces is not planar (Euler's
        formula) and raises InconsistentDiagram at the `diagram: face table`
        stage, so no route that reads faces accepts it.
        """
        if self._faces is None:
            heads, tails = self._heads, self._tails
            succ = [0] * (4 * len(self.crossings))
            starts = []
            for a in sorted(heads):
                ci, s = heads[a]
                h = 4 * ci + s
                ci, t = tails[a]
                t += 4 * ci
                # the corners before the arc's two ends; no tail is at slot 0
                succ[h - 1 if s else h + 3], succ[t - 1] = t, h
                starts += (t, h)
            face_of = [-1] * len(succ)
            faces = []
            for x in starts:
                if face_of[x] >= 0:
                    continue
                fi, orbit = len(faces), []
                while face_of[x] < 0:
                    face_of[x] = fi
                    orbit.append(x)
                    x = succ[x]
                faces.append(tuple(orbit))
            # Euler: the connected projection of a knot on the sphere has
            # n + 2 faces; a code with fewer is drawn on a surface of higher
            # genus (a split link diagram may have more)
            if len(faces) != self.n + 2 and len(self.components()) == 1:
                raise InconsistentDiagram(
                    f"{len(faces)} faces for {self.n} crossings, not {self.n + 2}: "
                    "the knot diagram is not planar", _FACES)
            self._faces = faces, [face_of[i:i + 4] for i in range(0, len(face_of), 4)]
        return self._faces

    def twist_regions(self):
        """Twist regions of a knot diagram, each as one chain of crossings.

        Two crossings belong to one region when they are the two corners of
        a bigon face; regions are the transitive closure of that relation,
        and an isolated crossing is a region of its own.  No
        crossing of a knot diagram has bigons at two adjacent corners: they
        would send the two opposite arcs of one strand to a single other
        crossing, where they close up into a component of their own.  So a
        region is a path or a cycle of crossings, and it is returned as one
        chain; a cycle, such as a (2,k) torus diagram, is cut open at its
        least crossing.  A chain lists (crossing, left corner) pairs: each
        crossing meets the one before it in the bigon at its left corner,
        and the one after it in the bigon at the opposite corner.  It is a
        4-ended tangle whose ends are the slots of its first crossing's left
        corner and of its last crossing's right corner (left + 2); a lone
        crossing's left corner is 0.  Chains are listed by least crossing;
        they are computed once.
        """
        if self._twists is None:
            link = [None] * (4 * self.n)  # corner -> the corner across its bigon
            for face in self.face_table()[0]:
                if len(face) == 2:  # a two-kink crossing's bigon links it to itself: inert
                    x, y = face
                    link[x], link[y] = y, x
            placed = [False] * self.n

            def walk(ci, s):
                """(crossing, corner) pairs along the bigons from corner s of ci,
                each crossing entered at that corner and left by the opposite one."""
                out = []
                while (x := link[4 * ci + s]) is not None and not placed[x >> 2]:
                    ci, t = x >> 2, x & 3
                    placed[ci] = True
                    out.append((ci, t))
                    s = (t + 2) % 4
                return out

            chains = []
            for c0 in range(self.n):
                if placed[c0]:
                    continue
                placed[c0] = True
                ahead = [x is not None and not placed[x >> 2] for x in link[4 * c0:4 * c0 + 4]]
                right = ahead.index(True) if True in ahead else 2
                rightwards = walk(c0, right)
                leftwards = walk(c0, (right + 2) % 4)
                chains.append((*((ci, (t + 2) % 4) for ci, t in reversed(leftwards)),
                               (c0, (right + 2) % 4), *rightwards))
            self._twists = tuple(chains)
        return self._twists

    # -- crossing surgery -----------------------------------------------------

    def _rebuild(self, keep, joins):
        """Keep the crossings in `keep` (ordered), merge arcs per `joins`,
        turn portless leftover classes into free loops."""
        arcs = self.arcs()
        dsu = _DSU(arcs)
        for grp in joins:
            grp = list(grp)
            for x in grp[1:]:
                dsu.union(grp[0], x)
        kept_cross = [self.crossings[i] for i in keep]
        kept_over = [self.over_entry[i] for i in keep]
        used = set()
        for c in kept_cross:
            used.update(dsu.find(a) for a in c)
        loops = self.free_loops
        for r in {dsu.find(a) for a in arcs}:
            if r not in used:
                loops += 1
        relabel = {}
        for r in sorted(used):
            relabel[r] = len(relabel)
        new_cross = [tuple(relabel[dsu.find(a)] for a in c) for c in kept_cross]
        return PlanarDiagram(new_cross, kept_over, loops)

    def switch(self, ci):
        """Reverse over/under at one crossing."""
        o = self.over_entry[ci]
        cross = list(self.crossings)
        over = list(self.over_entry)
        c = cross[ci]
        cross[ci] = tuple(c[(o + k) % 4] for k in range(4))
        over[ci] = 4 - o
        return PlanarDiagram(cross, over, self.free_loops)

    def smooth(self, ci):
        """Oriented smoothing at a crossing (both strands keep direction)."""
        c = self.crossings[ci]
        o = self.over_entry[ci]
        keep = [i for i in range(self.n) if i != ci]
        joins = [(c[0], c[4 - o]), (c[o], c[2])]
        return self._rebuild(keep, joins)

    # -- Reidemeister I / II cleanup ------------------------------------------

    def simplify(self):
        """Remove kinks and cancelling clasps: reduce the knot's Gauss word
        (`_reduce_word`), then rebuild once without the crossings it lost.
        Both strands pass straight through each removed crossing."""
        if self.component_count() > 1:
            raise NotAKnot(f"simplify needs a knot, got {self.component_count()} components")
        kept = {p >> 2 for p in _reduce_word(_gauss_word(self))}
        if len(kept) == self.n:
            return self
        rows = [c for ci, c in enumerate(self.crossings) if ci not in kept]
        return self._rebuild([ci for ci in range(self.n) if ci in kept],
                             [j for c in rows for j in ((c[0], c[2]), (c[1], c[3]))])

    # -- misc -----------------------------------------------------------------

    def mirror(self):
        cross, over = [], []
        for ci, c in enumerate(self.crossings):
            o = self.over_entry[ci]
            cross.append(tuple(c[(o + k) % 4] for k in range(4)))
            over.append(4 - o)
        return PlanarDiagram(cross, over, self.free_loops)

    def canonical_key(self):
        """A relabeling-invariant memo key, computed once per diagram.

        Soundness contract: equal keys imply isomorphic diagrams, i.e. the
        same crossings and free loops up to a bijection of arc ids and an
        order of crossings.  The key lists the crossings as sorted rows
        (four arc labels, over_entry) after relabeling the arcs in traversal
        order from a start arc, followed by the free-loop count; it takes
        the least row list over all start arcs.  For a knot every start's
        labeling is label-free, so the converse holds as well: isomorphic
        knot diagrams get equal keys.  The rows are packed as fixed-width
        unsigned integers, 2 bytes each below 32768 crossings and 4 or more
        beyond, so the byte lengths of the two widths never meet.
        """
        if self._key is None:
            self._key = self._least_rows_key()
        return self._key

    def _least_rows_key(self):
        cross = list(zip(self.crossings, self.over_entry))
        nxt = {}
        for c, o in cross:
            nxt[c[0]] = c[2]
            nxt[c[o]] = c[4 - o]
        arcs = sorted(nxt)

        def labels(start):
            relabel = {}
            for first in (start, *arcs):
                # other components: deterministic but label-dependent order
                a = first
                while a not in relabel:
                    relabel[a] = len(relabel)
                    a = nxt[a]
            return relabel

        def rows(lab):
            return sorted((lab[c[0]], lab[c[1]], lab[c[2]], lab[c[3]], o) for c, o in cross)

        # Label 0 opens a row only at the crossing its start arc enters under
        # (slot 0 is a head, and an arc has one head), so that row is the
        # least one; a start that enters no crossing under has no row opening
        # with 0.  The least row list thus comes from a start that enters a
        # crossing under and, among those, has the least such first row.
        firsts = {}
        for c, o in cross:
            lab = labels(c[0])
            firsts.setdefault((0, lab[c[1]], lab[c[2]], lab[c[3]], o), []).append(c[0])
        starts = firsts[min(firsts)] if firsts else []
        best = min((rows(labels(s)) for s in starts), default=[])
        flat = [x for row in best for x in row]
        flat.append(self.free_loops)
        return array("H" if self.n < 0x8000 else "L", flat).tobytes()


def signature_alternating(d: PlanarDiagram) -> int:
    """sigma = o(D) - y(D) - 1 on a reduced alternating diagram (Traczyk,
    Fund. Math. 184, 2004).  The A-smoothing joins slots (0,1) and (2,3), and
    every face of an alternating diagram has corners of one kind, so the
    A-loops bound the faces at corners 0 and 2: o(D) counts them in the face
    table the nugatory check has built, plus the free loops.
    """
    if not d.is_alternating():
        raise NotAlternating("diagram is not alternating")
    bad = d.nugatory_crossings()
    if bad:
        raise NotReduced(f"nugatory crossings at {bad}")
    if d.n:
        loops = len({f for corners in d.face_table()[1] for f in corners[::2]}) + d.free_loops
    else:  # no crossings, so no faces
        loops = max(d.free_loops, 0) or 1
    return loops - d.positive_count() - 1
