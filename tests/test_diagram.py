"""Planar diagram combinatorics and the twist-box construction templates."""

import hashlib
import itertools
import math
import os
import random
from array import array
import subprocess
import sys
from functools import lru_cache, partial

import pytest
from braids import closed_braid

import knotct
from knotct import invariants
from knotct.diagram import (
    Builder,
    PlanarDiagram,
    double_twist_diagram,
    fig1_left_diagram,
    fig1_right_diagram,
    montesinos_diagram,
    pretzel_diagram,
    additive_cf,
    signature_alternating,
)
from knotct.diagram import construct
from knotct.diagram.core import _cancelling, _gauss_word
from knotct.gauss import gauss_a2, gauss_w3
from knotct.errors import (
    InconsistentDiagram,
    InvalidInput,
    KnotctError,
    NotAKnot,
)
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    MontesinosSpec,
    _normal_pairs,
    enumerate_family,
    parse_spec,
)
from knotct.sweeps import _formulas_specs


def trefoil():
    return pretzel_diagram([1, 1, 1])


def test_trefoil_basics():
    d = trefoil()
    assert d.n == 3
    assert d.component_count() == 1
    assert d.is_alternating()
    assert d.is_reduced()
    assert abs(d.writhe()) == 3


def test_euler_formula():
    for d in (trefoil(), pretzel_diagram([3, 5, 1]), double_twist_diagram(2, 4)):
        # V - E + F = 2 with V = n, E = 2n
        faces, _ = d.face_table()
        assert len(faces) == d.n + 2


def test_mirror_flips_signs():
    d = trefoil()
    assert d.mirror().writhe() == -d.writhe()
    assert sorted(d.mirror().signs()) == sorted(-s for s in d.signs())


def relabeled(d, perm):
    """d with every arc id a renamed to perm[a]."""
    return PlanarDiagram([tuple(perm[a] for a in c) for c in d.crossings], d.over_entry,
                         d.free_loops)


def test_canonical_key_relabeling_invariant():
    d = pretzel_diagram([3, 1, 1])
    arcs = sorted(d.arcs())
    rotated = arcs[1:] + arcs[:1]
    perm = dict(zip(arcs, rotated))
    assert relabeled(d, perm).canonical_key() == d.canonical_key()


def template_knots():
    """One knot from every template builder family."""
    return [
        pretzel_diagram([3, -2, 5]),
        double_twist_diagram(2, 4),
        montesinos_diagram([(1, 2), (2, 5), (-1, 3)], 1),
        fig1_left_diagram(1, -1, 2, 1, 0, 1),
        fig1_right_diagram(1, 1, -1, 1, 2, 1),
    ]


def test_canonical_key_random_relabeling_and_crossing_order():
    rng = random.Random(20240814)
    for d in template_knots():
        assert d.component_count() == 1
        key = d.canonical_key()
        arcs = d.arcs()
        for _ in range(5):
            ids = rng.sample(range(10 * len(arcs)), len(arcs))
            e = relabeled(d, dict(zip(arcs, ids)))
            order = rng.sample(range(e.n), e.n)
            e = PlanarDiagram([e.crossings[i] for i in order], [e.over_entry[i] for i in order])
            assert e.canonical_key() == key


def test_canonical_key_tells_mirror_images_apart():
    d = trefoil()
    assert d.mirror().canonical_key() != d.canonical_key()
    assert d.mirror().mirror().canonical_key() == d.canonical_key()


def test_canonical_key_past_128_crossings():
    d = pretzel_diagram([43, 43, 45])
    assert d.n == 131 and d.component_count() == 1
    key = d.canonical_key()
    assert isinstance(key, bytes) and len(key) == 2 * (5 * d.n + 1)
    arcs = d.arcs()
    assert relabeled(d, dict(zip(arcs, reversed(arcs)))).canonical_key() == key
    assert pretzel_diagram([43, 45, 43]).canonical_key() == key  # a rotation of the strands
    assert pretzel_diagram([45, 43, 45]).canonical_key() != key


def reference_key(w):
    """The least relabelled rotation of a Gauss word over all of its starts,
    with no pruning."""
    rows = []
    for s in range(len(w)):
        labels = {}
        rows.append([labels.setdefault(p >> 2, len(labels)) << 2 | p & 3 for p in w[s:] + w[:s]])
    return min(rows, default=[])


def fresh_skein_memos(monkeypatch, words=invariants._WORD_MEMO_SIZE):
    """Empty skein value memos and an empty word LRU of `words` words in front
    of whatever `invariants._key` is when it misses; returns the LRU."""
    monkeypatch.setattr(invariants, "_A2_MEMO", {})
    monkeypatch.setattr(invariants, "_W3_MEMO", {})
    word_key = lru_cache(maxsize=words)(invariants._word_key.__wrapped__)
    monkeypatch.setattr(invariants, "_word_key", word_key)
    return word_key


def test_word_key_equality_matches_the_unpruned_key(monkeypatch):
    visited = []
    key = invariants._key

    def recording_key(w):
        visited.append(list(w))
        return key(w)

    monkeypatch.setattr(invariants, "_key", recording_key)
    fresh_skein_memos(monkeypatch)  # every distinct word reaches the recorder
    rng = random.Random(7)
    specs = [FamilySpec("o1", dict(a=1, b=1, c=1, d=1, e=1)),
             FamilySpec("o1", dict(a=2, b=-1, c=1, d=-2, e=1))]
    for fam in ("fig1_left", "fig1_right") * 40:
        specs.append(FamilySpec(fam, {k: rng.randint(-2, 2) for k in "abcdef"}))
    for f in specs:
        d = f.diagram()
        if d.component_count() != 1 or d.n > 22:
            continue
        invariants.skein_a2(d)
        invariants.skein_w3(d)
    monkeypatch.undo()
    assert len({tuple(w) for w in visited}) > 300
    key_to_ref, ref_to_key = {}, {}
    for w in visited:
        new, ref = key(w), tuple(reference_key(w))
        assert array("H", new).tolist() == list(ref)
        key_to_ref.setdefault(new, set()).add(ref)
        ref_to_key.setdefault(ref, set()).add(new)
    assert all(len(v) == 1 for v in key_to_ref.values())
    assert all(len(v) == 1 for v in ref_to_key.values())
    assert len(key_to_ref) > 50


def reference_nugatory(d):
    """The per-crossing search that found nugatory crossings before the
    corner criterion: crossings with a kink, and cut vertices of the graph
    whose edges are the arcs."""
    out = []
    edges = [(occ[0][0], occ[1][0]) for occ in d.positions().values()]
    for ci in range(d.n):
        if any(u == v == ci for u, v in edges):
            out.append(ci)
            continue
        nodes = set(range(d.n)) - {ci}
        if not nodes:
            continue
        adj = {v: set() for v in nodes}
        for u, v in edges:
            if ci not in (u, v):
                adj[u].add(v)
                adj[v].add(u)
        stack = [next(iter(nodes))]
        seen = set(stack)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nodes):
            out.append(ci)
    return out


def test_nugatory_corner_criterion_matches_the_cut_vertex_search():
    non_reduced = [
        fig1_right_diagram(-1, -1, -1, -1, -1, -1),  # a three-crossing unknot diagram
        fig1_right_diagram(-2, -1, -1, -1, -1, -1),
        closed_braid([1, 1, 1, -2], 3),  # sigma_2 once: a kink
    ]
    assert [reference_nugatory(d) for d in non_reduced] == [[0, 1, 2], [3], [3]]
    # P(-1,1,1) is reducible by a clasp move but has no nugatory crossing
    for d in template_knots() + [pretzel_diagram([-1, 1, 1])] + non_reduced:
        assert d.nugatory_crossings() == reference_nugatory(d)


# the trefoil P(1,1,1) as the builder emits it
TREFOIL_PD = (((5, 2, 0, 3), (1, 4, 2, 5), (3, 0, 4, 1)), (1, 1, 1))


def test_malformed_pd_codes_are_rejected():
    crossings, over_entry = TREFOIL_PD
    assert (trefoil().crossings, trefoil().over_entry) == TREFOIL_PD
    cases = [
        ([(5, 2, 99, 3), *crossings[1:]], over_entry, "arc 99 occurs 1 times, expected 2"),
        ([(0, 2, 0, 3), *crossings[1:]], over_entry, "arc 0 occurs 3 times, expected 2"),
        (crossings, (3, 1, 1), "arc 2 has 0 heads, expected 1"),
    ]
    for cross, over, message in cases:
        with pytest.raises(InvalidInput) as info:
            PlanarDiagram(cross, over)
        assert str(info.value) == message


def denominator_close(b, t):
    b.solder(t["NW"], t["SW"])
    b.solder(t["NE"], t["SE"])


def closed_builds():
    """Small closures of trivial and twisted tangles, each with its crossing
    count, free loops and component count."""
    out = []
    for close, t, counts in (
        (ReferenceBuilder.numerator_close, lambda b: b.zero_tangle(), (0, 2, 2)),  # two circles
        (denominator_close, lambda b: b.zero_tangle(), (0, 1, 1)),
        # a Hopf link with a circle apart
        (ReferenceBuilder.numerator_close, lambda b: b.stack(b.hbox(2), b.zero_tangle()), (2, 1, 3)),
        (denominator_close, lambda b: b.hjoin(b.hbox(2), b.zero_tangle()), (2, 0, 1)),
    ):
        b = ReferenceBuilder()
        close(b, t(b))
        out.append((b.emit(), counts))
    return out


def test_emit_counts_free_loops_and_hands_over_its_components():
    for d, counts in closed_builds():
        assert (d.n, d.free_loops, d.component_count()) == counts
    b = ReferenceBuilder()  # M(1/2, 1/2), a two-component link the templates refuse
    t, u = reference_rational_tangle(b, 1, 2), reference_rational_tangle(b, 1, 2)
    for x, y in ((t, u), (u, t)):
        b.solder(x["NE"], y["NW"])
        b.solder(x["SE"], y["SW"])
    link = b.emit()
    for d in [d for d, _ in closed_builds()] + template_knots() + [link]:
        walked = PlanarDiagram(d.crossings, d.over_entry, d.free_loops).components()
        assert d.components() == walked
    assert link.component_count() == 2


def test_simplify_removes_kinks():
    d = pretzel_diagram([1, 1, -1])  # reducible: opposite strands cancel
    s = d.simplify()
    assert s.n < d.n


def test_simplify_refuses_a_link():
    hopf = closed_braid([1, 1], 2)
    assert hopf.component_count() == 2
    with pytest.raises(NotAKnot):
        hopf.simplify()


def reference_simplify(d):
    """`simplify` one move at a time: each kink or clasp that `_cancelling`
    finds on the diagram's own Gauss word is removed by a rebuild."""
    while d.n and (gone := _cancelling(_gauss_word(d))):
        rows = [d.crossings[ci] for ci in gone]
        d = d._rebuild([i for i in range(d.n) if i not in gone],
                       [j for c in rows for j in ((c[0], c[2]), (c[1], c[3]))])
    return d


def test_simplify_rebuilds_once(monkeypatch):
    rebuilds = []
    rebuild = PlanarDiagram._rebuild

    def counted(self, keep, joins):
        rebuilds.append(self.n)
        return rebuild(self, keep, joins)

    monkeypatch.setattr(PlanarDiagram, "_rebuild", counted)
    d = parse_spec("F1L(-2,-2,-2,-2,-1,0)").diagram()
    ref = reference_simplify(d)
    assert len(rebuilds) == 4  # four moves, one at a time
    rebuilds.clear()
    s = d.simplify()
    assert (d.n, s.n, rebuilds) == (14, 9, [14])
    assert s.canonical_key() == ref.canonical_key()
    rebuilds.clear()
    assert s.simplify() is s and rebuilds == []


def test_simplify_matches_the_per_move_reference_on_ac1():
    checked = 0
    for f in _formulas_specs(2)[::7]:
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() == 1:
            assert d.simplify().canonical_key() == reference_simplify(d).canonical_key(), f
            checked += 1
    assert checked > 4800


def test_is_alternating_matches_the_per_arc_test():
    # every arc's head and tail passages of different kinds, read off the
    # validation tables arc by arc, on AC1 diagrams, their mirrors and
    # simplifications, and on random braid closures
    def per_arc(d):
        heads, tails = d.ends()
        return all((s == 0) != (tails[a][1] == 2) for a, (_, s) in heads.items())

    diagrams = []
    for f in _formulas_specs(2)[::7]:
        try:
            d = f.diagram()
        except KnotctError:
            continue
        diagrams += [d, d.mirror(), d.simplify()]
    rng = random.Random(41)
    for _ in range(2000):
        k = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(rng.randint(1, 14))]
        diagrams.append(closed_braid(word, k))
    alternating = [per_arc(d) for d in diagrams]
    assert [d.is_alternating() for d in diagrams] == alternating
    assert 1000 < sum(alternating) < len(diagrams) - 1000


# sha256 of the canonical keys of the simplified diagrams of every fifth
# six-box spec of the AC1 list, the 168 pretzel knots P(+-1,...,+-1) of
# length 3, 5 and 7, and the AC2 zero family F1L(a,a+1,0,0,a+1,0), a in
# [0, 5], in that order; the slot-scan simplify gave the same.
SIMPLIFIED_KEYS_SHA256 = "f75b8f1af096597024954458a2e85ef1e145adbba1e2320dec3a0a4117179601"


def test_simplified_templates_are_pinned():
    specs = [f for f in _formulas_specs(2) if f.family in ("fig1_left", "fig1_right")][::5]
    for n in (3, 5, 7):
        specs += [FamilySpec("pretzel", {f"q{i + 1}": q for i, q in enumerate(qs)})
                  for qs in itertools.product((-1, 1), repeat=n)]
    specs += [FamilySpec("fig1_left", dict(a=a, b=a + 1, c=0, d=0, e=a + 1, f=0))
              for a in range(6)]
    digest = hashlib.sha256()
    for f in specs:
        digest.update(f.diagram().simplify().canonical_key())
    assert len(specs) == 6424
    assert digest.hexdigest() == SIMPLIFIED_KEYS_SHA256


def test_switch_and_smooth_counts():
    d = trefoil()
    assert d.switch(0).n == d.n
    assert d.smooth(0).n == d.n - 1
    assert d.smooth(0).component_count() == 2


# The diagram and the word below are corrupted after construction, which
# would reject them, to reach the internal consistency checks.


def headless_arc_diagram():
    """A trefoil whose first over strand no longer enters where its arc ends."""
    d = trefoil()
    arc = d.crossings[0][d.over_entry[0]]
    d.over_entry = (4 - d.over_entry[0],) + d.over_entry[1:]
    return d, arc


def odd_split_word():
    """A trefoil's Gauss word with one crossing deleted, and the crossing to
    smooth: the two crossings left interleave, which no planar diagram
    allows, so the smoothing shares one crossing between its components."""
    w = _gauss_word(trefoil())
    return [p for p in w if p >> 2 != 2], 0


def test_inconsistent_diagrams_raise_typed_errors():
    assert issubclass(InconsistentDiagram, KnotctError)
    d, arc = headless_arc_diagram()
    with pytest.raises(InconsistentDiagram):
        d.head_of(arc)
    with pytest.raises(InconsistentDiagram, match=f"arc {arc} has no head"):
        _gauss_word(d)
    with pytest.raises(InconsistentDiagram) as info:
        invariants._split(*odd_split_word())
    assert info.value.stage == "skein: oriented smoothing"


def test_inconsistent_diagram_errors_survive_optimized_mode():
    src = os.path.dirname(list(knotct.__path__)[0])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_diagram import headless_arc_diagram, odd_split_word\n"
        "from knotct import invariants\n"
        "from knotct.diagram.core import _gauss_word\n"
        "from knotct.errors import InconsistentDiagram\n"
        "d, arc = headless_arc_diagram()\n"
        "for call in (lambda: d.head_of(arc), lambda: _gauss_word(d),\n"
        "             lambda: invariants._split(*odd_split_word())):\n"
        "    try:\n"
        "        call()\n"
        "    except InconsistentDiagram:\n"
        "        print('raised')\n"
    )
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["raised"] * 3


def test_construction_check_raises_typed_error():
    b = Builder()
    b.new_crossing(a_over=False)  # four ports, none soldered to another
    with pytest.raises(InconsistentDiagram) as info:
        b._check_wiring()
    assert info.value.stage == "construction: emit"


def test_a_cold_template_builds_no_diagram(monkeypatch):
    built = []
    init = PlanarDiagram.__init__

    def counted(self, *args):
        built.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(PlanarDiagram, "__init__", counted)
    construct._template.cache_clear()
    for beta, alpha in ((2, 5), (-3, 7), (1, 1), (3, 0)):
        construct._template(beta, alpha)
    assert built == []
    montesinos_diagram([(2, 5), (-3, 7), (1, 3)], 3)  # one build, from the tables
    assert len(built) == 1


def self_looped_solder():
    """`Builder.solder` that then makes ports 0 and 2 of crossing 0 each
    other's mates, so the strand through that crossing leaves it into
    itself and a walk with no guard goes round forever."""
    solder = Builder.solder

    def looped(self, a, b):
        solder(self, a, b)
        if {0, 2} & {a, b}:
            self.mate[0], self.mate[2] = 2, 0
    return looped


def test_a_miswired_template_raises_instead_of_looping(monkeypatch):
    # optimized mode in a subprocess first, its timeout bounding a walk that
    # never ends
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_diagram import self_looped_solder\n"
        "from knotct.diagram import Builder, construct\n"
        "from knotct.errors import InconsistentDiagram\n"
        "Builder.solder = self_looped_solder()\n"
        "try:\n"
        "    construct._template(2, 5)\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc.stage)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "construction: emit"
    construct._template.cache_clear()
    monkeypatch.setattr(Builder, "solder", self_looped_solder())
    with pytest.raises(InconsistentDiagram) as info:
        construct._template(2, 5)
    assert info.value.stage == "construction: emit"


# Port g of crossing ci is the int 4 * ci + g.


def miswired_crossing(wires):
    """One crossing with the given wires between its ports."""
    b = Builder()
    p = 4 * b.new_crossing(a_over=False)
    for x, y in wires:
        b.solder(p + x, p + y)
    return b


MISWIRED_CROSSINGS = (
    [(0, 2), (0, 1), (2, 3)],  # ports 0 and 2 soldered twice: the first wire is overwritten
    [(0, 1), (2, 3), (0, 2)],  # ports 0 and 2 soldered twice: their first mates point back
    [(0, 1), (0, 2)],  # port 0 soldered twice and port 3 never
)


def three_lead_junction():
    """Two crossings with every port soldered once: three ports of the first
    to one junction, its fourth to a junction of its own."""
    b = Builder()
    p, q = 4 * b.new_crossing(a_over=False), 4 * b.new_crossing(a_over=True)
    j, k = b.junction(), b.junction()
    for g in range(3):
        b.solder(j, p + g)
    b.solder(k, p + 3)
    b.solder(q, q + 1)
    b.solder(q + 2, q + 3)
    return b


def test_malformed_wiring_raises_typed_errors():
    for b in [miswired_crossing(w) for w in MISWIRED_CROSSINGS] + [three_lead_junction()]:
        with pytest.raises(InconsistentDiagram) as info:
            b._check_wiring()
        assert info.value.stage == "construction: emit"


def test_malformed_wiring_error_survives_optimized_mode():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_diagram import three_lead_junction\n"
        "from knotct.errors import InconsistentDiagram\n"
        "try:\n"
        "    three_lead_junction()._check_wiring()\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc.stage)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "construction: emit"


def miswired_splice():
    """`Builder.solder` that then gives each port it solders to junction 1
    the id of junction 0, as a splice that wrote j for j - 1 would leave
    them: junction 0 does not lead back to those ports, and a strand walk
    with no guard that reaches one of them goes round forever."""
    solder = Builder.solder

    def spliced(self, a, b):
        solder(self, a, b)
        for port, junction in ((a, b), (b, a)):
            if junction == ~1 and port >= 0:
                self.mate[port] = ~0
    return spliced


def test_a_miswired_splice_raises_instead_of_looping(monkeypatch):
    # optimized mode in a subprocess first: its timeout bounds a walk that
    # never ends, which in-process would hang the suite.  The tangle 2/5 is a
    # zero tangle, junctions 0 and 1, with its twists added
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_diagram import miswired_splice\n"
        "from knotct.diagram import Builder, construct\n"
        "from knotct.errors import InconsistentDiagram\n"
        "Builder.solder = miswired_splice()\n"
        "try:\n"
        "    construct._template(2, 5)\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc.stage, exc)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "construction: emit construction: emit: junction 0 does not lead back"
    construct._template.cache_clear()
    monkeypatch.setattr(Builder, "solder", miswired_splice())
    with pytest.raises(InconsistentDiagram, match="junction 0 does not lead back") as info:
        construct._template(2, 5)
    assert info.value.stage == "construction: emit"


def ne_bound_tables():
    """`construct._template` with the table of 1/3 corrupted: each of its
    strands leaves by lead NE, so a walk of M(2/5,1/3,1/3|1), or of
    F1L(1,1,1,0,0,0) with its vertical boxes of three half twists, enters
    strands it has already numbered.  A walk with no guard goes round
    forever."""
    template = construct._template

    def corrupt(beta, alpha):
        tb = template(beta, alpha)
        if (beta, alpha) == (1, 3):
            tb = tb._replace(exits=bytes([1, 1, 1, 1]))
        return tb
    return corrupt


def test_a_corrupt_table_raises_instead_of_looping(monkeypatch):
    # optimized mode in a subprocess first, its timeout bounding a walk that
    # never ends
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_diagram import ne_bound_tables\n"
        "from knotct.diagram import construct\n"
        "from knotct.errors import InconsistentDiagram\n"
        "construct._template = ne_bound_tables()\n"
        "for build in (lambda: construct.montesinos_diagram([(2, 5), (1, 3), (1, 3)], 1),\n"
        "              lambda: construct.fig1_left_diagram(1, 1, 1, 0, 0, 0)):\n"
        "    try:\n"
        "        build()\n"
        "    except InconsistentDiagram as exc:\n"
        "        print(exc.stage)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["construction: emit"] * 2
    monkeypatch.setattr(construct, "_template", ne_bound_tables())
    with pytest.raises(InconsistentDiagram) as info:
        construct.montesinos_diagram([(2, 5), (1, 3), (1, 3)], 1)
    assert info.value.stage == "construction: emit"
    with pytest.raises(InconsistentDiagram, match="met twice") as info:
        construct.fig1_left_diagram(1, 1, 1, 0, 0, 0)
    assert info.value.stage == "construction: emit"


# sha256 of (crossings, over_entry, free_loops), or of the error type, of the
# diagrams built from the bound-2 family specs, the AC1 pretzel and double-twist
# specs, fig1_left/fig1_right over [-1, 1]^6 and the template mirrors, in that
# order.  The skein memo keys and the Seifert basis depend on the arc ids and
# the crossing order, so a construction change must keep them bit for bit.
PD_CODES_SHA256 = "6dc3bf9c7518ae6a722b38fe9a70faabbfe50d922b2e36f7ae515b555434ea35"


def spec_diagram(family, params):
    return FamilySpec(family, params).diagram()


def pinned_pd_builds():
    for fam in FAMILY_NAMES:
        for f in enumerate_family(fam, 2):
            yield f.diagram
    qs = [q for q in range(-2, 3) if q]
    for q1, q2, q3 in itertools.product(qs, repeat=3):
        yield partial(spec_diagram, "pretzel", dict(q1=q1, q2=q2, q3=q3))
    for x, y in itertools.product(qs, repeat=2):
        yield partial(spec_diagram, "double_twist", dict(x=x, y=y))
    for make in (fig1_left_diagram, fig1_right_diagram):
        for vals in itertools.product((-1, 0, 1), repeat=6):
            yield partial(make, *vals)
    for d in template_knots():
        yield d.mirror


def test_pd_codes_are_pinned():
    digest, count = hashlib.sha256(), 0
    for build in pinned_pd_builds():
        count += 1
        try:
            d = build()
            digest.update(repr((d.crossings, d.over_entry, d.free_loops)).encode())
        except KnotctError as exc:
            digest.update(type(exc).__name__.encode())
    assert count == 4537
    assert digest.hexdigest() == PD_CODES_SHA256


def reference_gauss_word(d):
    """The signed Gauss word walked arc by arc through `head_of` and `sign`."""
    word = []
    for a in d.components()[0] if d.n else ():
        ci, s = d.head_of(a)
        word.append(ci << 2 | (s != 0) << 1 | (d.sign(ci) > 0))
    return word


def test_gauss_words_match_the_per_arc_walk():
    walked = 0
    for build in pinned_pd_builds():
        try:
            d = build()
        except KnotctError:
            continue
        assert list(_gauss_word(d)) == reference_gauss_word(d)
        walked += 1
    assert walked > 3000


class UnreadHeads(dict):
    def __getitem__(self, arc):
        raise AssertionError("head table read again")


def test_gauss_words_are_computed_once():
    # the Gauss formulas, both skein counts and simplify read one word; the
    # kinked braid closure's simplify rebuilds it without its kink
    for d, reduced in ((pretzel_diagram([3, 5, 7]), 15), (closed_braid([1, 1, 1, -2], 3), 3)):
        word = _gauss_word(d)
        a2, w3 = gauss_a2(d), gauss_w3(d)
        d._heads = UnreadHeads(d._heads)
        assert _gauss_word(d) is word
        assert (gauss_a2(d), gauss_w3(d)) == (a2, w3)
        assert (invariants.skein_a2(d), invariants.skein_w3(d)) == (a2, w3)
        assert d.simplify().n == reduced


def test_word_split_linking_number():
    for d in (trefoil(), trefoil().mirror()):
        w = _gauss_word(d)
        assert len(w) == 6
        # smoothing a trefoil crossing leaves a Hopf link of two unknotted parts
        lk, inner, outer = invariants._split(w, w[0] >> 2)
        assert lk == d.sign(w[0] >> 2) and inner == outer == []
def test_signature_alternating_trefoil():
    d = trefoil()
    assert abs(signature_alternating(d)) == 2
    assert signature_alternating(d.mirror()) == -signature_alternating(d)


def test_twist_number_of_templates():
    assert len(pretzel_diagram([3, 5, 7]).twist_regions()) == 3
    assert len(double_twist_diagram(4, 6).twist_regions()) == 2


def bigon_region_count(d):
    """Reference: crossings joined through the two corners of every bigon
    face that is not a kink's (one whose two corners are reached along two
    different arcs), counted as connected components."""
    faces, face_of_corner = d.face_table()
    parent = list(range(d.n))

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def arc_into(corner):
        return d.crossings[corner >> 2][corner & 3]

    corner_of = {}
    for ci, row in enumerate(face_of_corner):
        for fi in row:
            if len(faces[fi]) == 2 and arc_into(faces[fi][0]) != arc_into(faces[fi][1]):
                parent[root(ci)] = root(corner_of.setdefault(fi, ci))
    return len({root(c) for c in range(d.n)})


# ---------------------------------------------------------------------------
# Reference: the face table as first written, faces as orbits of darts.  A
# dart is (arc, dir) with dir = +1 along the arc; it reaches the slot at its
# arc's head (dir = +1) or tail (dir = -1) and turns counterclockwise there.
# Faces are listed from their least dart and ordered by it.


def reference_face_table(d):
    """(faces as dart orbits, face_of_corner)."""
    heads, tails = d.ends()
    rows, over = d.crossings, d.over_entry
    faces, dart_face = [], {}
    face_of_corner = [[None] * 4 for _ in rows]
    for a in sorted(heads):
        for dart in ((a, -1), (a, 1)):
            if dart in dart_face:
                continue
            orbit = []
            while dart not in dart_face:
                orbit.append(dart)
                dart_face[dart] = len(faces)
                b, di = dart
                ci, s = heads[b] if di == 1 else tails[b]
                face_of_corner[ci][s] = len(faces)
                s = (s + 1) % 4
                dart = (rows[ci][s], -1 if s == 0 or s == over[ci] else 1)
            faces.append(tuple(orbit))
    return faces, face_of_corner


def reference_twist_regions(d):
    """twist_regions as first written, on the dart-orbit faces."""
    heads, tails = d.ends()
    link = [None] * (4 * d.n)
    for face in reference_face_table(d)[0]:
        if len(face) != 2 or face[0][0] == face[1][0]:
            continue
        (a, da), (b, db) = face
        x = heads[a] if da == 1 else tails[a]
        y = heads[b] if db == 1 else tails[b]
        link[4 * x[0] + x[1]] = y
        link[4 * y[0] + y[1]] = x
    placed = [False] * d.n

    def walk(ci, s):
        out = []
        while (x := link[4 * ci + s]) and not placed[x[0]]:
            ci, t = x
            placed[ci] = True
            out.append(x)
            s = (t + 2) % 4
        return out

    chains = []
    for c0 in range(d.n):
        if placed[c0]:
            continue
        placed[c0] = True
        ahead = [x and not placed[x[0]] for x in link[4 * c0:4 * c0 + 4]]
        right = ahead.index(True) if True in ahead else 2
        rightwards = walk(c0, right)
        leftwards = walk(c0, (right + 2) % 4)
        chains.append((*((ci, (t + 2) % 4) for ci, t in reversed(leftwards)),
                       (c0, (right + 2) % 4), *rightwards))
    return tuple(chains)


def assert_faces_match_the_dart_orbits(d):
    """face_table and twist_regions equal the dart-orbit reference: each
    dart orbit, read as the corners its darts reach, is the corner orbit."""
    heads, tails = d.ends()
    faces, face_of_corner = reference_face_table(d)
    corners = [tuple(4 * ci + s for ci, s in (heads[a] if di == 1 else tails[a]
                                              for a, di in face)) for face in faces]
    assert d.face_table() == (corners, face_of_corner)
    assert d.twist_regions() == reference_twist_regions(d)


def kinked_diagrams():
    """Knot diagrams with nugatory crossings, kinks among them."""
    return [
        closed_braid([1], 2),  # one crossing, two kinks at it
        closed_braid([1, 2], 3),  # each generator once
        closed_braid([1, 1, 1, -2], 3),
        closed_braid([1, -2, 1, -2, 3], 4),
        fig1_right_diagram(-1, -1, -1, -1, -1, -1),
        fig1_right_diagram(-2, -1, -1, -1, -1, -1),
        pretzel_diagram([1, 1, -1]),
        pretzel_diagram([3, -1, 1]).mirror(),
    ]


def test_faces_match_the_dart_orbits_on_templates_and_kinked_diagrams():
    diagrams = template_knots() + kinked_diagrams() + [
        f.diagram() for family in FAMILY_NAMES
        for f in itertools.islice(enumerate_family(family, 2), 0, None, 17)]
    assert any(not d.is_reduced() for d in diagrams)
    for d in diagrams:
        assert_faces_match_the_dart_orbits(d)


def test_twist_regions_are_bigon_chains():
    diagrams = template_knots() + [
        f.diagram() for family in FAMILY_NAMES
        for f in itertools.islice(enumerate_family(family, 2), 0, None, 17)]
    assert len(diagrams) > 100
    for d in diagrams:
        chains = d.twist_regions()
        assert len(chains) == bigon_region_count(d)
        assert sorted(ci for chain in chains for ci, _ in chain) == list(range(d.n))
        for chain in chains:
            for (ci, left), (cj, entry) in zip(chain, chain[1:]):
                # the bigon at ci's right corner is the one at cj's left corner
                assert d.crossings[ci][(left + 3) % 4] == d.crossings[cj][entry]
                assert d.crossings[ci][(left + 2) % 4] == d.crossings[cj][(entry + 1) % 4]


# ---------------------------------------------------------------------------
# Reference: every template wired twist by twist in one builder and emitted
# from it.  `emit` walks each net of ports and junctions once: it numbers and
# orients the arcs along each strand from the least port not yet numbered,
# counts the nets of junctions alone as free loops, and hands the diagram
# the strand components it walked.


EMIT = "construction: emit"  # InconsistentDiagram.stage of the wiring checks


class ReferenceBuilder(Builder):
    """`Builder` with the twist boxes, the tangle joins and the emission of
    the one-builder construction."""

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
                        raise InconsistentDiagram(f"junction {~r} does not lead back", EMIT)
                    on_path[~r] = True
                    prev, r = r, lj[lj[0] == prev]
                if arc[r] >= 0:
                    raise InconsistentDiagram(f"crossing {r >> 2} port {r & 3} met twice", EMIT)
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


def reference_finish(b):
    d = b.emit()
    if d.component_count() != 1:
        raise NotAKnot(f"{d.component_count()} components")
    return d


def reference_double_twist(m_h, m_v):
    m_h, m_v = -m_h, -m_v
    b = ReferenceBuilder()
    t = b.vbox(construct.DT_V_SIGN * m_v)
    for _ in range(abs(m_h)):
        b.htwist(t, m_h)
    b.numerator_close(t)
    return reference_finish(b)


def reference_fig1_left(a, b, c, d, e, f):
    bl = ReferenceBuilder()
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
    return reference_finish(bl)


def reference_fig1_right(a, b, c, d, e, f):
    counts = [-(2 + 2 * int(v)) for v in (a, b, c)] + [1 + 2 * int(v) for v in (d, e, f)]
    offsets = (0, 0, 0, 1, 1, 1)
    leads = ("NE", "NW", "SW", "SE")  # counterclockwise around a box
    rot = construct._OCTA_ROT
    bl = ReferenceBuilder()
    tangles = [bl.hbox(m) for m in counts]
    done = set()
    for i in range(6):
        for idx, nb in enumerate(rot[i]):
            if (nb, i) in done:
                continue
            la = tangles[i][leads[(offsets[i] + idx) % 4]]
            lb = tangles[nb][leads[(offsets[nb] + rot[nb].index(i)) % 4]]
            bl.solder(la, lb)
            done.add((i, nb))
    return reference_finish(bl)


def reference_rational_tangle(b, beta, alpha):
    if beta == 0:
        return b.zero_tangle()
    entries = additive_cf(alpha if beta > 0 else -alpha, abs(beta))
    t = b.inf_tangle() if len(entries) % 2 == 1 else b.zero_tangle()
    for j in range(len(entries), 0, -1):
        m = entries[j - 1]
        for _ in range(abs(m)):
            (b.vtwist if j % 2 == 1 else b.htwist)(t, m)
    return t


def reference_montesinos_build(fractions, gamma=0):
    """(crossings, over_entry, free_loops, components) of the emitted chain."""
    b = ReferenceBuilder()
    tangles = [reference_rational_tangle(b, beta, alpha) for beta, alpha in fractions]
    if gamma:
        tangles.append(b.hbox(gamma))
    for t, u in zip(tangles, tangles[1:] + tangles[:1]):
        b.solder(t["NE"], u["NW"])
        b.solder(t["SE"], u["SW"])
    d = b.emit()
    return d.crossings, d.over_entry, d.free_loops, d.components()


def montesinos_grid_pairs():
    """The normalized pairs of every M(...) knot of length 3 or 4 with
    denominators <= 5 and |gamma| <= 2, up to the order of its tangles."""
    tangles = [(p, q) for q in range(2, 6) for p in range(1 - q, q) if math.gcd(p, q) == 1]
    for r in (3, 4):
        for combo in itertools.combinations_with_replacement(tangles, r):
            for gamma in range(-2, 3):
                try:
                    yield _normal_pairs(MontesinosSpec(combo, gamma))
                except NotAKnot:
                    pass


def test_tangle_tables_build_what_the_builder_builds():
    family = [_normal_pairs(f) for name in FAMILY_NAMES for f in enumerate_family(name, 3)]
    grid = list(montesinos_grid_pairs())
    qs = [q for q in range(-2, 3) if q]
    pretzels = [([(1, q) if q > 0 else (-1, -q) for q in qs3], 0)
                for qs3 in itertools.product(qs, repeat=3)]
    assert (len(family), len(grid), len(pretzels)) == (25_468, 17_572, 64)
    built = 0
    for pairs, gamma in family + grid + pretzels:
        try:
            d = montesinos_diagram(pairs, gamma)
        except NotAKnot as exc:
            _, _, free, components = reference_montesinos_build(pairs, gamma)
            k = len(components) + free
            assert k != 1 and str(exc) == f"{k} components", (pairs, gamma)
            continue
        built += 1
        assert (d.crossings, d.over_entry, d.free_loops, d.components()) \
            == reference_montesinos_build(pairs, gamma), (pairs, gamma)
    assert built > 40_000


def built_or_error(build, *args):
    """(crossings, over_entry, free_loops, components) of a build, or the
    type and message of the error it raises."""
    try:
        d = build(*args)
    except KnotctError as exc:
        return type(exc).__name__, str(exc)
    return d.crossings, d.over_entry, d.free_loops, d.components()


def test_six_box_and_double_twist_tables_build_what_the_builder_builds():
    six_box = [f for f in _formulas_specs(2) if f.family in ("fig1_left", "fig1_right")]
    assert len(six_box) == 31_250
    for f in six_box:
        build, reference = ((fig1_left_diagram, reference_fig1_left) if f.family == "fig1_left"
                            else (fig1_right_diagram, reference_fig1_right))
        assert built_or_error(build, *f.param_values()) \
            == built_or_error(reference, *f.param_values()), f
    steps = [x for x in range(-6, 7) if x]
    for x, y in itertools.product(steps, repeat=2):
        assert built_or_error(double_twist_diagram, 2 * x, 2 * y) \
            == built_or_error(reference_double_twist, 2 * x, 2 * y), (x, y)


def test_montesinos_template_alternating():
    d = montesinos_diagram([(1, 2), (1, 3), (1, 3)], 0)
    assert d.component_count() == 1
    assert d.is_alternating()


def test_fig1_templates():
    dl = fig1_left_diagram(1, 1, 1, 1, 1, 1)
    dr = fig1_right_diagram(1, 1, 1, 1, 1, 1)
    assert dl.component_count() == 1
    assert dr.component_count() == 1
