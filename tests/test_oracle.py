"""Diagram-level oracles: Jones via Kauffman bracket, Seifert pipeline."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from array import array
from collections import deque
from fractions import Fraction

import pytest
from braids import closed_braid
from hypothesis import assume, given, settings
from test_braids import braid_words
from test_diagram import template_knots
from test_montesinos import _retained_bytes

import knotct
from knotct import kauffman
from knotct.diagram import (
    PlanarDiagram,
    construct,
    double_twist_diagram,
    montesinos_diagram,
    pretzel_diagram,
    signature_alternating,
)
from knotct.errors import (
    BudgetExceeded,
    InconsistentDiagram,
    KnotctError,
    NotAKnot,
    NotAlternating,
    NotReduced,
)
from knotct.exactmath import LaurentPoly
from knotct.gauss import gauss_a2
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    enumerate_family,
    family_to_montesinos,
    parse_spec,
)
from knotct.oracle import (
    SeifertData,
    _det_polynomial,
    _signature,
    a2_w3_from_jones,
    alternating_genus,
    conway_polynomial,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)
from knotct.pipeline import alternating_build
from knotct.sweeps import _FORMULAS_CROSSING_CAP, _formulas_specs


def test_unknot_jones_is_one():
    d = pretzel_diagram([-1, 1, 1]).simplify()
    assert jones_via_kauffman(d) == LaurentPoly.one()


def test_trefoil_jones():
    d = pretzel_diagram([1, 1, 1])
    v = jones_via_kauffman(d)
    # one chirality of the trefoil: -t^-4 + t^-3 + t^-1 (or its mirror)
    coeffs = {e: v.coefficient(e) for e in range(-5, 6) if v.coefficient(e)}
    assert coeffs in (
        {-4: -1, -3: 1, -1: 1},
        {4: -1, 3: 1, 1: 1},
    )


def test_jones_mirror_inverts_variable():
    d = pretzel_diagram([3, 5, 1])
    assert jones_via_kauffman(d.mirror()) == jones_via_kauffman(d).invert_variable()


def test_trefoil_a2_w3():
    a2, w3 = a2_w3_from_jones(jones_via_kauffman(pretzel_diagram([1, 1, 1])))
    assert a2 == 1
    assert abs(w3) == Fraction(1, 2)


def test_figure_eight_invariants():
    d = double_twist_diagram(2, -2).simplify()
    a2, w3 = a2_w3_from_jones(jones_via_kauffman(d))
    assert a2 == -1
    assert w3 == 0  # amphichiral
    assert oracle_signature(seifert_pipeline(d)) == 0


def test_conway_matches_jones_a2():
    for text in ("P(3,5,1)", "DT(2,4)", "P(1,1,1)"):
        d = parse_spec(text).diagram().simplify()
        a2, _ = a2_w3_from_jones(jones_via_kauffman(d))
        assert conway_polynomial(seifert_pipeline(d)).coefficient(2) == a2


def test_conway_of_unknot():
    d = pretzel_diagram([-1, 1, 1]).simplify()
    nabla = conway_polynomial(seifert_pipeline(d))
    assert nabla == LaurentPoly.one()


def test_signature_trefoils():
    d = pretzel_diagram([1, 1, 1])
    s = oracle_signature(seifert_pipeline(d))
    assert abs(s) == 2
    assert oracle_signature(seifert_pipeline(d.mirror())) == -s


def test_alternating_genus_matches_known():
    d = pretzel_diagram([1, 1, 1])
    assert alternating_genus(d, seifert_pipeline(d)) == 1
    d = pretzel_diagram([3, 5, 1])
    assert alternating_genus(d, seifert_pipeline(d)) == 1


def test_alternating_shortcuts_raise_typed_errors():
    kinked = closed_braid([1, 1, 1, -2], 3)  # an alternating trefoil diagram
    crossed = pretzel_diagram([3, -2, 5])
    assert kinked.is_alternating() and kinked.nugatory_crossings() == [3]
    assert crossed.is_reduced() and not crossed.is_alternating()
    for d, error in ((kinked, NotReduced), (crossed, NotAlternating)):
        assert issubclass(error, KnotctError)
        for shortcut in (signature_alternating, lambda d: alternating_genus(d, seifert_pipeline(d))):
            with pytest.raises(KnotctError) as info:
                shortcut(d)
            assert type(info.value) is error


# sha256 of (surface genus, Seifert matrix, circle count) over the knot
# diagrams of at most 16 crossings in the bound-2 genus-2 families.  The
# matrix depends on the circle order and the spanning tree of the surface,
# not only on the knot, so no invariant would notice a changed basis.
SEIFERT_BASIS_SHA256 = "261e41d067ef73d868e5a67cab560c4ea905355af30b5e69ca76cb48b66f58c2"


def test_seifert_basis_is_pinned():
    digest, count = hashlib.sha256(), 0
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 2):
            d = f.diagram()
            if d.component_count() != 1 or d.n > 16:
                continue
            count += 1
            sd = seifert_pipeline(d)
            digest.update(repr((sd.surface_genus, sd.seifert_matrix, sd.circles)).encode())
    assert count == 2126
    assert digest.hexdigest() == SEIFERT_BASIS_SHA256


# the same hash over the traffic of the genus suite's Seifert oracle: the
# bound-3 family builds that are reduced alternating knots of at most 22
# crossings, in enumerate_family order
SEIFERT_BASIS_BOUND_3_SHA256 = "81f177966f50ea19f6d3a40349dd29ec464925e138f16b7439467a84cd955842"


def test_seifert_basis_is_pinned_on_bound_three_alternating_builds():
    digest, count = hashlib.sha256(), 0
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 3):
            d = f.diagram()
            if (d.component_count() != 1 or d.n > _FORMULAS_CROSSING_CAP
                    or not (d.is_alternating() and d.is_reduced())):
                continue
            count += 1
            sd = seifert_pipeline(d)
            digest.update(repr((sd.surface_genus, sd.seifert_matrix, sd.circles)).encode())
    assert count == 4292
    assert digest.hexdigest() == SEIFERT_BASIS_BOUND_3_SHA256


# sha256 of (spec, kind, Seifert sigma, alternating sigma or None) over every
# bound-2 genus-2 family build, its mirror and its alternating_build diagram,
# recorded with the congruence-diagonalization signature and the union-find
# A-state loop count that both routes replaced.
SIGNATURES_SHA256 = "56b22124b1673fa96c710643b7d4f612ce187f3f024642b30ec96d405dcd6fa2"


def test_signatures_are_pinned():
    digest, count, alternating = hashlib.sha256(), 0, 0
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 2):
            d = f.diagram()
            alt = alternating_build(family_to_montesinos(f))
            for kind, e in (("build", d), ("mirror", d.mirror()), ("alt", alt and montesinos_diagram(*alt))):
                if e is None:
                    continue
                s_alt = signature_alternating(e) if e.is_alternating() and e.is_reduced() else None
                count += 1
                alternating += s_alt is not None
                digest.update(repr((str(f), kind, (oracle_signature(seifert_pipeline(e)), s_alt))).encode())
    assert (count, alternating) == (6828, 2376)
    assert digest.hexdigest() == SIGNATURES_SHA256


def test_jones_budget_enforced(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        jones_via_kauffman(pretzel_diagram([5, 5, 5]))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "40")
    v = jones_via_kauffman(pretzel_diagram([9, 9, 9]))
    assert sum(v.coeffs.values()) == 1  # V(1) = 1 for any knot


# A zero Seifert matrix has det(V - V^T) = 0, which no knot has, so the
# Conway polynomial's consistency check must reject it.
LINK_LIKE_SEIFERT = SeifertData(1, ((0, 0), (0, 0)), 1)


def test_oracle_check_raises_typed_error():
    with pytest.raises(InconsistentDiagram) as info:
        conway_polynomial(LINK_LIKE_SEIFERT)
    assert info.value.stage == "oracle: Conway polynomial"
    assert str(info.value).startswith("oracle: Conway polynomial: ")


def test_oracle_check_survives_optimized_mode():
    src = os.path.dirname(list(knotct.__path__)[0])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_oracle import LINK_LIKE_SEIFERT\n"
        "from knotct.errors import InconsistentDiagram\n"
        "from knotct.oracle import conway_polynomial\n"
        "try:\n"
        "    conway_polynomial(LINK_LIKE_SEIFERT)\n"
        "except InconsistentDiagram as exc:\n"
        "    print('raised', exc.stage)\n"
    )
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "raised oracle: Conway polynomial"


def _swap_corner_faces(d, patch):
    """Swap the faces at corners 1 and 3 of crossing 0 in d's face table."""
    faces, face_of_corner = d.face_table()
    swapped = [list(corners) for corners in face_of_corner]
    swapped[0][1], swapped[0][3] = swapped[0][3], swapped[0][1]
    patch.setattr(d, "_faces", (faces, swapped))


def _skip_a_circle_arc(d, patch):
    """Send the Seifert smoothing at the head of d's least arc past the
    next arc of its circle, to the one after it."""
    heads = d.ends()[0]

    def step(a):
        ci, s = heads[a]
        t = 2 if s else 4 - d.over_entry[ci]
        return ci, t, d.crossings[ci][t]

    ci, t, after = step(min(heads))
    rows = [list(row) for row in d.crossings]
    rows[ci][t] = step(after)[2]
    patch.setattr(d, "crossings", tuple(map(tuple, rows)))


# the face table fails the side check; the skipped arc starts a second walk
# that runs into the first circle's band ends
_SURFACE_FAULTS = [(_swap_corner_faces, "circle side regions not constant"),
                   (_skip_a_circle_arc, "circle 14 meets band end 1 again")]


@pytest.mark.parametrize("fault, message", _SURFACE_FAULTS, ids=["faces", "walk"])
def test_a_corrupt_surface_table_raises_a_typed_error(fault, message, monkeypatch):
    d = pretzel_diagram([3, 5, 7])
    fault(d, monkeypatch)
    with pytest.raises(InconsistentDiagram) as info:
        seifert_pipeline(d)
    assert info.value.stage == "oracle: Seifert surface"
    assert str(info.value) == f"oracle: Seifert surface: {message}"


@pytest.mark.parametrize("fault, message", _SURFACE_FAULTS, ids=["faces", "walk"])
def test_a_corrupt_surface_table_raises_under_optimized_mode(fault, message):
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from types import SimpleNamespace\n"
        "from knotct.diagram import pretzel_diagram\n"
        "from knotct.errors import InconsistentDiagram\n"
        "from knotct.oracle import seifert_pipeline\n"
        f"from test_oracle import {fault.__name__} as fault\n"
        "d = pretzel_diagram([3, 5, 7])\n"
        "fault(d, SimpleNamespace(setattr=setattr))\n"
        "try:\n"
        "    seifert_pipeline(d)\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc.stage, exc, sep='|')\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == f"oracle: Seifert surface|oracle: Seifert surface: {message}"


def gauss_code_diagrams(count=20000, seed=5, most=7):
    """Seeded one-strand PD codes read off random signed Gauss codes: n in
    1..`most` crossings, each met once over and once under in a shuffled
    order along the strand (passage p runs from arc p to arc p + 1), and a
    coin flip per crossing for whether its over strand enters at slot 1 or
    slot 3.  Every code passes validation, and most are not planar."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, most)
        passages = [(c, over) for c in range(n) for over in (False, True)]
        rng.shuffle(passages)
        entry = [rng.choice((1, 3)) for _ in range(n)]
        rows = [[0] * 4 for _ in range(n)]
        for p, (c, over) in enumerate(passages):
            ends = p, (p + 1) % (2 * n)
            if not over:
                rows[c][0], rows[c][2] = ends
            elif entry[c] == 1:
                rows[c][1], rows[c][3] = ends
            else:
                rows[c][3], rows[c][1] = ends
        yield PlanarDiagram(rows, entry)


def gauss_code_fuzz():
    """(agreeing, refused) over `gauss_code_diagrams`: a code is refused
    when the Seifert surface, the Kauffman wiring and the nugatory check
    all raise InconsistentDiagram at the face table's planarity check; else
    Conway, Gauss and Jones must give it the same a2."""
    agreeing = refused = 0
    for d in gauss_code_diagrams():
        stages = set()
        for route in (seifert_pipeline, jones_via_kauffman, PlanarDiagram.is_reduced):
            try:
                route(d)
            except InconsistentDiagram as exc:
                stages.add(exc.stage)
        if stages:
            assert stages == {"diagram: face table"}, (d.crossings, d.over_entry, stages)
            refused += 1
            continue
        a2 = conway_polynomial(seifert_pipeline(d)).coefficient(2)
        assert a2 == gauss_a2(d) == a2_w3_from_jones(jones_via_kauffman(d))[0], d.crossings
        agreeing += 1
    return agreeing, refused


GAUSS_CODE_FUZZ = (6355, 13645)


def test_gauss_code_fuzz_refuses_every_non_planar_code():
    assert gauss_code_fuzz() == GAUSS_CODE_FUZZ


def test_gauss_code_fuzz_survives_optimized_mode():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_oracle import gauss_code_fuzz\n"
        "print(*gauss_code_fuzz())\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == [str(k) for k in GAUSS_CODE_FUZZ]


# ---------------------------------------------------------------------------
# Reference: a state sum that contracts one crossing at a time into
# frozenset pairings of the frontier and keeps Laurent polynomials, with no
# crossing budget and checks that raise AssertionError.  The Kauffman route,
# which contracts whole twist regions into packed integer state counts, must
# match it bit for bit.

# Laurent polynomials in A here are plain {exponent: coefficient} dicts,
# with no zero coefficients.
DELTA = {2: -1, -2: -1}  # loop value -A^2 - A^-2


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def div_exact(p, d):
    """Exact Laurent division (leading coefficient of d must be a unit)."""
    de = max(d)
    dc = d[de]
    q = {}
    while p:
        e = max(p)
        c = p[e]
        if c % dc:
            raise AssertionError("inexact division")
        q[e - de] = c // dc
        p = poly_add(p, poly_mul({e - de: -(c // dc)}, d))
    return q


def reference_jones(d):
    """Jones polynomial by the crossing-at-a-time frozenset-pairing state
    sum (no crossing budget)."""
    assert d.component_count() == 1
    if d.n == 0:
        return LaurentPoly.one()

    pos = d.positions()

    def occ_other(ci, s):
        a = d.crossings[ci][s]
        o1, o2 = pos[a]
        return o2 if o1 == (ci, s) else o1

    # greedy processing order: prefer crossings with many half-done arcs
    order = []
    processed = set()
    remaining = set(range(d.n))
    while remaining:
        if not order:
            best = min(remaining)
        else:
            best = max(
                remaining,
                key=lambda ci: (
                    sum(1 for s in range(4) if occ_other(ci, s)[0] in processed or occ_other(ci, s)[0] == ci),
                    -ci,
                ),
            )
        order.append(best)
        processed.add(best)
        remaining.discard(best)

    states = {frozenset(): {0: 1}}
    processed = set()
    for ci in order:
        slots = [(ci, s) for s in range(4)]
        new_states = {}
        for key, val in states.items():
            pairing = {}
            for pr in key:
                p, q = tuple(pr)
                pairing[p] = q
                pairing[q] = p
            for joins, w in ((((0, 1), (2, 3)), {1: 1}), (((1, 2), (3, 0)), {-1: 1})):
                adj = {}

                def add_edge(u, v):
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)

                seen_arc = set()
                for s in range(4):
                    p = (ci, s)
                    o = occ_other(ci, s)
                    if o[0] == ci:
                        a = d.crossings[ci][s]
                        if a not in seen_arc:
                            seen_arc.add(a)
                            add_edge(p, o)
                    elif p in pairing:
                        q = pairing[p]
                        if q in slots:
                            a = (p, q) if p < q else (q, p)
                            if a not in seen_arc:
                                seen_arc.add(a)
                                add_edge(p, q)
                        else:
                            add_edge(p, ("ext", q))
                    else:
                        add_edge(p, ("ext", o))
                for s, t in joins:
                    add_edge((ci, s), (ci, t))
                # trace components of the local degree<=2 graph
                nodes = set(adj)
                loops = 0
                new_pairs = []
                while nodes:
                    start = next(iter(nodes))
                    comp = {start}
                    stack = [start]
                    while stack:
                        u = stack.pop()
                        for v in adj[u]:
                            if v not in comp:
                                comp.add(v)
                                stack.append(v)
                    nodes -= comp
                    ends = [u for u in comp if isinstance(u[0], str)]
                    if not ends:
                        loops += 1
                    elif len(ends) == 2:
                        new_pairs.append(frozenset((ends[0][1], ends[1][1])))
                    else:
                        raise AssertionError(f"frontier strand with ends {ends}")
                kept = [pr for pr in key if not (set(pr) & set(slots))]
                nkey = frozenset(kept) | frozenset(new_pairs)
                nval = poly_mul(val, w)
                for _ in range(loops):
                    nval = poly_mul(nval, DELTA)
                new_states[nkey] = poly_add(new_states.get(nkey, {}), nval)
        states = new_states
        processed.add(ci)

    total = {}
    for key, val in states.items():
        if key:
            raise AssertionError(
                f"{len(key)} open frontier pairs after the last crossing")
        total = poly_add(total, val)
    for _ in range(d.free_loops):
        total = poly_mul(total, DELTA)
    bracket = div_exact(total, DELTA)
    # times (-A^3)^-writhe
    w = d.writhe()
    f = {e - 3 * w: -c if w % 2 else c for e, c in bracket.items()}
    # substitute A = t^(-1/4)
    coeffs = {}
    for e, c in f.items():
        if e % 4:
            raise AssertionError(f"bracket exponent {e} not divisible by 4")
        coeffs[-e // 4] = coeffs.get(-e // 4, 0) + c
    return LaurentPoly(coeffs)


def braid_knots():
    """Closures of seeded random 3- and 4-strand braid words that are knots."""
    rng = random.Random(20261018)
    out = []
    while len(out) < 40:
        k = rng.choice((3, 4))
        word = [rng.choice([g for g in range(1 - k, k) if g]) for _ in range(rng.randint(4, 16))]
        d = closed_braid(word, k)
        if d.component_count() == 1:
            out.append(d)
    return out


def zero_family():
    """The AC2 family F1L(a, a+1, 0, 0, a+1, 0), 10 to 40 crossings."""
    return [parse_spec(f"F1L({a},{a + 1},0,0,{a + 1},0)").diagram().simplify()
            for a in range(6)]


def torus_knots():
    """(2,k) torus closures for odd k: one twist region closed into a bigon
    cycle, which the chain contraction must split into an open chain."""
    return [closed_braid([sign] * k, 2) for k in (1, 3, 5, 7, 9) for sign in (1, -1)]


def mixed_bigon_knots():
    """Closed braids with bigons between crossings of opposite sign (R2
    pairs), inside one twist region or next to others."""
    words = ([1, -1, 1, 1, 1], [1, 1, -1, -1, 1], [-1, 1, -1, -1, -1, 1, -1],
             [1, -1, 2, -2, 1, 2], [1, -1, 1, 2, -2, 2], [1, -1, 2, -2, 1, 2, -3, 3, 3],
             [1, -1, 1, 2, -2, 2, 3, -3, 3], [1, -1, -1, 2, 1, -2, 2, -1, 2, 2, 3])
    return [closed_braid(w, max(map(abs, w)) + 1) for w in words]


def unsimplified_template_knots():
    """Template builds that keep their kinks or R2 pairs."""
    return [parse_spec(text).diagram() for text in (
        "F1R(-2,-1,-1,-2,-2,-2)", "F1R(-2,-1,-1,-2,-2,1)", "P(-2,-1,1)", "P(-1,-1,1)",
        "P(1,-1,3)", "P(-1,1,1)", "P(1,1,-1,-1,1)")]


def ac1_sample():
    """150 knot diagrams of at most 22 crossings, drawn with a fixed seed
    from the formulas suite's families at bound 2."""
    specs = [f for family in ("o1", "o2", "o3", "o4", "o5", "e1", "e2", "e3")
             for f in enumerate_family(family, 2)]
    specs += [FamilySpec(family, dict(zip("abcdef", vals)))
              for family in ("fig1_left", "fig1_right")
              for vals in itertools.product(range(-2, 3), repeat=6)]
    out = []
    for f in random.Random(20261018).sample(specs, len(specs)):
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() == 1 and d.n <= 22:
            out.append(d)
            if len(out) == 150:
                return out


@pytest.mark.parametrize("diagrams", [template_knots, zero_family, braid_knots, torus_knots,
                                      mixed_bigon_knots, unsimplified_template_knots,
                                      ac1_sample])
def test_state_sum_matches_reference(diagrams, monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "44")
    refs = [(e, reference_jones(e)) for d in diagrams() for e in (d, d.mirror())]
    # the second pass reads every wiring's plan from the memo
    for _ in range(2):
        for e, ref in refs:
            v = jones_via_kauffman(e)
            assert v.coeffs == ref.coeffs
            assert sum(v.coeffs.values()) == 1


def test_state_sum_rejects_links():
    with pytest.raises(NotAKnot):
        jones_via_kauffman(closed_braid([1, 1], 2))


def _wiring(d):
    return kauffman._chain_ends(d.crossings, d.twist_regions())


@pytest.fixture
def fresh_plans():
    kauffman._plan.cache_clear()
    yield
    kauffman._plan.cache_clear()  # drop any plan a patched contraction made


def test_one_wiring_is_planned_once(fresh_plans):
    # three twist columns wired alike, with different twist counts
    first, second = pretzel_diagram([3, 5, 7]), pretzel_diagram([5, 7, 9])
    assert _wiring(first) == _wiring(second)
    assert jones_via_kauffman(first) == reference_jones(first)
    assert kauffman._plan.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert jones_via_kauffman(second) == reference_jones(second)
    assert kauffman._plan.cache_info()[:2] == (1, 1)


def test_twist_regions_are_computed_once():
    d = pretzel_diagram([3, 5, 7])
    first = d.twist_regions()
    assert d.twist_regions() is first
    assert jones_via_kauffman(d) == jones_via_kauffman(d) == reference_jones(d)


def test_nugatory_crossings_are_computed_once(monkeypatch):
    d, kinked = pretzel_diagram([3, 5, 7]), closed_braid([1, 1, 1, -2], 3)
    sd, first, bad = seifert_pipeline(d), d.nugatory_crossings(), kinked.nugatory_crossings()
    assert first == [] and bad == [3]

    def traced_again(self):
        raise AssertionError("face table read again")

    # the reducedness checks of both shortcuts read the one list
    monkeypatch.setattr(PlanarDiagram, "face_table", traced_again)
    assert d.nugatory_crossings() is first and d.is_reduced()
    assert alternating_genus(d, sd) == 1
    assert kinked.nugatory_crossings() is bad and not kinked.is_reduced()
    with pytest.raises(NotReduced, match=r"nugatory crossings at \[3\]"):
        signature_alternating(kinked)
    monkeypatch.undo()
    assert signature_alternating(d) == 2


def test_a_contraction_that_raises_leaves_no_plan(monkeypatch, fresh_plans):
    d = pretzel_diagram([3, 5, 7])
    order = kauffman._chain_order
    # leaving the last chain out leaves its arcs open on the frontier
    monkeypatch.setattr(kauffman, "_chain_order", lambda far: order(far)[:-1])
    with pytest.raises(InconsistentDiagram, match="open frontier pairs"):
        jones_via_kauffman(d)
    info = kauffman._plan.cache_info()
    assert (info.misses, info.currsize) == (1, 0)
    monkeypatch.undo()
    assert jones_via_kauffman(d) == reference_jones(d)


# Every distinct wiring of the knots among the Montesinos chains of three
# to five tangles p/q, q < 8, exactly one of them of even q, within the
# default Jones budget: 1,024 of them fill the plan memo.
_WIRINGS = """(lambda seen: ((key,) for key in (
    kauffman._chain_ends(d.crossings, d.twist_regions())
    for m in (3, 4, 5)
    for pairs in combinations_with_replacement(
        [(p, q) for q in range(2, 8) for p in range(1, q) if gcd(p, q) == 1], m)
    if sum(q % 2 == 0 for _, q in pairs) == 1
    for d in [construct.montesinos_diagram(pairs)] if d.n <= 26)
    if key not in seen and not seen.add(key)))(set())"""


def test_a_full_plan_memo_stays_under_one_megabyte():
    # the formulas suite (AC1) wires its diagrams and their mirrors in 525 ways
    assert kauffman._PLAN_MEMO_SIZE >= 525
    retained = _retained_bytes("kauffman._plan", _WIRINGS)
    assert retained <= 1_000_000, retained


def reference_chain_order(far):
    """The chain order as a bucket queue: one stack per count (0 to 4) of
    ends whose arc ends at a processed chain or at the chain itself, a
    chain pushed again each time its count rises, and an entry that a
    raised count left behind skipped when popped."""
    m = len(far) // 4
    count = [sum(x >> 2 == r for x in far[4 * r:4 * r + 4]) for r in range(m)]
    buckets = [[] for _ in range(5)]
    for r in range(m - 1, 0, -1):
        buckets[count[r]].append(r)
    done = [True] + [False] * (m - 1)
    order = [0]
    while len(order) < m:
        last = order[-1]
        for x in far[4 * last:4 * last + 4]:
            r2 = x >> 2
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


@functools.cache
def montesinos_wirings():
    """The `_WIRINGS` set: 2,025 Montesinos wirings of up to 26 crossings."""
    names = {"kauffman": kauffman, "construct": construct, "gcd": math.gcd,
             "combinations_with_replacement": itertools.combinations_with_replacement}
    return tuple(sorted(key for (key,) in eval(_WIRINGS, names)))


@functools.cache
def ac1_wirings():
    """The wirings of every twentieth formulas-suite (AC1) knot diagram and
    of its mirror."""
    keys = set()
    for f in _formulas_specs(2)[::20]:
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() == 1 and d.n <= _FORMULAS_CROSSING_CAP:
            keys.update(map(_wiring, (d, d.mirror())))
    return tuple(sorted(keys))


@functools.cache
def braid_wirings():
    """The wirings of 1,000 closed-braid knots of 3 to 6 strands and up to
    18 letters, drawn with a fixed seed."""
    rng, keys, knots = random.Random(11), set(), 0
    while knots < 1000:
        k = rng.randint(3, 6)
        word = [rng.choice([g for g in range(1 - k, k) if g]) for _ in range(rng.randint(1, 18))]
        d = closed_braid(word, k)
        if d.component_count() == 1:
            knots += 1
            keys.add(_wiring(d))
    return tuple(sorted(keys))


# (wiring set, its size, sha256 of its plans)
_PLAN_PINS = [
    (montesinos_wirings, 2025, "fac72d280ddd2f71aa3630bccd7240a69cc612ef896a31926d6bd6f63dbe673b"),
    (ac1_wirings, 296, "e9e227d4dc47fb2873f2bcb6efa0d578c4246df3eb2a016ed940a81ea6beab63"),
    (braid_wirings, 716, "c6ddfa1ff147dd256ce43c5d193bd1e397d9523447110b833677242871c2eb18"),
]
_PLAN_PIN_IDS = ["montesinos", "ac1", "braids"]


@pytest.mark.parametrize("wirings, count", [pin[:2] for pin in _PLAN_PINS], ids=_PLAN_PIN_IDS)
def test_the_chain_scan_orders_as_the_bucket_queue(wirings, count):
    keys = wirings()
    assert len(keys) == count
    for key in keys:
        far = array("I", key)
        assert kauffman._chain_order(far) == reference_chain_order(far)


@pytest.mark.parametrize("wirings, count, digest", _PLAN_PINS, ids=_PLAN_PIN_IDS)
def test_plans_are_pinned(wirings, count, digest):
    # each plan as built, not as the memo holds it
    h, keys = hashlib.sha256(), wirings()
    assert len(keys) == count
    for key in keys:
        code, plan = kauffman._plan.__wrapped__(key)
        h.update(key)
        h.update(code.encode())
        h.update(plan)
    assert h.hexdigest() == digest


_TRACE = kauffman._trace


def _add_a_loop(outside, join):
    loops, pairs = _TRACE(outside, join)
    return loops + 1, pairs


def _drop_a_loop(outside, join):
    loops, pairs = _TRACE(outside, join)
    return max(loops - 1, 0), pairs


# a pairing of four ends closes at most two loops; a state sum short of a
# loop is no multiple of the loop value
_MISCOUNTS = [(_add_a_loop, "a pairing of four ends closed 3 loops"),
              (_drop_a_loop, "the state sum is not a nonzero multiple of the loop value")]


@pytest.mark.parametrize("trace, message", _MISCOUNTS, ids=["added", "dropped"])
def test_a_miscounted_loop_raises_a_typed_error(trace, message, monkeypatch, fresh_plans):
    monkeypatch.setattr(kauffman, "_trace", trace)
    with pytest.raises(InconsistentDiagram) as info:
        jones_via_kauffman(pretzel_diagram([3, 5, 7]))
    assert info.value.stage == "oracle: Kauffman bracket"
    assert str(info.value) == f"oracle: Kauffman bracket: {message}"


@pytest.mark.parametrize("trace, message", _MISCOUNTS, ids=["added", "dropped"])
def test_a_miscounted_loop_raises_under_optimized_mode(trace, message):
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from knotct import kauffman\n"
        "from knotct.diagram import pretzel_diagram\n"
        "from knotct.errors import InconsistentDiagram\n"
        f"from test_oracle import {trace.__name__} as trace\n"
        "kauffman._trace = trace\n"
        "try:\n"
        "    kauffman.jones_via_kauffman(pretzel_diagram([3, 5, 7]))\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == f"oracle: Kauffman bracket: {message}"


# ---------------------------------------------------------------------------
# Reference: the determinant kernel as first written, which evaluated
# p(u) = det(uA - C) at u = 0..n by Bareiss determinants and interpolated it
# by Newton differences over the common denominator n!.  The packed kernel
# reads the same coefficients from one determinant at u = 2^B.


def _reference_det(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _reference_interpolate(values):
    n = len(values)
    denom = 1
    for k in range(2, n):
        denom *= k
    acc = [0] * n
    falling = [1]
    row, scale = list(values), denom
    for k in range(n):
        if k:
            scale //= k
            falling = [(falling[i - 1] if i else 0) - (k - 1) * (falling[i] if i < k else 0)
                       for i in range(k + 1)]
        for i, c in enumerate(falling):
            acc[i] += row[0] * scale * c
        row = [b - a for a, b in zip(row, row[1:])]
    assert all(c % denom == 0 for c in acc)
    return [c // denom for c in acc]


def reference_det_polynomial(a, c):
    n = len(a)
    return _reference_interpolate([
        _reference_det([[u * a[i][j] - c[i][j] for j in range(n)] for i in range(n)])
        for u in range(n + 1)])


def reference_signature(rows):
    n = len(rows)
    if n == 0:
        return 0
    p = reference_det_polynomial([[int(i == j) for j in range(n)] for i in range(n)], rows)
    signs = [c > 0 for c in p if c]
    rank = n - next(k for k, c in enumerate(p) if c)
    return 2 * sum(x != y for x, y in zip(signs, signs[1:])) - rank


def _ac1_and_bound_three_alternating_matrices():
    """Every distinct Seifert matrix of the formulas suite's bound-2 knot
    diagrams (the AC1 list) and of the bound-3 family builds that are
    reduced alternating, as the genus suite's oracle takes them."""
    seen = set()
    for f in _formulas_specs(2):
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() == 1 and d.n <= _FORMULAS_CROSSING_CAP:
            seen.add(seifert_pipeline(d).seifert_matrix)
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 3):
            d = f.diagram()
            if d.n <= 22 and d.is_alternating() and d.is_reduced():
                seen.add(seifert_pipeline(d).seifert_matrix)
    seen.discard(())  # an unknot's: no determinant to take
    return seen


def test_packed_determinants_equal_the_interpolated_ones():
    matrices = _ac1_and_bound_three_alternating_matrices()
    assert len(matrices) > 1000
    for v in matrices:
        n = len(v)
        vt = [[v[j][i] for j in range(n)] for i in range(n)]
        assert _det_polynomial(v, vt) == reference_det_polynomial(v, vt), v
        sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
        assert oracle_signature(SeifertData(n // 2, v, 0)) == _signature(sym) \
            == reference_signature(sym), v


def test_packed_determinant_rejects_a_leftover_digit(monkeypatch):
    # det(u * [[1]] - [[0]]) = u is read with 2-bit digits: a determinant
    # with a digit above u^1 cannot be a polynomial of degree 1
    assert _det_polynomial([[1]], [[0]]) == [0, 1]
    monkeypatch.setattr(knotct.oracle, "_bareiss_det", lambda rows: 1 << 4)
    with pytest.raises(InconsistentDiagram) as info:
        _det_polynomial([[1]], [[0]])
    assert info.value.stage == "oracle: Conway polynomial"


def test_packed_determinant_check_survives_optimized_mode():
    code = (
        "import knotct.oracle as o\n"
        "from knotct.errors import InconsistentDiagram\n"
        "o._bareiss_det = lambda rows: 1 << 4\n"
        "try:\n"
        "    o._det_polynomial([[1]], [[0]])\n"
        "except InconsistentDiagram as exc:\n"
        "    print(exc.stage)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "oracle: Conway polynomial"


# ---------------------------------------------------------------------------
# Reference: the Seifert surface as first written, with dict union-finds over
# arcs and faces, a set intersection of root paths per non-tree band and a
# sorted rank per foot, and checks that raise AssertionError.  The surface
# in knotct.oracle, which reads each datum from the diagram's cached tables,
# must give the same SeifertData: the same circles, spanning tree, cycle
# basis and matrix entries.

REF_TWIST_SIGN = -1  # SEIFERT_TWIST_SIGN
REF_LEFT_DART = 1  # LEFT_DART


class _ReferenceDSU:
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


def _reference_circle_of(d):
    arcs = d.arcs()
    dsu = _ReferenceDSU(arcs)
    for ci, c in enumerate(d.crossings):
        o = d.over_entry[ci]
        dsu.union(c[0], c[4 - o])
        dsu.union(c[o], c[2])
    return {a: dsu.find(a) for a in arcs}


class _ReferenceSurface:
    def __init__(self, d):
        self.d = d
        self.circle_of = _reference_circle_of(d)
        faces, face_of_corner = d.face_table()
        heads, tails = d.ends()

        def dart_face(a, di):
            """The face left of dart (a, di): at the corner its arc reaches."""
            ci, s = heads[a] if di == 1 else tails[a]
            return face_of_corner[ci][s]

        regions = _ReferenceDSU(range(len(faces)))
        for ci in range(d.n):
            gaps = (1, 3) if d.over_entry[ci] == 3 else (0, 2)
            regions.union(face_of_corner[ci][gaps[0]], face_of_corner[ci][gaps[1]])
        outer_face = max(range(len(faces)), key=lambda fi: (len(faces[fi]), -fi))
        self.outer_region = regions.find(outer_face)

        circles = sorted(set(self.circle_of.values()))
        self.circles = circles
        arcs_of = {c: [] for c in circles}
        for a, c in self.circle_of.items():
            arcs_of[c].append(a)
        region_side = {}
        for c in circles:
            rl = rr = None
            for a in arcs_of[c]:
                fl = regions.find(dart_face(a, REF_LEFT_DART))
                fr = regions.find(dart_face(a, -REF_LEFT_DART))
                if rl is None:
                    rl, rr = fl, fr
                elif (rl, rr) != (fl, fr):
                    raise AssertionError("circle side regions not constant")
            region_side[c] = (rl, rr)

        radj = {}
        for c, (rl, rr) in region_side.items():
            radj.setdefault(rl, []).append((rr, c))
            radj.setdefault(rr, []).append((rl, c))
        depth = {self.outer_region: 0}
        queue = deque([self.outer_region])
        while queue:
            r = queue.popleft()
            for r2, _ in radj.get(r, []):
                if r2 not in depth:
                    depth[r2] = depth[r] + 1
                    queue.append(r2)
        self.eta = {}
        self.depth_c = {}
        for c, (rl, rr) in region_side.items():
            if abs(depth[rl] - depth[rr]) != 1:
                raise AssertionError("circle sides not nested by 1")
            inner = rl if depth[rl] > depth[rr] else rr
            self.eta[c] = 1 if inner == rl else -1
            self.depth_c[c] = depth[inner]

        def next_seifert(a):
            ci, s = d.head_of(a)
            o = d.over_entry[ci]
            nxt = d.crossings[ci][4 - o] if s == 0 else d.crossings[ci][2]
            return ci, nxt

        self.feet = {}
        for c in circles:
            a0 = min(arcs_of[c])
            seq = []
            a = a0
            while True:
                ci, a = next_seifert(a)
                seq.append(ci)
                if a == a0:
                    break
            if len(seq) != len(arcs_of[c]):
                raise AssertionError(f"circle {c}: {len(seq)} feet for {len(arcs_of[c])} arcs")
            self.feet[c] = seq

        self.band = {}
        for ci in range(d.n):
            o = d.over_entry[ci]
            c1 = self.circle_of[d.crossings[ci][0]]
            c2 = self.circle_of[d.crossings[ci][o]]
            if c1 == c2:
                raise AssertionError(f"band {ci} has both ends on circle {c1}")
            self.band[ci] = (c1, c2)

    def fundamental_cycles(self):
        bands_at = {c: [] for c in self.circles}
        for ci, (c1, c2) in self.band.items():
            bands_at[c1].append((ci, c2))
            bands_at[c2].append((ci, c1))
        tree_parent = {self.circles[0]: None}
        queue = deque([self.circles[0]])
        tree_edges = set()
        while queue:
            u = queue.popleft()
            for ci, v in bands_at[u]:
                if v not in tree_parent:
                    tree_parent[v] = (u, ci)
                    tree_edges.add(ci)
                    queue.append(v)
        cycles = []
        for ci in sorted(self.band):
            if ci in tree_edges:
                continue
            c1, c2 = self.band[ci]

            def path_to_root(c):
                out = [c]
                while tree_parent[c] is not None:
                    c = tree_parent[c][0]
                    out.append(c)
                return out

            p1, p2 = path_to_root(c1), path_to_root(c2)
            common = set(p1) & set(p2)
            i1 = next(i for i, c in enumerate(p1) if c in common)
            i2 = next(i for i, c in enumerate(p2) if c in common)
            if p1[i1] != p2[i2]:
                raise AssertionError(f"tree paths of band {ci} meet at two apexes")
            bands = [(ci, c1, c2)]
            c = c2
            for k in range(i2):
                par, e = tree_parent[c]
                bands.append((e, c, par))
                c = par
            down = []
            c = c1
            for k in range(i1):
                par, e = tree_parent[c]
                down.append((e, par, c))
                c = par
            bands.extend(reversed(down))
            cycles.append(bands)
        return cycles

    def seifert_matrix(self):
        d = self.d
        cycles = self.fundamental_cycles()
        m = len(cycles)
        if m == 0:
            return ()
        uses = {}
        walks = []
        for idx, bands in enumerate(cycles):
            for ci, cf, ct in bands:
                c1, _ = self.band[ci]
                uses.setdefault(ci, []).append((idx, 1 if cf == c1 else -1))
            w = []
            k = len(bands)
            for j in range(k):
                ci, cf, ct = bands[j]
                cj, nf, nt = bands[(j + 1) % k]
                if ct != nf:
                    raise AssertionError(f"cycle {idx} jumps from circle {ct} to {nf}")
                w.append((ct, ci, cj))
            walks.append(w)

        footpos = {c: {ci: i for i, ci in enumerate(self.feet[c])} for c in self.circles}

        def refined(circle, crossing, cyc):
            group = sorted(i for i, _ in uses.get(crossing, ()))
            rank = group.index(cyc)
            if self.band[crossing][0] != circle:
                rank = len(group) - 1 - rank
            return (footpos[circle][crossing], rank)

        intervals = {}
        for idx, w in enumerate(walks):
            intervals[idx] = [
                (circle, refined(circle, centry, idx), refined(circle, cexit, idx))
                for circle, centry, cexit in w
            ]

        def inside(p, lo, hi):
            if lo < hi:
                return lo < p < hi
            return p > lo or p < hi

        W = [[0] * m for _ in range(m)]

        for ci, lst in uses.items():
            eps = d.sign(ci)
            for x in range(len(lst)):
                i, di = lst[x]
                for y in range(x, len(lst)):
                    j, dj = lst[y]
                    contrib = REF_TWIST_SIGN * eps * di * dj
                    if i == j:
                        W[i][i] += contrib
                    else:
                        W[i][j] += contrib
                        W[j][i] += contrib

        for a in range(m):
            for b in range(a + 1, m):
                for circle_b, lo_b, hi_b in intervals[b]:
                    for circle_a, lo_a, hi_a in intervals[a]:
                        if circle_a != circle_b:
                            continue
                        if inside(lo_b, lo_a, hi_a):
                            W[a][b] += 1
                            W[b][a] -= 1
                        if inside(hi_b, lo_a, hi_a):
                            W[a][b] -= 1
                            W[b][a] += 1

        for ci, lst in uses.items():
            c1, c2 = self.band[ci]
            d1, d2 = self.depth_c[c1], self.depth_c[c2]
            if d1 == d2:
                continue
            outer = c1 if d1 < d2 else c2
            for i, di in lst:
                leaving = next(cf for e, cf, ct in cycles[i] if e == ci) == outer
                s_ev = -self.eta[outer] * (1 if leaving else -1)
                p = refined(outer, ci, i)
                for j in range(m):
                    if j == i:
                        continue
                    for circle_j, lo_j, hi_j in intervals[j]:
                        if circle_j == outer and inside(p, lo_j, hi_j):
                            W[i][j] += s_ev
                            W[j][i] += s_ev

        V = []
        for i in range(m):
            row = []
            for j in range(m):
                if W[i][j] % 2:
                    raise AssertionError(f"odd crossing count at ({i},{j})")
                row.append(W[i][j] // 2)
            V.append(tuple(row))
        return tuple(V)


def reference_seifert(d):
    """seifert_pipeline's SeifertData, from the reference surface."""
    if d.n == 0:
        return SeifertData(0, (), 1)
    circles = len(set(_reference_circle_of(d).values())) + d.free_loops
    m = d.n - circles + 1
    matrix = _ReferenceSurface(d).seifert_matrix() if m else ()
    assert len(matrix) == m
    return SeifertData(m // 2, matrix, circles)


@given(braid_words())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_seifert_surface_matches_reference_on_braids(braid):
    d = closed_braid(*braid)
    assume(d.component_count() == 1)
    assert seifert_pipeline(d) == reference_seifert(d)


def _matches_reference_on_sample(specs, seed, count):
    """seifert_pipeline equals the reference on the first `count` knot
    builds of at most 22 crossings in a seeded shuffle of `specs`."""
    checked = 0
    for f in random.Random(seed).sample(specs, len(specs)):
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() != 1 or d.n > _FORMULAS_CROSSING_CAP:
            continue
        assert seifert_pipeline(d) == reference_seifert(d), str(f)
        checked += 1
        if checked == count:
            break
    assert checked == count


def test_seifert_surface_matches_reference_on_bound_three_builds():
    """A seeded sample of 1,500 bound-3 family knot builds of at most 22
    crossings, the range of the genus sweep's oracle."""
    specs = [f for family in FAMILY_NAMES for f in enumerate_family(family, 3)]
    _matches_reference_on_sample(specs, 20261018, 1500)


def test_seifert_surface_matches_reference_on_six_box_builds():
    """A seeded sample of 1,000 AC1 six-box knot builds.  The Montesinos
    builds and braid closures above have Seifert graphs that are trees once
    parallel bands are merged, so any root of the spanning tree gives them
    the same cycles; many six-box graphs are not, so these pin the root."""
    specs = [f for f in _formulas_specs(2) if f.family in ("fig1_left", "fig1_right")]
    _matches_reference_on_sample(specs, 20261020, 1000)
