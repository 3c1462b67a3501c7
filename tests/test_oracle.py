"""Diagram-level oracles: Jones via Kauffman bracket, Seifert pipeline."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from braids import closed_braid
from test_diagram import template_knots

import knotct
from knotct.diagram import double_twist_diagram, pretzel_diagram, signature_alternating
from knotct.errors import (
    BudgetExceeded,
    InconsistentDiagram,
    KnotctError,
    NotAKnot,
    NotAlternating,
    NotReduced,
)
from knotct.exactmath import LaurentPoly
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    enumerate_family,
    family_to_montesinos,
    parse_spec,
)
from knotct.oracle import (
    SeifertData,
    _interpolate,
    a2_w3_from_jones,
    alternating_genus,
    conway_polynomial,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)
from knotct.pipeline import alternating_build


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
            for kind, e in (("build", d), ("mirror", d.mirror()), ("alt", alt and alt.diagram())):
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
    assert v.evaluate(Fraction(1)) == 1  # V(1) = 1 for any knot


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


# ---------------------------------------------------------------------------
# Reference: a state sum that contracts one crossing at a time into
# frozenset pairings of the frontier and keeps Laurent polynomials, with no
# crossing budget and checks that raise AssertionError.  The Kauffman route,
# which contracts whole twist regions into packed integer state counts, must
# match it bit for bit.

DELTA = LaurentPoly({2: -1, -2: -1})  # loop value -A^2 - A^-2


def div_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division (leading coefficient of d must be a unit)."""
    de = max(d.coeffs)
    dc = d.coeffs[de]
    q = LaurentPoly.zero()
    while p:
        e = max(p.coeffs)
        c = p.coeffs[e]
        if c % dc:
            raise AssertionError("inexact division")
        t = LaurentPoly.term(c // dc, e - de)
        q = q + t
        p = p - t * d
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

    states = {frozenset(): LaurentPoly.one()}
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
            for joins, w in ((((0, 1), (2, 3)), LaurentPoly.term(1, 1)),
                             (((1, 2), (3, 0)), LaurentPoly.term(1, -1))):
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
                nval = val * w * DELTA ** loops
                if nkey in new_states:
                    new_states[nkey] = new_states[nkey] + nval
                else:
                    new_states[nkey] = nval
        states = new_states
        processed.add(ci)

    total = LaurentPoly.zero()
    for key, val in states.items():
        if key:
            raise AssertionError(
                f"{len(key)} open frontier pairs after the last crossing")
        total = total + val
    total = total * DELTA ** d.free_loops
    bracket = div_exact(total, DELTA)
    w = d.writhe()
    f = bracket.shift(-3 * w)
    if w % 2:
        f = -f
    # substitute A = t^(-1/4)
    coeffs = {}
    for e, c in f.coeffs.items():
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
    for d in diagrams():
        for e in (d, d.mirror()):
            v = jones_via_kauffman(e)
            assert v.coeffs == reference_jones(e).coeffs
            assert v.evaluate(1) == 1


def test_state_sum_rejects_links():
    with pytest.raises(NotAKnot):
        jones_via_kauffman(closed_braid([1, 1], 2))


def test_interpolation_rejects_non_integral_coefficients():
    assert _interpolate([1, 3, 9, 19]) == [1, 0, 2, 0]
    with pytest.raises(InconsistentDiagram) as info:
        _interpolate([0, 0, 1])  # u(u - 1)/2
    assert info.value.stage == "oracle: Conway polynomial"
