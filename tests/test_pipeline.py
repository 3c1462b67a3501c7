"""Obstruction pipeline, classification sweeps, and verification suites."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import knotct.diagram.construct
import knotct.montesinos
import knotct.pipeline
from knotct.diagram import montesinos_diagram, signature_alternating
from knotct.errors import KnotctError, NotAKnot
from knotct.invariants import closed_form, skein_a2
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    MontesinosSpec,
    _normal_pairs,
    enumerate_family,
    parse_spec,
)
from knotct.oracle import conway_polynomial, oracle_signature, seifert_pipeline
from knotct.pipeline import (
    FIRED_RULES,
    alternating_build,
    is_alternating_knot,
    obstruct,
    twist_gate,
)
from knotct.sweeps import SIGNATURE_CASES, _formulas_specs, classify_genus2, verify_suite
from test_montesinos import clear_spec_memos


def test_unknot_obstruction():
    v = obstruct(parse_spec("P(-1,1,1)"))
    assert v.verdict == "no_pcs"
    assert v.fired_rule == "genus_ne_2"
    assert v.evidence.genus == 0


def test_trefoil_obstructed_by_genus():
    v = obstruct(parse_spec("P(1,1,1)"))
    assert v.verdict == "no_pcs" and v.fired_rule == "genus_ne_2"
    assert v.evidence.genus == 1


def test_genus_two_a2_fires():
    v = obstruct(parse_spec("FAM:o1(a=1,b=1,c=1,d=1,e=1)"))
    assert v.fired_rule in ("a2_nonzero", "w3_nonzero", "tau_nonzero_via_sigma")
    assert v.verdict == "no_pcs"


def test_survivor_is_inconclusive():
    v = obstruct(parse_spec("FAM:o1p(a=1,b=2,c=-2,d=-2,sign=-1)"))
    assert v.verdict == "inconclusive" and v.fired_rule == "none"
    assert v.evidence.a2 == 0 and v.evidence.w3 == 0


def test_a2_without_a_closed_form_comes_from_the_gauss_diagram(monkeypatch):
    spec = parse_spec("M(1/3,2/5,-1/3,1/5)")  # 15 crossings, no closed form
    d = spec.diagram()
    v = obstruct(spec)
    assert dict(v.evidence.method)["a2"] == "gauss_diagram"
    assert v.evidence.a2 == skein_a2(d) == conway_polynomial(seifert_pipeline(d)).coefficient(2)
    # the Gauss diagram route has no crossing budget
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "5")
    w = obstruct(spec)
    assert dict(w.evidence.method)["a2"] == "gauss_diagram"
    assert w.evidence.a2 == v.evidence.a2 != 0
    assert w.fired_rule == v.fired_rule == "a2_nonzero"


def test_obstruct_builds_from_the_genus_gate_pairs(monkeypatch):
    # a genus-two family or M(...) spec's own diagram() is the build of the
    # normalized pairs that obstruct's genus gate holds
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 2)]
    specs += [parse_spec(t) for t in ("M(1/3,2/5,-1/3,1/5)", "M(-4/11,1/3,1/3|1)")]
    for f in specs:
        d, e = f.diagram(), montesinos_diagram(*_normal_pairs(f))
        assert (d.crossings, d.over_entry) == (e.crossings, e.over_entry), str(f)
    # a2 = w3 = 0 from the closed form, and the signature gate reads the
    # alternating build of the pairs, not the spec's own diagram
    survivor = parse_spec("FAM:o1p(a=1,b=2,c=-2,d=-2,sign=-1)")
    want = obstruct(survivor)
    monkeypatch.setattr(FamilySpec, "diagram", None)
    assert obstruct(survivor) == want and want.evidence.sigma == 0


def test_obstruct_reads_the_closed_forms():
    # obstruct reads a family spec's a2 and w3 as closed_form gives them,
    # mirror sign included, and credits both to the closed form
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 2)]
    assert any(f.mirror for f in specs)
    for f in specs:
        v = obstruct(f)
        rep = closed_form(f)
        assert (v.evidence.a2, v.evidence.w3) == (rep.a2, rep.w3), str(f)
        method = dict(v.evidence.method)
        assert method["a2"] == method["w3"] == "closed_form"


def test_obstruct_over_the_formulas_specs_is_pinned():
    # every verdict, and every error's type, message and notes, over the
    # formulas suite's spec list at bound 2: its six-box, pretzel and double
    # twist specs take paths that no family sweep pin reaches.  Recorded
    # after the even-type genus took the even tangle's representative that
    # leaves gamma even, which moved DT(-4,-4), DT(-2,-4), DT(2,4) and
    # DT(4,4) from a2_nonzero (genus 2) to genus_ne_2 (genus 1)
    h, rules = hashlib.sha256(), Counter()
    for f in _formulas_specs(2):
        try:
            out = obstruct(f).to_dict()
            rules[out["fired_rule"]] += 1
        except KnotctError as exc:
            out = [type(exc).__name__, str(exc), getattr(exc, "__notes__", [])]
            rules[out[0]] += 1
        h.update(json.dumps(out, sort_keys=True).encode())
    assert rules == {"a2_nonzero": 30_836, "w3_nonzero": 1_079, "none": 1_965,
                     "genus_ne_2": 48, "NotAKnot": 32, "tau_nonzero_via_sigma": 4}
    assert h.hexdigest() == "3590301f0658f08b5fff8a8a63df6e01d2cf84e32e759d8bd54b269ffc313b4b"


def _outcome(text):
    """obstruct's verdict on the parsed text, or its error's type, message
    and notes."""
    try:
        return obstruct(parse_spec(text)).to_dict()
    except KnotctError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "__notes__", [])]


def test_cold_and_warm_spec_memos_give_the_same_verdicts():
    # a seeded sample of the AC1 list and of the bound-3 families, and each
    # family spec's M(...) form as its fraction form gives it, out of lowest
    # terms: once with every spec-layer memo cleared before each parse, then
    # warm, on a second pass
    rng = random.Random(3401)
    families = [f for family in FAMILY_NAMES for f in enumerate_family(family, 3)]
    texts = [str(f) for f in rng.sample(_formulas_specs(2), 400) + rng.sample(families, 400)]
    for f in rng.sample(families, 100):
        pairs, gamma = knotct.montesinos._family_form(f)
        texts.append("M(" + ",".join(f"{p}/{q}" for p, q in pairs) + f"|{gamma})")
    cold = []
    for text in texts:
        clear_spec_memos()
        cold.append(_outcome(text))
    [_outcome(text) for text in texts]
    assert [_outcome(text) for text in texts] == cold


def reference_sigma_gate(spec):
    """(sigma, method) of the signature gate as it was before it was decided
    on the normalized pairs: the spec's standard diagram `d`, then `d` itself
    when it is reduced alternating, else the alternating build when that is
    reduced alternating, else the Seifert surface of `d` when the knot is
    alternating, else (None, None)."""
    fig1 = isinstance(spec, FamilySpec) and spec.family in ("fig1_left", "fig1_right")
    norm = None if fig1 else _normal_pairs(spec)
    if norm is not None and (not isinstance(spec, FamilySpec) or spec.family in FAMILY_NAMES):
        d = montesinos_diagram(*norm)
    else:
        d = spec.diagram()
    if d.is_alternating() and d.is_reduced():
        return signature_alternating(d), "closed_form"
    alt = alternating_build(norm) if norm is not None else None
    if alt is not None:
        bd = montesinos_diagram(*alt)
        if bd.is_alternating() and bd.is_reduced():
            return signature_alternating(bd), "closed_form"
    if norm is not None and is_alternating_knot(norm):
        return oracle_signature(seifert_pipeline(d)), "oracle"
    return None, None


def _montesinos_grid():
    """Every M(...) knot of length 3 or 4 with denominators <= 5 and
    |gamma| <= 2, up to the order of its tangles (17,572 knots)."""
    tangles = [(p, q) for q in range(2, 6) for p in range(1 - q, q) if math.gcd(p, q) == 1]
    out = []
    for r in (3, 4):
        for combo in itertools.combinations_with_replacement(tangles, r):
            for gamma in range(-2, 3):
                try:
                    out.append(MontesinosSpec(combo, gamma))
                except NotAKnot:
                    pass
    return out


def test_signature_gate_equals_the_reference():
    # the bound-3 family space, the AC1 pretzels and double twists, two
    # two-bridge specs and the M(...) grid: every verdict that reaches the
    # signature gate reads the sigma, tau and methods the reference reads
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 3)]
    nonzero = [q for q in range(-2, 3) if q]
    for qs in itertools.product(nonzero, repeat=3):
        if sum(q % 2 == 0 for q in qs) <= 1:  # two even strands make a link
            specs.append(FamilySpec("pretzel", {f"q{i}": q for i, q in enumerate(qs, 1)}))
    specs += [FamilySpec("double_twist", dict(x=x, y=y)) for x in nonzero for y in nonzero]
    # two-bridge with mixed signs and no alternating build: the Seifert fallback
    specs += [parse_spec(t) for t in ("M(1/3,-18/23)", "M(2/5,-3/7)")]
    grid = _montesinos_grid()
    assert len(grid) == 17572
    seen = {}
    for f in specs + grid:
        ev = obstruct(f).evidence
        if ev.a2 != 0 or ev.w3 != 0:
            continue
        sigma, how = reference_sigma_gate(f)
        method = dict(ev.method)
        assert (ev.sigma, method.get("sigma"), method.get("tau")) == (sigma, how, how), str(f)
        assert ev.tau == (None if sigma is None else Fraction(-sigma, 2)), str(f)
        seen[how] = seen.get(how, 0) + 1
    # each branch of the gate is exercised: closed form, Seifert fallback, none
    assert set(seen) == {"closed_form", "oracle", None}, seen


@pytest.mark.parametrize("text, rule, sigma, builds", [
    ("FAM:o1p(a=-2,b=-2,c=-2,d=1,sign=1)", "none", None, 0),  # not alternating
    ("FAM:o1p(a=1,b=1,c=-2,d=1,sign=1)", "tau_nonzero_via_sigma", 2, 1),  # mixed signs
    ("FAM:o2(a=1,b=-1,c=2,d=1,e=1)", "tau_nonzero_via_sigma", 2, 1),  # alternating as given
    ("M(1/3,2/3,2/5)", "tau_nonzero_via_sigma", 2, 1),  # the a2 gate's Gauss build is reused
])
def test_signature_gate_builds_at_most_one_diagram(monkeypatch, text, rule, sigma, builds):
    spec = parse_spec(text)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(knotct.pipeline, "montesinos_diagram", counted(montesinos_diagram))
    monkeypatch.setattr(FamilySpec, "diagram", counted(FamilySpec.diagram))
    monkeypatch.setattr(MontesinosSpec, "diagram", counted(MontesinosSpec.diagram))
    v = obstruct(spec)
    assert (v.fired_rule, v.evidence.sigma) == (rule, sigma)
    assert len(calls) == builds, calls


def test_obstruct_emits_at_most_one_diagram(monkeypatch):
    # the a2/w3 and sigma gates read one build: for M(-2/3,-1/3,2/5|2),
    # whose own diagram is not alternating, its alternating build alone.
    # Every spec here is a Montesinos knot, built by `montesinos_diagram`
    # under whichever name a module imported it (`_template` wires each
    # memoized tangle table once, not once per build)
    emits = []
    for module in (knotct.diagram.construct, knotct.montesinos, knotct.pipeline):
        build = module.montesinos_diagram
        monkeypatch.setattr(module, "montesinos_diagram",
                            lambda *args, build=build: emits.append(1) or build(*args))
    specs = [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 3)] + _montesinos_grid()
    assert len(specs) == 43_040
    over = []
    for f in specs:
        emits.clear()
        obstruct(f)
        if len(emits) > 1:
            over.append(str(f))
    assert not over, over[:5]


def _twists(text):
    try:
        return twist_gate(parse_spec(text)).twists
    except KnotctError as exc:
        return type(exc).__name__


def test_a_pretzel_and_its_montesinos_form_get_one_twist_count():
    # flypes carry the unit crossings together, so the pretzel's own
    # diagram, with 7 twist regions, is not twist-reduced; the gate counts
    # the alternating build of the normalized pairs
    assert _twists("P(3,1,5,1,7,1,9)") == _twists("M(1/3,1/5,1/7,1/9|3)") == 5
    n = 0
    for r in (3, 4, 5):
        for qs in itertools.product((-3, -1, 1, 3, 5), repeat=r):
            if any(abs(q) != 1 for q in qs):
                n += 1
                pretzel = "P(" + ",".join(map(str, qs)) + ")"
                assert _twists(pretzel) == _twists("M(" + ",".join(f"1/{q}" for q in qs) + ")"), pretzel
    assert n == 3_819


def test_all_unit_pretzels_read_one_simplified_gate_diagram():
    # a pretzel whose every strand is +-1 is the (2, k) torus knot, k the
    # strand sum, and has no tangle pairs: every gate reads its simplified
    # diagram, reduced alternating with one twist region, none for |k| = 1.
    # Genus or a2 fires on each, so no sigma gate is reached; the verdicts
    # were recorded while the a2 gate still read the unsimplified build
    h, rules, n = hashlib.sha256(), Counter(), 0
    for r in range(2, 9):
        for qs in itertools.product((1, -1), repeat=r):
            f = FamilySpec("pretzel", {f"q{i + 1}": q for i, q in enumerate(qs)})
            try:
                f.diagram()
            except NotAKnot:  # an even number of odd strands: a link
                continue
            n += 1
            assert twist_gate(f).twists == (abs(sum(qs)) > 1), f
            v = obstruct(f).to_dict()
            rules[v["fired_rule"]] += 1
            h.update((json.dumps(v, sort_keys=True) + "\n").encode())
    assert n == 168
    assert rules == {"genus_ne_2": 152, "a2_nonzero": 16}
    assert h.hexdigest() == "9b2d0a93be35a475ca8faade0463e59e8572f384702995678e10ab0f69e0d487"


def test_fired_rule_vocabulary():
    for spec in ("P(1,1,1)", "P(3,5,1)", "FAM:e3(a=1)", "DT(2,4)"):
        assert obstruct(parse_spec(spec)).fired_rule in FIRED_RULES


def test_verdict_consistency():
    for spec in ("P(1,1,1)", "FAM:o2(a=1,b=-1,c=2,d=1,e=-2)"):
        v = obstruct(parse_spec(spec))
        assert (v.verdict == "no_pcs") == (v.fired_rule != "none")


def test_alternating_certification():
    two_bridge = parse_spec("M(1/2,1/3)")
    assert is_alternating_knot(two_bridge)
    # two-bridge knots are alternating even when no sign-coherent shift exists
    mixed = parse_spec("M(1/3,-2/5)")
    assert is_alternating_knot(mixed) and alternating_build(mixed) is None
    all_pos = parse_spec("M(1/2,1/3,1/3)")
    assert is_alternating_knot(all_pos)
    b = alternating_build(all_pos)
    assert b is not None and montesinos_diagram(*b).is_alternating()


def test_alternating_build_for_mixed_signs():
    m = parse_spec("M(1/3,-2/5,1/3|1)")
    assert is_alternating_knot(m)
    assert not m.diagram().is_alternating()
    alt = alternating_build(m)
    assert alt == ([(1, 3), (3, 5), (1, 3)], 0)  # M(1/3,3/5,1/3)
    b = montesinos_diagram(*alt)
    assert b.is_alternating() and b.is_reduced()


def test_montesinos_length():
    assert len(_normal_pairs(parse_spec("M(1/2,1/3,1/3)"))[0]) == 3
    assert _normal_pairs(parse_spec("P(-1,1,1)")) is None  # unknot: every tangle an integer


def test_twist_gate():
    g = twist_gate(parse_spec("P(3,5,1)"))
    assert g.twists == 3 and not g.fires
    g = twist_gate(parse_spec("M(1/2,2/5,2/5,2/5)"))
    assert g.twists >= 7 and g.fires
    with pytest.raises(KnotctError):
        twist_gate(parse_spec("P(3,5,-2)"))  # no alternating build


def test_signature_cases_well_formed():
    assert len(SIGNATURE_CASES) == 9
    for name, expected, family, sign, tuples in SIGNATURE_CASES:
        assert len(tuples) >= 3, name
        assert expected == ">0" or isinstance(expected, int)


def test_verify_signatures_suite():
    rep = verify_suite("signatures")
    assert rep["passed"] is True
    assert len(rep["checks"]) == 9


def test_verify_claim42_suite():
    rep = verify_suite("claim42", bound=6)
    assert rep["passed"] is True


def test_classify_small_fig1():
    run = classify_genus2(1, "fig1")
    assert run.failures == ()
    assert len(run.survivors) == 8
    for f in run.survivors:
        assert f.family == "fig1_left"
    for rule in run.eliminated.values():
        assert rule in FIRED_RULES and rule != "none"


def test_classify_alternating_bound_one():
    run = classify_genus2(1, "alternating_montesinos")
    assert run.failures == ()
    for f in run.survivors:
        assert str(f) in run.matches
