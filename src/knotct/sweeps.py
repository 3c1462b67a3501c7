"""Family-scope sweeps of the obstruction chain and cross-validation suites.

`classify_genus2` sweeps a family scope at a parameter bound, records which
rule eliminated each spec, and validates the survivors: for alternating
Montesinos knots every survivor must match (by Jones-polynomial equality,
mirror allowed) a member of the three surviving six-box sub-families, and
within the six-box scope itself the survivors are exactly the zero set of
the a2/w3 polynomials on the left template.

`verify_suite` runs one named cross-validation suite and returns its report:
`formulas` compares a2 four ways (Jones, Conway, Gauss diagram, closed form)
and w3 three ways (no Conway); `claim42` checks its sign map against Gauss.

Only the `classify-genus2` and `verify` commands load this module.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import pipeline
from .cf_calculus import ContinuedFraction, evaluate, rewrite_identity, to_even_cf, to_strict_cf
from .diagram import signature_alternating
from .errors import InvalidInput, KnotctError, NoFormula, PatternMismatch, ValidationError
from .gauss import gauss_a2, gauss_w3
from .invariants import _o2_a2_w3x4, closed_form
from .montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    _normal_pairs,
    enumerate_family,
    genus,
    is_alternating_knot,
)
from .oracle import (
    a2_w3_from_jones,
    alternating_genus,
    conway_polynomial,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)
from .pipeline import _gate_diagram, _note
from .records import Record

__all__ = [
    "ClassificationRun",
    "classify_genus2",
    "verify_suite",
    "SIGNATURE_CASES",
]


class ClassificationRun(Record):
    """One sweep's outcome: `eliminated` maps str(spec) to its fired rule,
    `matches` maps str(survivor) to its matched six-box spec."""

    __slots__ = ("scope", "bound", "survivors", "eliminated", "matches", "failures")

    def __init__(self, scope, bound, survivors, eliminated, matches=None, failures=()):
        set_scope, set_bound, set_survivors, set_eliminated, set_matches, set_failures = (
            type(self)._setters)
        set_scope(self, scope)
        set_bound(self, bound)
        set_survivors(self, survivors)
        set_eliminated(self, eliminated)
        set_matches(self, {} if matches is None else matches)
        set_failures(self, failures)


# =============================================================================
# survivor mapping into the six-box left template (validated by Jones
# equality at run time)


def _survivor_map(f: FamilySpec):
    """The six-box left-template spec a surviving family member maps to,
    or None when the parameters are outside the three surviving regimes."""
    if not isinstance(f, FamilySpec):
        return None
    p = dict(f.params)
    if f.family == "o1p" and f.sign_variant == -1:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        if a >= 1 and b >= 1 and c <= -2 and d <= -2:
            return FamilySpec(
                "fig1_left", dict(a=a - 1, b=b - 1, c=0, d=0, e=-c - 1, f=-d - 1)
            )
    if f.family == "o4" and f.sign_variant == 1:
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        if a >= 2 and b <= -2 and c >= 1 and d >= 1:
            return FamilySpec(
                "fig1_left", dict(a=a - 1, b=c, c=d, d=0, e=-b - 1, f=0)
            )
    if f.family == "o5":
        a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
        if a >= 1 and d >= 1 and e >= 1 and b <= -1 and c <= -1:
            return FamilySpec(
                "fig1_left", dict(a=a, b=d, c=e, d=-b - 1, e=0, f=-c - 1)
            )
    return None


def _mirror_params(f: FamilySpec):
    """The same knot family member whose bracket form is the mirror image."""
    p = dict(f.params)
    try:
        if f.family == "o1p":
            return FamilySpec(
                "o1p",
                dict(a=-p["a"] - 1, b=-p["b"], c=-p["c"] - 1, d=-p["d"] - 1),
                -f.sign_variant,
            )
        if f.family == "o4":
            return FamilySpec(
                "o4",
                dict(a=-p["a"], b=-p["b"] - 1, c=-p["c"] - 1, d=-p["d"] - 1),
                -f.sign_variant,
            )
        if f.family == "o5":
            return FamilySpec(
                "o5",
                dict(
                    a=-p["a"] - 1,
                    b=-p["b"],
                    c=-p["c"],
                    d=-p["d"] - 1,
                    e=-p["e"] - 1,
                ),
            )
    except KnotctError:
        return None
    return None


def _survivor_match(f):
    """(matched fig1_left spec, mirrored?) for a survivor, or (None, False).

    The parameter map is validated, not trusted: the match counts only if
    the Jones polynomials of both builds agree (with t -> 1/t when the
    mirror map was used).
    """
    cand, mirrored = _survivor_map(f), False
    if cand is None and isinstance(f, FamilySpec):
        mf = _mirror_params(f)
        if mf is not None:
            cand, mirrored = _survivor_map(mf), True
    if cand is None:
        return None, False
    v = jones_via_kauffman(f.diagram())
    vc = jones_via_kauffman(cand.diagram())
    if mirrored:
        vc = vc.invert_variable()
    if v == vc:
        return cand, mirrored
    return None, False


# =============================================================================
# classification sweep


def _scope_specs(scope, bound):
    if scope in ("montesinos", "alternating_montesinos"):
        for fam in FAMILY_NAMES:
            for f in enumerate_family(fam, bound):
                if scope == "alternating_montesinos" and not is_alternating_knot(_normal_pairs(f)):
                    continue
                yield f
    elif scope == "fig1":
        for fam in ("fig1_left", "fig1_right"):
            for vals in itertools.product(range(0, bound + 1), repeat=6):
                yield FamilySpec(fam, dict(zip("abcdef", vals)))
    else:
        raise InvalidInput(f"unknown scope {scope!r}")


def classify_genus2(bound, scope="alternating_montesinos") -> ClassificationRun:
    """Sweep a scope, obstruct every spec, and validate the survivors.  A
    spec whose obstruction or survivor check raises stops the sweep; its
    error names it."""
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    survivors, eliminated = [], {}
    for f in _scope_specs(scope, bound):
        try:
            # looked up on the module at each call, so a tracer or a test
            # that rebinds pipeline.obstruct reaches the sweep too
            v = pipeline.obstruct(f)
        except KnotctError as exc:
            raise _note(exc, f"spec: {f}")
        if v.verdict == "no_pcs":
            eliminated[str(f)] = v.fired_rule
        else:
            survivors.append(f)
    matches, failures = {}, []
    if scope == "alternating_montesinos":
        for f in survivors:
            try:
                cand, mirrored = _survivor_match(f)
            except KnotctError as exc:
                raise _note(_note(exc, "survivor check: Jones"), f"spec: {f}")
            if cand is None:
                failures.append(f"{f}: no Jones-verified six-box match")
            else:
                matches[str(f)] = ("mirror of " if mirrored else "") + str(cand)
    elif scope == "fig1":
        for f in survivors:
            rep = closed_form(f)
            if f.family == "fig1_right":
                failures.append(f"{f}: right-template survivor (a2={rep.a2}, w3={rep.w3})")
            elif rep.a2 != 0 or rep.w3 != 0:
                failures.append(f"{f}: survivor off the zero set (a2={rep.a2}, w3={rep.w3})")
    return ClassificationRun(
        scope=scope,
        bound=bound,
        survivors=tuple(survivors),
        eliminated=eliminated,
        matches=matches,
        failures=tuple(failures),
    )


# =============================================================================
# verification suites

# signature case table from the alternating genus-two analysis; each case
# lists at least three parameter tuples in its regime
SIGNATURE_CASES = (
    ("o1-i", 2, "o1", None, (
        dict(a=1, b=-1, c=1, d=1, e=1),
        dict(a=2, b=-2, c=1, d=1, e=2),
        dict(a=1, b=-2, c=2, d=1, e=1),
    )),
    ("o1-ii", ">0", "o1", None, (
        dict(a=1, b=1, c=1, d=1, e=1),
        dict(a=2, b=1, c=2, d=1, e=1),
        dict(a=1, b=2, c=1, d=2, e=1),
    )),
    ("o1p-i-1", 0, "o1p", -1, (
        dict(a=-2, b=1, c=-2, d=1),
        dict(a=-3, b=2, c=-2, d=2),
        dict(a=-2, b=2, c=-3, d=1),
    )),
    ("o1p-i-2", -2, "o1p", -1, (
        dict(a=-2, b=-1, c=-2, d=1),
        dict(a=-2, b=-2, c=-3, d=2),
        dict(a=-3, b=-1, c=-2, d=1),
    )),
    ("o1p-ii-3", -4, "o1p", -1, (
        dict(a=-2, b=-1, c=-2, d=-2),
        dict(a=-2, b=-2, c=-2, d=-3),
        dict(a=-3, b=-1, c=-3, d=-2),
    )),
    ("o3p", 4, "o3p", 1, (
        dict(b=1, c=1),
        dict(b=2, c=1),
        dict(b=2, c=2),
    )),
    ("o4-ii-1", 2, "o4", 1, (
        dict(a=2, b=1, c=1, d=1),
        dict(a=2, b=1, c=1, d=2),
        dict(a=3, b=2, c=2, d=1),
    )),
    ("o5-i", 4, "o5", None, (
        dict(a=1, b=1, c=1, d=1, e=1),
        dict(a=1, b=2, c=1, d=1, e=2),
        dict(a=2, b=1, c=2, d=1, e=1),
    )),
    ("e1-i", 4, "e1", None, (
        dict(a=1, b=1, c=1, d=1, e=1),
        dict(a=2, b=1, c=2, d=1, e=1),
        dict(a=1, b=2, c=1, d=2, e=1),
    )),
)


def o2_alternating_a2_w3(a, b, c, d, e):
    """(a2, w3) of the alternating three-tangle family member with twist
    boxes (2a+1, -2b), (2c+1, -2d), (2e+1); a,c,e >= 0 and b,d >= 1.  It is
    the o2 closed form at (a, -b, c, -d, e), which a = 0 puts outside o2's
    parameter rule."""
    a2, w3x4 = _o2_a2_w3x4(a, -b, c, -d, e)
    return a2, Fraction(w3x4, 4)


def _check(checks, name, ok, counterexample=None):
    checks.append({"name": name, "passed": bool(ok), "counterexample": counterexample})


_FORMULAS_CROSSING_CAP = 22  # the formulas suite and the genus Seifert check skip larger diagrams


def _formulas_specs(bound):
    """The formulas suite's spec list at `bound`, in its sweep order."""
    specs = []
    for fam in ("o1", "o2", "o3", "o4", "o5", "e1", "e2", "e3"):
        specs.extend(enumerate_family(fam, bound))
    for qs in itertools.product([q for q in range(-bound, bound + 1) if q], repeat=3):
        specs.append(FamilySpec("pretzel", {f"q{i+1}": q for i, q in enumerate(qs)}))
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x and y:
                specs.append(FamilySpec("double_twist", dict(x=x, y=y)))
    for fam in ("fig1_left", "fig1_right"):
        for vals in itertools.product(range(-bound, bound + 1), repeat=6):
            specs.append(FamilySpec(fam, dict(zip("abcdef", vals))))
    return specs


def _suite_formulas(bound, checks):
    bad, n = [], 0
    for f in _formulas_specs(bound):
        try:
            d = f.diagram()
        except KnotctError:
            continue
        if d.component_count() != 1 or d.n > _FORMULAS_CROSSING_CAP:
            continue
        n += 1
        ja2, jw3 = a2_w3_from_jones(jones_via_kauffman(d))
        ca2 = conway_polynomial(seifert_pipeline(d)).coefficient(2)
        vals = {ja2, ca2, gauss_a2(d)}
        wvals = {jw3, gauss_w3(d)}
        try:
            rep = closed_form(f)
            vals.add(rep.a2)
            wvals.add(rep.w3)
        except NoFormula:
            pass
        if len(vals) != 1 or len(wvals) != 1:
            bad.append(str(f))
    _check(checks, f"a2 four-way / w3 three-way agreement on {n} diagrams", not bad,
           bad[:5] or None)


def _suite_cf_identities(bound, checks):
    rng = random.Random(20240814)
    bad, applied = [], 0
    for _ in range(10000):
        n = rng.randint(2, 8)
        entries = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
        # rules 3.4/3.5 need leading runs; seed them in some of the fuzz
        style = rng.randrange(4)
        if style == 2:
            k = rng.randint(1, n - 1)
            entries[:k] = [2] * k
        elif style == 3:
            k = rng.randint(1, n - 1)
            entries[:k] = [-2] * k
        try:
            cf = ContinuedFraction(entries)
            base = evaluate(cf)
        except KnotctError:
            continue
        for rule in ("3.1", "3.2", "3.3", "3.4", "3.5"):
            for pos in range(1, n + 1):
                try:
                    out = rewrite_identity(cf, rule, pos)
                except (PatternMismatch, KnotctError):
                    continue
                applied += 1
                if isinstance(out, tuple):
                    off, cf2 = out
                else:
                    off, cf2 = 0, out
                try:
                    val = off + evaluate(cf2)
                except KnotctError:
                    continue
                if val != base:
                    bad.append((entries, rule, pos))
    _check(checks, f"rewrite identities preserve value ({applied} applications)",
           not bad, bad[:3] or None)
    _check(checks, "evaluate([3,2]) = 2/5", evaluate([3, 2]) == Fraction(2, 5))
    ok = True
    ce = None
    for q in range(3, 201, 2):
        for p in range(-q + 1, q):
            if p == 0 or 2 * abs(p) > q or Fraction(p, q).denominator != q:
                continue
            x = Fraction(p, q)
            if evaluate(to_strict_cf(x)) != x:
                ok, ce = False, str(x)
                break
    _check(checks, "strict CF round trip, half-range, odd denominators <= 200", ok, ce)
    ok, ce = True, None
    for q in range(2, 201):
        for p in range(-q + 1, q):
            if p == 0 or Fraction(p, q).denominator != q:
                continue
            x = Fraction(p, q)
            if (p % 2 == 1) == (q % 2 == 1):
                continue  # even CF needs odd/even or even/odd split
            if evaluate(to_even_cf(x)) != x:
                ok, ce = False, str(x)
                break
    _check(checks, "even CF round trip, denominators <= 200", ok, ce)


def _suite_signatures(bound, checks):
    for name, expected, fam, sign, tuples in SIGNATURE_CASES:
        bad = []
        for p in tuples:
            f = FamilySpec(fam, p, sign)
            d = f.diagram()
            s_or = oracle_signature(seifert_pipeline(d))
            alt_d, s_alt = _gate_diagram(f, _normal_pairs(f)), None
            if alt_d.is_alternating() and alt_d.is_reduced():
                s_alt = signature_alternating(alt_d)
            if expected == ">0":
                ok = s_or > 0 and (s_alt is None or s_alt == s_or)
            else:
                ok = s_or == expected and s_alt == expected
            if not ok:
                bad.append((p, s_or, s_alt))
        _check(checks, f"sigma case {name} = {expected}", not bad, bad or None)


def _suite_genus(bound, checks):
    bad, n, bad_alt, n_alt = [], 0, [], 0
    for fam in FAMILY_NAMES:
        for f in enumerate_family(fam, bound):
            g = genus(_normal_pairs(f)).genus
            n += 1
            if g != 2:
                bad.append(str(f))
            d = f.diagram()
            if d.n <= _FORMULAS_CROSSING_CAP and d.is_alternating() and d.is_reduced():
                n_alt += 1
                if alternating_genus(d, seifert_pipeline(d)) != 2:
                    bad_alt.append(str(f))
    _check(checks, f"family genus = 2 ({n} specs)", not bad, bad[:5] or None)
    _check(checks, f"oracle genus agreement on {n_alt} alternating builds",
           not bad_alt, bad_alt[:5] or None)


def _suite_claim42(bound, checks):
    # sign mapping validated on builds before the exhaustive scan
    bad_map = []
    for (a, b, c, d, e) in ((1, 1, 1, 1, 1), (1, 2, 1, 1, 2), (2, 1, 2, 2, 1)):
        f = FamilySpec("o2", dict(a=a, b=-b, c=c, d=-d, e=e))
        dgm = f.diagram()
        got = (gauss_a2(dgm), gauss_w3(dgm))
        if got != o2_alternating_a2_w3(a, b, c, d, e):
            bad_map.append(((a, b, c, d, e), got))
    _check(checks, "alternating-regime sign mapping vs Gauss diagram formulas",
           not bad_map, bad_map or None)
    hits = []
    for a in range(0, bound + 1):
        for b in range(1, bound + 1):
            for c in range(0, bound + 1):
                for d in range(1, bound + 1):
                    for e in range(0, bound + 1):
                        a2, w3 = o2_alternating_a2_w3(a, b, c, d, e)
                        if a2 == 0 and w3 == 0:
                            hits.append((a, b, c, d, e))
    _check(checks, f"no (a2,w3)=(0,0) tuple, params <= {bound}", not hits, hits or None)


_SUITES = {
    "formulas": _suite_formulas,
    "cf_identities": _suite_cf_identities,
    "signatures": _suite_signatures,
    "genus": _suite_genus,
    "claim42": _suite_claim42,
}


def verify_suite(suite, bound=2):
    """Run one named cross-validation suite; returns a report dict."""
    if suite not in _SUITES:
        raise InvalidInput(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    checks = []
    _SUITES[suite](bound, checks)
    return {
        "suite": suite,
        "bound": bound,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
