"""The benchmark's workloads: seeded inputs, one call into knotct per item,
and the checks on what the program returned.

Every call into knotct goes through a module attribute (`oracle.seifert_pipeline`,
not a name imported here), so the tracer's rebinding reaches it.

Inputs are drawn by stratified sampling: the spec space is cut into equal
strata, one per block of items, and the seed places the block inside its
stratum.  Every seed therefore covers the whole space evenly, which keeps
the per-run cost close across seeds while the specs themselves change.
The `*_inputs` functions return spec strings; the worker builds them in a
child process, so the spec pool never counts towards the workload's peak
memory, and hands the strings to `montesinos.parse_spec`.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import knotct.invariants as invariants
import knotct.montesinos as montesinos
import knotct.oracle as oracle
import knotct.pipeline as pipeline
from knotct.errors import BudgetExceeded, KnotctError, NoFormula

AC1_BOUND = 2  # the formulas suite's parameter bound
AC1_CROSSING_CAP = 22  # diagrams above this are skipped by the formulas suite
SPACE_BOUND = 3  # the genus suite and classify-genus2 sweep bound
FORMULAS_BLOCK = 5  # neighbouring fig1 specs share everything but parameter f
CLASSIFY_RECHECK = 24  # verdicts whose a2/w3 are re-derived by the Jones route


def stratified(rng, pool, n_items, block=1):
    """n_items entries of `pool` in pool order: ceil(n_items/block) blocks of
    `block` neighbours, one block placed at random in each equal stratum."""
    k = -(-n_items // block)
    width = len(pool) / k
    if width < block:
        raise ValueError(f"{n_items} items do not fit in a pool of {len(pool)}")
    out = []
    for j in range(k):
        lo = int(j * width)
        hi = int((j + 1) * width) - block
        start = rng.randint(lo, max(lo, hi))
        out.extend(pool[start:start + block])
    return out[:n_items]


def ac1_specs():
    """The formulas suite's spec list at bound 2, in its sweep order."""
    b = AC1_BOUND
    FamilySpec = montesinos.FamilySpec
    specs = []
    for fam in ("o1", "o2", "o3", "o4", "o5", "e1", "e2", "e3"):
        specs.extend(montesinos.enumerate_family(fam, b))
    for qs in itertools.product([q for q in range(-b, b + 1) if q], repeat=3):
        try:
            specs.append(FamilySpec("pretzel", {f"q{i + 1}": q for i, q in enumerate(qs)}))
        except KnotctError:
            pass
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            if x and y:
                specs.append(FamilySpec("double_twist", dict(x=x, y=y)))
    for fam in ("fig1_left", "fig1_right"):
        for vals in itertools.product(range(-b, b + 1), repeat=6):
            specs.append(FamilySpec(fam, dict(zip("abcdef", vals))))
    return specs


def family_space():
    """The eleven genus-2 families at bound 3, in enumeration order (25,468 specs)."""
    out = []
    for fam in montesinos.FAMILY_NAMES:
        out.extend(montesinos.enumerate_family(fam, SPACE_BOUND))
    return out


def closed_or_none(spec):
    try:
        return invariants.closed_form(spec)
    except NoFormula:
        return None


# ---------------------------------------------------------------------------
# formulas: four-way a2 / three-way w3 agreement per diagram


def formulas_inputs(rng, n):
    return [str(f) for f in stratified(rng, ac1_specs(), n, FORMULAS_BLOCK)]


def formulas_item(f):
    try:
        d = f.diagram()
    except KnotctError:
        return None  # the suite skips specs that build no knot diagram
    if d.component_count() != 1 or d.n > AC1_CROSSING_CAP:
        return None  # and diagrams over its crossing cap
    ja2, jw3 = oracle.a2_w3_from_jones(oracle.jones_via_kauffman(d))
    sa2, sw3 = invariants.skein_a2(d), invariants.skein_w3(d)
    ca2 = oracle.conway_polynomial(oracle.seifert_pipeline(d)).coefficient(2)
    rep = closed_or_none(f)
    a2s = {ja2, sa2, ca2}
    w3s = {jw3, sw3}
    if rep is not None:
        a2s.add(rep.a2)
        if rep.w3 is not None:
            w3s.add(rep.w3)
    return a2s, w3s


def formulas_check(items, outputs):
    bad, checked = [], 0
    for f, out in zip(items, outputs):
        if out is None:
            continue
        checked += 1
        a2s, w3s = out
        if len(a2s) != 1 or len(w3s) != 1:
            bad.append(f"{f}: a2 routes {sorted(a2s)}, w3 routes {sorted(w3s)}")
    return bad, {"diagrams_checked": checked}


# ---------------------------------------------------------------------------
# genus: formula genus plus the Seifert oracle on small alternating builds


def genus_inputs(rng, n):
    return [str(f) for f in stratified(rng, family_space(), n)]


def genus_item(f):
    g = montesinos.genus(montesinos.family_to_montesinos(f)).genus
    d = f.diagram()
    oracle_g = None
    if d.n <= AC1_CROSSING_CAP and d.is_alternating() and d.is_reduced():
        oracle_g = oracle.alternating_genus(d, oracle.seifert_pipeline(d))
    return g, oracle_g


def genus_check(items, outputs):
    bad, alt = [], 0
    for f, out in zip(items, outputs):
        if out is None:
            continue
        g, oracle_g = out
        alt += oracle_g is not None
        if g != 2 or oracle_g not in (None, 2):
            bad.append(f"{f}: formula genus {g}, oracle genus {oracle_g}")
    return bad, {"oracle_checked": alt}


# ---------------------------------------------------------------------------
# classify: one obstruct call per spec of the classify-genus2 montesinos scope


def classify_inputs(rng, n):
    return [str(f) for f in stratified(rng, family_space(), n)]


def classify_item(f):
    return pipeline.obstruct(f)


def first_supported_rule(ev):
    """The first rule of the obstruction chain that the evidence supports."""
    if ev.genus is not None and ev.genus != 2:
        return "genus_ne_2"
    if ev.a2 is not None and ev.a2 != 0:
        return "a2_nonzero"
    if ev.w3 is not None and ev.w3 != 0:
        return "w3_nonzero"
    if ev.sigma is not None and ev.sigma != 0:
        return "tau_nonzero_via_sigma"
    return "none"


def verdict_problem(spec, v):
    """Why verdict `v` is inconsistent with its own evidence, or None."""
    ev = v.evidence
    expect = first_supported_rule(ev)
    if v.fired_rule != expect:
        return f"{spec}: fired {v.fired_rule}, evidence supports {expect} first"
    if ev.tau is not None and ev.tau != Fraction(-ev.sigma, 2):
        return f"{spec}: tau {ev.tau} is not -sigma/2 for sigma {ev.sigma}"
    return None


def classify_check(items, outputs, rng):
    bad = [p for f, v in zip(items, outputs) if v is not None
           for p in [verdict_problem(f, v)] if p]
    # re-derive a2/w3 of a seeded subsample by the Jones route, which
    # obstruct never uses
    rechecked = 0
    for i in rng.sample(range(len(items)), len(items)):
        if rechecked == CLASSIFY_RECHECK:
            break
        v = outputs[i]
        if v is None or v.evidence.a2 is None:
            continue
        try:
            a2, w3 = oracle.a2_w3_from_jones(oracle.jones_via_kauffman(items[i].diagram()))
        except BudgetExceeded:
            continue
        rechecked += 1
        ev = v.evidence
        if a2 != ev.a2 or (ev.w3 is not None and w3 != ev.w3):
            bad.append(f"{items[i]}: evidence a2={ev.a2} w3={ev.w3}, Jones a2={a2} w3={w3}")
    return bad, {"jones_rechecked": rechecked}


# ---------------------------------------------------------------------------
# cli: one `python -m knotct.cli invariants|obstruct SPEC --json` per item


def cli_inputs(rng, n):
    specs = stratified(rng, ac1_specs(), n)
    return [["invariants" if i % 2 == 0 else "obstruct", str(f)] for i, f in enumerate(specs)]


def cli_check(items, outputs):
    """outputs are (exit code, stdout, stderr) per item."""
    bad = []
    for (cmd, text), (rc, out, err) in zip(items, outputs):
        if rc != 0:
            if rc not in (1, 2) or "Traceback" in err:
                bad.append(f"{cmd} {text}: exit {rc} without a typed error: {err[-200:]}")
            continue
        try:
            rep = json.loads(out)
        except ValueError:
            bad.append(f"{cmd} {text}: output is not JSON: {out[:200]!r}")
            continue
        if cmd == "obstruct":
            ev = rep["evidence"]
            try:  # the constructors re-check the verdict/rule pairing and w3's denominator
                v = pipeline.ObstructionVerdict(
                    rep["verdict"], rep["fired_rule"],
                    invariants.InvariantReport(
                        a2=ev["a2"],
                        w3=None if ev["w3"] is None else Fraction(ev["w3"]),
                        sigma=ev["sigma"],
                        tau=None if ev["tau"] is None else Fraction(ev["tau"]),
                        genus=ev["genus"],
                    ),
                )
            except KnotctError as exc:
                bad.append(f"{cmd} {text}: inconsistent verdict {rep}: {exc}")
                continue
            problem = verdict_problem(text, v)
            if problem:
                bad.append(problem)
            rep = ev
        closed = closed_or_none(montesinos.parse_spec(text))
        if closed is None:
            continue
        if rep["a2"] is not None and rep["a2"] != closed.a2:
            bad.append(f"{cmd} {text}: a2 {rep['a2']}, closed form {closed.a2}")
        if (rep["w3"] is not None and closed.w3 is not None
                and Fraction(rep["w3"]) != closed.w3):
            bad.append(f"{cmd} {text}: w3 {rep['w3']}, closed form {closed.w3}")
    return bad, {}


def rng_for(name, seed):
    return random.Random(f"{name}/{seed}")
