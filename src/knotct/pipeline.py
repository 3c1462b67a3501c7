"""Purely-cosmetic-surgery obstruction chain for a single knot spec.

`obstruct` runs the obstruction rules in order: genus != 2, a2 != 0,
w3 != 0, and, for alternating knots, tau = -sigma/2 != 0.  Any firing rule
certifies that the knot admits no purely cosmetic surgeries; the honest
fall-through is "inconclusive", never a claim that cosmetic surgeries
exist.  `twist_gate` is the alternating-diagram twist-number gate.

Whether a Montesinos knot is alternating, and its alternating presentation,
are decided in `knotct.montesinos` (`is_alternating_knot`,
`alternating_build`, re-exported here) on the spec's normalized integer
pairs; no caller below the parser builds a `MontesinosSpec` to ask.  The
signature gate reads those pairs before it builds anything: the reduced
Montesinos presentations of a knot are exactly the shifts of one
(Lickorish-Thistlethwaite), so a knot of length >= 3 with no sign-coherent
shift has no alternating diagram, and one with such a shift has a reduced
alternating diagram in its alternating build.

The sweeps that run this chain over whole family scopes (`classify_genus2`)
and the cross-validation suites live in `knotct.sweeps`, which a single-spec
query never loads.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .diagram import montesinos_diagram, signature_alternating
from .errors import (
    InvalidInput,
    KnotctError,
    NoFormula,
    NotAlternating,
    NotReduced,
    ValidationError,
)
from .invariants import InvariantReport, closed_a2_w3, diagram_genus
from .montesinos import (
    FamilySpec,
    _normal_pairs,
    alternating_build,
    genus,
    is_alternating_knot,
)
from .records import Record

# The Seifert-surface oracle (and with it the Kauffman state sum) and the
# Gauss diagram formulas are imported in the branches that call them, so a
# spec that closed forms settle loads neither.

__all__ = [
    "ObstructionVerdict",
    "TwistGate",
    "obstruct",
    "twist_gate",
    "alternating_build",
]

FIRED_RULES = (
    "genus_ne_2",
    "a2_nonzero",
    "w3_nonzero",
    "tau_nonzero_via_sigma",
    "none",
)


class ObstructionVerdict(Record):
    """A verdict (no_pcs | inconclusive), the rule that fired, and the
    InvariantReport it rests on."""

    __slots__ = ("verdict", "fired_rule", "evidence")

    def __init__(self, verdict, fired_rule, evidence):
        if fired_rule not in FIRED_RULES:
            raise InvalidInput(f"unknown rule {fired_rule!r}")
        if (verdict == "no_pcs") != (fired_rule != "none"):
            raise InvalidInput("verdict must be no_pcs exactly when a rule fired")
        set_verdict, set_rule, set_evidence = type(self)._setters
        set_verdict(self, verdict)
        set_rule(self, fired_rule)
        set_evidence(self, evidence)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "fired_rule": self.fired_rule,
            "evidence": self.evidence.to_dict(),
        }


class TwistGate(Record):
    __slots__ = ("twists", "fires")

    def __init__(self, twists, fires):
        set_twists, set_fires = type(self)._setters
        set_twists(self, twists)
        set_fires(self, fires)


# =============================================================================
# alternating-knot certification


def _gate_diagram(spec, norm):
    """The one diagram of `spec` that every gate reading a diagram reads:
    for normalized pairs `norm`, the build of their `alternating_build`,
    else of the pairs as they stand (a knot of length >= 3 that is not
    alternating, or a two-bridge spec with mixed signs); a six-box template
    as built; an all-unit pretzel, a (2, k) torus knot, simplified."""
    if norm is None:
        d = spec.diagram()
        return d.simplify() if spec.family == "pretzel" else d
    return montesinos_diagram(*(alternating_build(norm) or norm))


# =============================================================================
# obstruction chain


def _note(exc, note):
    exc.add_note(note)
    return exc


def _stage_note(exc, stage):
    """exc, noted with the obstruction stage it was raised in, unless it is
    a ValidationError: that is a fault of the input, such as a link spec,
    not of the stage that met it."""
    return exc if isinstance(exc, ValidationError) else _note(exc, f"obstruction stage: {stage}")


@functools.cache
def _routes(genus, a2, w3, sigma):
    """A report's (field, route) pairs for these routes (None for a value
    no route gave), sorted by field; tau takes sigma's route.  The domain
    is finite (genus and sigma are None, closed_form or oracle, a2 and w3
    None, closed_form or gauss_diagram), so there are at most 81 tuples.
    Every verdict with the same routes shares one, so a caller that keeps
    verdicts, as the benchmark's `classify` worker does, pays no object per
    verdict for them, nor the collector's walk over it."""
    pairs = (("a2", a2), ("genus", genus), ("sigma", sigma), ("tau", sigma), ("w3", w3))
    return tuple([pair for pair in pairs if pair[1] is not None])


def _verdict(rule, g, g_route, a2, a2_route, w3, w3_route, sigma, sigma_route):
    """The verdict of `rule` with its one `InvariantReport`: the gates'
    values, tau = -sigma/2 when sigma is known, and their routes as one
    `_routes` tuple."""
    tau = None if sigma is None else Fraction(-sigma, 2)
    method = _routes(g_route, a2_route, w3_route, sigma_route)
    report = InvariantReport(a2, w3, sigma, tau, g, method)
    return ObstructionVerdict("inconclusive" if rule == "none" else "no_pcs", rule, report)


def obstruct(spec) -> ObstructionVerdict:
    """Run the obstruction rules in order; first firing rule wins.

    One pass with no inner function: `stage` names the running gate, and a
    `KnotctError` from any gate leaves noted with it.  The gate diagram `d`
    (`_gate_diagram`) is built at most once per call, by the first gate
    that reads it, so the Gauss a2/w3 and sigma gates read one diagram.
    Each exit builds its verdict and the call's one `InvariantReport`
    through `_verdict`.  The genus and signature gates share the spec's
    normalized pairs.  A spec without pairs takes `diagram_genus` of its
    gate diagram.  The signature gate builds nothing for a non-alternating
    knot with pairs; else sigma is the closed form when the gate diagram is
    reduced alternating, and the Seifert surface's otherwise.
    """
    a2 = w3 = sigma = d = None
    a2_route = w3_route = sigma_route = None
    stage = "genus"
    try:
        norm = _normal_pairs(spec)  # None for a six-box template too
        if norm is not None:
            g, g_route = genus(norm).genus, "closed_form"
        else:
            d = _gate_diagram(spec, norm)
            g, g_route = diagram_genus(d)
        if g is not None and g != 2:
            return _verdict("genus_ne_2", g, g_route, a2, a2_route, w3, w3_route,
                            sigma, sigma_route)

        # -- a2 / w3: the family's closed form where it has one, else (an
        # M(...) spec or a pretzel other than the odd three-strand ones) the
        # Gauss diagram formulas, which need no crossing budget
        stage = "a2"
        if isinstance(spec, FamilySpec):
            try:
                a2, w3 = closed_a2_w3(spec)
            except NoFormula:
                pass
            else:
                a2_route = w3_route = "closed_form"
        if a2 is None:
            from .gauss import gauss_a2

            if d is None:
                d = _gate_diagram(spec, norm)
            a2, a2_route = gauss_a2(d), "gauss_diagram"
        if a2 != 0:
            return _verdict("a2_nonzero", g, g_route, a2, a2_route, w3, w3_route,
                            sigma, sigma_route)
        stage = "w3"
        if w3 is None:
            from .gauss import gauss_w3

            # no closed form gave w3, so none gave a2: the a2 gate built d
            w3, w3_route = gauss_w3(d), "gauss_diagram"
        if w3 != 0:
            return _verdict("w3_nonzero", g, g_route, a2, a2_route, w3, w3_route,
                            sigma, sigma_route)

        # -- signature gate, alternating knots only (tau = -sigma/2 there);
        # the Seifert fallback covers an alternating build that is not
        # reduced alternating, or a two-bridge spec with mixed signs that
        # has none
        stage = "sigma"
        if norm is None or is_alternating_knot(norm):
            if d is None:
                d = _gate_diagram(spec, norm)
            if d.is_alternating() and d.is_reduced():
                sigma, sigma_route = signature_alternating(d), "closed_form"
            elif norm is not None:
                from .oracle import oracle_signature, seifert_pipeline

                sigma, sigma_route = oracle_signature(seifert_pipeline(d)), "oracle"
        rule = "tau_nonzero_via_sigma" if sigma else "none"
        return _verdict(rule, g, g_route, a2, a2_route, w3, w3_route, sigma, sigma_route)
    except KnotctError as exc:
        raise _stage_note(exc, stage)


def twist_gate(spec) -> TwistGate:
    """Alternating-diagram twist-number gate: >= 7 twist regions certify no
    purely cosmetic surgeries.  It counts the twist regions of the diagram
    `obstruct` reads, `_gate_diagram`, so a pretzel with unit strands and
    its `M(...)` form get one count (an all-unit pretzel counts its
    simplified (2, k) torus diagram), and raises `NotAlternating` or
    `NotReduced` when that diagram is not reduced alternating.  The twist
    number is an invariant only of twist-reduced diagrams (Lackenby, Proc.
    LMS 88, 2004); whether the gate diagram is one is not checked yet."""
    d = _gate_diagram(spec, _normal_pairs(spec))
    if not d.is_alternating():
        raise NotAlternating("twist gate needs an alternating build")
    if not d.is_reduced():
        raise NotReduced("twist gate needs a reduced build")
    t = len(d.twist_regions())
    return TwistGate(twists=t, fires=t >= 7)
