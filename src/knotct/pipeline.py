"""Purely-cosmetic-surgery obstruction chain for a single knot spec.

`obstruct` runs the obstruction rules in order: composite gate (never fires
here — every spec this package builds is prime by construction, the gate
exists for completeness), genus != 2, a2 != 0, w3 != 0, and, for
alternating knots, tau = -sigma/2 != 0.  Any firing rule certifies that the
knot admits no purely cosmetic surgeries; the honest fall-through is
"inconclusive", never a claim that cosmetic surgeries exist.  `twist_gate`
is the alternating-diagram twist-number gate.

The sweeps that run this chain over whole family scopes (`classify_genus2`)
and the cross-validation suites live in `knotct.sweeps`, which a single-spec
query never loads.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import signature_alternating, twist_number
from .errors import (
    BudgetExceeded,
    InvalidInput,
    KnotctError,
    NoFormula,
    NotAlternating,
    NotReduced,
)
from .invariants import InvariantReport, closed_form, skein_a2, skein_w3
from .montesinos import (
    FamilySpec,
    MontesinosSpec,
    _to_montesinos,
    genus,
    is_alternating_knot,
)
from .oracle import (
    alternating_genus,
    conway_polynomial,
    oracle_signature,
    seifert_pipeline,
)
from .records import Record

__all__ = [
    "ObstructionVerdict",
    "TwistGate",
    "obstruct",
    "twist_gate",
    "alternating_build",
    "montesinos_length",
]

FIRED_RULES = (
    "composite",
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
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "fired_rule", fired_rule)
        object.__setattr__(self, "evidence", evidence)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "fired_rule": self.fired_rule,
            "evidence": self.evidence.to_dict(),
        }


class TwistGate(Record):
    __slots__ = ("twists", "fires")

    def __init__(self, twists, fires):
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "fires", fires)


# =============================================================================
# alternating-knot certification


def alternating_build(m: MontesinosSpec):
    """An alternating presentation of the knot, or None.

    Shifts every fraction to the sign that admits an alternating template
    diagram; the caller gets a spec whose diagram() is alternating.
    """
    if is_alternating_knot(m):
        pos = sum(1 for f in m.tangles if f > 0)
        neg = m.r - pos
        if m.gamma - neg >= 0:
            return MontesinosSpec(
                [f if f > 0 else f + 1 for f in m.tangles], m.gamma - neg
            )
        if m.gamma + pos <= 0:
            return MontesinosSpec(
                [f if f < 0 else f - 1 for f in m.tangles], m.gamma + pos
            )
    return None


def _reduced_alternating_diagram(d, m):
    """A reduced alternating diagram of the knot, or None: `d` itself when it
    is one, else the diagram of `alternating_build(m)` when that is one."""
    if d.is_alternating() and d.is_reduced():
        return d
    alt = alternating_build(m) if m is not None else None
    if alt is not None:
        bd = alt.diagram()
        if bd.is_alternating() and bd.is_reduced():
            return bd
    return None


def montesinos_length(spec) -> int:
    """r of the normalized Montesinos presentation (0 when every tangle
    fraction is an integer, i.e. the spec reduces to a (2, k) torus knot)."""
    m = _to_montesinos(spec)
    return 0 if m is None else m.r


# =============================================================================
# obstruction chain


def _note(exc, note):
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    return exc


def obstruct(spec) -> ObstructionVerdict:
    """Run the obstruction rules in order; first firing rule wins.

    The spec's diagram is built at most once per call, on first use, and
    dropped with the call.
    """
    method = {}
    a2 = w3 = sigma = tau = g = None
    is_fig1 = isinstance(spec, FamilySpec) and spec.family in ("fig1_left", "fig1_right")
    m = spec_diagram = None

    def diagram():
        nonlocal spec_diagram
        if spec_diagram is None:
            spec_diagram = spec.diagram()
        return spec_diagram

    def report():
        return InvariantReport(a2=a2, w3=w3, sigma=sigma, tau=tau, genus=g, method=method)

    # -- composite gate: all constructible specs are prime (Montesinos with
    # every alpha_i > 1, two-bridge, or the prime six-box templates), so
    # this rule never fires; it anchors the rule enum.

    # -- genus gate
    try:
        if is_fig1:
            d = diagram()
            if d.is_alternating() and d.is_reduced():
                g = alternating_genus(d, seifert_pipeline(d))
                method["genus"] = "oracle"
        else:
            m = _to_montesinos(spec)
            if m is not None:
                g = genus(m).genus
                method["genus"] = "closed_form"
            else:
                # every tangle fraction is an integer, so the spec reduces to
                # a closed chain of half-twists: a (2, k) torus knot, whose
                # simplified diagram is reduced alternating (or empty)
                d = diagram().simplify()
                if d.n == 0:
                    g = 0
                    method["genus"] = "closed_form"
                else:
                    g = alternating_genus(d, seifert_pipeline(d))
                    method["genus"] = "oracle"
    except KnotctError as exc:
        raise _note(exc, "obstruction stage: genus")
    if g is not None and g != 2:
        return ObstructionVerdict("no_pcs", "genus_ne_2", report())

    # -- a2 / w3
    try:
        rep = None
        if isinstance(spec, FamilySpec):
            try:
                rep = closed_form(spec)
            except NoFormula:
                rep = None
        if rep is not None:
            a2 = rep.a2
            w3 = rep.w3
            method.update(rep.method)
        if a2 is None:
            try:
                a2 = skein_a2(diagram())
                method["a2"] = "skein_engine"
            except BudgetExceeded:
                # past the crossing budget the polynomial Seifert/Conway
                # route answers instead; the two routes stay separate
                a2 = conway_polynomial(seifert_pipeline(diagram())).coefficient(2)
                method["a2"] = "oracle"
    except KnotctError as exc:
        raise _note(exc, "obstruction stage: a2")
    if a2 != 0:
        return ObstructionVerdict("no_pcs", "a2_nonzero", report())
    try:
        if w3 is None:
            w3 = skein_w3(diagram())
            method["w3"] = "skein_engine"
    except KnotctError as exc:
        raise _note(exc, "obstruction stage: w3")
    if w3 != 0:
        return ObstructionVerdict("no_pcs", "w3_nonzero", report())

    # -- signature gate, alternating knots only (tau = -sigma/2 there)
    try:
        d = diagram()
        alt_d = _reduced_alternating_diagram(d, m)
        if alt_d is not None:
            sigma = signature_alternating(alt_d)
            method["sigma"] = "closed_form"
        elif m is not None and is_alternating_knot(m):
            sigma = oracle_signature(seifert_pipeline(d))
            method["sigma"] = "oracle"
        if sigma is not None:
            tau = Fraction(-sigma, 2)
            method["tau"] = method["sigma"]
    except KnotctError as exc:
        raise _note(exc, "obstruction stage: sigma")
    if sigma is not None and sigma != 0:
        return ObstructionVerdict("no_pcs", "tau_nonzero_via_sigma", report())

    return ObstructionVerdict("inconclusive", "none", report())


def twist_gate(spec) -> TwistGate:
    """Alternating-diagram twist-number gate: >= 7 twist regions certify no
    purely cosmetic surgeries."""
    d = spec.diagram()
    if not d.is_alternating():
        m = _to_montesinos(spec)
        built = alternating_build(m) if m is not None else None
        if built is None:
            raise NotAlternating("twist gate needs an alternating build")
        d = built.diagram()
    if not d.is_reduced():
        raise NotReduced("twist gate needs a reduced build")
    t = twist_number(d)
    return TwistGate(twists=t, fires=t >= 7)
