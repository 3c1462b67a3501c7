"""Exception types shared across the package."""


class KnotctError(Exception):
    """Base class for all package errors."""


class DivisionByZero(KnotctError):
    """A subtractive continued fraction hit a zero denominator.

    Carries the 1-based position of the entry whose tail evaluated to
    the offending value.
    """

    def __init__(self, position):
        self.position = position
        super().__init__(f"zero denominator while evaluating entry {position}")


class PatternMismatch(KnotctError):
    """A rewrite rule does not apply at the requested position."""


class InvalidInput(KnotctError):
    """Preconditions on an input value are violated."""


class ParseError(KnotctError):
    def __init__(self, text, pos, expected):
        self.pos = pos
        self.expected = expected
        super().__init__(f"parse error at position {pos}: expected {expected!r} in {text!r}")


class ValidationError(KnotctError):
    """A structurally well-formed spec violates a family constraint."""


class NotAKnot(ValidationError):
    """A spec or diagram has more than one component.  A link spec is well
    formed but breaks the knot constraint, so the CLI exits 2 on it."""


class UnclassifiableType(KnotctError):
    """Montesinos spec fits neither the odd- nor the even-type genus case."""


class NotAlternating(KnotctError):
    pass


class InconsistentDiagram(KnotctError):
    """A diagram, or a computation on one, breaks an internal invariant (an
    arc without a head, an odd inter-component crossing sum, a Seifert
    matrix with det(V - V^T) != 1); signals an upstream bug.

    `stage` names the construction or oracle step whose check failed and
    prefixes the message.  These checks are raised, not asserted, so they
    survive `python -O`.
    """

    def __init__(self, message, stage=None):
        self.stage = stage
        super().__init__(message if stage is None else f"{stage}: {message}")


class NotReduced(KnotctError):
    """Diagram has a nugatory crossing."""


class BudgetExceeded(KnotctError):
    """Crossing/recursion budget exceeded (never silently approximated)."""


class NonIntegralA2(KnotctError):
    """-V''(1)/6 failed to be an integer; signals an upstream bug."""


class NoFormula(KnotctError):
    """No published closed form for this family/variant."""


class GenusMismatch(KnotctError):
    """Conway-degree genus disagrees with the surface genus; upstream bug."""
