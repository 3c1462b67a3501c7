"""Montesinos knot specifications and their genus.

A Montesinos knot M(beta_1/alpha_1, ..., beta_r/alpha_r | gamma) is a cyclic
chain of rational tangles closed off with gamma extra half twists.  The
normalization used throughout keeps every fraction in (-1, 1) with
alpha_i > 1; integer parts are absorbed into gamma (shifting a fraction down
by n adds n to gamma — calibrated against the diagram builder), and a +-1
"tangle" is exactly one half twist, i.e. gamma = +-1.

Besides the raw fraction form, the module knows the eleven one-to-five
parameter families (o1, o1', o2, o3, o3', o4, o4', o5, e1, e2, e3) whose
members are precisely the non-pretzel, non-two-bridge Montesinos knots of
genus two, each stated by its tangle fractions, and can enumerate them,
convert them to `MontesinosSpec`s, and compute genus from the strict/even
continued-fraction normal forms.
"""

from __future__ import annotations

from fractions import Fraction

from .cf_calculus import evaluate, to_even_cf, to_strict_cf
from .diagram import (
    double_twist_diagram,
    montesinos_diagram,
    pretzel_diagram,
)
from .errors import (
    DivisionByZero,
    InvalidInput,
    NotAKnot,
    ParseError,
    UnclassifiableType,
    ValidationError,
)
from .records import Record

__all__ = [
    "MontesinosSpec",
    "FamilySpec",
    "GenusBreakdown",
    "parse_spec",
    "family_to_montesinos",
    "is_alternating_knot",
    "genus",
    "enumerate_family",
    "FAMILY_NAMES",
]


# =============================================================================
# specs


class MontesinosSpec(Record):
    """Normalized tangle fractions plus the closing half-twist count.

    Construction normalizes each input fraction into (-1, 1) by truncating
    toward zero, adds the integer parts to gamma, drops zero tangles, and
    checks by arithmetic, without building a diagram, that the result is a
    knot (one component): with one even-denominator tangle it always is,
    with none exactly when sum(beta_i) + gamma is odd, and two or more
    even denominators give a link (Burde-Zieschang, *Knots*, ch. 12).
    """

    __slots__ = ("tangles", "gamma")

    def __init__(self, tangles, gamma=0):
        g = int(gamma)
        norm = []
        for f in tangles:
            f = Fraction(f)
            n = int(f)  # truncation keeps the remainder's sign
            f -= n
            g += n
            if f != 0:
                norm.append(f)
        if not norm:
            raise InvalidInput("no nontrivial tangles after normalization")
        evens = sum(1 for f in norm if f.denominator % 2 == 0)
        if evens > 1:
            raise NotAKnot(f"{evens} even-denominator tangles force extra components")
        if evens == 0 and (sum(f.numerator for f in norm) + g) % 2 == 0:
            raise NotAKnot("2 components")
        object.__setattr__(self, "tangles", tuple(norm))
        object.__setattr__(self, "gamma", g)

    @property
    def r(self):
        return len(self.tangles)

    def diagram(self):
        return montesinos_diagram(self.tangles, self.gamma)

    def mirror(self):
        return MontesinosSpec([-f for f in self.tangles], -self.gamma)

    def __str__(self):
        body = ",".join(f"{f.numerator}/{f.denominator}" for f in self.tangles)
        return f"M({body}|{self.gamma})" if self.gamma else f"M({body})"


FAMILY_NAMES = ("o1", "o1p", "o2", "o3", "o3p", "o4", "o4p", "o5", "e1", "e2", "e3")

_PARAMS = {
    "o1": ("a", "b", "c", "d", "e"),
    "o1p": ("a", "b", "c", "d"),
    "o2": ("a", "b", "c", "d", "e"),
    "o3": ("a", "b", "c"),
    "o3p": ("b", "c"),
    "o4": ("a", "b", "c", "d"),
    "o4p": ("b", "c", "d"),
    "o5": ("a", "b", "c", "d", "e"),
    "e1": ("a", "b", "c", "d", "e"),
    "e2": ("a", "b", "c"),
    "e3": ("a",),
    "double_twist": ("x", "y"),
    "fig1_left": ("a", "b", "c", "d", "e", "f"),
    "fig1_right": ("a", "b", "c", "d", "e", "f"),
}
# params that must differ from -1 (all named params are nonzero by default)
_NOT_MINUS_ONE = {
    "o1": ("a", "c", "d", "e"),
    "o1p": ("a", "c", "d"),
    "o2": ("a", "c", "e"),
    "o3": ("b", "c"),
    "o3p": ("b", "c"),
    "o4": ("b", "c", "d"),
    "o4p": ("b", "c", "d"),
    "o5": ("a", "d", "e"),
    "e3": ("a",),
}
_SIGN_FAMILIES = {"o1p", "o3", "o3p", "o4", "o4p"}
_MIRROR_FAMILIES = {"o3", "o3p", "o4", "o4p", "e2", "e3"}
# families where zero parameter values are meaningful (twist counts, not
# continued-fraction entries)
_ZERO_OK = {"fig1_left", "fig1_right"}


class FamilySpec(Record):
    """A knot named by family and integer parameters.

    `sign_variant` selects the +/- branch of the families whose bracket form
    carries one (o1', o3, o3', o4, o4'); `mirror` requests the mirror image.
    """

    __slots__ = ("family", "params", "sign_variant", "mirror")

    def __init__(self, family, params, sign_variant=None, mirror=False):
        if family == "pretzel":
            names = tuple(f"q{i + 1}" for i in range(len(params)))
            if len(params) < 2:
                raise ValidationError("pretzel needs at least two strand counts")
        elif family in _PARAMS:
            names = _PARAMS[family]
        else:
            raise ValidationError(f"unknown family {family!r}")
        params = dict(params) if not isinstance(params, dict) else dict(params)
        if set(params) != set(names):
            raise ValidationError(
                f"{family} needs parameters {names}, got {tuple(sorted(params))}"
            )
        for k in names:
            params[k] = int(params[k])
            if params[k] == 0 and family not in _ZERO_OK:
                raise ValidationError(f"{family}: parameter {k} must be nonzero")
        for k in _NOT_MINUS_ONE.get(family, ()):
            if params[k] == -1:
                raise ValidationError(f"{family}: parameter {k} must not be -1")
        if family in ("o3", "o4") and abs(params["a"]) < 2:
            raise ValidationError(f"{family}: |a| >= 2 required")
        if family in _SIGN_FAMILIES:
            if sign_variant not in (1, -1):
                raise ValidationError(f"{family} needs sign_variant +-1")
        elif sign_variant is not None:
            raise ValidationError(f"{family} takes no sign_variant")
        object.__setattr__(self, "family", family)
        # (name, value) pairs in the family's parameter order
        object.__setattr__(self, "params", tuple((k, params[k]) for k in names))
        object.__setattr__(self, "sign_variant", sign_variant)
        object.__setattr__(self, "mirror", bool(mirror))

    def param(self, name):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def param_values(self):
        return tuple(v for _, v in self.params)

    def fraction_form(self):
        """Tangle fractions plus gamma, before any mirroring."""
        p = dict(self.params)
        s = self.sign_variant or 1
        a, b, c, d, e = (p.get(k) for k in "abcde")
        F = Fraction
        if self.family == "o1":
            return [
                F(2 * b, 4 * a * b + 2 * b - 1),
                F(1, 2 * c + 1),
                F(1, 2 * d + 1),
                F(1, 2 * e + 1),
            ], 0
        if self.family == "o1p":
            return [
                F(2 * b, 4 * a * b + 2 * b - 1),
                F(1, 2 * c + 1),
                F(1, 2 * d + 1),
            ], s
        if self.family == "o2":
            return [
                F(2 * b, 4 * a * b + 2 * b - 1),
                F(2 * d, 4 * c * d + 2 * d - 1),
                F(1, 2 * e + 1),
            ], 0
        if self.family == "o3":
            return [F(3, 6 * a - s), F(1, 2 * b + 1), F(1, 2 * c + 1)], 0
        if self.family == "o3p":
            return [F(3 * s, 7), F(1, 2 * b + 1), F(1, 2 * c + 1)], 0
        if self.family == "o4":
            return [
                F(4 * b + 2 - s, 8 * a * b + 4 * a - 2 * a * s - 2 * b * s - s),
                F(1, 2 * c + 1),
                F(1, 2 * d + 1),
            ], 0
        if self.family == "o4p":
            return [
                F(s * (4 * b + 2) + 1, 10 * b + 5 + 2 * s),
                F(1, 2 * c + 1),
                F(1, 2 * d + 1),
            ], 0
        if self.family == "o5":
            return [
                F(4 * b * c - 1, 8 * a * b * c + 4 * b * c - 2 * a - 2 * c - 1),
                F(1, 2 * d + 1),
                F(1, 2 * e + 1),
            ], 0
        if self.family == "e1":
            return [
                F(1, 2 * a),
                F(2 * c, 4 * b * c - 1),
                F(2 * e, 4 * d * e - 1),
            ], 0
        if self.family == "e2":
            return [
                F(1, 2),
                F(-2 * a, 4 * a + 1),
                F(2 * b, 4 * b - 1),
                F(-2 * c, 4 * c + 1),
            ], 0
        if self.family == "e3":
            return [F(2 * a + 1, 6 * a + 2), F(-1, 3), F(1, 3), F(-1, 3)], 0
        raise InvalidInput(f"{self.family} has no Montesinos fraction form")

    def diagram(self):
        if self.family == "pretzel":
            d = pretzel_diagram(self.param_values())
            return d.mirror() if self.mirror else d
        if self.family == "double_twist":
            d = double_twist_diagram(2 * self.param("x"), 2 * self.param("y"))
            return d.mirror() if self.mirror else d
        if self.family in ("fig1_left", "fig1_right"):
            from .diagram import fig1_left_diagram, fig1_right_diagram

            make = fig1_left_diagram if self.family == "fig1_left" else fig1_right_diagram
            d = make(*self.param_values())
            return d.mirror() if self.mirror else d
        return family_to_montesinos(self).diagram()

    def __str__(self):
        if self.family == "pretzel":
            return "P(" + ",".join(str(v) for v in self.param_values()) + ")"
        if self.family == "double_twist":
            return f"DT({2 * self.param('x')},{2 * self.param('y')})"
        if self.family in ("fig1_left", "fig1_right"):
            tag = "F1L" if self.family == "fig1_left" else "F1R"
            return tag + "(" + ",".join(str(v) for v in self.param_values()) + ")"
        kv = [f"{k}={v}" for k, v in self.params]
        if self.sign_variant is not None:
            kv.append(f"sign={self.sign_variant}")
        if self.mirror:
            kv.append("mirror=1")
        return f"FAM:{self.family}(" + ",".join(kv) + ")"


def family_to_montesinos(f: FamilySpec) -> MontesinosSpec:
    """Fraction-form MontesinosSpec of a named-family knot."""
    if f.family == "pretzel":
        fracs, g = [Fraction(1, q) for q in f.param_values()], 0
    elif f.family == "double_twist":
        fracs, g = [Fraction(2 * f.param("x")) - Fraction(1, 2 * f.param("y"))], 0
    else:
        fracs, g = f.fraction_form()
    if f.mirror:
        fracs, g = [-x for x in fracs], -g
    return MontesinosSpec(fracs, g)


def _to_montesinos(spec):
    """Normalized Montesinos form, or None when the spec is the unknot
    (every tangle fraction an integer)."""
    if isinstance(spec, MontesinosSpec):
        return spec
    try:
        return family_to_montesinos(spec)
    except InvalidInput:
        return None


def is_alternating_knot(m: MontesinosSpec) -> bool:
    """Whether the Montesinos knot (not just this presentation) is
    alternating.

    Length <= 2 means two-bridge, always alternating.  Otherwise the reduced
    Montesinos presentations of the knot are exactly the shifts of this one
    (each fraction replaced by its other in-range representative, moving the
    unit into gamma), so the knot is alternating iff all fractions can be
    given one sign with gamma zero or sign-matched.
    """
    if m.r <= 2:
        return True
    pos = sum(1 for f in m.tangles if f > 0)
    neg = m.r - pos
    return m.gamma + pos <= 0 or m.gamma - neg >= 0


def enumerate_family(family, bound):
    """All FamilySpecs of one genus-2 family with parameters in [-bound, bound].

    Mirror variants are produced only for the families not closed under
    mirroring within their own parametrization (the sign-branch families and
    the two even families stated with an explicit mirror); sign variants for
    the families whose bracket form carries a +/- branch.  Deterministic:
    parameters ascend lexicographically, then sign +1 before -1, then plain
    before mirror.
    """
    if family not in FAMILY_NAMES:
        raise InvalidInput(f"not an enumerable genus-2 family: {family!r}")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    names = _PARAMS[family]
    signs = (1, -1) if family in _SIGN_FAMILIES else (None,)
    mirrors = (False, True) if family in _MIRROR_FAMILIES else (False,)

    def rec(i, acc):
        if i == len(names):
            for s in signs:
                for m in mirrors:
                    try:
                        yield FamilySpec(family, dict(acc), s, m)
                    except ValidationError:
                        pass
            return
        for v in range(-bound, bound + 1):
            if v == 0:
                continue
            yield from rec(i + 1, acc + [(names[i], v)])

    yield from rec(0, [])


# =============================================================================
# genus


class GenusBreakdown(Record):
    """A genus with the data it was read from: `type` is odd,
    even_gamma_nonzero, even_caseII or even_caseIII; `per_tangle` holds
    b^(i) (odd type) or m_i (even type); `p` is case III's leading run."""

    __slots__ = ("genus", "type", "per_tangle", "p")

    def __init__(self, genus, type, per_tangle, p=None):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "per_tangle", per_tangle)
        object.__setattr__(self, "p", p)


def _half_range(f, gamma):
    """Absorb one unit so that |f| < 1/2 (f has odd denominator)."""
    if 2 * abs(f.numerator) > f.denominator:
        step = 1 if f > 0 else -1
        return f - step, gamma + step
    return f, gamma


def genus(m: MontesinosSpec) -> GenusBreakdown:
    """Genus from continued-fraction normal forms.

    Odd type (all denominators odd): each tangle is brought to |f| < 1/2
    (units move into gamma), its strict continued fraction contributes
    b = sum |b_j|, and g = (sum b + |gamma| - 1)/2.

    Even type (one even denominator, rotated first): every other tangle with
    odd numerator absorbs a unit into gamma; the even-denominator tangle has
    two in-range representatives, which cancels a leftover gamma = +-1.  With
    gamma != 0 the genus is (1 + sum m_i)/2; with gamma = 0 it is
    (sum m_i - 1)/2 unless the leading entries alternate as
    +-(2, -2, ..., 2, -2), where g = (1 + sum m_i)/2 - (p + 1) with p the
    minimal leading run length.
    """
    if all(f.denominator % 2 == 1 for f in m.tangles):
        g_acc, per = m.gamma, []
        for f in m.tangles:
            f, g_acc = _half_range(f, g_acc)
            per.append(sum(abs(b) for b in to_strict_cf(f)[1::2]))
        total = sum(per) + abs(g_acc) - 1
        if total % 2:
            raise UnclassifiableType(f"odd-type genus count {total} is not even")
        return GenusBreakdown(total // 2, "odd", tuple(per))

    evens = [i for i, f in enumerate(m.tangles) if f.denominator % 2 == 0]
    if len(evens) != 1:
        raise UnclassifiableType(f"{len(evens)} even-denominator tangles")
    k = evens[0]
    g_acc, fr = m.gamma, []
    for i, f in enumerate(m.tangles[k:] + m.tangles[:k]):
        if i > 0 and f.numerator % 2 == 1:
            step = 1 if f > 0 else -1
            f -= step
            g_acc += step
        fr.append(f)
    if g_acc != 0:
        # shifting the even tangle to its other representative moves gamma
        # by sign(f1); use it when that cancels gamma
        step = 1 if fr[0] > 0 else -1
        if g_acc + step == 0:
            fr[0] -= step
            g_acc = 0
    cfs = [to_even_cf(f) for f in fr]
    ms = tuple(len(cf) for cf in cfs)
    if g_acc != 0:
        return GenusBreakdown((1 + sum(ms)) // 2, "even_gamma_nonzero", ms)
    r = len(cfs)
    for s in (1, -1):
        leads = [2 * s * (-1) ** i for i in range(r)]
        if r % 2 == 0 and all(cf[0] == c for cf, c in zip(cfs, leads)):
            # p is the shortest initial run of entries equal to the lead
            p = min(next((j for j, e in enumerate(cf) if e != c), len(cf))
                    for cf, c in zip(cfs, leads))
            return GenusBreakdown((1 + sum(ms)) // 2 - (p + 1), "even_caseIII", ms, p)
    return GenusBreakdown((sum(ms) - 1) // 2, "even_caseII", ms)


# =============================================================================
# spec grammar


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def _skip(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self._skip()
        return self.text[self.i] if self.i < len(self.text) else ""

    def lit(self, s):
        self._skip()
        if not self.text.startswith(s, self.i):
            raise ParseError(self.text, self.i, s)
        self.i += len(s)

    def try_lit(self, s):
        self._skip()
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def integer(self):
        self._skip()
        j = self.i
        if j < len(self.text) and self.text[j] == "-":
            j += 1
        k = j
        while k < len(self.text) and self.text[k].isdigit():
            k += 1
        if k == j:
            raise ParseError(self.text, self.i, "integer")
        v = int(self.text[self.i : k])
        self.i = k
        return v

    def word(self):
        self._skip()
        k = self.i
        while k < len(self.text) and (self.text[k].isalnum() or self.text[k] == "_"):
            k += 1
        if k == self.i:
            raise ParseError(self.text, self.i, "name")
        w = self.text[self.i : k]
        self.i = k
        return w

    def frac(self):
        if self.peek() == "[":
            self.lit("[")
            entries = [self.integer()]
            while self.try_lit(","):
                entries.append(self.integer())
            self.lit("]")
            try:
                return evaluate(entries)
            except (InvalidInput, DivisionByZero) as exc:
                raise ValidationError(str(exc)) from exc
        p = self.integer()
        self.lit("/")
        q = self.integer()
        if q == 0:
            raise ValidationError("zero denominator")
        return Fraction(p, q)

    def int_list(self, count=None):
        out = [self.integer()]
        while self.try_lit(","):
            out.append(self.integer())
        if count is not None and len(out) != count:
            raise ValidationError(f"expected {count} integers, got {len(out)}")
        return out

    def end(self):
        self._skip()
        if self.i != len(self.text):
            raise ParseError(self.text, self.i, "end of input")


def parse_spec(text: str):
    """Parse a knot spec literal.

    `M(f1,...,fr|g)` with fractions `p/q` or bracket continued fractions
    gives a MontesinosSpec; `P(q1,...,qn)`, `DT(m,n)`, `F1L(a,b,c,d,e,f)`,
    `F1R(...)`, and `FAM:name(k=v,...)` give FamilySpecs.
    """
    p = _Parser(text)
    if p.try_lit("M("):
        fracs = [p.frac()]
        while p.try_lit(","):
            fracs.append(p.frac())
        gamma = p.integer() if p.try_lit("|") else 0
        p.lit(")")
        p.end()
        return MontesinosSpec(fracs, gamma)
    if p.try_lit("P("):
        qs = p.int_list()
        p.lit(")")
        p.end()
        if len(qs) < 2:
            raise ValidationError("pretzel needs at least two strand counts")
        return FamilySpec("pretzel", {f"q{i + 1}": q for i, q in enumerate(qs)})
    if p.try_lit("DT("):
        x, y = p.int_list(2)
        p.lit(")")
        p.end()
        if x % 2 or y % 2:
            raise ValidationError("double-twist counts must be even")
        return FamilySpec("double_twist", {"x": x // 2, "y": y // 2})
    for tag, fam in (("F1L(", "fig1_left"), ("F1R(", "fig1_right")):
        if p.try_lit(tag):
            vals = p.int_list(6)
            p.lit(")")
            p.end()
            return FamilySpec(fam, dict(zip("abcdef", vals)))
    if p.try_lit("FAM:"):
        name = p.word()
        p.lit("(")
        kv = {}
        while True:
            k = p.word()
            p.lit("=")
            kv[k] = p.integer()
            if not p.try_lit(","):
                break
        p.lit(")")
        p.end()
        sign = kv.pop("sign", None)
        mirror = bool(kv.pop("mirror", 0))
        return FamilySpec(name, kv, sign, mirror)
    raise ParseError(text, 0, "M(, P(, DT(, F1L(, F1R(, or FAM:")
