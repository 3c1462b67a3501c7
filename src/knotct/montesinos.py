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

The spec layer runs in integer arithmetic: every tangle is a (beta,
alpha) pair, normalization, the knot-parity check, the genus cases and
the alternating shift move numerators by whole denominators, and the
normal forms take the pairs as they are; a `Fraction` is built only to
evaluate an `M(...)` bracket.  `genus`, `is_alternating_knot` and
`alternating_build` take a `MontesinosSpec` record or its normalized pairs.

Which paths check a family spec and which trust it: user input (the
`parse_spec` grammar, and with it every CLI spec argument) and the public
`FamilySpec(...)` constructor check every rule of `_RULES` and raise
`ValidationError` on a breach.  `enumerate_family` trusts its draw: each
parameter ranges only over the (name, value) pairs its rule admits, so it
sets each record's slots directly (`_drawn_specs`), with no `__init__` and
no check, and its records equal, hash and print like the checked ones.  No
assert carries any of this, so `python -O` changes nothing.

Both paths take each (name, value) pair of a spec's `params` from one
table, `_PAIRS`, so equal pairs of any number of specs are one tuple, and
each family name is one string: a parsed bound-3 `FAM:` spec holds 152
bytes (tracemalloc, CPython 3.11), where fresh pairs and names held 469.
The table holds (name, value) pairs only, at most `_PAIR_TABLE_SIZE` =
4,096 of them, and is cleared when full; a spec built after a clearing is
equal to, but shares nothing with, one before.

Each tangle is read from a per-tangle row, an LRU cache bounded at
`_ROW_MEMO_SIZE` = 2,048 entries, so a sweep reduces, types and weighs each
distinct tangle once: `_normalize` reads `_pair_row`, keyed on the raw
(beta, alpha) pair, and `genus` sums `_odd_row` or `_even_row`, keyed on
the normalized pair.  `MontesinosSpec.tangles` holds the `_pair_row` rows'
own pairs, so equal raw tangles of any number of records are one tuple: a
record of four recurring tangles holds 129 bytes, where `Fraction`s held
325.  Each odd or even row converts its tangle's normal form once, with no
memo below it; a bound-4 sweep of the families fills 702, 534 and 88 rows,
so the bound evicts nothing in a sweep, and a full row memo retains under
1 MB.  The cached values are ints, bools, None and tuples of them, a
failed reduction or conversion is not cached, and each process starts
with every memo empty.  A query with no tangle pairs loads no `cf_calculus`.
"""

from __future__ import annotations

import functools
import re
from itertools import product

from .diagram import (
    double_twist_diagram,
    fig1_left_diagram,
    fig1_right_diagram,
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
    "alternating_build",
    "genus",
    "enumerate_family",
    "FAMILY_NAMES",
]


# =============================================================================
# specs


class MontesinosSpec(Record):
    """Normalized (beta, alpha) tangle pairs plus the closing half-twist count.

    Construction normalizes each input fraction into (-1, 1) by truncating
    toward zero, adds the integer parts to gamma, drops zero tangles, and
    checks by arithmetic, without building a diagram, that the result is a
    knot (one component): with one even-denominator tangle it always is,
    with none exactly when sum(beta_i) + gamma is odd, and two or more
    even denominators give a link (Burde-Zieschang, *Knots*, ch. 12).
    Each input tangle is anything `Fraction()` takes, or a pair (p, q)
    standing for `Fraction(p, q)`; `tangles` holds them in lowest terms.
    """

    __slots__ = ("tangles", "gamma")

    def __init__(self, tangles, gamma=0):
        norm, g = _normalize(tangles, gamma)
        set_tangles, set_gamma = type(self)._setters
        set_tangles(self, tuple(norm))
        set_gamma(self, g)

    def diagram(self):
        return montesinos_diagram(self.tangles, self.gamma)

    def __str__(self):
        body = ",".join(f"{p}/{q}" for p, q in self.tangles)
        return f"M({body}|{self.gamma})" if self.gamma else f"M({body})"


def _normalize(tangles, gamma):
    """`MontesinosSpec`'s normalization in integers: the tangles as (beta,
    alpha) pairs in lowest terms, each in (-1, 1) with alpha > 1, and gamma.

    A tangle is anything `Fraction()` takes, or a pair (p, q) standing for
    `Fraction(p, q)`.  Each is read from its `_pair_row`, and the one loop
    that collects the pairs counts the even denominators and sums the
    numerators for the knot check.
    """
    g = int(gamma)
    norm, evens, total = [], 0, 0
    for f in tangles:
        if type(f) is not tuple:
            from .cf_calculus import _lowest_terms

            f = _lowest_terms(f)
        pair, n, even = _pair_row(*f)
        g += n
        if pair is not None:
            norm.append(pair)
            evens += even
            total += pair[0]
    if not norm:
        raise InvalidInput("no nontrivial tangles after normalization")
    if evens > 1:
        raise NotAKnot(f"{evens} even-denominator tangles force extra components")
    if evens == 0 and (total + g) % 2 == 0:
        raise NotAKnot("2 components")
    return norm, g


# the bound of each per-tangle row memo (`_pair_row`, `_odd_row`, `_even_row`)
_ROW_MEMO_SIZE = 1 << 11


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE, typed=True)
def _pair_row(p, q):
    """The raw tangle p/q as `_normalize` reads it: (pair, n, even), with
    pair the remainder in (-1, 1) as a (beta, alpha) pair in lowest terms
    (None when p/q is an integer), n the integer part truncated toward
    zero, and even whether alpha is even.  Typed, so that a pair of floats
    raises as `Fraction()` does even after the equal int pair is cached."""
    from .cf_calculus import _lowest_terms

    p, q = _lowest_terms((p, q))
    n = p // q if p >= 0 else -(-p // q)  # truncation keeps the remainder's sign
    p -= n * q
    return ((p, q) if p else None), n, q % 2 == 0


FAMILY_NAMES = ("o1", "o1p", "o2", "o3", "o3p", "o4", "o4p", "o5", "e1", "e2", "e3")


def _rule(names, not_minus_one="", zero_ok=False, a_min=False, signed=False):
    names = tuple(names)
    return names, frozenset(names), zero_ok, tuple(map(names.index, not_minus_one)), a_min, signed


# family -> (names, their set, zero allowed (six-box twist counts), positions
# that must not be -1, |a| >= 2 required, takes a sign variant)
_RULES = {
    "o1": _rule("abcde", "acde"),
    "o1p": _rule("abcd", "acd", signed=True),
    "o2": _rule("abcde", "ace"),
    "o3": _rule("abc", "bc", a_min=True, signed=True),
    "o3p": _rule("bc", "bc", signed=True),
    "o4": _rule("abcd", "bcd", a_min=True, signed=True),
    "o4p": _rule("bcd", "bcd", signed=True),
    "o5": _rule("abcde", "ade"),
    "e1": _rule("abcde"),
    "e2": _rule("abc"),
    "e3": _rule("a", "a"),
    "double_twist": _rule("xy"),
    "fig1_left": _rule("abcdef", zero_ok=True),
    "fig1_right": _rule("abcdef", zero_ok=True),
}
_MIRROR_FAMILIES = {"o3", "o3p", "o4", "o4p", "e2", "e3"}
# the positional spec forms, head -> (family, arity or None for any, scale);
# a form lists its family's parameters times the scale, in order
_SHORT_FORMS = {"P": ("pretzel", None, 1), "DT": ("double_twist", 2, 2),
                "F1L": ("fig1_left", 6, 1), "F1R": ("fig1_right", 6, 1)}


# each family name as one string object, so a parsed spec holds no copy
_FAMILIES = {name: name for name in (*_RULES, "pretzel")}
# the (name, value) pairs of `FamilySpec.params`: each pair maps to itself,
# so equal pairs of any number of family specs are one tuple; cleared when
# it has grown past its size
_PAIR_TABLE_SIZE = 1 << 12
_PAIRS = {}


def _shared_pairs(pairs):
    """A tuple of `_PAIRS`' own pairs equal to `pairs`, a list of (name,
    value) pairs; the table is cleared after they go in if that took it
    past `_PAIR_TABLE_SIZE`."""
    share = _PAIRS.setdefault
    shared = tuple([share(p, p) for p in pairs])
    if len(_PAIRS) > _PAIR_TABLE_SIZE:
        _PAIRS.clear()
    return shared


class FamilySpec(Record):
    """A knot named by family and integer parameters.

    `sign_variant` selects the +/- branch of the families whose bracket form
    carries one (o1', o3, o3', o4, o4'); `mirror` requests the mirror image.
    """

    __slots__ = ("family", "params", "sign_variant", "mirror")

    def __init__(self, family, params, sign_variant=None, mirror=False):
        rule = _RULES.get(family)
        if rule is None:
            if family != "pretzel":
                raise ValidationError(f"unknown family {family!r}")
            if len(params) < 2:
                raise ValidationError("pretzel needs at least two strand counts")
            rule = _rule(f"q{i + 1}" for i in range(len(params)))
        names, keys, zero_ok, not_minus_one, a_min, signed = rule
        if not isinstance(params, dict):
            params = dict(params)
        if params.keys() != keys:
            raise ValidationError(
                f"{family} needs parameters {names}, got {tuple(sorted(params))}"
            )
        values = []
        for k in names:
            v = int(params[k])
            if v == 0 and not zero_ok:
                raise ValidationError(f"{family}: parameter {k} must be nonzero")
            values.append(v)
        for i in not_minus_one:
            if values[i] == -1:
                raise ValidationError(f"{family}: parameter {names[i]} must not be -1")
        if a_min and abs(values[0]) < 2:
            raise ValidationError(f"{family}: |a| >= 2 required")
        if signed:
            if sign_variant not in (1, -1):
                raise ValidationError(f"{family} needs sign_variant +-1")
        elif sign_variant is not None:
            raise ValidationError(f"{family} takes no sign_variant")
        set_family, set_params, set_sign, set_mirror = type(self)._setters
        set_family(self, _FAMILIES[family])
        # (name, value) pairs in the family's parameter order, from `_PAIRS`
        set_params(self, _shared_pairs(list(zip(names, values))))
        set_sign(self, sign_variant)
        set_mirror(self, bool(mirror))

    def param_values(self):
        return tuple(v for _, v in self.params)

    def fraction_form(self):
        """Tangle fractions as (beta, alpha) integer pairs, not necessarily
        in lowest terms, plus gamma, before any mirroring."""
        form = _FRACTION_FORMS.get(self.family)
        if form is None:
            raise InvalidInput(f"{self.family} has no Montesinos fraction form")
        return form(self.sign_variant or 1, *[v for _, v in self.params])

    def diagram(self):
        if self.family == "pretzel":
            d = pretzel_diagram(self.param_values())
        elif self.family == "double_twist":
            d = double_twist_diagram(*(2 * v for v in self.param_values()))
        elif self.family in ("fig1_left", "fig1_right"):
            make = fig1_left_diagram if self.family == "fig1_left" else fig1_right_diagram
            d = make(*self.param_values())
        else:
            # the normalizer's pairs, without a MontesinosSpec record
            return montesinos_diagram(*_normalize(*_family_form(self)))
        return d.mirror() if self.mirror else d

    def __str__(self):
        fmt = _FAM_FORMATS.get((self.family, self.sign_variant, self.mirror))
        if fmt is not None:
            return fmt % tuple([v for _, v in self.params])
        for head, (family, _, scale) in _SHORT_FORMS.items():
            if family == self.family and not self.mirror:
                return f"{head}(" + ",".join(str(scale * v) for _, v in self.params) + ")"
        kv = [f"{k}={v}" for k, v in self.params]
        if self.sign_variant is not None:
            kv.append(f"sign={self.sign_variant}")
        if self.mirror:
            kv.append("mirror=1")
        return f"FAM:{self.family}(" + ",".join(kv) + ")"


# genus-2 family -> its `fraction_form`, from the sign variant s (1 for a
# family without one) and the parameter values in the family's order: o3'
# and o4' have no a, and e3 has only a
_FRACTION_FORMS = {
    "o1": lambda s, a, b, c, d, e: ([
        (2 * b, 4 * a * b + 2 * b - 1), (1, 2 * c + 1), (1, 2 * d + 1), (1, 2 * e + 1),
    ], 0),
    "o1p": lambda s, a, b, c, d: ([
        (2 * b, 4 * a * b + 2 * b - 1), (1, 2 * c + 1), (1, 2 * d + 1),
    ], s),
    "o2": lambda s, a, b, c, d, e: ([
        (2 * b, 4 * a * b + 2 * b - 1), (2 * d, 4 * c * d + 2 * d - 1), (1, 2 * e + 1),
    ], 0),
    "o3": lambda s, a, b, c: ([(3, 6 * a - s), (1, 2 * b + 1), (1, 2 * c + 1)], 0),
    "o3p": lambda s, b, c: ([(3 * s, 7), (1, 2 * b + 1), (1, 2 * c + 1)], 0),
    "o4": lambda s, a, b, c, d: ([
        (4 * b + 2 - s, 8 * a * b + 4 * a - 2 * a * s - 2 * b * s - s),
        (1, 2 * c + 1), (1, 2 * d + 1),
    ], 0),
    "o4p": lambda s, b, c, d: ([
        (s * (4 * b + 2) + 1, 10 * b + 5 + 2 * s), (1, 2 * c + 1), (1, 2 * d + 1),
    ], 0),
    "o5": lambda s, a, b, c, d, e: ([
        (4 * b * c - 1, 8 * a * b * c + 4 * b * c - 2 * a - 2 * c - 1),
        (1, 2 * d + 1), (1, 2 * e + 1),
    ], 0),
    "e1": lambda s, a, b, c, d, e: ([
        (1, 2 * a), (2 * c, 4 * b * c - 1), (2 * e, 4 * d * e - 1),
    ], 0),
    "e2": lambda s, a, b, c: ([
        (1, 2), (-2 * a, 4 * a + 1), (2 * b, 4 * b - 1), (-2 * c, 4 * c + 1),
    ], 0),
    "e3": lambda s, a: ([(2 * a + 1, 6 * a + 2), (-1, 3), (1, 3), (-1, 3)], 0),
}

# (family, sign_variant, mirror) -> the `FAM:` string of a genus-2 family
# spec with %d for each parameter value, as the general `__str__` prints it
_FAM_FORMATS = {
    (family, s, m): f"FAM:{family}(" + ",".join(f"{k}=%d" for k in names)
    + ("" if s is None else f",sign={s}") + (",mirror=1" if m else "") + ")"
    for family in FAMILY_NAMES
    for names, *_, signed in [_RULES[family]]
    for s in ((1, -1) if signed else (None,))
    for m in (False, True)
}


def _family_form(f: FamilySpec):
    """Tangle (beta, alpha) pairs and gamma of a family spec, mirrored when
    the spec asks for it."""
    if f.family == "pretzel":
        pairs, g = [(1, q) for q in f.param_values()], 0
    elif f.family == "double_twist":
        x, y = f.param_values()
        # 1/(2y) - 2x: the knot `double_twist_diagram(2x, 2y)` draws, and
        # not its mirror image, which 2x - 1/(2y) names
        pairs, g = [(1 - 4 * x * y, 2 * y)], 0
    else:
        pairs, g = f.fraction_form()
    if f.mirror:
        pairs, g = [(-p, q) for p, q in pairs], -g
    return pairs, g


def family_to_montesinos(f: FamilySpec) -> MontesinosSpec:
    """The MontesinosSpec record of a named-family knot."""
    return MontesinosSpec(*_family_form(f))


def _normal_pairs(spec):
    """`_normalize`'s pairs and gamma: a record's own fields, a family
    spec's with no record built, or None for a spec without pairs: a
    six-box template, or a pretzel whose every strand is +-1, a (2, k)
    torus knot (`P(1,1,1)` is the trefoil)."""
    if isinstance(spec, MontesinosSpec):
        return spec.tangles, spec.gamma
    try:
        return _normalize(*_family_form(spec))
    except InvalidInput:
        return None


def _pairs(m):
    """A MontesinosSpec's normalized (pairs, gamma), or `m` itself."""
    return _normal_pairs(m) if isinstance(m, MontesinosSpec) else m


def alternating_build(m):
    """The alternating presentation of a MontesinosSpec or its normalized
    (pairs, gamma), as (pairs, gamma), or None: every negative tangle p/q
    shifted to (p + q)/q, or every positive one to (p - q)/q, with the
    units moved into gamma, when that leaves gamma zero or of their sign.
    """
    pairs, gamma = _pairs(m)
    neg = sum(1 for p, _ in pairs if p < 0)
    if gamma >= neg:
        return [(p + q if p < 0 else p, q) for p, q in pairs], gamma - neg
    pos = len(pairs) - neg
    if gamma + pos <= 0:
        return [(p - q if p > 0 else p, q) for p, q in pairs], gamma + pos
    return None


def is_alternating_knot(m) -> bool:
    """Whether the Montesinos knot (not just this presentation) is
    alternating, for a MontesinosSpec or normalized (pairs, gamma).

    Length <= 2 means two-bridge, always alternating.  Otherwise the reduced
    Montesinos presentations of the knot are exactly the shifts of this one
    (Lickorish-Thistlethwaite), so the knot is alternating iff
    `alternating_build` finds one with every fraction of one sign.
    """
    norm = _pairs(m)
    return len(norm[0]) <= 2 or alternating_build(norm) is not None


def enumerate_family(family, bound):
    """All FamilySpecs of one genus-2 family with parameters in [-bound, bound].

    Mirror variants are produced only for the families not closed under
    mirroring within their own parametrization (the sign-branch families and
    the two even families stated with an explicit mirror); sign variants for
    the families whose bracket form carries a +/- branch.  Deterministic:
    parameters ascend lexicographically, then sign +1 before -1, then plain
    before mirror.  The arguments are checked on the call, not on the
    first `next()`.
    """
    if family not in FAMILY_NAMES:
        raise InvalidInput(f"not an enumerable genus-2 family: {family!r}")
    if bound < 1:
        raise ValidationError("bound must be >= 1")
    # each parameter ranges over the (name, value) pairs FamilySpec admits
    # for it alone, taken from `_PAIRS`, so every combination is a spec's
    # `params` as it stands
    names, _, _, not_minus_one, a_min, signed = _RULES[family]
    axes = [_shared_pairs([(k, v) for v in range(-bound, bound + 1)
                           if v and not (v == -1 and i in not_minus_one
                                         or i == 0 and a_min and abs(v) < 2)])
            for i, k in enumerate(names)]
    variants = list(product((1, -1) if signed else (None,),
                            (False, True) if family in _MIRROR_FAMILIES else (False,)))
    return _drawn_specs(_FAMILIES[family], product(*axes), variants)


def _drawn_specs(family, combos, variants):
    """FamilySpec records set slot by slot, without `__init__`'s checks,
    which `enumerate_family`'s draw already meets, through the setters
    `FamilySpec.__init__` uses: the records equal, hash and print like the
    checked constructions and share their pairs."""
    new = object.__new__
    set_family, set_params, set_sign, set_mirror = FamilySpec._setters
    for params in combos:
        for s, m in variants:
            f = new(FamilySpec)
            set_family(f, family)
            set_params(f, params)
            set_sign(f, s)
            set_mirror(f, m)
            yield f


# =============================================================================
# genus


class GenusBreakdown(Record):
    """A genus with the data it was read from: `type` is odd,
    even_gamma_nonzero, even_caseII or even_caseIII; `per_tangle` holds
    b^(i) (odd type) or m_i (even type); `p` is case III's leading run."""

    __slots__ = ("genus", "type", "per_tangle", "p")

    def __init__(self, genus, type, per_tangle, p=None):
        # the field `type` hides the builtin here
        set_genus, set_type, set_per_tangle, set_p = self.__class__._setters
        set_genus(self, genus)
        set_type(self, type)
        set_per_tangle(self, per_tangle)
        set_p(self, p)


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE)
def _odd_row(p, q):
    """The odd type's row of a normalized tangle p/q: (b, step), with step
    the unit (0 or +-1) that moves into gamma to bring p/q to |p/q| < 1/2
    and b = sum |b_j| of the strict continued fraction of the pair it
    leaves."""
    from .cf_calculus import to_strict_cf

    step = (1 if p > 0 else -1) if 2 * abs(p) > q else 0
    return sum(abs(b) for b in to_strict_cf((p - step * q, q))[1::2]), step


@functools.lru_cache(maxsize=_ROW_MEMO_SIZE)
def _even_row(p, q):
    """The even type's row of a tangle p/q: (step, m, lead, run), with
    step the unit (0 or +-1) that moves into gamma, and m, lead and run
    the length, leading entry and initial run of entries equal to the lead
    of the even continued fraction of the pair it leaves.  Only an odd
    numerator over an odd denominator absorbs a unit."""
    from .cf_calculus import to_even_cf

    step = (1 if p > 0 else -1) if p % 2 and q % 2 else 0
    cf = to_even_cf((p - step * q, q))
    lead = cf[0]
    return step, len(cf), lead, next((j for j, e in enumerate(cf) if e != lead), len(cf))


def genus(m) -> GenusBreakdown:
    """Genus from continued-fraction normal forms, of a MontesinosSpec or of
    the normalized (pairs, gamma) that `_normal_pairs` gives.

    Each tangle's share is one row lookup, `_odd_row` or `_even_row`, so
    a tangle met before costs no arithmetic.

    Odd type (all denominators odd): each tangle is brought to |f| < 1/2
    (units move into gamma), its strict continued fraction contributes
    b = sum |b_j|, and g = (sum b + |gamma| - 1)/2.

    Even type (one even denominator, rotated first): every other tangle with
    odd numerator absorbs a unit into gamma; the even-denominator tangle has
    two in-range representatives, whose gammas differ by one, and the one
    that leaves gamma even is taken (a leftover gamma = +-1 cancels).  With
    gamma != 0 the genus is (1 + sum m_i)/2; with gamma = 0 it is
    (sum m_i - 1)/2 (case II) unless r is even and the leading entries,
    sorted, are r/2 entries -2 followed by r/2 entries +2 (case III), where
    g = (1 + sum m_i)/2 - (p + 1) with p the shortest initial run of entries
    equal to their form's leading entry.

    Case III is a condition on the multiset of leading entries, not on their
    order: permuting the tangles is a sequence of mutations, and mutation
    keeps the genus (Gabai, "Genera of the arborescent links", Mem. Amer.
    Math. Soc. 339, 1986).  The even-type cases follow the genus
    computation of Hirasawa and Murasugi ("Genera and fibredness of
    Montesinos knots", Pacific J. Math. 225, 2006); this statement of case
    III and the parity rule have not been checked against that paper's text.
    The evidence for them is a sandwich: half the Conway degree <= genus <=
    the genus of the standard diagram's Seifert surface holds on every
    M(...) knot of length 1 to 5 with denominators <= 5 and |gamma| <= 2, up
    to tangle order (70,054 knots; the test suite checks the 3,250 of
    length 3).  Reading the even tangle as it stands unless a shift cancels
    gamma broke it on 2,848 of the 17,572 knots of length 3 and 4.
    """
    pairs, gamma = _pairs(m)
    if all(q % 2 == 1 for _, q in pairs):
        g_acc, per = gamma, []
        for p, q in pairs:
            b, step = _odd_row(p, q)
            per.append(b)
            g_acc += step
        total = sum(per) + abs(g_acc) - 1
        if total % 2:
            raise UnclassifiableType(f"odd-type genus count {total} is not even")
        return GenusBreakdown(total // 2, "odd", tuple(per))

    evens = [i for i, (_, q) in enumerate(pairs) if q % 2 == 0]
    if len(evens) != 1:
        raise UnclassifiableType(f"{len(evens)} even-denominator tangles")
    k = evens[0]
    rows = [_even_row(p, q) for p, q in pairs[k + 1:] + pairs[:k]]
    g_acc = gamma + sum(row[0] for row in rows)
    p, q = pairs[k]
    if g_acc % 2:
        # shifting the even tangle to its other representative moves gamma
        # by sign(f1); use it when that leaves gamma even
        step = 1 if p > 0 else -1
        p -= step * q
        g_acc += step
    rows.insert(0, _even_row(p, q))
    ms = tuple(row[1] for row in rows)
    if g_acc != 0:
        return GenusBreakdown((1 + sum(ms)) // 2, "even_gamma_nonzero", ms)
    half, odd = divmod(len(rows), 2)
    if not odd and sorted(row[2] for row in rows) == [-2] * half + [2] * half:
        # p is the shortest initial run of entries equal to the lead
        p = min(row[3] for row in rows)
        return GenusBreakdown((1 + sum(ms)) // 2 - (p + 1), "even_caseIII", ms, p)
    return GenusBreakdown((sum(ms) - 1) // 2, "even_caseII", ms)


# =============================================================================
# spec grammar


# a token also takes the whitespace after it, so every position the reader
# passes on is at the start of the next token
_SPACE = re.compile(r"\s*")
_INT = re.compile(r"(-?[0-9]+)\s*")
_NAME = re.compile(r"((?a:\w+))\s*")
# one `key=value` of a FAM: list with the comma after it, in the tokens above
_PAIR = re.compile(r"((?a:\w+))\s*=\s*(-?[0-9]+)\s*(,\s*)?")


def _expect(text, i, s):
    if not text.startswith(s, i):
        raise ParseError(text, i, s)
    return _SPACE.match(text, i + len(s)).end()


def _int(text, i):
    m = _INT.match(text, i)
    if m is None:
        raise ParseError(text, i, "integer")
    return _digits(m[1], i), m.end()


def _digits(s, i):
    try:
        return int(s)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(f"integer at position {i} has too many digits") from exc


def _name(text, i):
    m = _NAME.match(text, i)
    if m is None:
        raise ParseError(text, i, "name")
    return m[1], m.end()


def _fraction(text, i):
    if text.startswith("[", i):
        entries, i = _list(text, _expect(text, i, "["), _int)
        i = _expect(text, i, "]")
        from .cf_calculus import evaluate

        try:
            return evaluate(entries), i
        except (InvalidInput, DivisionByZero) as exc:
            raise ValidationError(str(exc)) from exc
    p, i = _int(text, i)
    q, i = _int(text, _expect(text, i, "/"))
    if q == 0:
        raise ValidationError("zero denominator")
    return (p, q), i


def _list(text, i, read):
    item, i = read(text, i)
    items = [item]
    while text.startswith(",", i):
        item, i = read(text, _SPACE.match(text, i + 1).end())
        items.append(item)
    return items, i


def _close(text, i):
    i = _expect(text, i, ")")
    if i != len(text):
        raise ParseError(text, i, "end of input")


def parse_spec(text: str):
    """Parse a knot spec.  Whitespace may separate tokens, not split a head:

        spec = "M(" frac {"," frac} ["|" int] ")"
             | ("P(" | "DT(" | "F1L(" | "F1R(") int {"," int} ")"
             | "FAM:" name "(" name "=" int {"," name "=" int} ")"
        frac = int "/" int | "[" int {"," int} "]"
        int  = ["-"] ASCII digits;  name = ASCII letters, digits and "_"

    `M` gives a MontesinosSpec (a bracket is a subtractive continued
    fraction, `|g` adds g half twists), the rest FamilySpecs.  `P` needs two
    or more integers, `DT` two even ones, `F1L`/`F1R` six; a `FAM:` key may
    not repeat, and `sign`/`mirror` set the sign variant and mirror image.
    `str` of a spec parses back to it; a mirrored short form prints as `FAM:`.
    """
    m = _NAME.match(text, _SPACE.match(text).end())
    head, i = (m[1], m.end(1)) if m else (None, 0)
    if head == "FAM" and text.startswith(":", i):
        family, i = _name(text, _SPACE.match(text, i + 1).end())
        i = _expect(text, i, "(")
        kv, more = {}, True
        while more:
            m = _PAIR.match(text, i)
            if m is None:  # _PAIR is their tokens in a row, so the step-wise
                # readers fail here too, and raise the error at its position
                _int(text, _expect(text, _name(text, i)[1], "="))
            key, value, i, more = m[1], _digits(m[2], m.start(2)), m.end(), m[3]
            if key in kv:
                raise ValidationError(f"{family}: parameter {key} is given twice")
            kv[key] = value
        _close(text, i)
        sign = kv.pop("sign", None)
        return FamilySpec(family, kv, sign, bool(kv.pop("mirror", 0)))
    if not text.startswith("(", i) or (head != "M" and head not in _SHORT_FORMS):
        raise ParseError(text, 0, "M(, P(, DT(, F1L(, F1R(, or FAM:")
    i = _SPACE.match(text, i + 1).end()
    if head == "M":
        fracs, i = _list(text, i, _fraction)
        gamma, i = _int(text, _expect(text, i, "|")) if text.startswith("|", i) else (0, i)
        _close(text, i)
        try:
            return MontesinosSpec(fracs, gamma)
        except InvalidInput as exc:  # every tangle an integer: the input's fault
            raise ValidationError(str(exc)) from exc
    family, arity, scale = _SHORT_FORMS[head]
    values, i = _list(text, i, _int)
    if arity is not None and len(values) != arity:
        raise ValidationError(f"expected {arity} integers, got {len(values)}")
    _close(text, i)
    if any(v % scale for v in values):  # DT, the one form with scale 2
        raise ValidationError("double-twist counts must be even")
    names = _RULES[family][0] if family in _RULES else [f"q{k}" for k in range(1, len(values) + 1)]
    return FamilySpec(family, {k: v // scale for k, v in zip(names, values)})
