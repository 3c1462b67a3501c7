"""Montesinos normal forms, family specs, parsing, and genus formulas."""

import hashlib
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import knotct
from knotct import cf_calculus, invariants, montesinos
from knotct.diagram import additive_cf, construct, montesinos_diagram
from knotct.errors import InvalidInput, KnotctError, NotAKnot, ParseError, ValidationError
from knotct.gauss import gauss_a2, gauss_w3
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    MontesinosSpec,
    _normal_pairs,
    alternating_build,
    enumerate_family,
    family_to_montesinos,
    genus,
    is_alternating_knot,
    parse_spec,
)
from knotct.oracle import conway_polynomial, seifert_pipeline
from knotct.sweeps import _formulas_specs


def test_normalization_truncates_and_shifts():
    # 7/3 = 2 + 1/3: the integer part moves into gamma
    m = MontesinosSpec([Fraction(7, 3), Fraction(1, 2), Fraction(1, 3)], 0)
    assert all(abs(Fraction(p, q)) < 1 for p, q in m.tangles)
    assert m.gamma == 2


def test_gamma_shift_identity():
    # M(f - 1 | gamma + 1) and M(f | gamma) name the same knot: the total
    # fraction gamma + sum(tangles) is preserved by normalization
    a = MontesinosSpec([Fraction(1, 3) - 1, Fraction(1, 2), Fraction(1, 3)], 1)
    b = MontesinosSpec([Fraction(1, 3), Fraction(1, 2), Fraction(1, 3)], 0)
    assert (a.gamma + sum(Fraction(p, q) for p, q in a.tangles)
            == b.gamma + sum(Fraction(p, q) for p, q in b.tangles))
    assert genus(a).genus == genus(b).genus


def test_unknot_rejected():
    with pytest.raises(InvalidInput):
        MontesinosSpec([Fraction(-1), Fraction(1), Fraction(1)], 0)


def test_two_even_denominators_rejected():
    with pytest.raises(NotAKnot):
        MontesinosSpec([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)], 0)


def test_two_component_parity_rejected():
    # no even denominator and sum(beta) + gamma even: a two-component link
    with pytest.raises(NotAKnot):
        MontesinosSpec([Fraction(1, 3), Fraction(1, 3)])
    MontesinosSpec([Fraction(1, 3), Fraction(1, 3)], 1)


def _reference_normalization(tangles, gamma):
    """`MontesinosSpec`'s normalization as it was written in `Fraction`
    arithmetic, kept as the reference for the integer one."""
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
    return tuple(norm), g


def _outcome(make, *args):
    try:
        return make(*args)
    except Exception as exc:  # the error's type and message are the outcome
        return type(exc), str(exc)


_tangle_inputs = st.one_of(
    st.integers(-40, 40),
    st.integers(),
    st.fractions(),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-60, 60), st.integers(-12, 12)),
)


@given(st.lists(_tangle_inputs, max_size=6), st.one_of(st.integers(), st.integers(-4, 4)))
@settings(max_examples=1500, deadline=None)
def test_normalization_matches_the_fraction_reference(tangles, gamma):
    # ints, proper and improper fractions of both signs, zero tangles, an
    # empty list, strings (a zero denominator among them) and any gamma
    def spec(tangles, gamma):
        m = MontesinosSpec(tangles, gamma)
        fractions = tuple(Fraction(p, q) for p, q in m.tangles)
        assert tuple(f.as_integer_ratio() for f in fractions) == m.tangles  # lowest terms
        return fractions, m.gamma

    assert _outcome(spec, tangles, gamma) == _outcome(_reference_normalization, tangles, gamma)


def test_init_runs_once_per_family_spec_and_its_diagram(monkeypatch):
    # family_to_montesinos builds the record; FamilySpec.diagram builds from
    # the same normalizer's pairs without a second record
    calls = []
    init = MontesinosSpec.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MontesinosSpec, "__init__", counted)
    for family in FAMILY_NAMES:
        specs = list(enumerate_family(family, 2))
        for f in specs[:: max(1, len(specs) // 12)]:
            calls.clear()
            m = family_to_montesinos(f)
            d = f.diagram()
            assert len(calls) == 1, str(f)
            assert d.crossings == m.diagram().crossings


def _builder_says_knot(fracs, gamma):
    """Whether the template diagram of the raw spec has one component: the
    builder takes the fractions after the same integer-part shift as the
    spec, done here independently."""
    norm = []
    for f in fracs:
        n = int(f)
        gamma += n
        if f != n:
            norm.append(f - n)
    try:
        montesinos_diagram([(f.numerator, f.denominator) for f in norm], gamma)
    except NotAKnot:
        return False
    return True


def _spec_says_knot(fracs, gamma):
    try:
        MontesinosSpec(fracs, gamma)
    except NotAKnot:
        return False
    return True


def test_knot_rule_matches_builder_on_random_specs():
    rng = random.Random(20261018)
    checked = 0
    for _ in range(2500):
        fracs = []
        for _ in range(rng.randint(1, 5)):
            alpha = rng.randint(2, 15)
            fracs.append(Fraction(rng.randint(-3 * alpha, 3 * alpha), alpha))
        gamma = rng.randint(-4, 4)
        if all(f.denominator == 1 for f in fracs):
            continue  # no nontrivial tangle: InvalidInput, not a knot question
        checked += 1
        assert _spec_says_knot(fracs, gamma) == _builder_says_knot(fracs, gamma), (fracs, gamma)
    assert checked > 2000


def test_knot_rule_matches_builder_on_families():
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 2):
            pairs, gamma = f.fraction_form()
            fracs = [Fraction(p, q) for p, q in pairs]
            if f.mirror:
                fracs, gamma = [-x for x in fracs], -gamma
            assert _spec_says_knot(fracs, gamma) == _builder_says_knot(fracs, gamma), str(f)


def _breakdown_digest(bound):
    """Spec count and sha256 over every family spec's genus breakdown at
    `bound`, in enumeration order."""
    h = hashlib.sha256()
    n = 0
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, bound):
            b = genus(family_to_montesinos(f))
            h.update(f"{f}:{b.genus}:{b.type}:{b.per_tangle}:{b.p}\n".encode())
            n += 1
    return n, h.hexdigest()


def test_genus_breakdowns_pinned():
    # recorded with the search-based normal forms and the diagram-built knot
    # test that the closed forms replaced
    assert _breakdown_digest(3) == (
        25468, "c2a05a9e1127fde1a339bda27eae38d938c5c1452d1252a74c6bb53770a461c7")


def test_genus_breakdowns_pinned_at_bound_four():
    # recorded before genus memoized its per-tangle normal forms
    assert _breakdown_digest(4) == (
        113382, "98bd1575676234ca2cb9972ea1bdc533fdb88349d1150c92a7ad7a255d931842")


# every memo of the spec layer, each a bounded LRU cache that starts empty
SPEC_MEMOS = (montesinos._pair_row, montesinos._odd_row, montesinos._even_row,
              invariants._quarter)


def clear_spec_memos():
    for memo in SPEC_MEMOS:
        memo.cache_clear()


def test_spec_memos_name_every_memo_of_the_spec_layer():
    # every functools cache of the two modules, at module level or on a
    # class, is in SPEC_MEMOS, so that clear_spec_memos empties them all;
    # the skein's word keys are the one memo that is not spec state
    found = set()
    for module in (montesinos, invariants):
        spaces = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type) and c.__module__ == module.__name__]
        found.update(v for space in spaces for v in space.values()
                     if hasattr(v, "cache_info") and v.__module__ == module.__name__)
    assert found == {*SPEC_MEMOS, invariants._word_key}


def test_memos_convert_each_distinct_pair_once(monkeypatch):
    # a cold bound-4 pass of genus and the closed forms reduces each
    # distinct raw pair once, converts each distinct row's pair once and
    # builds each distinct w3 once, and every memo keeps one entry per
    # pair or value: none is evicted and none is kept per spec
    converted = {"to_strict_cf": [], "to_even_cf": [], "_lowest_terms": []}

    def recording(name):
        convert = getattr(cf_calculus, name)

        # montesinos imports each conversion where it calls it; the
        # conversions' own calls of `_lowest_terms` are not counted
        def wrapper(x):
            if sys._getframe(1).f_globals["__name__"] == montesinos.__name__:
                converted[name].append(x)
            return convert(x)
        return wrapper

    for name in converted:
        monkeypatch.setattr(cf_calculus, name, recording(name))
    clear_spec_memos()
    tangles, raw, odd_type, even_type = set(), set(), set(), set()
    for family in FAMILY_NAMES:
        for f in enumerate_family(family, 4):
            raw.update(montesinos._family_form(f)[0])
            pairs, gamma = _normal_pairs(f)
            genus((pairs, gamma))
            invariants.closed_a2_w3(f)
            tangles.update(pairs)
            (odd_type if all(q % 2 for _, q in pairs) else even_type).update(pairs)
    reduced = converted["_lowest_terms"]
    rows = montesinos._pair_row.cache_info()
    assert len(set(reduced)) == len(reduced) == len(raw) == rows.currsize == rows.misses == 702
    odd_rows, even_rows = montesinos._odd_row.cache_info(), montesinos._even_row.cache_info()
    assert odd_rows.currsize == odd_rows.misses == len(odd_type) == 534
    # an even tangle takes the row of its representative that leaves gamma
    # even, so the even rows' keys are not exactly the even-type tangles
    assert even_rows.currsize == even_rows.misses == 88 and len(even_type) == 88
    quarters = invariants._quarter.cache_info()
    assert quarters.currsize == quarters.misses == 1108
    assert quarters.maxsize == invariants._QUARTER_MEMO_SIZE
    # each row miss converts its shifted pair once, with no memo below the rows
    strict_pairs, even_pairs = converted["to_strict_cf"], converted["to_even_cf"]
    assert len(set(strict_pairs)) == len(strict_pairs) == odd_rows.misses == 534
    # the rows of 1/3 and -2/3 convert the same pair, and so do -1/3 and 2/3
    assert len(even_pairs) == even_rows.misses == 88 and len(set(even_pairs)) == 86
    assert rows.maxsize == odd_rows.maxsize == even_rows.maxsize == montesinos._ROW_MEMO_SIZE

    # the tables of the same tangles: one per tangle, built once
    construct._template.cache_clear()
    for p, q in tangles:
        construct._template(p, q)
    info = construct._template.cache_info()
    assert info.currsize == len(tangles) == 607 and info.maxsize == construct._TEMPLATE_MEMO_SIZE
    assert info.maxsize >= 607 and info.misses == 607
    for p, q in tangles:
        tb = construct._template(p, q)
        # four loose ends: the two strands join the four leads in pairs, and
        # together enter every crossing twice
        exits = tb.exits
        assert sorted(exits) == [0, 1, 2, 3] and all(exits[x] != x for x in range(4))
        assert all(exits[exits[x]] == x for x in range(4)) and tb.len0 + tb.len1 == 2 * tb.n
        assert tb.n == sum(map(abs, additive_cf(q if p > 0 else -q, abs(p))))


# Fills one memo to its bound in a fresh process and prints the bytes the
# memo retains: the traced size with it full minus the traced size after its
# cache_clear(), each read after a full collection, which also empties
# CPython's free lists.  The filling generator builds every key afresh, so a
# key's ints are held by the memo alone, as they are once a sweep's specs
# are gone; the memos the filled one calls stay full in both readings.
_RETAINED = """
import gc, sys, tracemalloc
from itertools import combinations_with_replacement
from math import gcd
from knotct import invariants, kauffman, montesinos
from knotct.diagram import construct

memo = MEMO
size = memo.cache_info().maxsize
tracemalloc.start()
n = 0
for key in KEYS:
    if n == size:
        break
    memo(*key)
    n += 1
assert memo.cache_info().currsize == n == size, (memo.cache_info(), n)
gc.collect()
full = tracemalloc.get_traced_memory()[0]
memo.cache_clear()
gc.collect()
print(full - tracemalloc.get_traced_memory()[0])
"""


def _retained_bytes(memo, keys):
    """Bytes that `memo` (an expression) retains when `keys` (a generator
    expression of argument tuples) has filled it to its bound."""
    src = os.path.dirname(list(knotct.__path__)[0])
    code = _RETAINED.replace("MEMO", memo).replace("KEYS", keys)
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    assert p.returncode == 0, p.stderr
    return int(p.stdout)


# tangles p/q in (-1, 1) with denominators from 257 up (odd ones only with
# step 2), so that every key holds ints of its own, as most pairs of a sweep do
_TANGLES = "((p, q) for q in range(257, 1 << 12{}) for p in range(1 - q, q) if p and gcd(p, q) == 1)"


def test_a_full_template_memo_stays_under_one_megabyte():
    # the first 1,024 tangles p/q by denominator fill the memo to its bound
    retained = _retained_bytes(
        "construct._template",
        "((p, q) for q in range(2, 64) for p in range(1 - q, q) if gcd(p, q) == 1)")
    assert retained <= 1_000_000, retained


@pytest.mark.parametrize("memo, keys", [
    # raw pairs out of lowest terms and of range, as a family's fraction form gives them
    ("montesinos._pair_row", "((5 * q + q // 2 + 1, q) for q in range(1001, 1 << 16))"),
    ("montesinos._odd_row", _TANGLES.format(", 2")),
    ("montesinos._even_row", _TANGLES.format("")),
    ("invariants._quarter", "((n,) for n in range(1001, 1 << 16))"),
], ids=["_pair_row", "_odd_row", "_even_row", "_quarter"])
def test_a_full_spec_memo_stays_under_one_megabyte(memo, keys):
    retained = _retained_bytes(memo, keys)
    assert retained <= 1_000_000, retained


# what a memo whose arguments reach `Fraction()` raises on a bad one
_MEMO_ERRORS = {montesinos._pair_row: ZeroDivisionError, invariants._quarter: TypeError}


@pytest.mark.parametrize("memo, args", [
    (construct._template, (2, 1)),  # tangle 2/1: |1/2| < 1 has no additive CF
    (montesinos._pair_row, (1, 0)),  # zero denominator
    (montesinos._odd_row, (0, 3)),  # not a tangle
    (montesinos._even_row, (1, 1)),  # an integer, shifted to 0
    (invariants._quarter, ("1",)),  # not an integer
], ids=["_template", "_pair_row", "_odd_row", "_even_row", "_quarter"])
def test_memos_do_not_keep_errors(memo, args):
    before = memo.cache_info()
    for _ in range(2):
        with pytest.raises(_MEMO_ERRORS.get(memo, InvalidInput)):
            memo(*args)
    after = memo.cache_info()
    assert after.misses == before.misses + 2 and after.currsize == before.currsize


def test_a_float_pair_is_refused_after_its_int_twin():
    # the raw-pair rows are typed: the cached row of (1, 2) does not answer
    # for (1.0, 2.0), which Fraction() refuses as a pair
    MontesinosSpec([(1, 2), (1, 3)])
    with pytest.raises(TypeError):
        MontesinosSpec([(1.0, 2.0), (1, 3)])


def _conversion_specs():
    """The bound-3 family specs, then the formulas suite's bound-2 list
    (pretzels, double twists and six-box templates included), with every
    pretzel and double twist also mirrored."""
    specs = [f for family in FAMILY_NAMES for f in enumerate_family(family, 3)]
    for family in ("o1", "o2", "o3", "o4", "o5", "e1", "e2", "e3"):
        specs.extend(enumerate_family(family, 2))
    values = (-2, -1, 1, 2)
    for mirror in (False, True):
        for qs in itertools.product(values, repeat=3):
            specs.append(FamilySpec("pretzel", dict(zip(("q1", "q2", "q3"), qs)), None, mirror))
        for x, y in itertools.product(values, repeat=2):
            specs.append(FamilySpec("double_twist", dict(x=x, y=y), None, mirror))
    for family in ("fig1_left", "fig1_right"):
        for vals in itertools.product(range(-2, 3), repeat=6):
            specs.append(FamilySpec(family, dict(zip("abcdef", vals))))
    return specs


def _fraction_repr(spec):
    """repr of a spec, with a MontesinosSpec's tangles shown as the
    `Fraction`s it held when the pins below were recorded."""
    if not isinstance(spec, MontesinosSpec):
        return repr(spec)
    tangles = tuple(Fraction(p, q) for p, q in spec.tangles)
    return f"MontesinosSpec(tangles={tangles!r}, gamma={spec.gamma!r})"


def test_double_twist_pairs_name_the_double_twist_knot():
    # the Gauss diagram formulas on the diagram built from a double twist
    # spec's tangle pairs give its closed-form a2 and w3, and not its mirror's
    vals = [v for v in range(-4, 5) if v]
    for mirror in (False, True):
        for x, y in itertools.product(vals, repeat=2):
            f = FamilySpec("double_twist", dict(x=x, y=y), None, mirror)
            d = montesinos_diagram(*_normal_pairs(f))
            assert (gauss_a2(d), gauss_w3(d)) == invariants.closed_a2_w3(f), str(f)


def test_family_conversions_are_pinned():
    # sha256 over the converted record, or the error's type and message, of
    # every spec above; recorded with the Fraction-arithmetic conversion that
    # the integer one replaced, and re-recorded when the double twist pairs
    # stopped naming the mirror image: only the 32 double twist lines moved,
    # each to the line its mirror had
    outcomes = []
    for f in _conversion_specs():
        try:
            outcomes.append(_fraction_repr(family_to_montesinos(f)))
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 59_512
    assert digest == "f2a3a205371f1abf41297d1b931c95e51213438224a73228613bd01b418f19d4"


def test_alternating_presentations_are_pinned():
    # sha256 over is_alternating_knot and the alternating presentation as its
    # M(...) string, or the conversion error's type and message, of every
    # spec above; recorded with the test and shift that compared the
    # record's Fractions, which the integer ones replaced, and re-recorded
    # as the conversions above were
    outcomes = []
    for f in _conversion_specs():
        try:
            m = family_to_montesinos(f)
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
            continue
        alt = alternating_build(m)
        norm = _normal_pairs(f)
        assert (is_alternating_knot(norm), alternating_build(norm)) == (is_alternating_knot(m), alt)
        outcomes.append(f"{is_alternating_knot(m)} {alt and MontesinosSpec(*alt)}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 59_512
    assert sum(o.startswith("True") for o in outcomes) == 7_348
    assert digest == "a7b96f8fc9dd503c5d1add1fd418f24eded5d0b1aac58c0b38a048a5429665e9"


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_enumerated_specs_have_genus_two(family):
    specs = list(enumerate_family(family, 1)) or list(enumerate_family(family, 2))
    assert specs, f"family {family} enumerates nothing at bound 2"
    for f in specs:
        m = family_to_montesinos(f)
        assert genus(m).genus == 2, str(f)


def test_enumerate_includes_mirrors():
    specs = list(enumerate_family("e3", 1))
    assert any(f.mirror for f in specs)
    assert any(not f.mirror for f in specs)


def test_family_constraints():
    with pytest.raises(ValidationError):
        FamilySpec("o3", dict(a=1, b=1, c=1), sign_variant=1)  # needs |a| >= 2
    with pytest.raises(ValidationError):
        FamilySpec("o1p", dict(a=-1, b=1, c=2, d=2), sign_variant=1)
    with pytest.raises(ValidationError):
        FamilySpec("e2", dict(a=0, b=1, c=1))


def test_enumeration_is_pinned():
    # sha256 over str(f) of every spec of every family at bounds 1..4, in
    # enumeration order, with each (bound, family) count; recorded with the
    # enumeration that built every parameter combination and dropped the
    # ones FamilySpec rejected
    h = hashlib.sha256()
    counts = []
    for bound in range(1, 5):
        for family in FAMILY_NAMES:
            n = 0
            for f in enumerate_family(family, bound):
                h.update(f"{f}\n".encode())
                n += 1
            counts.append(n)
    assert counts == [
        2, 4, 4, 0, 4, 0, 4, 4, 32, 16, 2,
        324, 216, 432, 72, 36, 216, 108, 432, 1024, 128, 6,
        3750, 1500, 4500, 400, 100, 2000, 500, 4500, 7776, 432, 10,
        19208, 5488, 21952, 1176, 196, 8232, 1372, 21952, 32768, 1024, 14,
    ]
    assert h.hexdigest() == "c7ba8a2de8907bd2950b0b532bad087ad4c165647f2414d93c7275ac4e6c564e"


def _family_spec_inputs():
    """(family, params, sign_variant, mirror) arguments for FamilySpec, valid
    and not: value grids with zeros, -1 and |a| < 2, every sign variant and
    mirror flag on one valid parameter set, missing, extra and renamed keys,
    pairs in place of a dict, values that are not ints, pretzels of zero to
    four strands and unknown families."""
    names = {family: [k for k, _ in next(enumerate_family(family, 2)).params]
             for family in FAMILY_NAMES}
    names.update({"double_twist": "xy", "fig1_left": "abcdef", "fig1_right": "abcdef",
                  "pretzel": ("q1", "q2", "q3")})
    signed = {"o1p", "o3", "o3p", "o4", "o4p"}
    for family, keys in names.items():
        values = (-2, -1, 0, 1, 2) if len(keys) <= 3 else (-2, -1, 0, 2)
        for n, combo in enumerate(itertools.product(values, repeat=len(keys))):
            sign = (1, -1)[n % 2] if family in signed else None
            yield family, dict(zip(keys, combo)), sign, n % 3 == 0
        good = dict.fromkeys(keys, 2)
        for sign in (None, 1, -1, 0, 2, True, 1.0, "1"):
            for mirror in (False, True, 0, 1, "", "no"):
                yield family, good, sign, mirror
        sign = 1 if family in signed else None
        yield family, dict(list(good.items())[:-1]), sign, False
        yield family, {**good, "z": 1}, sign, False
        yield family, {**dict(list(good.items())[1:]), "z": 2}, sign, False
        yield family, tuple(good.items()), sign, True
        yield family, list(good.items()), sign, False
        for bad in ("2", "-1", "x", 2.5, -1.0, True, Fraction(5, 2), None):
            first, *rest = keys
            yield family, {first: bad, **dict.fromkeys(rest, 2)}, sign, False
            yield family, {first: 0, **dict.fromkeys(rest, bad)}, sign, False
            yield family, {**dict.fromkeys(keys[:-1], 2), keys[-1]: bad}, sign, False
    for n in range(5):
        for q in (-3, 0, 3):
            yield "pretzel", {f"q{i + 1}": q for i in range(n)}, None, False
    yield "pretzel", {"q1": 3, "q3": 5}, None, False
    for family in ("nope", "", "O1", "pretzel2"):
        yield family, {"a": 2}, None, False


def test_family_spec_outcomes_are_pinned():
    # sha256 over the repr, or the error's type and message, of FamilySpec on
    # every input above; recorded with the validation that rebuilt its key
    # sets per call
    outcomes = []
    for args in _family_spec_inputs():
        try:
            outcomes.append(repr(FamilySpec(*args)))
        except Exception as exc:  # the error's type and message are the outcome
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 14_530
    assert digest == "b2350f83634168fb51549e831bcfcc3279484a9fe230d9399e34bc19c56d9581"


def test_enumerated_specs_are_the_checked_constructions():
    # enumerate_family sets its records' slots without FamilySpec's checks;
    # each one must be the record the checked constructor builds from its
    # fields, and each family's yield must be every checked construction
    # over the full value grid, in order, with the ones that raise left out
    for family in FAMILY_NAMES:
        specs = list(enumerate_family(family, 3))
        for f in specs:
            checked = FamilySpec(f.family, dict(f.params), f.sign_variant, f.mirror)
            assert f == checked and hash(f) == hash(checked)
            assert repr(f) == repr(checked) and str(f) == str(checked)
        names = [k for k, _ in specs[0].params]
        mirrors = (False, True) if family in montesinos._MIRROR_FAMILIES else (False,)
        grid = []
        for values in itertools.product(range(-3, 4), repeat=len(names)):
            for sign in (1, -1, None):
                for mirror in mirrors:
                    try:
                        grid.append(FamilySpec(family, dict(zip(names, values)), sign, mirror))
                    except ValidationError:
                        pass
        assert specs == grid, family


@pytest.mark.parametrize("family, bound, error", [
    ("x", 2, InvalidInput), ("pretzel", 2, InvalidInput), ("o1", 0, ValidationError),
    ("e3", -1, ValidationError),
])
def test_enumerate_family_checks_its_arguments_when_called(family, bound, error):
    with pytest.raises(error):
        enumerate_family(family, bound)


def test_parse_spec_forms():
    assert parse_spec("P(3,5,-2)").family == "pretzel"
    assert parse_spec("DT(2,4)").family == "double_twist"
    assert parse_spec("F1L(1,1,1,1,1,1)").family == "fig1_left"
    assert parse_spec("F1R(0,1,0,1,0,1)").family == "fig1_right"
    f = parse_spec("FAM:o1(a=1,b=1,c=1,d=1,e=1)")
    assert f.family == "o1" and dict(f.params)["a"] == 1
    m = parse_spec("M(1/2,1/3,1/3)")
    assert isinstance(m, MontesinosSpec)


def test_parse_spec_rejects_garbage():
    for bad in ("", "Q(1,2)", "P(1,", "FAM:nope(a=1)", "M(1/0)", "M([0])", "M([1,1])"):
        with pytest.raises((ParseError, ValidationError, InvalidInput)):
            parse_spec(bad)


def test_spec_string_round_trip():
    for text in ("P(3,5,-2)", "DT(2,4)", "FAM:e3(a=1,mirror=1)"):
        f = parse_spec(text)
        again = parse_spec(str(f))
        assert str(again) == str(f)


_SHORT_FAMILY_PARAMS = {"double_twist": "xy", "fig1_left": "abcdef", "fig1_right": "abcdef"}


@st.composite
def specs(draw):
    family = draw(st.sampled_from(
        (None, "pretzel", *_SHORT_FAMILY_PARAMS, *FAMILY_NAMES)))
    if family is None:
        fracs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(2, 9)),
                              min_size=1, max_size=5))
        try:
            return MontesinosSpec(fracs, draw(st.integers(-3, 3)))
        except (InvalidInput, NotAKnot):
            assume(False)
    if family == "pretzel":
        names = [f"q{k}" for k in range(1, draw(st.integers(2, 5)) + 1)]
    elif family in _SHORT_FAMILY_PARAMS:
        names = _SHORT_FAMILY_PARAMS[family]
    else:
        names = [k for k, _ in next(enumerate_family(family, 2)).params]
    # genus-2 parameters avoid 0, +-1; the short forms take any count
    value = (st.integers(-5, 5) if family in _SHORT_FAMILY_PARAMS or family == "pretzel"
             else st.sampled_from((-5, -4, -3, -2, 2, 3, 4, 5)))
    params = {k: draw(value) for k in names}
    try:
        return FamilySpec(family, params, draw(st.sampled_from((None, 1, -1))),
                          draw(st.booleans()))
    except ValidationError:
        assume(False)


@given(specs())
@settings(max_examples=400, deadline=None)
def test_spec_strings_parse_back_to_the_spec(spec):
    assert parse_spec(str(spec)) == spec


@pytest.mark.parametrize("text, shown", [
    ("P(3,5,7)", "FAM:pretzel(q1=3,q2=5,q3=7,mirror=1)"),
    ("DT(2,-4)", "FAM:double_twist(x=1,y=-2,mirror=1)"),
    ("F1L(1,0,2,0,1,1)", "FAM:fig1_left(a=1,b=0,c=2,d=0,e=1,f=1,mirror=1)"),
    ("F1R(0,1,0,1,0,1)", "FAM:fig1_right(a=0,b=1,c=0,d=1,e=0,f=1,mirror=1)"),
])
def test_mirrored_short_forms_print_in_the_family_form(text, shown):
    f = parse_spec(text)
    mirrored = FamilySpec(f.family, f.params, f.sign_variant, mirror=True)
    assert str(mirrored) == shown
    assert parse_spec(shown) == mirrored != f


@given(st.one_of(st.text(), st.builds(
    operator.add, st.sampled_from(("M(", "P(", "DT(", "F1L(", "F1R(", "FAM:o1(")), st.text())))
@settings(max_examples=2000, deadline=None)
def test_parse_spec_raises_only_package_errors(text):
    try:
        parse_spec(text)
    except KnotctError:
        pass


@pytest.mark.parametrize("text, error, message", [
    ("FAM:o1(a=1,a=2,b=1,c=1,d=1,e=1)", ValidationError, "o1: parameter a is given twice"),
    ("FAM:o3(a=2,b=1,c=1,sign=1,sign=-1)", ValidationError, "o3: parameter sign is given twice"),
    ("P(\u00b2,3,5)", ParseError, "parse error at position 2: expected 'integer'"),
    ("M(1/\u0663)", ParseError, "parse error at position 4: expected 'integer'"),
    ("FAM:\u00e91(a=1)", ParseError, "parse error at position 4: expected 'name'"),
    ("M(2/1)", ValidationError, "no nontrivial tangles after normalization"),
])
def test_parse_spec_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_spec(text)
    assert type(info.value) is error and str(info.value).startswith(message)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_overlong_integer_is_a_validation_error():
    text = "P(" + "1" * (sys.get_int_max_str_digits() + 1) + ",3)"
    with pytest.raises(ValidationError, match="integer at position 2 has too many digits"):
        parse_spec(text)


def test_family_space_and_ac1_spec_strings_parse_back_to_the_spec():
    specs = [f for family in FAMILY_NAMES for f in enumerate_family(family, 3)]
    specs += _formulas_specs(2)
    assert len(specs) == 25_468 + 33_964
    for f in specs:
        assert parse_spec(str(f)) == f


# FAM: strings with their outcome as the token readers give it: the spec's
# repr, or the error's type and message (which holds the position); a
# faster way of reading a `FAM:` spec must keep every one
_FAM_OUTCOMES = (
    ('FAM:o1(a=1 0,b=1,c=1,d=1,e=1)',
     "ParseError: parse error at position 11: expected ')' in 'FAM:o1(a=1 0,b=1,c=1,d=1,e=1)'"),
    ('FAM:o 1(a=1)',
     "ParseError: parse error at position 6: expected '(' in 'FAM:o 1(a=1)'"),
    ('FAM:o1(a b=1)',
     "ParseError: parse error at position 9: expected '=' in 'FAM:o1(a b=1)'"),
    ('FAM:o1(a=- 1,b=1,c=1,d=1,e=1)',
     "ParseError: parse error at position 9: expected 'integer' in 'FAM:o1(a=- 1,b=1,c=1,d=1,e=1)'"),
    ('FA M:o1(a=1)',
     "ParseError: parse error at position 0: expected 'M(, P(, DT(, F1L(, F1R(, or FAM:' in 'FA M:o1(a=1)'"),
    ('FAM :o1(a=1)',
     "ParseError: parse error at position 0: expected 'M(, P(, DT(, F1L(, F1R(, or FAM:' in 'FAM :o1(a=1)'"),
    ('FAM:o1(a=1,b=1,a=1,c=1,d=1,e=1)',
     'ValidationError: o1: parameter a is given twice'),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1,e=2)',
     'ValidationError: o1: parameter e is given twice'),
    ('FAM:e3(a=2,mirror=1,mirror=0)',
     'ValidationError: e3: parameter mirror is given twice'),
    ('FAM:o1(a=1,a=1',
     'ValidationError: o1: parameter a is given twice'),
    ('FAM:e3(a=123456789012345678901234567890)',
     "FamilySpec(family='e3', params=(('a', 123456789012345678901234567890),), sign_variant=None, mirror=False)"),
    ('FAM:e3(a=-123456789012345678901234567890',
     "ParseError: parse error at position 40: expected ')' in 'FAM:e3(a=-123456789012345678901234567890'"),
    ('FAM:o1(a=123456789012345678901234567890,b=1,c=1,d=1,e=1)',
     "FamilySpec(family='o1', params=(('a', 123456789012345678901234567890), ('b', 1), ('c', 1), ('d', 1), ('e', 1)), sign_variant=None, mirror=False)"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1,sign=1)',
     'ValidationError: o1 takes no sign_variant'),
    ('FAM:o3(a=2,b=1,c=1)',
     'ValidationError: o3 needs sign_variant +-1'),
    ('FAM:o3(a=2,b=1,c=1,sign=2)',
     'ValidationError: o3 needs sign_variant +-1'),
    ('FAM:o3(a=2,b=1,c=1,sign=+1)',
     "ParseError: parse error at position 24: expected 'integer' in 'FAM:o3(a=2,b=1,c=1,sign=+1)'"),
    ('FAM:e3(a=1,mirror=2)',
     "FamilySpec(family='e3', params=(('a', 1),), sign_variant=None, mirror=True)"),
    ('FAM:e3(a=1,mirror=0)',
     "FamilySpec(family='e3', params=(('a', 1),), sign_variant=None, mirror=False)"),
    ('FAM:e3(a=1,mirror=-1)',
     "FamilySpec(family='e3', params=(('a', 1),), sign_variant=None, mirror=True)"),
    ('FAM:o3(sign=-1,a=2,b=1,c=1)',
     "FamilySpec(family='o3', params=(('a', 2), ('b', 1), ('c', 1)), sign_variant=-1, mirror=False)"),
    ('FAM:e3(mirror=1,a=1)',
     "FamilySpec(family='e3', params=(('a', 1),), sign_variant=None, mirror=True)"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1',
     "ParseError: parse error at position 26: expected ')' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1'"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1,',
     "ParseError: parse error at position 27: expected 'name' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1,'"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1 ',
     "ParseError: parse error at position 27: expected ')' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1 '"),
    ('FAM:o1 a=1)',
     "ParseError: parse error at position 7: expected '(' in 'FAM:o1 a=1)'"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1))',
     "ParseError: parse error at position 27: expected 'end of input' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1))'"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1) x',
     "ParseError: parse error at position 28: expected 'end of input' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1) x'"),
    ('FAM:o1()',
     "ParseError: parse error at position 7: expected 'name' in 'FAM:o1()'"),
    ('FAM:(a=1)',
     "ParseError: parse error at position 4: expected 'name' in 'FAM:(a=1)'"),
    ('FAM:o1(a=1,)',
     "ParseError: parse error at position 11: expected 'name' in 'FAM:o1(a=1,)'"),
    ('FAM:o1(=1)',
     "ParseError: parse error at position 7: expected 'name' in 'FAM:o1(=1)'"),
    ('FAM:o1(a=)',
     "ParseError: parse error at position 9: expected 'integer' in 'FAM:o1(a=)'"),
    ('FAM:o1(a==1)',
     "ParseError: parse error at position 9: expected 'integer' in 'FAM:o1(a==1)'"),
    ('FAM:o1(a=1;b=2)',
     "ParseError: parse error at position 10: expected ')' in 'FAM:o1(a=1;b=2)'"),
    ('FAM:o1(a=1,,b=1)',
     "ParseError: parse error at position 11: expected 'name' in 'FAM:o1(a=1,,b=1)'"),
    ('FAM:o1(a=1,b=1,c=1,d=1,e=1_0)',
     "ParseError: parse error at position 26: expected ')' in 'FAM:o1(a=1,b=1,c=1,d=1,e=1_0)'"),
    ('FAM:e3(a=٢)',
     "ParseError: parse error at position 9: expected 'integer' in 'FAM:e3(a=٢)'"),
    ('FAM:e3(é=1)',
     "ParseError: parse error at position 7: expected 'name' in 'FAM:e3(é=1)'"),
    ('FAM:\u2003e3\x1c(\x1fa\xa0=\u3000-2\x1d)\x1e',
     "FamilySpec(family='e3', params=(('a', -2),), sign_variant=None, mirror=False)"),
    (' FAM:e3(a=2) ',
     "FamilySpec(family='e3', params=(('a', 2),), sign_variant=None, mirror=False)"),
    ('\tFAM:e3 ( a = 2 , mirror = 1 )\n',
     "FamilySpec(family='e3', params=(('a', 2),), sign_variant=None, mirror=True)"),
    ('FAM:nope(a=1)',
     "ValidationError: unknown family 'nope'"),
    ('FAM:pretzel(q1=3,q2=5,q3=7,q4=9,q5=11,q6=13,q7=15,q8=17,q9=19)',
     "FamilySpec(family='pretzel', params=(('q1', 3), ('q2', 5), ('q3', 7), ('q4', 9), ('q5', 11), ('q6', 13), ('q7', 15), ('q8', 17), ('q9', 19)), sign_variant=None, mirror=False)"),
    ('FAM:e3(A=1)',
     "ValidationError: e3 needs parameters ('a',), got ('A',)"),
    ('FAM:E3(a=1)',
     "ValidationError: unknown family 'E3'"),
    ('FAM:e3(a=0)',
     'ValidationError: e3: parameter a must be nonzero'),
    ('FAM:e3(a=-1)',
     'ValidationError: e3: parameter a must not be -1'),
    ('FAM:e3(a=1,mirror=1',
     "ParseError: parse error at position 19: expected ')' in 'FAM:e3(a=1,mirror=1'"),
    ('FAM:e3(a=1 mirror=1)',
     "ParseError: parse error at position 11: expected ')' in 'FAM:e3(a=1 mirror=1)'"),
    ('FAM:e3(a=1,\nmirror=1)',
     "FamilySpec(family='e3', params=(('a', 1),), sign_variant=None, mirror=True)"),

)


def test_fam_specs_read_as_the_token_readers_read_them():
    # inner spaces, repeated keys, 30-digit values, sign and mirror keys,
    # a missing or extra `)`, and Unicode whitespace between tokens
    for text, outcome in _FAM_OUTCOMES:
        try:
            got = repr(parse_spec(text))
        except KnotctError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == outcome, text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("head, tail, position", [
    ("FAM:e3(a=", ")", 9), ("FAM:e3(a=1,q=", ")", 13), ("FAM:o1(a=1,b=", ",a=1", 13),
])
def test_overlong_fam_value_is_reported_at_its_position(head, tail, position):
    # a value int() refuses is reported at the position of its digits
    text = head + "1" * (sys.get_int_max_str_digits() + 1) + tail
    with pytest.raises(ValidationError, match=f"integer at position {position} has too many"):
        parse_spec(text)


_CORPUS_SEEDS = (
    "P(3,5,-2)", "P( 3 , 5 ,7 )", "DT(2,-4)", "F1L(1,0,2,0,1,1)", "F1R(0,1,0,1,0,1)",
    "M(1/2,1/3,-1/3|2)", " M( [2, -2] , 2/5 | -1 ) ", "M(-3/7,[4,2],1/5)",
    "FAM:pretzel(q1=3,q2=5,q3=7,mirror=1)", "FAM:double_twist(x=1,y=-2)",
    "FAM: o3 ( a = 2 , b = 1 , c = 1 , sign = -1 )", "FAM:fig1_left(a=1,b=0,c=2,d=0,e=1,f=1)",
)
# ASCII plus two non-ASCII spaces, so no mutant holds a non-ASCII digit or letter
_CORPUS_ALPHABET = "0123456789" * 4 + "--,,/|()[]=: \t\u00a0\u2003MPDTFLRAabcdefqxysignmro_"
_KEYS = re.compile(r"(\w+)\s*=")


def spec_corpus(size=100_000, seed=1211):
    """Every bound-2 family string, then `size` seeded mutants of those and
    of `_CORPUS_SEEDS` (one or two character edits or a cut), leaving out
    mutants that repeat a `key=`."""
    family = [str(f) for name in FAMILY_NAMES for f in enumerate_family(name, 2)]
    rng = random.Random(seed)
    corpus = list(family)
    while len(corpus) < len(family) + size:
        s = list(rng.choice(_CORPUS_SEEDS if rng.randrange(2) else family))
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(s) + 1)
            op = rng.randrange(6)  # insert, cut, delete, or (half the time) replace
            if op == 0:
                s.insert(k, rng.choice(_CORPUS_ALPHABET))
            elif op == 1:
                s = s[:k]
            elif k < len(s):
                if op == 2:
                    del s[k]
                else:
                    s[k] = rng.choice(_CORPUS_ALPHABET)
        text = "".join(s)
        keys = _KEYS.findall(text)
        if len(keys) == len(set(keys)):
            corpus.append(text)
    return corpus


def test_parse_outcomes_over_a_mutated_corpus_are_pinned():
    # the digest was recorded with the scanner-class parser that preceded the
    # form table: every spec's repr, and every error's type, message and
    # position, is unchanged
    outcomes = []
    for text in spec_corpus():
        try:
            outcomes.append(_fraction_repr(parse_spec(text)))
        except KnotctError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert len(outcomes) == 102_994
    assert digest == "30fb919cd5ed177407be6433be84568ce163c5d1c2e2ad92ba17aa340c404247"


def test_genus_breakdown_fields():
    m = MontesinosSpec([Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)], 0)
    g = genus(m)
    assert g.genus >= 1
    assert isinstance(g.type, str) and g.type
    assert len(g.per_tangle) == len(m.tangles)


def test_even_case_three_reads_the_shortest_leading_run():
    # even forms (2, 2, -4) and (-2, -2, -2, -2) have leading runs 2 and 4,
    # so p = 2 is less than every form's length; every bound-3 family spec
    # has p equal to its shortest form's length, which cannot tell the two
    m = MontesinosSpec([Fraction(9, 14), Fraction(-4, 5)])
    b = genus(m)
    assert (b.genus, b.type, b.per_tangle, b.p) == (1, "even_caseIII", (3, 4), 2)
    # a two-tangle Montesinos knot is two-bridge, so its genus is half the
    # Conway degree: 1 + 3z^2
    conway = conway_polynomial(seifert_pipeline(m.diagram()))
    assert conway.degree_span() == (0, 2 * b.genus)


def test_genus_does_not_depend_on_tangle_order():
    # the same four tangles in two orders; the positional case-III test gave
    # the first order genus 4 (case II) and the second genus 2.  The Conway
    # polynomial's degree, at most twice the genus, is 4 in both orders, so
    # 2 is the least genus either can have: a case-III value that came out
    # too low would fail here, not only a case-II value too high
    for text in ("M(-1/3,-1/3,-2/3,-3/4|2)", "M(-1/3,-2/3,-1/3,-3/4|2)"):
        spec = parse_spec(text)
        b = genus(spec)
        assert (b.genus, b.type, b.p) == (2, "even_caseIII", 2), text
        conway = conway_polynomial(seifert_pipeline(spec.diagram()))
        assert conway.degree_span()[1] == 4 <= 2 * b.genus, text


def test_genus_is_invariant_under_permuting_the_tangles():
    # every length-4 knot M(p1/q1,...,p4/q4|gamma) with 2 <= q <= 5 and
    # |gamma| <= 2, up to tangle order, gets one genus in every order
    tangles = [(p, q) for q in range(2, 6) for p in range(1 - q, q) if math.gcd(p, q) == 1]
    knots = 0
    for combo in itertools.combinations_with_replacement(tangles, 4):
        for gamma in range(-2, 3):
            try:
                MontesinosSpec(combo, gamma)
            except NotAKnot:
                continue
            knots += 1
            genera = {genus((list(order), gamma)).genus
                      for order in set(itertools.permutations(combo))}
            assert len(genera) == 1, (combo, gamma, genera)
    assert knots == 14_322


def test_genus_lies_between_the_conway_degree_and_the_surface_genus():
    # every length-3 knot M(p1/q1,p2/q2,p3/q3|gamma) with 2 <= q <= 5 and
    # |gamma| <= 2, up to tangle order: half the Conway degree bounds the
    # genus from below, the standard diagram's Seifert surface from above.
    # Reading the even tangle as it stands unless a shift cancelled gamma
    # broke this on 480 of them
    tangles = [(p, q) for q in range(2, 6) for p in range(1 - q, q) if math.gcd(p, q) == 1]
    knots = 0
    for combo in itertools.combinations_with_replacement(tangles, 3):
        for gamma in range(-2, 3):
            try:
                spec = MontesinosSpec(combo, gamma)
            except NotAKnot:
                continue
            knots += 1
            sd = seifert_pipeline(spec.diagram())
            low = conway_polynomial(sd).degree_span()[1] // 2
            assert low <= genus(spec).genus <= sd.surface_genus, str(spec)
    assert knots == 3_250


def test_double_twist_knots_have_genus_one():
    # DT(2x,2y) is a genus-1 knot: its Conway polynomial is 1 + xy z^2
    for x, y in itertools.product([v for v in range(-6, 7) if v], repeat=2):
        spec = FamilySpec("double_twist", dict(x=x, y=y))
        conway = conway_polynomial(seifert_pipeline(spec.diagram()))
        assert genus(_normal_pairs(spec)).genus == 1 == conway.degree_span()[1] // 2, str(spec)


def test_diagram_matches_spec():
    d = parse_spec("M(1/2,1/3,1/3)").diagram()
    assert d.component_count() == 1
