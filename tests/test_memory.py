"""What family specs, Montesinos records and obstruct verdicts hold, read
from tracemalloc: family specs share their (name, value) pairs through one
bounded table, Montesinos records their (beta, alpha) pairs through the
per-tangle rows, and verdicts their route tuples through a cache of at
most 81."""

import gc
import itertools
import math
import tracemalloc

from knotct import montesinos
from knotct.errors import KnotctError, NotAKnot
from knotct.montesinos import (
    FAMILY_NAMES,
    FamilySpec,
    MontesinosSpec,
    enumerate_family,
    parse_spec,
)
from knotct.pipeline import _routes, obstruct
from knotct.sweeps import _formulas_specs

N = 4800


def _bound3_texts():
    """N `FAM:` specs spread over the eleven families at bound 3."""
    pool = [str(f) for family in FAMILY_NAMES for f in enumerate_family(family, 3)]
    return pool[::5][:N]


def _held(build):
    """What build() returns, and the bytes it allocated and still holds.

    Each caller runs its build once before, so the tables and memos it
    fills are full and the allocators' free lists settled: the count is
    what the returned records hold."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return out, held


def test_parsed_specs_hold_at_most_200_bytes_each():
    texts = _bound3_texts()
    [parse_spec(t) for t in texts]
    specs, held = _held(lambda: [parse_spec(t) for t in texts])
    assert len(specs) == N and held <= 200 * N, held / N


def test_verdicts_hold_at_most_300_bytes_each():
    specs = [parse_spec(t) for t in _bound3_texts()]
    [obstruct(f) for f in specs]
    verdicts, held = _held(lambda: [obstruct(f) for f in specs])
    assert len(verdicts) == N and held <= 300 * N, held / N


def _four_tangle_grid():
    """Every 7th length-4 multiset of the 34 reduced p/q in (-1, 1) with
    q <= 7, with gamma 0 and 1, as (pairs, gamma) of the knots among them."""
    fractions = [(p, q) for q in range(2, 8) for p in range(1 - q, q) if p and math.gcd(p, q) == 1]
    grid = []
    for pairs in list(itertools.combinations_with_replacement(fractions, 4))[::7]:
        for gamma in (0, 1):
            try:
                MontesinosSpec(pairs, gamma)
            except NotAKnot:
                continue
            grid.append((pairs, gamma))
    return grid


def test_four_tangle_records_hold_at_most_160_bytes_each():
    # 129 bytes measured on CPython 3.11, where one Fraction per tangle held 325
    grid = _four_tangle_grid()
    [MontesinosSpec(*x) for x in grid]
    specs, held = _held(lambda: [MontesinosSpec(*x) for x in grid])
    assert len(specs) == 9_929 and held <= 160 * len(specs), held / len(specs)
    assert all(type(p) is int and type(q) is int for m in specs for p, q in m.tangles)


def test_a_record_built_after_a_clearing_equals_its_twin():
    m = parse_spec("M(7/3,[3,2],-4/5|2)")
    montesinos._pair_row.cache_clear()
    twin = parse_spec("M(7/3,[3,2],-4/5|2)")
    assert twin.tangles[0] is not m.tangles[0]
    assert twin == m and hash(twin) == hash(m)
    assert repr(twin) == repr(m) and str(twin) == str(m) == "M(1/3,2/5,-4/5|4)"


def test_records_share_their_pairs_through_the_rows_alone():
    # a parsed M(...) spec puts none of its (beta, alpha) pairs into the
    # family pair table, and a second parse holds the first one's pairs
    montesinos._PAIRS.clear()
    texts = ["M(7/3,[3,2],-4/5|2)", "M(1/3,1/4,1/5,1/5)", "M(2/6,4/10,-3/15|1)"]
    first = [parse_spec(t) for t in texts]
    again = [parse_spec(t) for t in texts]
    assert not montesinos._PAIRS
    for m, twin in zip(first, again):
        assert twin == m and all(p is q for p, q in zip(m.tangles, twin.tangles))


def test_formulas_spec_list_holds_at_most_6_mb():
    _formulas_specs(2)
    specs, held = _held(lambda: _formulas_specs(2))
    assert len(specs) == 33_964 and held <= 6_000_000, held


def test_equal_pairs_of_different_parses_are_one_object():
    montesinos._PAIRS.clear()  # so that no clearing falls between the parses
    f = parse_spec("FAM:o1(a=1,b=2,c=3,d=4,e=5)")
    g = parse_spec("FAM:o2( e = 5 , d=4,c=3,b=2,a=1)")
    assert f.params == g.params and all(p is q for p, q in zip(f.params, g.params))
    assert f.family is next(enumerate_family("o1", 1)).family
    h = next(enumerate_family("o1", 5))  # a = b = c = d = e = -5
    assert h.params[0] is parse_spec("FAM:o1(a=-5,b=-5,c=-5,d=-5,e=-5)").params[0]


def _unshared_twin(f):
    """f with fresh (name, value) pairs, set slot by slot."""
    twin = object.__new__(FamilySpec)
    fields = (f.family, tuple([(k, v) for k, v in f.params]), f.sign_variant, f.mirror)
    for set_slot, value in zip(FamilySpec._setters, fields):
        set_slot(twin, value)
    return twin


def test_pair_table_stays_bounded():
    # 10^5 distinct values, then a pretzel with more strands than the table holds
    specs = [parse_spec(f"FAM:e3(a={v})") for v in range(2, 100_002)]
    strands = range(3, 4 * montesinos._PAIR_TABLE_SIZE, 2)
    specs.append(parse_spec("P(" + ",".join(map(str, strands)) + ")"))
    assert len(specs[-1].params) > montesinos._PAIR_TABLE_SIZE
    assert len(montesinos._PAIRS) <= montesinos._PAIR_TABLE_SIZE
    for f in specs:
        twin = _unshared_twin(f)
        assert twin.params[0] is not f.params[0]
        assert twin == f and hash(twin) == hash(f)
        assert repr(twin) == repr(f) and str(twin) == str(f)


def test_a_spec_whose_pairs_are_in_a_near_full_table_clears_nothing():
    montesinos._PAIRS.clear()
    f = parse_spec("FAM:o1(a=1,b=2,c=3,d=4,e=5)")
    v = 2
    while len(montesinos._PAIRS) < montesinos._PAIR_TABLE_SIZE - 1:
        parse_spec(f"FAM:e3(a={v})")
        v += 1
    twin = parse_spec("FAM:o1(a=1,b=2,c=3,d=4,e=5)")
    assert len(montesinos._PAIRS) == montesinos._PAIR_TABLE_SIZE - 1
    assert all(p is q for p, q in zip(twin.params, f.params)) and twin == f


def test_verdicts_take_their_routes_from_the_route_cache():
    # the AC1 spec list and the bound-3 families use 7 of the 81 route tuples
    specs = _formulas_specs(2) + [f for fam in FAMILY_NAMES for f in enumerate_family(fam, 3)]
    n = 0
    for f in specs:
        try:
            method = obstruct(f).evidence.method
        except KnotctError:  # a link spec
            continue
        routes = dict(method)
        assert method is _routes(*map(routes.get, ("genus", "a2", "w3", "sigma"))), str(f)
        n += 1
    assert n == 59_400
    assert _routes.cache_info().currsize <= 81
