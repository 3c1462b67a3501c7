"""Exact arithmetic layer: Laurent polynomials and symmetric integer matrices.

The signature of a symmetric integer matrix is computed beside the integer
determinant kernel in `knotct.oracle`; its cases are kept here.
"""

import random

import pytest

from knotct.exactmath import LaurentPoly, laurent_derivative_at_one
from knotct.oracle import _signature


def test_term_and_coefficient():
    p = LaurentPoly({-2: 3})
    assert p.coefficient(-2) == 3
    assert p.coefficient(0) == 0


def test_a_constant_hashes_as_the_int_it_equals():
    # equal objects must hash alike, or a set or dict holds both
    assert len({LaurentPoly.one(), 1}) == 1
    assert len({LaurentPoly(), 0, LaurentPoly({0: 5}), 5, LaurentPoly({1: 5})}) == 3
    for c in (0, 1, -1, -3, 10 ** 30):
        p = LaurentPoly({0: c})
        assert p == c and hash(p) == hash(c)


def test_degree_span():
    assert LaurentPoly({-2: 1, 1: 3}).degree_span() == (-2, 1)
    assert LaurentPoly().degree_span() == (0, 0)


def test_invert_variable():
    p = LaurentPoly({-2: 1, 1: 3})
    q = p.invert_variable()
    assert q.coefficient(2) == 1 and q.coefficient(-1) == 3
    assert q.invert_variable() == p


def test_derivative_at_one():
    # p = x^-2 + 3x: p(1) = 4, p'(1) = -2 + 3 = 1, p''(1) = 6
    p = LaurentPoly({-2: 1, 1: 3})
    assert laurent_derivative_at_one(p, 0) == 4
    assert laurent_derivative_at_one(p, 1) == 1
    assert laurent_derivative_at_one(p, 2) == 6


@pytest.mark.parametrize(
    "rows, sig",
    [
        ([[1]], 1),
        ([[-3]], -1),
        ([[0]], 0),
        ([[0, 1], [1, 0]], 0),
        ([[2, 1], [1, 2]], 2),
        ([[2, 3], [3, 2]], 0),
        ([[1, 0, 0], [0, -1, 0], [0, 0, 5]], 1),
        ([], 0),
    ],
)
def test_signature_of_sym(rows, sig):
    assert _signature(rows) == sig


def test_signature_is_sylvester_inertia():
    """S = P^T D P for unimodular integer P has the inertia of the diagonal D."""
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 8)
        diag = [rng.choice((-3, -1, 0, 0, 1, 2)) for _ in range(n)]
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n if n > 1 else 0):  # row additions keep det P = 1
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            p[i] = [a + k * b for a, b in zip(p[i], p[j])]
        s = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        expected = sum(d > 0 for d in diag) - sum(d < 0 for d in diag)
        assert _signature(s) == expected, (diag, p)
