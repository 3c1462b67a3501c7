"""Diagram-level oracles: Jones via Kauffman bracket, Seifert pipeline."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import knotct
from knotct.diagram import double_twist_diagram, pretzel_diagram
from knotct.errors import BudgetExceeded, InconsistentDiagram
from knotct.exactmath import LaurentPoly
from knotct.montesinos import parse_spec
from knotct.oracle import (
    SeifertData,
    a2_w3_from_jones,
    alternating_genus,
    conway_polynomial,
    jones_via_kauffman,
    oracle_signature,
    seifert_pipeline,
)


def test_unknot_jones_is_one():
    d = pretzel_diagram([-1, 1, 1]).simplify()
    assert jones_via_kauffman(d) == LaurentPoly.one()


def test_trefoil_jones():
    d = pretzel_diagram([1, 1, 1])
    v = jones_via_kauffman(d)
    # one chirality of the trefoil: -t^-4 + t^-3 + t^-1 (or its mirror)
    coeffs = {e: v.coefficient(e) for e in range(-5, 6) if v.coefficient(e)}
    assert coeffs in (
        {-4: -1, -3: 1, -1: 1},
        {4: -1, 3: 1, 1: 1},
    )


def test_jones_mirror_inverts_variable():
    d = pretzel_diagram([3, 5, 1])
    assert jones_via_kauffman(d.mirror()) == jones_via_kauffman(d).invert_variable()


def test_trefoil_a2_w3():
    a2, w3 = a2_w3_from_jones(jones_via_kauffman(pretzel_diagram([1, 1, 1])))
    assert a2 == 1
    assert abs(w3) == Fraction(1, 2)


def test_figure_eight_invariants():
    d = double_twist_diagram(2, -2).simplify()
    a2, w3 = a2_w3_from_jones(jones_via_kauffman(d))
    assert a2 == -1
    assert w3 == 0  # amphichiral
    assert oracle_signature(seifert_pipeline(d)) == 0


def test_conway_matches_jones_a2():
    for text in ("P(3,5,1)", "DT(2,4)", "P(1,1,1)"):
        d = parse_spec(text).diagram().simplify()
        a2, _ = a2_w3_from_jones(jones_via_kauffman(d))
        assert conway_polynomial(seifert_pipeline(d)).coefficient(2) == a2


def test_conway_of_unknot():
    d = pretzel_diagram([-1, 1, 1]).simplify()
    nabla = conway_polynomial(seifert_pipeline(d))
    assert nabla == LaurentPoly.one()


def test_signature_trefoils():
    d = pretzel_diagram([1, 1, 1])
    s = oracle_signature(seifert_pipeline(d))
    assert abs(s) == 2
    assert oracle_signature(seifert_pipeline(d.mirror())) == -s


def test_alternating_genus_matches_known():
    d = pretzel_diagram([1, 1, 1])
    assert alternating_genus(d, seifert_pipeline(d)) == 1
    d = pretzel_diagram([3, 5, 1])
    assert alternating_genus(d, seifert_pipeline(d)) == 1


def test_jones_budget_enforced(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        jones_via_kauffman(pretzel_diagram([5, 5, 5]))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KNOTCT_CROSSING_BUDGET", "40")
    v = jones_via_kauffman(pretzel_diagram([9, 9, 9]))
    assert v.evaluate(Fraction(1)) == 1  # V(1) = 1 for any knot


# A zero Seifert matrix has det(V - V^T) = 0, which no knot has, so the
# Conway polynomial's consistency check must reject it.
LINK_LIKE_SEIFERT = SeifertData(1, ((0, 0), (0, 0)), 1)


def test_oracle_check_raises_typed_error():
    with pytest.raises(InconsistentDiagram) as info:
        conway_polynomial(LINK_LIKE_SEIFERT)
    assert info.value.stage == "oracle: Conway polynomial"
    assert str(info.value).startswith("oracle: Conway polynomial: ")


def test_oracle_check_survives_optimized_mode():
    src = os.path.dirname(list(knotct.__path__)[0])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_oracle import LINK_LIKE_SEIFERT\n"
        "from knotct.errors import InconsistentDiagram\n"
        "from knotct.oracle import conway_polynomial\n"
        "try:\n"
        "    conway_polynomial(LINK_LIKE_SEIFERT)\n"
        "except InconsistentDiagram as exc:\n"
        "    print('raised', exc.stage)\n"
    )
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "raised oracle: Conway polynomial"
