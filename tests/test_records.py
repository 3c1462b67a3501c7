"""Value records: field order, equality, hashing, repr, immutability, and
the validations their constructors make."""

import copy
import inspect
from fractions import Fraction

import pytest

from knotct.cf_calculus import ContinuedFraction
from knotct.errors import InvalidInput
from knotct.invariants import InvariantReport
from knotct.montesinos import FamilySpec, GenusBreakdown, MontesinosSpec
from knotct.oracle import SeifertData
from knotct.pipeline import ObstructionVerdict, TwistGate
from knotct.records import Record
from knotct.sweeps import ClassificationRun


def _evidence():
    return InvariantReport(a2=1, w3=Fraction(-3, 4), method={"a2": "closed_form"})


# (class, its fields in order, a function that makes one, the same record with one field
# changed, hashable?) -- a record holding a dict cannot be hashed
RECORDS = [
    (ContinuedFraction, ("entries",),
     lambda: ContinuedFraction([3, 2]), ContinuedFraction([3, 3]), True),
    (InvariantReport, ("a2", "w3", "sigma", "tau", "genus", "method"),
     _evidence, InvariantReport(a2=2, w3=Fraction(-3, 4), method={"a2": "closed_form"}), False),
    (MontesinosSpec, ("tangles", "gamma"),
     lambda: MontesinosSpec([Fraction(1, 2), Fraction(1, 3)]),
     MontesinosSpec([Fraction(1, 2), Fraction(1, 3)], 1), True),
    (FamilySpec, ("family", "params", "sign_variant", "mirror"),
     lambda: FamilySpec("o3", dict(a=2, b=1, c=1), 1),
     FamilySpec("o3", dict(a=2, b=1, c=1), 1, True), True),
    (GenusBreakdown, ("genus", "type", "per_tangle", "p"),
     lambda: GenusBreakdown(1, "even_caseIII", (3, 4), 2),
     GenusBreakdown(1, "even_caseIII", (3, 4), 1), True),
    (SeifertData, ("surface_genus", "seifert_matrix", "circles"),
     lambda: SeifertData(1, ((-1, 1), (0, -1)), 4), SeifertData(1, ((-1, 1), (0, -1)), 3), True),
    (ObstructionVerdict, ("verdict", "fired_rule", "evidence"),
     lambda: ObstructionVerdict("no_pcs", "a2_nonzero", _evidence()),
     ObstructionVerdict("no_pcs", "w3_nonzero", _evidence()), False),
    (TwistGate, ("twists", "fires"), lambda: TwistGate(3, False), TwistGate(7, True), True),
    (ClassificationRun, ("scope", "bound", "survivors", "eliminated", "matches", "failures"),
     lambda: ClassificationRun("fig1", 1, (), {"F1L(0,0,0,0,0,1)": "genus_ne_2"}),
     ClassificationRun("fig1", 2, (), {"F1L(0,0,0,0,0,1)": "genus_ne_2"}), False),
]


@pytest.mark.parametrize("cls, fields, build, changed, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, build, changed, hashable):
    assert list(inspect.signature(cls).parameters) == list(fields)
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert a != changed and not a == changed
    assert a != tuple(getattr(a, name) for name in fields)
    twin = type(cls.__name__, (Record,), {"__slots__": fields, "__init__": cls.__init__})
    assert a != twin(*(getattr(a, name) for name in fields))
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(a, name)!r}" for name in fields) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(changed, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_record_defaults():
    assert InvariantReport().method == {} and InvariantReport().a2 is None
    assert InvariantReport().method is not InvariantReport().method
    assert GenusBreakdown(2, "odd", (1, 2)).p is None
    run = ClassificationRun("fig1", 1, (), {})
    assert run.matches == {} and run.failures == ()
    assert FamilySpec("pretzel", dict(q1=3, q2=5, q3=7)) == FamilySpec(
        "pretzel", dict(q1=3, q2=5, q3=7), None, False)


@pytest.mark.parametrize("build, message", [
    (lambda: InvariantReport(w3=Fraction(1, 8)), "w3 denominator 8 does not divide 4"),
    (lambda: ObstructionVerdict("no_pcs", "none", _evidence()),
     "verdict must be no_pcs exactly when a rule fired"),
    (lambda: ObstructionVerdict("inconclusive", "a2_nonzero", _evidence()),
     "verdict must be no_pcs exactly when a rule fired"),
    (lambda: ObstructionVerdict("no_pcs", "twist_gate", _evidence()), "unknown rule 'twist_gate'"),
])
def test_record_validation(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()
