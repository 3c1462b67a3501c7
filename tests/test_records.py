"""Value records: field order, equality, hashing, repr, immutability, and
the validations their constructors make."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import knotct
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
# changed, hashable?) -- a record holding a plain dict cannot be hashed
RECORDS = [
    (ContinuedFraction, ("entries",),
     lambda: ContinuedFraction([3, 2]), ContinuedFraction([3, 3]), True),
    (InvariantReport, ("a2", "w3", "sigma", "tau", "genus", "method"),
     _evidence, InvariantReport(a2=2, w3=Fraction(-3, 4), method={"a2": "closed_form"}), True),
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
     ObstructionVerdict("no_pcs", "w3_nonzero", _evidence()), True),
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
    assert InvariantReport().method == () and type(InvariantReport().method) is tuple
    assert InvariantReport().a2 is None
    assert GenusBreakdown(2, "odd", (1, 2)).p is None
    run = ClassificationRun("fig1", 1, (), {})
    assert run.matches == {} and run.failures == ()
    assert FamilySpec("pretzel", dict(q1=3, q2=5, q3=7)) == FamilySpec(
        "pretzel", dict(q1=3, q2=5, q3=7), None, False)


INVALID = [
    (lambda: InvariantReport(w3=Fraction(1, 8)), "w3 denominator 8 does not divide 4"),
    (lambda: ObstructionVerdict("no_pcs", "none", _evidence()),
     "verdict must be no_pcs exactly when a rule fired"),
    (lambda: ObstructionVerdict("inconclusive", "a2_nonzero", _evidence()),
     "verdict must be no_pcs exactly when a rule fired"),
    (lambda: ObstructionVerdict("no_pcs", "twist_gate", _evidence()), "unknown rule 'twist_gate'"),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_record_validation(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


def test_record_checks_hold_under_optimized_mode():
    # every constructor check raises, and every field refuses assignment,
    # with asserts stripped
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from knotct.errors import InvalidInput\n"
        "from test_records import INVALID, RECORDS\n"
        "print(sys.flags.optimize)\n"
        "for build, _ in INVALID:\n"
        "    try:\n"
        "        build()\n"
        "    except InvalidInput as exc:\n"
        "        print(exc)\n"
        "for cls, fields, build, changed, _ in RECORDS:\n"
        "    a = build()\n"
        "    for name in fields:\n"
        "        try:\n"
        "            setattr(a, name, getattr(changed, name))\n"
        "        except AttributeError as exc:\n"
        "            print(cls.__name__, exc)\n"
    )
    src = os.path.dirname(list(knotct.__path__)[0])
    p = subprocess.run([sys.executable, "-O", "-c", code, src, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    expected = ["1", *(message for _, message in INVALID)]
    expected += [f"{cls.__name__} cannot assign to field {name!r}"
                 for cls, fields, *_ in RECORDS for name in fields]
    assert p.stdout.splitlines() == expected


def test_method_maps_are_shared_and_survive_copy_and_pickle():
    given = {"genus": "closed_form", "a2": "gauss_diagram"}
    a = InvariantReport(a2=0, method=given)
    given["a2"] = "oracle"  # the report's pairs are not the caller's dict
    assert a.method == (("a2", "gauss_diagram"), ("genus", "closed_form"))
    assert a.to_dict()["method"] == {"a2": "gauss_diagram", "genus": "closed_form"}
    assert type(a.to_dict()["method"]) is dict
    # a tuple is kept as given, so a caller's one tuple is shared by its reports
    b = InvariantReport(a2=1, method=a.method)
    assert b.method is a.method
    # equal in any order, as dicts are, so it hashes on its items alone
    c = InvariantReport(a2=0, method={"a2": "gauss_diagram", "genus": "closed_form"})
    assert c.method is not a.method and c == a and hash(c) == hash(a)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    with pytest.raises(TypeError):
        a.method["sigma"] = "oracle"
