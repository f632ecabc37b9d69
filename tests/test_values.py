"""Semantics of the value types: equality, hashing, immutability, repr, and
round trips through pickle and copy (the fuzz pool pickles its config)."""

import copy
import pickle
from pathlib import Path

import pytest

from tetrig import (DegenerateParams, DegeneratePlane, FieldSpec, Line, MixedFields, Plane,
                    Point3, SymmetricForm, Tetrahedron, Triangle, TriLines, TriRectParams,
                    Undefined, Vector3, Verdict, analyze, b_cross, verify_identities)
from tetrig.document import ReportOptions, load_document
from tetrig.fuzz import FuzzConfig
from support import Q

F7 = FieldSpec.prime(7)
UNIT_DOC = Path(__file__).parent / "fixtures" / "unit_tri_rectangular.json"


def instances():
    """One instance of every value type, by name."""
    p, v = Point3.of, Vector3.of
    tet = Tetrahedron(p(Q, 0, 0, 0), p(Q, 1, 0, 0), p(Q, 0, 1, 0), p(Q, 0, 0, 1),
                      SymmetricForm.identity(Q))
    report = analyze(tet)
    return {
        "Point3": p(Q, 1, 2, 3),
        "Vector3": v(Q, 1, 2, 3),
        "Line": Line(p(Q, 1, 2, 3), v(Q, 0, 0, 1)),
        "Plane": Plane(p(Q, 1, 2, 3), v(Q, 1, 0, 0), v(Q, 0, 1, 0)),
        "Triangle": Triangle(p(Q, 0, 0, 0), p(Q, 1, 0, 0), p(Q, 0, 1, 0)),
        "TriLines": TriLines(p(Q, 0, 0, 0), v(Q, 1, 0, 0), v(Q, 0, 1, 0), v(Q, 0, 0, 1)),
        "Tetrahedron": tet,
        "Undefined": Undefined("NullEdge"),
        "InvariantReport": report,
        "Verdict": Verdict("alternating-spreads", "vertex-0", "pass"),
        "CheckResults": verify_identities(report),
        "TriRectParams": TriRectParams(Q.element(1), Q.element(2), Q.element(3)),
        "ReportOptions": ReportOptions(checks=True),
        "InputDocument": load_document(UNIT_DOC.read_text()),
        "FuzzConfig": FuzzConfig(prime=101, samples=5, seed=1, random_form=True),
    }


# the immutable types, each with one of its fields
FROZEN = {"Point3": "x", "Vector3": "z", "Line": "direction", "Plane": "span2",
          "Triangle": "a1", "TriLines": "d3", "Tetrahedron": "form", "Undefined": "reason",
          "Verdict": "status", "TriRectParams": "k1"}


def test_point_and_vector_with_equal_coordinates_are_unequal():
    assert Point3.of(Q, 1, 2, 3) != Vector3.of(Q, 1, 2, 3)
    assert Point3.of(Q, 1, 2, 3) == Point3.of(Q, 1, 2, 3)
    assert Vector3.of(Q, 1, 2, 3) != Vector3.of(Q, 1, 2, 4)


def test_undefined_equality_and_hash():
    assert Undefined("NullEdge") == Undefined("NullEdge")
    assert hash(Undefined("NullEdge")) == hash(Undefined("NullEdge"))
    assert Undefined("NullEdge") != Undefined("NullNormal")
    assert len({Undefined("NullEdge"), Undefined("NullEdge"), Undefined("NullNormal")}) == 2


def test_equal_frozen_values_hash_equal_and_mutable_ones_do_not_hash():
    for name, value in instances().items():
        if name in FROZEN:
            assert hash(value) == hash(copy.copy(value)), name
        else:
            with pytest.raises(TypeError):
                hash(value)


@pytest.mark.parametrize("name, field", FROZEN.items())
def test_frozen_fields_cannot_be_assigned_or_deleted(name, field):
    value = instances()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_names_the_fields():
    assert repr(Point3.of(F7, 1, 2, 3)) == ("Point3(x=FieldElement(1, F_7), "
                                            "y=FieldElement(2, F_7), z=FieldElement(3, F_7))")
    assert repr(Undefined("NullEdge")) == "Undefined(reason='NullEdge')"


def test_constructor_checks_still_raise():
    p, v = Point3.of, Vector3.of

    def mixed():  # the one field check, `shared_spec`, names both fields
        return pytest.raises(MixedFields, match=r"\bQ\b.*\bF_7\b|\bF_7\b.*\bQ\b")
    with mixed():
        Point3(Q.element(1), F7.element(1), Q.element(1))
    with mixed():
        Line(p(Q, 0, 0, 0), v(F7, 1, 0, 0))
    with mixed():
        Plane(p(Q, 0, 0, 0), v(Q, 1, 0, 0), v(F7, 0, 1, 0))
    with mixed():
        Tetrahedron(p(Q, 0, 0, 0), p(Q, 1, 0, 0), p(Q, 0, 1, 0), p(Q, 0, 0, 1),
                    SymmetricForm.identity(F7))
    with mixed():
        Triangle(p(Q, 0, 0, 0), p(F7, 1, 0, 0), p(Q, 0, 1, 0))
    with mixed():
        TriLines(p(Q, 0, 0, 0), v(Q, 1, 0, 0), v(Q, 0, 1, 0), v(F7, 0, 0, 1))
    with mixed():
        b_cross(v(Q, 1, 0, 0), v(Q, 0, 1, 0), SymmetricForm.identity(F7))
    with mixed():
        SymmetricForm.identity(Q).dot(v(Q, 1, 0, 0), v(F7, 0, 1, 0))
    with pytest.raises(DegeneratePlane):
        Plane(p(Q, 0, 0, 0), v(Q, 1, 2, 3), v(Q, 2, 4, 6))
    with pytest.raises(ValueError, match="nonzero"):
        Line(p(Q, 0, 0, 0), v(Q, 0, 0, 0))
    with pytest.raises(ValueError, match="nonzero"):
        TriLines(p(Q, 0, 0, 0), v(Q, 1, 0, 0), v(Q, 0, 0, 0), v(Q, 0, 0, 1))
    for ks in ((0, 1, 1), (1, -1, 2), (3, 6, -2)):  # a zero K_i, K_i + K_j, cross sum
        with pytest.raises(DegenerateParams):
            TriRectParams(*(Q.element(k) for k in ks))


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_every_value_type_round_trips(clone):
    for name, value in instances().items():
        twin = clone(value)
        assert type(twin) is type(value) and repr(twin) == repr(value), name
        if name not in ("Tetrahedron", "InvariantReport", "InputDocument"):
            # these three hold a SymmetricForm, which compares by identity
            assert twin == value, name


# the types that take their fields through Record.__init__
RECORD_INIT = ("Point3", "Vector3", "Line", "Plane", "Triangle", "TriLines", "Tetrahedron",
               "TriRectParams", "Undefined", "InvariantReport", "CheckResults", "InputDocument")


@pytest.mark.parametrize("name", RECORD_INIT)
def test_wrong_field_count_is_a_type_error_naming_the_type(name):
    value = instances()[name]
    fields = value._fields()
    for wrong in (fields[:-1], fields + fields[-1:]):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            type(value)(*wrong)
