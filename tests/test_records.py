"""Result records: frozen, compared and hashed by value, built from their fields."""

from fractions import Fraction

import pytest

from mahlercf import (
    BadApproxWitness,
    CertifiedValue,
    Convergent,
    HenselDemo,
    IdentityReport,
    InvalidParameter,
    OrbitRow,
)
from mahlercf._record import _Record
from mahlercf.polys import RatPoly

QT = RatPoly({0: 1, 1: 1})

# each record once by keyword, with its fields in declaration order
RECORDS = [
    (Convergent, {"index": 1, "p": RatPoly.one(), "q": QT, "rate": 2}),
    (
        BadApproxWitness,
        {"a": 2, "d": 3, "p": 7, "n0": 2, "t": 8, "residue": 22,
         "conditions": {"c1": True, "c2": True, "c3": True, "c4": True}, "qt": QT},
    ),
    (OrbitRow, {"p": 7, "t": 3, "residue": 22, "start": 8}),
    (CertifiedValue, {"value": Fraction(1, 3), "error_bound": Fraction(1, 100)}),
    (HenselDemo, {"n": 1, "lifted_root": 4, "exponent_residue": 4}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_equal_records_compare_and_hash_equal(cls, fields):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    if cls is not BadApproxWitness:  # its conditions are a dict, which cannot be hashed
        assert hash(record) == hash(twin)
    first = next(iter(fields))
    changed = dict(fields, **{first: fields[first] + 1})
    assert record != cls(**changed)


def test_records_of_different_classes_differ():
    row = OrbitRow(p=7, t=3, residue=22, start=8)

    class Twin(_Record):  # the fields and values of OrbitRow, another class
        p: int
        t: int
        residue: int
        start: int

    assert row != Twin(7, 3, 22, 8)
    assert row != (7, 3, 22, 8)


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_repr_lists_fields_in_declaration_order(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=IDS)
def test_wrong_fields_raise_type_error(cls, fields):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1], **{next(iter(fields)): values[0]})
    with pytest.raises(TypeError):
        cls(**fields, extra=1)


def test_certified_value_rejects_a_negative_error_bound():
    with pytest.raises(InvalidParameter, match="error_bound must be non-negative"):
        CertifiedValue(value=Fraction(1, 3), error_bound=-1)
    with pytest.raises(InvalidParameter):
        CertifiedValue(Fraction(1, 3), Fraction(-1, 10))


def test_records_hold_only_what_their_call_computed():
    # no argument the caller passed is echoed back, and no field holds a
    # value its function can only ever return
    assert IdentityReport.__slots__ == ("failures",)
    assert HenselDemo.__slots__ == ("n", "lifted_root", "exponent_residue")
    assert CertifiedValue.__slots__ == ("value", "error_bound")
    assert not hasattr(OrbitRow, "a_classes")


def test_identity_report_status_follows_its_failures():
    assert IdentityReport(failures=[]).status == "pass"
    assert IdentityReport([{"k": 2}]).status == "fail"
