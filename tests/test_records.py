"""The twelve frozen records against a ``dataclasses`` oracle.

The package's records stand on ``parastab.errors.Record`` rather than
``dataclasses.dataclass(frozen=True)``, so that no command imports
``inspect``.  Each record is compared here with a frozen dataclass twin
built by ``make_dataclass`` with the same fields and default: repr,
equality, hash, ``vars()``, refused assignment and deletion, and the
``TypeError`` of a bad argument list.  Each record's own ``__post_init__``
checks still run.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction as F

import pytest

from parastab import (
    AutResult,
    CurveData,
    DimsResult,
    DomainError,
    GenericityResult,
    GenericityWitness,
    GenusBounds,
    HeckeReport,
    Laurent,
    LaurentMatrix,
    NumTransform,
    OrdersResult,
    ParabolicType,
    WeightSystem,
    automorphism_group,
    concentrated_orders,
    dims,
    genus_bounds,
    hecke_conjugation_check,
    make_transform,
    trivial_curve,
    weight_system,
)
from parastab._claims import FIXTURE_CLAIMS
from parastab.errors import Record

SWAP = NumTransform((1, 0), 1, 0, (1, 0))
WITNESS = GenericityWitness(1, ((1,), (2,)), 0)
IDENTITY = LaurentMatrix.build([[1, 0], [0, 1]]).rows
XI = LaurentMatrix.build([[0, 1], [Laurent.z(1), 0]]).rows

# record -> (its fields, in order; two samples that differ in one field)
RECORDS = {
    WeightSystem: (
        ["rank", "points", "weights"],
        (2, ("x", "y"), ((F(1, 7), F(5, 7)), (F(2, 9), F(8, 9)))),
        (2, ("x", "y"), ((F(1, 7), F(5, 7)), (F(1, 9), F(8, 9)))),
    ),
    ParabolicType: (["rows"], (((1, 0), (0, 1)),), (((0, 1), (0, 1)),)),
    DimsResult: (
        ["fixed_det", "nonfixed", "w", "w_total"], (5, 7, (2, 3), 3), (5, 7, (2, 4), 4)
    ),
    GenericityWitness: (["subrank", "pattern", "m"], (1, ((1,), (2,)), 0), (1, ((1,), (2,)), 1)),
    GenericityResult: (["generic", "witness"], (True, None), (False, WITNESS)),
    GenusBounds: (
        ["chamber", "refined", "lm", "codim"],
        (3, None, F(1, 2), F(3, 2)),
        (3, F(5, 2), F(1, 2), F(3, 2)),
    ),
    NumTransform: (
        ["perm", "sign", "tdeg", "hecke"], ((1, 0), 1, 0, (1, 0)), ((1, 0), -1, 0, (1, 0))
    ),
    CurveData: (
        ["genus", "points", "symmetries"],
        (2, ("x", "y"), (((0, 1), 1), ((1, 0), 2))),
        (2, ("x", "y"), (((0, 1), 1),)),
    ),
    AutResult: (
        ["r", "d", "genus", "classes", "torsion_factor", "order", "generic", "degree_generic",
         "chamber_genus", "classification_genus"],
        (2, 1, 2, (SWAP,), 16, 16, True, True, 3, 6),
        (2, 1, 2, (SWAP,), 16, 32, True, True, 3, 6),
    ),
    OrdersResult: (["aut", "threebir", "ratio"], (81, 162, 2), (81, 324, 4)),
    LaurentMatrix: (["rows"], (IDENTITY,), (XI,)),
    HeckeReport: (
        ["n", "parabolic_input", "det_valuation", "k", "integral", "offenders"],
        (2, True, 1, 1, True, ()),
        (2, True, 1, 1, False, ((0, 1, -1),)),
    ),
}
DEFAULTS = {CurveData: {"symmetries": ()}}

# record -> arguments its __post_init__ refuses
REFUSED = {
    WeightSystem: (0, ("x",), ((),)),
    ParabolicType: (((1, 1), (0, 1)),),
    NumTransform: ((0, 0), 1, 0, (0, 0)),
    CurveData: (-1, ("x",)),
    LaurentMatrix: ((),),
}


def twin(record: type) -> type:
    """The frozen dataclass with the record's name, fields and default."""
    names = RECORDS[record][0]
    defaults = DEFAULTS.get(record, {})
    fields = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults
        else (name, object)
        for name in names
    ]
    return dataclasses.make_dataclass(record.__name__, fields, frozen=True)


def hash_or_error(value: object) -> object:
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_matches_a_frozen_dataclass(record):
    names, first, second = RECORDS[record]
    oracle = twin(record)
    assert record._fields == tuple(names)
    for args in (first, second):
        ours, theirs = record(*args), oracle(*args)
        assert repr(ours) == repr(theirs)
        assert list(vars(ours).items()) == list(vars(theirs).items())
        assert hash_or_error(ours) == hash_or_error(theirs)
        assert record(**dict(zip(names, args))) == ours
    assert (record(*first) == record(*first)) is (oracle(*first) == oracle(*first)) is True
    assert (record(*first) == record(*second)) is (oracle(*first) == oracle(*second)) is False
    assert (record(*first) != record(*second)) is True
    assert record(*first).__eq__(oracle(*first)) is NotImplemented
    assert oracle(*first).__eq__(record(*first)) is NotImplemented
    assert record(*first) != oracle(*first)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_refuses_assignment_and_deletion(record):
    names, first, _ = RECORDS[record]
    for value in (record(*first), twin(record)(*first)):
        with pytest.raises(AttributeError):
            setattr(value, names[0], None)
        with pytest.raises(AttributeError):
            delattr(value, names[0])
        with pytest.raises(AttributeError):
            value.extra = None
        assert vars(value)[names[0]] == first[0]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_refuses_a_bad_argument_list(record):
    names, first, _ = RECORDS[record]
    keywords = dict(zip(names, first))
    bad = {
        "missing": ((), {key: value for key, value in keywords.items() if key != names[0]}),
        "extra": ((*first, None), {}),
        "unknown": (first, {"bogus": None}),
        "repeated": (first, {names[0]: first[0]}),
    }
    for make in (record, twin(record)):
        for args, kwargs in bad.values():
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("record", REFUSED, ids=lambda record: record.__name__)
def test_post_init_checks_still_run(record):
    with pytest.raises(DomainError):
        record(*REFUSED[record])


def test_curve_data_defaults_and_adds_the_identity():
    assert CurveData(2, ("x", "y")).symmetries == (((0, 1), 1),)
    assert CurveData(2, ("x", "y"), (((1, 0), 2),)).symmetries == (((0, 1), 1), ((1, 0), 2))
    assert list(vars(CurveData(genus=2, points=("x",)))) == ["genus", "points", "symmetries"]


def test_laurent_matrix_caches_its_determinant_and_stays_unhashable():
    m = LaurentMatrix(XI)
    assert "det_adjugate" not in vars(m)
    assert m.det() == m.det_adjugate[0]
    assert "det_adjugate" in vars(m)
    assert m == LaurentMatrix(XI)
    with pytest.raises(TypeError):
        hash(m)


def test_the_package_builds_its_records_by_position(monkeypatch):
    """Each call below builds its records with every field given by position,
    the path of ``Record.__init__`` that skips merging keywords and defaults."""
    init, slow = Record.__init__, []

    def spy(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            slow.append((type(self).__name__, sys._getframe(1).f_code.co_name))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", spy)
    w = weight_system([[F(1, 10), F(7, 10)], [F(1, 5), F(3, 5)]], ("x", "y"))
    make_transform((1, 0), 1, 0, (3, 0), 2)
    automorphism_group(w, 0, trivial_curve(2, w.points))
    FIXTURE_CLAIMS["rank2 classes are the identity and the swapped full Hecke shift"]()
    dims(2, 2, 2)
    genus_bounds(w)
    concentrated_orders(2, 2, 2, 1)
    hecke_conjugation_check(LaurentMatrix(XI))
    assert slow == []
