"""The contract every agcalc value record keeps.

A record is frozen, equals a record of its own class with equal fields and
nothing else, and hashes only where every field can.
"""

import copy
import pickle

import pytest

from agcalc.errors import AgcalcError, ContractViolation
from agcalc.inversion import FIXED_POINT, InversionResult
from agcalc.lab import (
    CorpusItem,
    CorpusSpec,
    EquivalenceReport,
    NilpotencyCertificate,
    VanishingReport,
)
from agcalc.poly import MapTuple, PolyMatrix, SparsePoly, VarSet
from agcalc.record import Record
from agcalc.report import FAIL, PASS, SKIP, Check, IdentityReport, Report

Z1 = VarSet.z(1)
ZT1 = VarSet.zt(1)
XIZ1 = VarSet.xiz(1)


def z_power(k):
    return SparsePoly.monomial(Z1, (k,))


def xiz(a, b):
    return SparsePoly.monomial(XIZ1, (a, b))


def certificate(c):
    return NilpotencyCertificate(SparsePoly.one(ZT1) + SparsePoly.monomial(ZT1, (0, 1), c))


# (class, a function that builds its constructor arguments anew on each
# call, another value for each argument); every field's value is built
# afresh, so equality is by value, not identity
RECORDS = [
    (VarSet, lambda: {"kind": "z", "n": 1}, {"kind": "zt", "n": 2}),
    (MapTuple, lambda: {"components": (z_power(2),), "trunc": None},
     {"components": (z_power(3),), "trunc": 3}),
    (PolyMatrix, lambda: {"rows": ((z_power(2),),)}, {"rows": ((z_power(1),),)}),
    (Check, lambda: {"name": "c", "status": PASS, "witness": None, "detail": None},
     {"name": "d", "status": FAIL, "witness": "w", "detail": "x"}),
    (IdentityReport,
     lambda: {"name": "id", "lhs": z_power(2), "rhs": z_power(2), "where": None, "detail": None},
     {"name": "other", "lhs": z_power(3), "rhs": z_power(3), "where": "here", "detail": "x"}),
    (Report,
     lambda: {"command": "lab", "args": {"m_max": 4}, "input_digest": "d",
              "checks": (Check("c", PASS),), "result": None, "flags": {}},
     {"command": "invert", "args": {}, "input_digest": "e", "checks": (),
      "result": {"degree": 4}, "flags": {"f": 1}}),
    (InversionResult,
     lambda: {"G": MapTuple((z_power(1) + z_power(2),), 2), "N": MapTuple((z_power(2),), 2),
              "method": FIXED_POINT, "D": 2, "checked_discards": 0},
     {"G": MapTuple((z_power(1),), 2), "N": MapTuple((SparsePoly.zero(Z1),), 2),
      "method": "lambda_series", "D": 3, "checked_discards": 1}),
    (NilpotencyCertificate, lambda: {"det_deformation": SparsePoly.one(ZT1)},
     {"det_deformation": certificate(1).det_deformation}),
    (VanishingReport, lambda: {"k": 0, "mmax": 2, "values": ((1, xiz(0, 1)), (2, xiz(0, 0)))},
     {"k": 1, "mmax": 3, "values": ((1, xiz(1, 0)),)}),
    (EquivalenceReport,
     lambda: {"label": "map", "certificate": certificate(2), "scans": (), "checks": ()},
     {"label": "other", "certificate": certificate(3),
      "scans": (VanishingReport(0, 1, ()),), "checks": (Check("c", SKIP),)}),
    (CorpusSpec, lambda: {"n": 2, "family": "triangular", "count": 3, "seed": 0},
     {"n": 3, "family": "cubic", "count": 4, "seed": 1}),
    (CorpusItem,
     lambda: {"item_id": "a", "family": "triangular", "h": MapTuple.exact((z_power(2),)),
              "nilpotent": True, "known_n": None, "nt_degree": None},
     {"item_id": "b", "family": "control", "h": MapTuple.exact((z_power(3),)),
      "nilpotent": False, "known_n": MapTuple.exact((z_power(2),)), "nt_degree": 1}),
]
HASHABLE = {VarSet, Check, CorpusSpec}


def test_every_record_class_is_covered():
    # SparsePoly shares the frozen base but has its own equality
    agcalc_records = {c for c in Record.__subclasses__() if c.__module__.startswith("agcalc.")}
    assert {cls for cls, _, _ in RECORDS} == agcalc_records - {SparsePoly}


@pytest.mark.parametrize("cls, make, others",
                         [pytest.param(*record, id=record[0].__name__) for record in RECORDS])
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, cls, make, others):
        value = cls(**make())
        for name in cls.__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert value == cls(**make())

    def test_equal_fields_compare_equal(self, cls, make, others):
        value = cls(**make())
        assert value == cls(**make()) and not value != cls(**make())

    def test_each_differing_field_compares_unequal(self, cls, make, others):
        value = cls(**make())
        assert others.keys() == make().keys()
        for name, other in others.items():
            changed = cls(**{**make(), name: other})
            assert value != changed and not value == changed

    def test_never_equals_another_type(self, cls, make, others):
        value = cls(**make())
        assert (value == tuple(getattr(value, name) for name in cls.__slots__)) is False
        assert (value == 0) is False
        # a record of another class with the same fields and values
        twin = object.__new__(type("Twin", (Record,), {"__slots__": cls.__slots__}))
        twin.__setstate__(value.__getstate__())
        assert (value == twin) is False and (twin == value) is False

    def test_hashable_only_where_every_field_is(self, cls, make, others):
        value = cls(**make())
        if cls in HASHABLE:
            assert hash(value) == hash(cls(**make()))
            assert {value, cls(**make())} == {value}
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_pickle_and_copy_keep_the_value(self, cls, make, others):
        value = cls(**make())
        for restored in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
            assert type(restored) is cls and restored == value


def test_keyword_construction_fills_in_defaults():
    assert CorpusSpec(n=2, family="cubic") == CorpusSpec(2, "cubic", 3, 0)
    assert Check(name="c", status=PASS) == Check("c", PASS, None, None)
    assert Report(command="lab", args={}, input_digest="d", checks=()) == Report(
        "lab", {}, "d", (), None, {})
    g, n = MapTuple((z_power(2),), 2), MapTuple((z_power(2),), 2)
    assert InversionResult(G=g, N=n, method=FIXED_POINT, D=2) == InversionResult(
        g, n, FIXED_POINT, 2, 0)


def test_reports_built_without_flags_share_no_dict():
    a, b = Report("lab", {}, "d", ()), Report("lab", {}, "d", ())
    assert a.flags == {} and a.flags is not b.flags


def test_identity_witness_is_computed_not_passed():
    rep = IdentityReport("id", z_power(2), z_power(3), where="c1")
    assert rep.witness == "c1: z1^2: 1 vs 0"
    with pytest.raises(TypeError):
        IdentityReport("id", z_power(2), z_power(2), witness=None)


def test_unknown_check_status_is_a_contract_violation():
    with pytest.raises(ContractViolation, match="unknown check status 'ok'") as err:
        Check("c", "ok")
    assert isinstance(err.value, AgcalcError)


def test_repr_names_each_field():
    assert repr(CorpusSpec(2, "cubic")) == "CorpusSpec(n=2, family='cubic', count=3, seed=0)"
