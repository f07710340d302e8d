"""Map-file schema round trips and the polynomial literal grammar."""

import json
from fractions import Fraction

import pytest

from agcalc.errors import MapFileError
from agcalc.mapfile import (
    entries_to_poly,
    load_map_file,
    parse_map_obj,
    parse_poly,
    poly_to_entries,
    save_map_file,
)
from agcalc.poly import MapTuple, SparsePoly, VarSet

Z2 = VarSet.z(2)


def triangular_obj():
    return {
        "n": 2,
        "trunc": None,
        "components": [
            [{"coeff": "1", "exps": [0, 2]}],
            [],
        ],
        "metadata": {"name": "shift", "family": "triangular",
                     "known_inverse": [[{"coeff": "1", "exps": [0, 2]}], []],
                     "nt_degree": 0},
    }


class TestLiterals:
    def test_basic_terms(self):
        p = parse_poly("1/2*z1^2 - 3*z1*z2 + z2^3", Z2)
        expected = (SparsePoly.monomial(Z2, (2, 0), Fraction(1, 2))
                    - SparsePoly.monomial(Z2, (1, 1), 3)
                    + SparsePoly.monomial(Z2, (0, 3)))
        assert p == expected

    def test_constants_and_signs(self):
        assert parse_poly("-5/3", Z2) == SparsePoly.const(Z2, Fraction(-5, 3))
        assert parse_poly("1", Z2) == SparsePoly.one(Z2)
        assert parse_poly("z1 - z1", Z2).is_zero

    def test_xi_and_t_variables(self):
        xizt = VarSet.xizt(1)
        p = parse_poly("2*xi1*z1*t^2", xizt)
        assert p == SparsePoly.monomial(xizt, (1, 1, 2), 2)

    def test_rejections(self):
        for bad in ("", "z3", "xi1", "q1", "z1^", "1//2", "z1**2", "+"):
            with pytest.raises(MapFileError):
                parse_poly(bad, Z2)


class TestMapFiles:
    def test_parse_and_roundtrip(self, tmp_path):
        h, meta = parse_map_obj(triangular_obj())
        assert h == MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                    SparsePoly.zero(Z2)))
        assert meta["known_inverse"].components[0] == SparsePoly.monomial(Z2, (0, 2))
        path = tmp_path / "map.json"
        save_map_file(path, h, {"name": "shift", "known_inverse": meta["known_inverse"]})
        h2, meta2 = load_map_file(path)
        assert h2 == h
        assert meta2["known_inverse"] == meta["known_inverse"]

    def test_series_trunc_field(self):
        obj = triangular_obj()
        obj["trunc"] = 9
        del obj["metadata"]
        h, _ = parse_map_obj(obj)
        assert not h.is_exact and h.trunc == 9

    def test_zero_denominator_rejected(self):
        obj = triangular_obj()
        obj["components"][0][0]["coeff"] = "1/0"
        with pytest.raises(MapFileError) as err:
            parse_map_obj(obj)
        assert "1/0" in str(err.value)

    def test_order_validated(self):
        obj = {"n": 1, "components": [[{"coeff": "1", "exps": [1]}]]}
        with pytest.raises(MapFileError):
            parse_map_obj(obj)

    @pytest.mark.parametrize("metadata", [[], False, 0, "", [1], "x"])
    def test_metadata_must_be_an_object(self, metadata):
        obj = triangular_obj()
        obj["metadata"] = metadata
        with pytest.raises(MapFileError, match="metadata must be an object"):
            parse_map_obj(obj)

    def test_absent_or_null_metadata_is_empty(self):
        obj = triangular_obj()
        obj["metadata"] = None
        assert parse_map_obj(obj)[1] == {}
        del obj["metadata"]
        assert parse_map_obj(obj)[1] == {}

    def test_shape_errors(self):
        with pytest.raises(MapFileError):
            parse_map_obj({"n": 2, "components": [[]]})
        with pytest.raises(MapFileError):
            parse_map_obj({"n": 0, "components": []})
        with pytest.raises(MapFileError):
            parse_map_obj({"n": 1, "components": [[{"coeff": "1", "exps": [2, 0]}]]})
        with pytest.raises(MapFileError):
            parse_map_obj([1, 2])

    @pytest.mark.parametrize("field, message", [
        ("n", "field 'n'"), ("trunc", "field 'trunc'"),
        ("exps", "exponent vector"), ("nt_degree", "metadata.nt_degree")])
    def test_booleans_are_not_integers(self, field, message):
        # bool is a subclass of int; true/false must not pass as 1/0
        obj = triangular_obj()
        if field == "n":
            obj["n"] = True
        elif field == "trunc":
            obj["trunc"] = False
        elif field == "exps":
            obj["components"][0][0]["exps"] = [False, 2]
        else:
            obj["metadata"]["nt_degree"] = True
        with pytest.raises(MapFileError, match=message):
            parse_map_obj(obj)

    def test_json_number_coefficients(self):
        # a JSON number with a fraction part arrives as a float, already rounded
        z1 = VarSet.z(1)
        text = '{"n": 1, "components": [[{"coeff": %s, "exps": [2]}]]}'
        h, _ = parse_map_obj(json.loads(text % '"0.12345678901234567890123"'))
        assert h.components[0] == SparsePoly.monomial(
            z1, (2,), Fraction("0.12345678901234567890123"))
        h, _ = parse_map_obj(json.loads(text % "-3"))
        assert h.components[0] == SparsePoly.monomial(z1, (2,), -3)
        for literal in ("0.12345678901234567890123", "0.5", "1e3", "true"):
            with pytest.raises(MapFileError, match="coefficient must be a string"):
                parse_map_obj(json.loads(text % literal))

    def test_coefficients_canonicalized(self):
        obj = {"n": 1, "components": [[
            {"coeff": "2/4", "exps": [2]},
            {"coeff": "1/2", "exps": [2]},
        ]]}
        h, _ = parse_map_obj(obj)
        assert h.components[0] == SparsePoly.monomial(VarSet.z(1), (2,))

    def test_entries_are_canonical_order(self):
        p = parse_poly("z2^3 + z1 + 2*z1*z2", Z2)
        entries = poly_to_entries(p)
        assert entries[0]["exps"] == [0, 3]  # highest grlex first
        assert entries_to_poly(entries, Z2) == p
