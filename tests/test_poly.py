"""Core polynomial layer: exact arithmetic, truncation, composition, determinants."""

import ast
import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import agcalc
from agcalc.errors import CompositionError, ContractViolation, TruncationError
from agcalc.poly import (
    INF,
    NEG_INF,
    MapTuple,
    PolyMatrix,
    SparsePoly,
    VarSet,
    compose,
    compose_map,
    det,
    first_difference,
    jacobian,
    render_poly,
    weighted_sum,
    xi_pairing,
)
from poly_reference import _det_bareiss, deformation_matrix, exact_div

Z2 = VarSet.z(2)
XIZ2 = VarSet.xiz(2)


def zvar(vs, i):
    return SparsePoly.z_var(vs, i)


def random_poly(rng, vs, max_deg=3, max_terms=5, coeff_bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * vs.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(vs.nvars)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        if num:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + Fraction(num, den)
    return SparsePoly(vs, terms)


class TestVarSet:
    def test_layout_counts(self):
        assert VarSet.z(3).nvars == 3
        assert VarSet.xiz(3).nvars == 6
        assert VarSet.zt(3).nvars == 4
        assert VarSet.xizt(3).nvars == 7

    def test_names_order(self):
        assert VarSet.xizt(2).names() == ["xi1", "xi2", "z1", "z2", "t"]
        assert VarSet.z(2).names() == ["z1", "z2"]

    def test_invalid(self):
        with pytest.raises(ContractViolation):
            VarSet("w", 2)
        with pytest.raises(ContractViolation):
            VarSet.z(0)

    def test_invalid_layout_leaves_no_entry(self):
        before = dict(agcalc.poly._LAYOUTS)
        with pytest.raises(ContractViolation, match="unknown variable kind 'w'"):
            VarSet("w", 2)
        with pytest.raises(ContractViolation, match="variable count n must be >= 1"):
            VarSet("z", 0)
        assert agcalc.poly._LAYOUTS == before

    @pytest.mark.parametrize("kind", ["z", "xiz", "zt", "xizt"])
    def test_one_object_per_layout(self, kind):
        vs = VarSet(kind, 3)
        toggled = vs.without_xi().with_xi() if vs.has_xi else vs.with_xi().without_xi()
        for other in (VarSet(kind, 3), VarSet(kind=kind, n=3), getattr(VarSet, kind)(3),
                      toggled, pickle.loads(pickle.dumps(vs)), copy.copy(vs),
                      copy.deepcopy(vs)):
            assert other is vs
        assert VarSet(kind, 2) is not vs

    def test_layout_count_is_a_plain_int(self):
        class Count(int):  # equal to 29, so it keys the entry of n=29
            pass

        vs = VarSet("xizt", Count(29))
        assert vs is VarSet.xizt(29) and type(vs.n) is int
        assert repr(vs) == "VarSet(kind='xizt', n=29)"
        assert VarSet("z", True) is VarSet.z(1) and type(VarSet.z(1).n) is int

    def test_xi_toggles_return_the_one_layout(self):
        assert VarSet.z(2).with_xi() is VarSet.xiz(2)
        assert VarSet.zt(2).with_xi() is VarSet.xizt(2)
        assert VarSet.xiz(2).without_xi() is VarSet.z(2)
        assert VarSet.xizt(2).without_xi() is VarSet.zt(2)

    def test_restored_polynomial_keeps_the_one_layout(self):
        p = zvar(XIZ2, 1).scale(Fraction(2, 3)) + SparsePoly.xi_var(XIZ2, 0)
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert q == p and q.vars is XIZ2
            assert (q * p).vars is XIZ2  # the restored layout passes the identity checks

    def test_layout_mismatch_messages(self):
        z, xi, zt = zvar(Z2, 0), SparsePoly.xi_var(XIZ2, 0), zvar(VarSet.zt(2), 1)
        z_then_xi = r"^variable layout mismatch: z\(n=2\) vs xiz\(n=2\)$"
        with pytest.raises(ContractViolation, match=z_then_xi):
            z.mul(xi)
        with pytest.raises(ContractViolation, match=r"^variable layout mismatch: xiz\(n=2\) vs z\(n=2\)$"):
            xi + z
        with pytest.raises(ContractViolation, match=z_then_xi):
            weighted_sum(Z2, [(z, 1), (xi, 1)])
        with pytest.raises(ContractViolation, match="map components must share one variable layout"):
            MapTuple((z, zt))
        with pytest.raises(ContractViolation, match="matrix entries must share one variable layout"):
            PolyMatrix(((z, z), (z, zt)))
        with pytest.raises(ContractViolation, match=r"cannot lift xiz\(n=2\) into z\(n=2\)"):
            xi.lift(Z2)
        assert z.lift(Z2) is z


class TestArithmetic:
    def test_difference_of_squares(self):
        z1, z2 = zvar(Z2, 0), zvar(Z2, 1)
        assert (z1 + z2).mul(z1 - z2) == z1.power(2) - z2.power(2)

    def test_mul_by_zero_annihilates(self):
        p = zvar(Z2, 0) + SparsePoly.const(Z2, 3)
        assert p.mul(SparsePoly.zero(Z2)).is_zero
        assert dict(p.mul(SparsePoly.zero(Z2)).items()) == {}

    def test_truncated_square(self):
        # (1 + z1)^2 cut at degree 1 keeps only 1 + 2*z1
        p = SparsePoly.one(Z2) + zvar(Z2, 0)
        got = p.mul(p, trunc=1)
        assert got == SparsePoly.one(Z2) + zvar(Z2, 0).scale(2)

    def test_varset_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            zvar(Z2, 0) + zvar(VarSet.z(3), 0)
        with pytest.raises(ContractViolation):
            zvar(Z2, 0).mul(SparsePoly.one(XIZ2))

    def test_canonical_no_zero_terms(self):
        p = SparsePoly(Z2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert (0, 1) not in dict(p.items())
        q = zvar(Z2, 0) - zvar(Z2, 0)
        assert q.is_zero and dict(q.items()) == {}

    def test_ring_axioms_random(self):
        rng = random.Random(20240229)
        for _ in range(120):
            a = random_poly(rng, Z2)
            b = random_poly(rng, Z2)
            c = random_poly(rng, Z2)
            assert a + b == b + a
            assert a.mul(b) == b.mul(a)
            assert (a + b) + c == a + (b + c)
            assert a.mul(b.mul(c)) == a.mul(b).mul(c)
            assert a.mul(b + c) == a.mul(b) + a.mul(c)

    def test_truncated_mul_is_congruence(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(0, 4)
            a = random_poly(rng, Z2, max_deg=2 * d if d else 2)
            b = random_poly(rng, Z2, max_deg=2 * d if d else 2)
            assert a.mul(b, trunc=d) == a.mul(b).truncate_z(d)


class TestPublicSurface:
    @pytest.mark.parametrize("exps", [(1.5, 0), (True, 0), ("1", 0)],
                             ids=["float", "bool", "str"])
    def test_non_int_exponent_refused(self, exps):
        with pytest.raises(ContractViolation):
            SparsePoly(Z2, {exps: 1})

    def test_bool_coefficient_refused(self):
        with pytest.raises(ContractViolation):
            SparsePoly(Z2, {(1, 0): True})

    def test_pickle_and_copy_round_trip(self):
        p = SparsePoly(XIZ2, {(1, 0, 0, 2): "1/2", (0, 0, 0, 0): 3})
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p

    def test_coeff_needs_full_length_exponent(self):
        p = zvar(Z2, 0)
        assert p.coeff((1, 0)) == 1
        for exps in [(1,), (1, 0, 0)]:
            with pytest.raises(ContractViolation):
                p.coeff(exps)


class TestCalculus:
    def test_power_rule(self):
        p = SparsePoly.monomial(Z2, (2, 1))  # z1^2 z2
        assert p.diff_z(0) == SparsePoly.monomial(Z2, (1, 1), 2)

    def test_constant_derivative(self):
        assert SparsePoly.const(Z2, Fraction(5, 3)).diff_z(0).is_zero

    def test_absent_variable(self):
        # d/d(xi2) of xi1*z2^2 is zero
        p = SparsePoly.monomial(XIZ2, (1, 0, 0, 2))
        assert p.diff(XIZ2.xi_index(1)).is_zero

    @pytest.mark.parametrize("index_into, size", [
        pytest.param(XIZ2.z_index, 2, id="z_index"),
        pytest.param(XIZ2.xi_index, 2, id="xi_index"),
        pytest.param(lambda i: SparsePoly.variable(XIZ2, i), 4, id="variable"),
        pytest.param(lambda i: zvar(Z2, 0).diff(i), 2, id="diff"),
    ])
    def test_index_out_of_range(self, index_into, size):
        for index in (-1, size):
            with pytest.raises(ContractViolation, match="out of range"):
                index_into(index)

    def test_diff_z_multi_matches_iterated(self):
        rng = random.Random(11)
        for _ in range(40):
            p = random_poly(rng, Z2, max_deg=4)
            a1, a2 = rng.randint(0, 2), rng.randint(0, 2)
            q = p
            for _ in range(a1):
                q = q.diff_z(0)
            for _ in range(a2):
                q = q.diff_z(1)
            assert p.diff_z_multi((a1, a2)) == q


class TestDegrees:
    def test_order_and_degree(self):
        p = SparsePoly.monomial(Z2, (2, 0)) + SparsePoly.monomial(Z2, (0, 5))
        assert p.order() == 2
        assert p.degree() == 5

    def test_zero_sentinels(self):
        z = SparsePoly.zero(Z2)
        assert z.order() == INF
        assert z.degree() == NEG_INF

    def test_z_degree_ignores_xi(self):
        # xi1^2 * z2 has z-degree 1
        p = SparsePoly.monomial(XIZ2, (2, 0, 0, 1))
        assert p.degree() == 1 and p.order() == 1

    def test_eta_values(self):
        assert SparsePoly.monomial(XIZ2, (1, 0, 0, 2)).eta() == 1  # xi1*z2^2
        assert SparsePoly.monomial(XIZ2, (1, 1, 0, 0)).eta() == -2  # xi1*xi2
        assert SparsePoly.zero(XIZ2).eta() == INF
        with pytest.raises(ContractViolation):
            SparsePoly.one(Z2).eta()

    def test_eta_superadditive_with_monomial_equality(self):
        rng = random.Random(13)
        for _ in range(80):
            p = random_poly(rng, XIZ2)
            q = random_poly(rng, XIZ2)
            pq = p.mul(q)
            if not pq.is_zero:
                assert pq.eta() >= p.eta() + q.eta()
        m1 = SparsePoly.monomial(XIZ2, (1, 0, 2, 0))
        m2 = SparsePoly.monomial(XIZ2, (0, 2, 0, 3))
        assert m1.mul(m2).eta() == m1.eta() + m2.eta()


class TestJacobianAndDet:
    def test_jacobian_triangular(self):
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))
        m = jacobian(h)
        assert m.entry(0, 0).is_zero
        assert m.entry(0, 1) == SparsePoly.monomial(Z2, (0, 1), 2)
        assert m.entry(1, 0).is_zero and m.entry(1, 1).is_zero

    def test_jacobian_identity(self):
        # I - t*J0 is the identity matrix over (z, t)
        m = jacobian(MapTuple.identity(VarSet.zt(2)))
        assert m == deformation_matrix(MapTuple.exact((SparsePoly.zero(Z2),) * 2))

    def test_det_nilpotent_deformation(self):
        # det(I - t*JH) for H = (z2^2, 0) is 1
        zt = VarSet.zt(2)
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))
        assert det(deformation_matrix(h)) == SparsePoly.one(zt)

    def test_det_non_nilpotent_deformation(self):
        # H = (z1^2, 0): det(I - t*JH) = 1 - 2*t*z1
        zt = VarSet.zt(2)
        h = MapTuple.exact((SparsePoly.monomial(Z2, (2, 0)), SparsePoly.zero(Z2)))
        expected = SparsePoly.one(zt) - SparsePoly.monomial(zt, (1, 0, 1), 2)
        assert det(deformation_matrix(h)) == expected

    def test_det_identity(self):
        z3 = VarSet.z(3)
        m = deformation_matrix(MapTuple.exact((SparsePoly.zero(z3),) * 3))
        assert det(m) == SparsePoly.one(VarSet.zt(3))

    def test_det_does_not_nest_per_row(self):
        # far past the default recursion limit; one zero object fills every
        # off-diagonal entry, so the matrix is cheap to build
        vs, n = VarSet.z(1), 1100
        zero, diagonal = SparsePoly.zero(vs), SparsePoly.monomial(vs, (1,), 2)
        m = PolyMatrix([[diagonal if i == j else zero for j in range(n)] for i in range(n)])
        assert det(m) == SparsePoly.monomial(vs, (n,), 2 ** n)

    def test_cofactor_matches_bareiss_random(self):
        rng = random.Random(99)
        vs = VarSet.z(3)
        for _ in range(15):
            rows = tuple(tuple(random_poly(rng, vs, max_deg=2, max_terms=3, coeff_bound=3)
                               for _ in range(3)) for _ in range(3))
            m = PolyMatrix(rows)
            assert det(m) == _det_bareiss(m)
        # dim 5 over (z, t), of the nilpotency-certificate shape I - t*JH
        z5 = VarSet.z(5)
        for _ in range(3):
            comps = []
            for _ in range(5):
                acc = SparsePoly.zero(z5)
                for _ in range(4):
                    exps = [0] * 5
                    exps[rng.randrange(5)] += 1
                    exps[rng.randrange(5)] += 1
                    acc = acc + SparsePoly.monomial(z5, exps, rng.choice([-2, -1, 1, 2]))
                comps.append(acc)
            m = deformation_matrix(MapTuple.exact(tuple(comps)))
            assert det(m) == _det_bareiss(m)

    def test_exact_div_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_poly(rng, Z2, max_deg=3, max_terms=4)
            b = random_poly(rng, Z2, max_deg=3, max_terms=4)
            if b.is_zero:
                continue
            assert exact_div(a.mul(b), b) == a


class TestCompose:
    def test_polynomial_substitution(self):
        # u = z1^2, g = (z1 + z2^2, z2): expand by hand
        u = SparsePoly.monomial(Z2, (2, 0))
        g = MapTuple.exact((zvar(Z2, 0) + SparsePoly.monomial(Z2, (0, 2)), zvar(Z2, 1)))
        got = compose(u, g, 4)
        expected = (SparsePoly.monomial(Z2, (2, 0))
                    + SparsePoly.monomial(Z2, (1, 2), 2)
                    + SparsePoly.monomial(Z2, (0, 4)))
        assert got == expected

    def test_identity_substitution(self):
        rng = random.Random(3)
        for _ in range(20):
            u = random_poly(rng, Z2, max_deg=5)
            got = compose(u, MapTuple.identity(Z2), 3)
            assert got == u.truncate_z(3)

    def test_truncation_interplay_one_var(self):
        # composing z+z^2 with z-z^2 at D=3 leaves z - 2z^3, not z
        v1 = VarSet.z(1)
        z = SparsePoly.z_var(v1, 0)
        g = MapTuple.truncated((z + z.power(2),), 3)
        f = MapTuple.truncated((z - z.power(2),), 3)
        inner = compose(z, g, 3)
        outer = compose(inner, f, 3)
        assert outer == z - z.power(3).scale(2)

    def test_series_needs_constant_free_map(self):
        v1 = VarSet.z(1)
        z = SparsePoly.z_var(v1, 0)
        h = MapTuple.truncated((z + z.power(2),), 4)
        g_bad = MapTuple.exact((z + SparsePoly.one(v1),))
        with pytest.raises(CompositionError):
            compose_map(h, g_bad, 3)
        # exact polynomial u composes fine with the same map
        got = compose(z.power(2), g_bad, 4)
        assert got == (z + SparsePoly.one(v1)).power(2)

    def test_insufficient_truncation_rejected(self):
        v1 = VarSet.z(1)
        z = SparsePoly.z_var(v1, 0)
        g = MapTuple.truncated((z + z.power(2),), 2)
        with pytest.raises(TruncationError):
            compose(z, g, 5)

    def test_t_passthrough(self):
        zt = VarSet.zt(1)
        z = SparsePoly.z_var(zt, 0)
        t = SparsePoly.t_var(zt)
        u = t.mul(z)  # t*z1
        g = MapTuple.exact((z + t.mul(z.power(2)),))
        got = compose(u, g, 3)
        assert got == t.mul(z) + t.power(2).mul(z.power(2))


class TestSeriesAndMapTypes:
    def test_map_validates_layout(self):
        with pytest.raises(ContractViolation):
            MapTuple.exact((SparsePoly.one(Z2),))  # wrong component count
        with pytest.raises(ContractViolation):
            MapTuple.exact((SparsePoly.one(XIZ2), SparsePoly.one(XIZ2)))

    def test_xi_pairing(self):
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))
        p = xi_pairing(h)
        assert p == SparsePoly.monomial(XIZ2, (1, 0, 0, 2))
        assert p.eta() == 1

    def test_xi_pairing_matches_products(self):
        rng = random.Random(19)
        for vs in (Z2, VarSet.zt(2)):
            h = MapTuple.exact(tuple(random_poly(rng, vs) for _ in range(2)))
            target = vs.with_xi()
            want = sum((SparsePoly.xi_var(target, i) * hi.lift(target)
                        for i, hi in enumerate(h)), SparsePoly.zero(target))
            assert xi_pairing(h) == want


class TestValueEquality:
    """The value types compare by their fields and, holding polynomials, stay unhashable."""

    Z1 = VarSet.z(1)

    def cases(self):
        z = SparsePoly.z_var(self.Z1, 0)
        z2 = z.power(2)
        # (value, an equal value built apart, values that differ in one field)
        yield (MapTuple.truncated((z2,), 3), MapTuple((z * z,), 3),
               [MapTuple((z2 + z,), 3), MapTuple((z2,), 4), MapTuple.exact((z2,))])
        yield (PolyMatrix(((z2,),)), PolyMatrix(((z * z,),)), [PolyMatrix(((z,),))])

    def test_equal_fields_compare_equal(self):
        for value, same, _ in self.cases():
            assert value == same and not value != same

    def test_a_different_field_compares_unequal(self):
        for value, _, others in self.cases():
            for other in others:
                assert value != other and not value == other

    def test_another_type_compares_false(self):
        for value, _, _ in self.cases():
            assert (value == getattr(value, value.__slots__[0])) is False
            assert (value == 0) is False

    def test_unhashable(self):
        for value, _, _ in self.cases():
            with pytest.raises(TypeError):
                hash(value)


class TestSlicing:
    def test_drop_and_lift_roundtrip(self):
        rng = random.Random(21)
        for _ in range(20):
            p = random_poly(rng, Z2)
            lifted = p.lift(VarSet.xizt(2))
            assert lifted.drop_xi() == p.lift(VarSet.zt(2))

    def test_xi_linear_component(self):
        p = (SparsePoly.monomial(XIZ2, (1, 0, 0, 2), 3)
             + SparsePoly.monomial(XIZ2, (0, 1, 1, 0)))
        assert p.xi_linear_component(0) == SparsePoly.monomial(Z2, (0, 2), 3)
        assert p.xi_linear_component(1) == SparsePoly.monomial(Z2, (1, 0))


class TestRendering:
    def test_canonical_text(self):
        p = (SparsePoly.monomial(Z2, (2, 0))
             - SparsePoly.monomial(Z2, (0, 1), Fraction(3, 2))
             + SparsePoly.const(Z2, 1))
        assert render_poly(p) == "z1^2 - 3/2*z2 + 1"
        assert render_poly(SparsePoly.zero(Z2)) == "0"

    def test_rendering_is_deterministic(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_poly(rng, XIZ2)
            q = SparsePoly(p.vars, dict(reversed(list(p.items()))))
            assert render_poly(p) == render_poly(q)

    def test_first_difference(self):
        p = zvar(Z2, 0) + SparsePoly.const(Z2, 1)
        q = zvar(Z2, 0)
        e, a, b = first_difference(p, q)
        assert e == (0, 0) and a == 1 and b == 0
        assert first_difference(p, p) is None


class TestKernelBoundary:
    def test_storage_private_to_poly(self):
        # the packed storage and its internal constructors belong to poly.py alone
        private = re.compile(r"\b(_terms|_den|_make|_reduced|_Packing|_pk|_LAYOUTS)\b")
        package = Path(agcalc.__file__).parent
        touching = sorted(path.name for path in package.glob("*.py")
                          if path.name != "poly.py"
                          and private.search(path.read_text(encoding="utf-8")))
        assert touching == []

    def test_reference_kernels_not_exported(self):
        assert not hasattr(agcalc, "exact_div")

    def test_runtime_imports_are_stdlib(self):
        # agcalc runs on the standard library alone; relative imports stay inside it
        package = Path(agcalc.__file__).parent
        outside = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                outside.update(f"{path.name}: {name}" for name in names
                               if name.partition(".")[0] not in sys.stdlib_module_names)
        assert sorted(outside) == []
