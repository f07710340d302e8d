"""The three inversion routes and the identities tying them together."""

import itertools
import random
from fractions import Fraction

import pytest

import agcalc.inversion
from agcalc.errors import (
    AgcalcError,
    ContractViolation,
    ConvergenceViolation,
    PreconditionError,
    TruncationError,
)
from agcalc.inversion import (
    ABHYANKAR_GURJAR,
    FIXED_POINT,
    LAMBDA_SERIES,
    METHODS,
    InversionResult,
    ag_jacobian_identity,
    cross_method_results,
    f_from_h,
    invert_ag,
    invert_fixed_point,
    invert_lambda,
    jacobian_factor,
    route_agreement,
    verify_phi_exponential,
    verify_round_trip,
    xi_moment_series,
)
from agcalc.poly import (
    MapTuple,
    SparsePoly,
    VarSet,
    compose,
    det,
    jacobian,
    xi_pairing,
)
from poly_reference import exact_div

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def one_var_square():
    """H = z^2 in one variable; G is the Catalan generating series."""
    return MapTuple.exact((SparsePoly.monomial(Z1, (2,)),))


def catalan_series(bound):
    z = SparsePoly.z_var(Z1, 0)
    acc = SparsePoly.zero(Z1)
    for k in range(bound):
        acc = acc + z.power(k + 1).scale(CATALAN[k])
    return acc


def triangular_2d():
    """H = (z2^2, 0); the inverse is (z1 + z2^2, z2) exactly."""
    return MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))


def random_h(rng, n, trunc=None, min_order=2, max_deg=4, terms=3):
    vs = VarSet.z(n)
    comps = []
    for _ in range(n):
        t = {}
        for _ in range(rng.randint(1, terms)):
            d = rng.randint(min_order, max_deg)
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            c = rng.randint(-2, 2)
            if c:
                t[tuple(exps)] = t.get(tuple(exps), Fraction(0)) + Fraction(c)
        comps.append(SparsePoly(vs, t))
    if trunc is None:
        return MapTuple.exact(tuple(comps))
    return MapTuple.truncated(tuple(comps), trunc)


class TestFixedPoint:
    def test_catalan_to_degree_five(self):
        res = invert_fixed_point(one_var_square(), 5)
        assert res.G.components[0] == catalan_series(5)
        assert res.method == FIXED_POINT

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z1),))
        res = invert_fixed_point(h, 4)
        assert res.G == MapTuple.identity(Z1, 4)
        assert res.N.components[0].is_zero

    def test_triangular(self):
        res = invert_fixed_point(triangular_2d(), 4)
        expected = (SparsePoly.z_var(Z2, 0) + SparsePoly.monomial(Z2, (0, 2)),
                    SparsePoly.z_var(Z2, 1))
        assert res.G.components == expected

    def test_order_precondition(self):
        h = MapTuple.exact((SparsePoly.z_var(Z1, 0),))  # order 1
        with pytest.raises(PreconditionError):
            invert_fixed_point(h, 3)

    def test_trunc_precondition(self):
        h = MapTuple.truncated((SparsePoly.monomial(Z1, (2,)),), 3)
        with pytest.raises(TruncationError):
            invert_fixed_point(h, 4)


class TestDerivativeSumRoute:
    def test_hand_computed_degree_three(self):
        res = invert_ag(one_var_square(), 3)
        z = SparsePoly.z_var(Z1, 0)
        assert res.G.components[0] == z + z.power(2) + z.power(3).scale(2)

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        assert invert_ag(h, 3).G == MapTuple.identity(Z2, 3)

    def test_triangular_matches_oracle(self):
        res = invert_ag(triangular_2d(), 4)
        assert res.G == invert_fixed_point(triangular_2d(), 4).G

    def test_jacobian_factor(self):
        # H = z^2: JF = 1 - 2z
        jf = jacobian_factor(one_var_square(), 5)
        z = SparsePoly.z_var(Z1, 0)
        assert jf == SparsePoly.one(Z1) - z.scale(2)

    def test_series_known_to_the_output_degree(self):
        h = MapTuple.truncated((SparsePoly.monomial(Z1, (2,)),), 4)
        for route in (invert_ag, invert_lambda):
            with pytest.raises(TruncationError, match="needs >= 5"):
                route(h, 5)
            assert route(h, 4).G.components[0] == catalan_series(4)

    def test_debug_mode_checks_discards(self):
        res = invert_ag(one_var_square(), 4)
        assert res.checked_discards > 0
        assert res.G.components[0] == catalan_series(4)

    def test_checked_discards_per_route(self):
        # o(H) = 2 and D = 5, so route 2 stops at |alpha| = 3 and checks one
        # discard per multi-index of |alpha| = 4: 5 of them for n = 2, 15 for
        # n = 3; route 3 stops at m = 3 and checks its one term m = 4
        z3 = VarSet.z(3)
        upper_3d = MapTuple.exact((SparsePoly.monomial(z3, (0, 1, 1)),
                                   SparsePoly.monomial(z3, (0, 0, 2)), SparsePoly.zero(z3)))
        for h, per_multi_index in ((triangular_2d(), 5), (upper_3d, 15)):
            assert invert_ag(h, 5).checked_discards == per_multi_index
            assert invert_lambda(h, 5).checked_discards == 1

    def test_shared_loop_builds_no_shell_past_the_last(self):
        asked = []

        def shells():
            for a in itertools.count():
                asked.append(a)
                yield [(SparsePoly.zero(Z1), Fraction(1, a + 1))] * (a + 1)

        total, checked = agcalc.inversion._sum_shells(shells(), Z1, 3, 3, where="term at a")
        assert (total, checked, asked) == (SparsePoly.zero(Z1), 5, [0, 1, 2, 3, 4])


def compose_by_derivative_sum(u, h, bound):
    # u(G) by the paper's derivative sum, sum_alpha d^alpha(u H^alpha JF) / alpha!
    return agcalc.inversion._derivative_sum(u, h, bound, jf=jacobian_factor(h, bound))[0]


def compose_by_phase_series(q, h, bound):
    # q(G) by the k = 0 phase series, sum_m lambda^m(q P^m JF) / (m!)^2
    return agcalc.inversion._lambda_sum(q, h, bound, k=0,
                                        jf=jacobian_factor(h, bound))[0].drop_xi()


class TestAgApply:
    def test_u_equals_z_reduces_to_inversion(self):
        got = compose_by_derivative_sum(SparsePoly.z_var(Z1, 0), one_var_square(), 4)
        assert got == invert_ag(one_var_square(), 4).G.components[0]

    def test_square_of_catalan(self):
        # u = z^2 composed with G: z^2 + 2z^3 + 5z^4 mod degree > 4
        got = compose_by_derivative_sum(SparsePoly.monomial(Z1, (2,)), one_var_square(), 4)
        z = SparsePoly.z_var(Z1, 0)
        assert got == z.power(2) + z.power(3).scale(2) + z.power(4).scale(5)

    def test_constants_fixed(self):
        got = compose_by_derivative_sum(SparsePoly.const(Z1, Fraction(3, 7)), one_var_square(), 4)
        assert got == SparsePoly.const(Z1, Fraction(3, 7))

    def test_matches_oracle_composition(self):
        rng = random.Random(41)
        for _ in range(8):
            h = random_h(rng, 2, max_deg=3)
            u = SparsePoly.monomial(Z2, (1, 1)) + SparsePoly.z_var(Z2, 0)
            got = compose_by_derivative_sum(u, h, 5)
            oracle = invert_fixed_point(h, 5)
            assert got == compose(u, oracle.G, 5)

    def test_series_u_accepted_at_matching_trunc(self):
        u = (SparsePoly.z_var(Z1, 0) + SparsePoly.monomial(Z1, (3,))).truncate_z(4)
        got = compose_by_derivative_sum(u, one_var_square(), 4)
        oracle = invert_fixed_point(one_var_square(), 4)
        assert got == compose(u, oracle.G, 4)

    def test_u_over_another_layout_refused(self):
        # u must live over the map's layout (the series lift it only into the
        # xi-extension of that layout), never into a t-layout or another n
        h = triangular_2d()
        for u in (SparsePoly.z_var(VarSet.zt(2), 0), SparsePoly.z_var(VarSet.z(3), 0),
                  SparsePoly.z_var(Z1, 0)):
            with pytest.raises(ContractViolation):
                compose_by_derivative_sum(u, h, 4)
            with pytest.raises(ContractViolation):
                compose_by_phase_series(u, h, 4)


class TestAgJacobianIdentity:
    def test_central_binomials(self):
        # u = 1, H = z^2: both sides equal JG = 1 + 2z + 6z^2 + 20z^3
        rep = ag_jacobian_identity(SparsePoly.one(Z1), one_var_square(), 3,
                                   invert_fixed_point(one_var_square(), 4))
        assert rep.passed
        z = SparsePoly.z_var(Z1, 0)
        expected = (SparsePoly.one(Z1) + z.scale(2) + z.power(2).scale(6)
                    + z.power(3).scale(20))
        assert rep.lhs == expected

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z1),))
        rep = ag_jacobian_identity(SparsePoly.one(Z1), h, 3, invert_fixed_point(h, 4))
        assert rep.passed and rep.lhs == SparsePoly.one(Z1)

    def test_triangular_with_u_z1(self):
        rep = ag_jacobian_identity(SparsePoly.z_var(Z2, 0), triangular_2d(), 4,
                                   invert_fixed_point(triangular_2d(), 5))
        assert rep.passed
        # JG = 1 for the triangular map, so the common value is G_1
        assert rep.lhs == SparsePoly.z_var(Z2, 0) + SparsePoly.monomial(Z2, (0, 2))

    def test_random_maps(self):
        rng = random.Random(43)
        for _ in range(6):
            h = random_h(rng, 2, max_deg=3)
            u = SparsePoly.z_var(Z2, 1) + SparsePoly.const(Z2, 2)
            assert ag_jacobian_identity(u, h, 4, invert_fixed_point(h, 5)).passed


class TestLambdaSeriesRoute:
    def test_catalan(self):
        res = invert_lambda(one_var_square(), 3)
        z = SparsePoly.z_var(Z1, 0)
        assert res.G.components[0] == z + z.power(2) + z.power(3).scale(2)
        assert res.method == LAMBDA_SERIES

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z1),))
        assert invert_lambda(h, 4).G == MapTuple.identity(Z1, 4)

    def test_triangular(self):
        res = invert_lambda(triangular_2d(), 4)
        assert res.G == invert_fixed_point(triangular_2d(), 4).G

    def test_debug_discards(self):
        res = invert_lambda(one_var_square(), 5)
        assert res.checked_discards > 0
        assert res.G.components[0] == catalan_series(5)


class TestLambdaCompose:
    def test_square_example(self):
        got = compose_by_phase_series(SparsePoly.monomial(Z1, (2,)), one_var_square(), 4)
        z = SparsePoly.z_var(Z1, 0)
        assert got == z.power(2) + z.power(3).scale(2) + z.power(4).scale(5)

    def test_constant(self):
        got = compose_by_phase_series(SparsePoly.one(Z2), triangular_2d(), 4)
        assert got == SparsePoly.one(Z2)

    def test_z1_on_triangular(self):
        got = compose_by_phase_series(SparsePoly.z_var(Z2, 0), triangular_2d(), 4)
        assert got == SparsePoly.z_var(Z2, 0) + SparsePoly.monomial(Z2, (0, 2))

    def test_agrees_with_oracle(self):
        rng = random.Random(47)
        for _ in range(6):
            h = random_h(rng, 2, max_deg=3)
            q = SparsePoly.monomial(Z2, (0, 2)) - SparsePoly.z_var(Z2, 0)
            oracle = invert_fixed_point(h, 5)
            assert compose_by_phase_series(q, h, 5) == compose(q, oracle.G, 5)


class TestCrossMethod:
    def test_three_routes_coincide(self):
        rng = random.Random(53)
        cases = [one_var_square(), triangular_2d()]
        cases += [random_h(rng, 2, max_deg=3) for _ in range(4)]
        cases += [random_h(rng, 3, max_deg=3) for _ in range(2)]
        for h in cases:
            results = cross_method_results(h, 6)
            base = results[FIXED_POINT]
            assert results[ABHYANKAR_GURJAR].G == base.G
            assert results[LAMBDA_SERIES].G == base.G
            assert verify_round_trip(h, base).passed

    def test_route_agreement_names_first_mismatch(self):
        results = cross_method_results(triangular_2d(), 4)
        assert route_agreement(results).passed
        bad = results[LAMBDA_SERIES]
        comps = (bad.G.components[0], bad.G.components[1] - SparsePoly.monomial(Z2, (0, 3)))
        results[LAMBDA_SERIES] = InversionResult(MapTuple(comps, bad.G.trunc), bad.N, bad.method,
                                                 bad.D, bad.checked_discards)
        rep = route_agreement(results)
        assert not rep.passed
        assert rep.witness == "lambda_series component 2: z2^3: -1 vs 0"
        assert rep.check.status == "fail" and rep.check.witness == rep.witness

    def test_routes_do_not_call_the_oracle(self, monkeypatch):
        # the routes' agreement is evidence only while each stands alone
        rng = random.Random(61)
        cases = [one_var_square(), triangular_2d(), random_h(rng, 2, max_deg=3),
                 random_h(rng, 3, max_deg=3), random_h(rng, 2, trunc=8, max_deg=5)]
        expected = [invert_fixed_point(h, 6).G for h in cases]

        def oracle_called(*args, **kwargs):
            raise AssertionError("an inversion route called the fixed-point oracle")

        monkeypatch.setattr(agcalc.inversion, "invert_fixed_point", oracle_called)
        for h, g in zip(cases, expected):
            assert invert_ag(h, 6).G == g
            assert invert_lambda(h, 6).G == g

    def test_routes_do_not_call_each_other(self, monkeypatch):
        # route 2 never forms a phase-space power, route 3 never a derivative sum
        rng = random.Random(61)
        cases = [one_var_square(), triangular_2d(), random_h(rng, 3, max_deg=3),
                 random_h(rng, 2, trunc=8, max_deg=5)]
        expected = [invert_fixed_point(h, 6).G for h in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("an inversion route called another route's series")

        with monkeypatch.context() as patch:
            patch.setattr(agcalc.inversion, "lambda_pow", forbidden)
            for h, g in zip(cases, expected):
                assert invert_ag(h, 6).G == g
        with monkeypatch.context() as patch:
            patch.setattr(agcalc.inversion, "_derivative_sum", forbidden)
            for h, g in zip(cases, expected):
                assert invert_lambda(h, 6).G == g

    def test_series_truncated_input(self):
        rng = random.Random(59)
        cases = [(random_h(rng, 2, trunc=8, max_deg=5), 7)]
        # known to exactly D + 1: the terms of degree D + 2 and D + 3 are cut
        # off, those of degree D + 1 kept
        low = random_h(rng, 3, max_deg=6, terms=6)
        high = random_h(rng, 3, min_order=7, max_deg=8)
        cases.append((MapTuple.truncated(tuple(a + b for a, b in zip(low, high)), 6), 5))
        for h, bound in cases:
            results = cross_method_results(h, bound, debug=True)
            assert results[ABHYANKAR_GURJAR].G == results[FIXED_POINT].G
            assert results[LAMBDA_SERIES].G == results[FIXED_POINT].G

    def test_series_known_to_exactly_d(self):
        # with JF cut at D - 2 the series routes read H only to z-degree D, so
        # a map known to exactly D is enough; its cut-off terms of degree up
        # to D + 3 would move the window if any route read past D
        rng = random.Random(71)
        for n in (1, 2, 3) * 4:
            bound = rng.randint(2, 6)
            full = random_h(rng, n, max_deg=bound + 3, terms=4)
            h = MapTuple.truncated(full.components, bound)
            want = invert_fixed_point(full, bound).G
            results = cross_method_results(h, bound, debug=True)
            assert [results[m].G for m in METHODS] == [want] * 3

    def test_n_tail_order(self):
        rng = random.Random(61)
        for _ in range(5):
            h = random_h(rng, 2)
            res = invert_fixed_point(h, 5)
            assert res.N.order() >= 2

    def test_mutually_inverse_composition_collapses(self):
        # compose(compose(u, G, D), F, D) == u truncated at D
        h = triangular_2d()
        res = invert_fixed_point(h, 5)
        f_map = f_from_h(h)
        u = SparsePoly.monomial(Z2, (2, 1)) + SparsePoly.z_var(Z2, 1)
        inner = compose(u, res.G, 5)
        outer = compose(inner, f_map, 5)
        assert outer == u.truncate_z(5)

    def test_series_pad_by_the_least_measured_order(self):
        # inputs of orders 0, 1 and 3 and a zero one, one at a time: each sum
        # measures o(u) for its cutoff and is still u(G)
        h = random_h(random.Random(67), 2)
        oracle, jf = invert_fixed_point(h, 5), jacobian_factor(h, 5)
        z1, z2 = SparsePoly.z_var(Z2, 0), SparsePoly.z_var(Z2, 1)
        for u in (z2 + SparsePoly.one(Z2), z1, z1 * z1 * z2, SparsePoly.zero(Z2)):
            want = compose(u, oracle.G, 5)
            ag, _ = agcalc.inversion._derivative_sum(u, h, 5, jf=jf)
            lam, _ = agcalc.inversion._lambda_sum(u, h, 5, k=0, jf=jf)
            assert ag == want
            assert lam.drop_xi() == want


class TestSharedJacobianFactor:
    """One JF per map, read by both series routes only to z-degree D - 2."""

    def test_one_det_per_cross_method_results(self, monkeypatch):
        calls = []
        counted = agcalc.inversion.det

        def counting(m, trunc=None):
            calls.append(trunc)
            return counted(m, trunc)

        monkeypatch.setattr(agcalc.inversion, "det", counting)
        h = MapTuple.exact(tuple(SparsePoly(VarSet.z(3), c) for c in WORK_MAP))
        assert route_agreement(cross_method_results(h, 5, debug=True)).passed
        assert calls == [3]

    def test_routes_compute_jf_at_the_same_cut(self):
        rng = random.Random(71)
        for h in (one_var_square(), random_h(rng, 2), random_h(rng, 3, max_deg=3)):
            results = cross_method_results(h, 5, debug=True)
            assert invert_ag(h, 5) == results[ABHYANKAR_GURJAR]
            assert invert_lambda(h, 5) == results[LAMBDA_SERIES]

    def test_debug_keyword_is_unread(self):
        rng = random.Random(89)
        for h in (one_var_square(), random_h(rng, 2), random_h(rng, 3, max_deg=3)):
            results = cross_method_results(h, 5)
            assert cross_method_results(h, 5, debug=False) == results
            assert results[ABHYANKAR_GURJAR].checked_discards == invert_ag(h, 5).checked_discards
            assert results[LAMBDA_SERIES].checked_discards == 1

    def test_perturbed_jf_fails_route_agreement(self):
        # H = z^2, D = 5: a term c z^3 of JF (degree D - 2) reaches both series
        # routes through their first product, <xi, H> * JF, as c z^5; the
        # oracle never reads JF, so the agreement check names that monomial
        h = one_var_square()
        results = cross_method_results(
            h, 5, jf=jacobian_factor(h, 3) + SparsePoly.monomial(Z1, (3,)))
        rep = route_agreement(results)
        assert not rep.passed
        assert rep.witness == "abhyankar_gurjar component 1: z1^5: 15 vs 14"
        results[ABHYANKAR_GURJAR] = invert_ag(h, 5)
        assert route_agreement(results).witness == "lambda_series component 1: z1^5: 15 vs 14"

    def test_jf_above_the_cut_is_never_read(self):
        rng = random.Random(73)
        for h in (one_var_square(), random_h(rng, 2), random_h(rng, 3, max_deg=3)):
            z1 = SparsePoly.z_var(h.vars, 0)
            junk = z1.power(4).scale(7) + z1.power(9)  # z-degree above D - 2 = 3
            want = cross_method_results(h, 5, debug=True)
            got = cross_method_results(h, 5, debug=True, jf=jacobian_factor(h, 5) + junk)
            assert got == want

    @pytest.mark.parametrize("bound", [1, 2])
    def test_cut_at_zero(self, bound):
        # D - 2 <= 0: JF is read only through its constant term, 1
        rng = random.Random(79)
        cases = [one_var_square(), triangular_2d(), random_h(rng, 2), random_h(rng, 3)]
        for h in cases:
            assert jacobian_factor(h, max(bound - 2, 0)) == SparsePoly.one(h.vars)
            results = cross_method_results(h, bound, debug=True)
            assert route_agreement(results).passed
            assert results[FIXED_POINT].G == invert_fixed_point(h, bound).G
            for method in (ABHYANKAR_GURJAR, LAMBDA_SERIES):
                assert results[method].checked_discards >= 1

    def test_deeper_oracle_stands_in_for_route_one(self):
        rng = random.Random(83)
        for h in (one_var_square(), triangular_2d(), random_h(rng, 3, max_deg=3)):
            deep = invert_fixed_point(h, 6)
            assert cross_method_results(h, 4, oracle=deep) == cross_method_results(h, 4)

    def test_shared_inputs_checked(self):
        h = triangular_2d()
        with pytest.raises(ContractViolation, match="oracle must be the fixed-point inverse"):
            cross_method_results(h, 4, oracle=invert_fixed_point(h, 3))
        with pytest.raises(ContractViolation, match="oracle must be the fixed-point inverse"):
            cross_method_results(h, 4, oracle=invert_ag(h, 5))
        with pytest.raises(ContractViolation, match="JF over z"):
            invert_lambda(h, 4, jf=jacobian_factor(one_var_square(), 4))

    def test_phase_term_of_mixed_xi_degree_refused(self, monkeypatch):
        # a term with an xi-free part beside its xi-degree-1 part has maximal
        # xi-degree 1, but xi_linear_component would drop that part unseen
        lambda_pow = agcalc.inversion.lambda_pow

        def mixed(base, m):
            term = lambda_pow(base, m)
            return term + SparsePoly.z_var(term.vars, 0).power(2)

        monkeypatch.setattr(agcalc.inversion, "lambda_pow", mixed)
        with pytest.raises(AgcalcError, match="xi-degree other than 1"):
            invert_lambda(one_var_square(), 4)


class TestFailingChecks:
    """Each check below must fail when its identity does not hold."""

    def order_one_tail(self):
        # H = z1/2 breaks the cutoff argument (it needs o(H) >= 2), so the
        # first discarded term still reaches degree <= bound
        return MapTuple.exact((SparsePoly.monomial(Z1, (1,), Fraction(1, 2)),))

    def test_derivative_sum_discard_check(self):
        u, h = SparsePoly.z_var(Z1, 0), self.order_one_tail()
        jf = jacobian_factor(h, 3)
        with pytest.raises(ConvergenceViolation,
                           match=r"term at \|alpha\|=3 has order <= 3: 1/4\*z1$"):
            agcalc.inversion._derivative_sum(u, h, 3, jf=jf)

    def test_derivative_sum_discard_check_in_a_multi_index_shell(self):
        # n = 2, H = (z2/2, z1/2): of the four multi-indices of the discarded
        # shell |alpha| = 3, only alpha = (2, 1) leaves a term
        half = Fraction(1, 2)
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 1), half),
                            SparsePoly.monomial(Z2, (1, 0), half)))
        u, jf = SparsePoly.z_var(Z2, 0), jacobian_factor(h, 3)
        with pytest.raises(ConvergenceViolation,
                           match=r"term at \|alpha\|=3 has order <= 3: 3/16\*z2$"):
            agcalc.inversion._derivative_sum(u, h, 3, jf=jf)

    def test_phase_series_discard_check(self):
        u, h = SparsePoly.z_var(Z1, 0), self.order_one_tail()
        jf = jacobian_factor(h, 3)
        with pytest.raises(ConvergenceViolation,
                           match=r"term at m=3 has order <= 3: 1/4\*z1$"):
            agcalc.inversion._lambda_sum(u, h, 3, k=0, jf=jf)

    def test_round_trip_names_first_difference(self):
        h = one_var_square()
        res = invert_fixed_point(h, 4)
        perturbed = (res.G.components[0] + SparsePoly.monomial(Z1, (3,)),)
        rep = verify_round_trip(h, InversionResult(MapTuple(perturbed, res.G.trunc), res.N,
                                                   res.method, res.D, res.checked_discards))
        assert rep.name == "round trip F(G) == z == G(F)"
        assert rep.witness == "component 1 of F(G): z1^3: 1 vs 0"
        assert rep.check.status == "fail"


class TestChainRule:
    def test_jf_of_g_times_jg_is_one(self):
        rng = random.Random(67)
        for h in [one_var_square(), triangular_2d(),
                  random_h(rng, 2, max_deg=3), random_h(rng, 3, max_deg=3)]:
            bound = 5
            oracle = invert_fixed_point(h, bound + 1)
            jf = jacobian_factor(h, bound)
            jf_of_g = compose(jf, oracle.G, bound)
            jg = det(jacobian(oracle.G), trunc=bound)
            prod = jf_of_g.mul(jg, trunc=bound)
            assert prod == SparsePoly.one(h.vars)


class TestXiMoments:
    def test_k0_reduces_to_compose(self):
        q = SparsePoly.z_var(Z2, 0)
        got = xi_moment_series(triangular_2d(), q, 0, 4, jf=jacobian_factor(triangular_2d(), 4))
        assert got.drop_xi() == compose(q, invert_fixed_point(triangular_2d(), 4).G, 4)

    def test_k1_reads_off_n(self):
        got = xi_moment_series(one_var_square(), SparsePoly.one(Z1), 1, 3,
                               jf=jacobian_factor(one_var_square(), 3))
        # equals xi * N(z) with N = z^2 + 2z^3 mod degree > 3
        oracle = invert_fixed_point(one_var_square(), 3)
        expected = xi_pairing(oracle.N)
        assert got == expected

    def test_k2_triangular(self):
        got = xi_moment_series(triangular_2d(), SparsePoly.one(Z2), 2, 4,
                               jf=jacobian_factor(triangular_2d(), 4))
        xiz = VarSet.xiz(2)
        assert got == SparsePoly.monomial(xiz, (2, 0, 0, 4))

    def test_matches_oracle_product(self):
        rng = random.Random(71)
        for _ in range(4):
            h = random_h(rng, 2, max_deg=3)
            q = SparsePoly.one(Z2) + SparsePoly.z_var(Z2, 0)
            bound = 5
            for k in range(3):
                got = xi_moment_series(h, q, k, bound, jf=jacobian_factor(h, bound))
                oracle = invert_fixed_point(h, bound)
                target = VarSet.xiz(2)
                q_of_g = compose(q, oracle.G, bound).lift(target)
                xi_n = xi_pairing(oracle.N)
                expected = q_of_g.mul(xi_n.power(k, trunc=bound), trunc=bound)
                assert got == expected

    def test_moment_consistency_by_exact_division(self):
        # result(k=2, q=1) * qG == result(k=1, q=1)^2 where qG = result(k=0, q=1)
        h = triangular_2d()
        bound = 6
        one, jf = SparsePoly.one(Z2), jacobian_factor(h, bound)
        m0 = xi_moment_series(h, one, 0, bound, jf=jf)
        m1 = xi_moment_series(h, one, 1, bound, jf=jf)
        m2 = xi_moment_series(h, one, 2, bound, jf=jf)
        # triangular inverse is polynomial of low degree, so this is exact
        assert m1.mul(m1) == m2.mul(m0)
        assert exact_div(m1.mul(m1), m2) == m0

    def test_negative_k_rejected(self):
        with pytest.raises(ContractViolation):
            xi_moment_series(triangular_2d(), SparsePoly.one(Z2), -1, 3,
                             jf=jacobian_factor(triangular_2d(), 3))


class TestPhiExponential:
    def test_triangular_window(self):
        rep = verify_phi_exponential(triangular_2d(), SparsePoly.one(Z2), 2, 4,
                                     invert_fixed_point(triangular_2d(), 5),
                                     jf=jacobian_factor(triangular_2d(), 4))
        assert rep.passed
        xiz = VarSet.xiz(2)
        expected = (SparsePoly.one(xiz)
                    + SparsePoly.monomial(xiz, (1, 0, 0, 2))
                    + SparsePoly.monomial(xiz, (2, 0, 0, 4), Fraction(1, 2)))
        assert rep.lhs == expected

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        q = SparsePoly.z_var(Z2, 0) + SparsePoly.const(Z2, 3)
        rep = verify_phi_exponential(h, q, 2, 4, invert_fixed_point(h, 5),
                                     jf=jacobian_factor(h, 4))
        assert rep.passed
        assert rep.lhs == q.lift(VarSet.xiz(2))

    def test_nonunit_jacobian_path(self):
        # H = z^2 in one variable has JF = 1 - 2z
        rep = verify_phi_exponential(one_var_square(), SparsePoly.one(Z1), 1, 3,
                                     invert_fixed_point(one_var_square(), 4),
                                     jf=jacobian_factor(one_var_square(), 3))
        assert rep.passed

    def test_random_maps_and_series_q(self):
        rng = random.Random(73)
        for _ in range(4):
            h = random_h(rng, 2, max_deg=3)
            q = (SparsePoly.one(Z2) + SparsePoly.monomial(Z2, (1, 1))).truncate_z(5)
            rep = verify_phi_exponential(h, q, 2, 5, invert_fixed_point(h, 6),
                                         jf=jacobian_factor(h, 5))
            assert rep.passed, rep.witness

    def test_negative_xi_bound_refused(self):
        h = triangular_2d()
        with pytest.raises(ContractViolation, match="xi-degree bound must be >= 0"):
            verify_phi_exponential(h, SparsePoly.one(Z2), -1, 4, invert_fixed_point(h, 4),
                                   jf=jacobian_factor(h, 4))

    def test_xi_bound_capped_at_z_bound(self):
        rep = verify_phi_exponential(triangular_2d(), SparsePoly.one(Z2), 9, 3,
                                     invert_fixed_point(triangular_2d(), 4),
                                     jf=jacobian_factor(triangular_2d(), 3))
        assert "xi<=3" in rep.name


class TestOracleArgument:
    """Both identity checkers take the fixed-point inverse deep enough for their window."""

    def test_ag_jacobian_identity_needs_fixed_point_to_bound_plus_1(self):
        h, u = triangular_2d(), SparsePoly.one(Z2)
        for wrong in (invert_ag(h, 5), invert_lambda(h, 5), invert_fixed_point(h, 5).G,
                      invert_fixed_point(h, 4), invert_fixed_point(one_var_square(), 5)):
            with pytest.raises(ContractViolation, match="fixed-point inverse to z-degree >= 5"):
                ag_jacobian_identity(u, h, 4, wrong)

    def test_verify_phi_exponential_needs_fixed_point_to_bound(self):
        h, q = triangular_2d(), SparsePoly.one(Z2)
        jf = jacobian_factor(h, 4)
        for wrong in (invert_ag(h, 5), invert_lambda(h, 5), invert_fixed_point(h, 5).G,
                      invert_fixed_point(h, 3), invert_fixed_point(one_var_square(), 4)):
            with pytest.raises(ContractViolation, match="fixed-point inverse to z-degree >= 4"):
                verify_phi_exponential(h, q, 2, 4, wrong, jf=jf)
        assert verify_phi_exponential(h, q, 2, 4, invert_fixed_point(h, 4), jf=jf).passed


# A fixed n=3 map with terms of z-degree 2..3 and rational coefficients.
WORK_MAP = (
    {(2, 0, 0): "1/2", (1, 1, 0): -2, (0, 1, 1): 3, (1, 0, 2): "-1/3", (0, 3, 0): 1,
     (1, 1, 1): "2/3"},
    {(0, 2, 0): -1, (1, 0, 1): "5/2", (0, 0, 2): 1, (2, 1, 0): "1/3", (0, 1, 2): -4},
    {(1, 1, 0): 2, (0, 2, 1): "-3/2", (2, 0, 1): 1, (0, 0, 3): "1/4", (1, 0, 1): -1,
     (3, 0, 0): 2},
)


class TestWorkCounts:
    def test_products_all_go_through_mul(self, monkeypatch):
        # every product of the three routes goes through SparsePoly.mul, the
        # method the benchmark's tracer wraps to count its work; a product
        # that bypasses it, or an extra one, changes these counts
        counts = {"calls": 0, "pairs": 0}
        mul = SparsePoly.mul

        def counting_mul(self, other, trunc=None):
            counts["calls"] += 1
            counts["pairs"] += self.nterms * other.nterms
            return mul(self, other, trunc)

        monkeypatch.setattr(SparsePoly, "mul", counting_mul)
        h = MapTuple.exact(tuple(SparsePoly(VarSet.z(3), c) for c in WORK_MAP))
        results = cross_method_results(h, 5, debug=True)
        assert route_agreement(results).passed
        assert counts == {"calls": 128, "pairs": 110842}

    def test_fixed_point_passes(self, monkeypatch):
        # one compose_map per pass of the oracle; sharing the monomial table
        # across components must not change how many passes it takes to freeze
        passes = []
        compose_map = agcalc.inversion.compose_map

        def counting(h, g, bound):
            passes.append(bound)
            return compose_map(h, g, bound)

        monkeypatch.setattr(agcalc.inversion, "compose_map", counting)
        h = MapTuple.exact(tuple(SparsePoly(VarSet.z(3), c) for c in WORK_MAP))
        invert_fixed_point(h, 5)
        assert passes == [5] * 5
