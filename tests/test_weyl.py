"""Operators as right total symbols: normal ordering, tau, and the phase exponential."""

import itertools
import random
from fractions import Fraction

import pytest

from agcalc.errors import ContractViolation
from agcalc.poly import MapTuple, SparsePoly, VarSet, jacobian, xi_pairing
from agcalc.weyl import (
    lambda_apply,
    lambda_pow,
    normal_order,
    phi_apply,
    verify_phi_normal_order,
)
from poly_reference import diffop, op_apply, op_mul, tau

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)
XIZ1 = VarSet.xiz(1)
XIZ2 = VarSet.xiz(2)


def partial(n, i):
    # d_i
    return SparsePoly.xi_var(VarSet.xiz(n), i)


def multiplication(a):
    # multiplication by the z-polynomial a
    return a.lift(VarSet.xiz(a.vars.n))


def euler_1d():
    # z1*d1
    return diffop(1, {(1,): SparsePoly.z_var(Z1, 0)})


def random_op(rng, n=2, max_alpha=3, max_deg=3):
    zvs = VarSet.z(n)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        alpha = tuple(rng.randint(0, max_alpha) for _ in range(n))
        if sum(alpha) > max_alpha:
            continue
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if c:
            coeff = SparsePoly.monomial(zvs, exps, c)
            terms[alpha] = terms.get(alpha, SparsePoly.zero(zvs)) + coeff
    return diffop(n, terms)


class TestSymbols:
    def test_right_symbol_euler(self):
        assert euler_1d() == SparsePoly.monomial(XIZ1, (1, 1))

    def test_right_symbol_of_one(self):
        # the symbol 1 is the identity operator
        u = SparsePoly.monomial(Z1, (3,)) + SparsePoly.const(Z1, 2)
        assert diffop(1, {(0,): SparsePoly.one(Z1)}) == SparsePoly.one(XIZ1)
        assert op_apply(SparsePoly.one(XIZ1), u, 5) == u

    def test_right_symbol_pure_derivative(self):
        # xi1^2 stands for d1^2
        got = op_apply(SparsePoly.monomial(XIZ1, (2, 0)), SparsePoly.monomial(Z1, (3,)), 5)
        assert got == SparsePoly.monomial(Z1, (1,), 6)


class TestNormalOrder:
    def test_one_step_leibniz(self):
        # left symbol xi1*z1 is d1 z1 = z1*d1 + 1
        f = SparsePoly.monomial(XIZ1, (1, 1))
        expected = diffop(1, {(1,): SparsePoly.z_var(Z1, 0), (0,): SparsePoly.one(Z1)})
        assert normal_order(f) == expected

    def test_two_step_leibniz(self):
        # left symbol xi1^2*z1 is d1^2 z1 = z1*d1^2 + 2*d1
        f = SparsePoly.monomial(XIZ1, (2, 1))
        expected = diffop(1, {(2,): SparsePoly.z_var(Z1, 0),
                              (1,): SparsePoly.const(Z1, 2)})
        assert normal_order(f) == expected

    def test_no_derivatives_is_multiplication(self):
        b = SparsePoly.monomial(XIZ1, (0, 3), Fraction(5, 2))
        assert normal_order(b) == multiplication(SparsePoly.monomial(Z1, (3,), Fraction(5, 2)))

    def test_refuses_a_non_symbol_layout(self):
        with pytest.raises(ContractViolation, match=r"\(xi, z\) layout"):
            normal_order(SparsePoly.one(Z1))


class TestComposition:
    def test_canonical_commutator(self):
        d1 = partial(1, 0)
        z1 = multiplication(SparsePoly.z_var(Z1, 0))
        assert op_mul(d1, z1) == diffop(1, {(1,): SparsePoly.z_var(Z1, 0),
                                            (0,): SparsePoly.one(Z1)})
        assert op_mul(z1, d1) == diffop(1, {(1,): SparsePoly.z_var(Z1, 0)})
        # [d_i, z_j] = delta_ij in two variables
        for i, j in itertools.product(range(2), repeat=2):
            di = partial(2, i)
            zj = multiplication(SparsePoly.z_var(Z2, j))
            comm = op_mul(di, zj) - op_mul(zj, di)
            expected = SparsePoly.one(XIZ2) if i == j else SparsePoly.zero(XIZ2)
            assert comm == expected

    def test_euler_squared(self):
        e = euler_1d()
        expected = diffop(1, {(2,): SparsePoly.monomial(Z1, (2,)),
                              (1,): SparsePoly.z_var(Z1, 0)})
        assert op_mul(e, e) == expected

    def test_associative_random(self):
        rng = random.Random(33)
        for _ in range(25):
            a, b, c = random_op(rng), random_op(rng), random_op(rng)
            assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))


class TestApply:
    def test_euler_counts_degree(self):
        u = SparsePoly.monomial(Z1, (3,))
        got = op_apply(euler_1d(), u, 5)
        assert got == u.scale(3)

    def test_d_after_multiply(self):
        # (d1 z1) applied to 1 gives 1
        op = normal_order(SparsePoly.monomial(XIZ1, (1, 1)))
        got = op_apply(op, SparsePoly.one(Z1), 4)
        assert got == SparsePoly.one(Z1)

    def test_apply_respects_composition(self):
        rng = random.Random(34)
        for _ in range(20):
            a, b = random_op(rng), random_op(rng)
            u_terms = {tuple(rng.randint(0, 3) for _ in range(2)): Fraction(rng.randint(-3, 3))
                       for _ in range(4)}
            u = SparsePoly(Z2, u_terms)
            bound = 3
            via_product = op_apply(op_mul(a, b), u, bound)
            inner = op_apply(b, u, bound + max(a.xi_degrees(), default=0))
            via_stages = op_apply(a, inner, bound)
            assert via_product == via_stages


class TestTau:
    def test_tau_euler(self):
        got = tau(euler_1d())
        expected = diffop(1, {(1,): -SparsePoly.z_var(Z1, 0),
                              (0,): -SparsePoly.one(Z1)})
        assert got == expected

    def test_tau_fixes_multiplications(self):
        h = SparsePoly.monomial(Z1, (2,), 3) + SparsePoly.one(Z1)
        assert tau(multiplication(h)) == multiplication(h)

    def test_tau_negates_partials(self):
        assert tau(partial(1, 0)) == -partial(1, 0)

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(35)
        for _ in range(200):
            a, b = random_op(rng), random_op(rng)
            assert tau(tau(a)) == a
            assert tau(op_mul(a, b)) == op_mul(tau(b), tau(a))

    def test_nu_preserved_on_monomial_ops(self):
        rng = random.Random(36)
        for _ in range(40):
            alpha = tuple(rng.randint(0, 3) for _ in range(2))
            beta = tuple(rng.randint(0, 3) for _ in range(2))
            op = diffop(2, {alpha: SparsePoly.monomial(Z2, beta)})
            assert tau(op).eta() == op.eta()


class TestLambda:
    def test_single_pair(self):
        assert lambda_apply(SparsePoly.monomial(XIZ1, (1, 1))) == SparsePoly.one(XIZ1)

    def test_unmatched_pair_dies(self):
        # xi1 * z2^2 has no matching (xi_i, z_i) pair
        f = SparsePoly.monomial(XIZ2, (1, 0, 0, 2))
        assert lambda_apply(f).is_zero

    def test_pairing_gives_divergence(self):
        rng = random.Random(37)
        for _ in range(30):
            comps = []
            for _ in range(2):
                terms = {tuple(rng.randint(0, 2) for _ in range(2)): Fraction(rng.randint(-3, 3))
                         for _ in range(3)}
                comps.append(SparsePoly(Z2, terms))
            h = MapTuple.exact(tuple(comps))
            jh = jacobian(h)
            trace = jh.entry(0, 0) + jh.entry(1, 1)
            assert lambda_apply(xi_pairing(h)) == trace.lift(XIZ2)

    def test_lambda_pow_matches_iteration(self):
        f = SparsePoly.monomial(XIZ1, (3, 3))
        assert lambda_pow(f, 2) == lambda_apply(lambda_apply(f))
        assert lambda_pow(f, 0) == f
        with pytest.raises(ContractViolation):
            lambda_pow(f, -1)

    def test_eta_preservation(self):
        rng = random.Random(38)
        for _ in range(60):
            terms = {tuple(rng.randint(0, 2) for _ in range(4)): Fraction(rng.randint(-2, 2))
                     for _ in range(4)}
            f = SparsePoly(XIZ2, terms)
            lf = lambda_apply(f)
            if f.is_zero or lf.is_zero:
                continue
            assert lf.eta() >= f.eta()
        # equality on eta-homogeneous inputs
        hom = (SparsePoly.monomial(XIZ2, (1, 0, 2, 0))
               + SparsePoly.monomial(XIZ2, (0, 1, 0, 2), 4))
        lf = lambda_apply(hom)
        assert not lf.is_zero and lf.eta() == hom.eta()


class TestPhi:
    def test_terminating_sum(self):
        f = SparsePoly.monomial(XIZ1, (1, 1))
        assert phi_apply(f) == f + SparsePoly.one(XIZ1)

    def test_constants_fixed(self):
        c = SparsePoly.const(XIZ2, Fraction(7, 4))
        assert phi_apply(c) == c

    def test_quadratic_monomial(self):
        f = SparsePoly.monomial(XIZ1, (2, 2))
        expected = (f + SparsePoly.monomial(XIZ1, (1, 1), 4)
                    + SparsePoly.const(XIZ1, 2))
        assert phi_apply(f) == expected

    def test_window_restriction(self):
        f = SparsePoly.monomial(XIZ1, (2, 2))
        got = phi_apply(f).restrict_xi(1).truncate_z(1)
        assert got == SparsePoly.monomial(XIZ1, (1, 1), 4) + SparsePoly.const(XIZ1, 2)


class TestInversionBridge:
    def test_assembled_operator_composes_with_inverse(self):
        # sum over |alpha| <= D of (1/alpha!) d^alpha H^alpha JF, assembled as a
        # left symbol and normal-ordered, acts on u as composition with the
        # inverse of z - H
        from math import factorial, prod

        from agcalc.inversion import invert_fixed_point, jacobian_factor
        from agcalc.poly import MapTuple, compose

        cases = [
            MapTuple.exact((SparsePoly.monomial(Z1, (2,)),)),
            MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2))),
            MapTuple.exact((SparsePoly.monomial(Z2, (1, 1)),
                            SparsePoly.monomial(Z2, (2, 0)))),
        ]
        bound = 4
        for h in cases:
            n = h.n
            vsx = VarSet.xiz(n)
            jf = jacobian_factor(h, bound)
            left = SparsePoly.zero(vsx)
            for alpha in itertools.product(range(bound + 1), repeat=n):
                if sum(alpha) > bound:
                    continue
                h_alpha = SparsePoly.one(h.vars)
                for i, k in enumerate(alpha):
                    h_alpha = h_alpha.mul(h.components[i].power(k))
                coeff = h_alpha.mul(jf).scale(
                    Fraction(1, prod(factorial(a) for a in alpha)))
                xi_mono = SparsePoly.monomial(vsx, alpha + (0,) * n)
                left = left + coeff.lift(vsx).mul(xi_mono)
            op = normal_order(left)
            oracle = invert_fixed_point(h, bound)
            us = [SparsePoly.z_var(h.vars, 0),
                  SparsePoly.monomial(h.vars, tuple([2] + [0] * (n - 1))),
                  SparsePoly.one(h.vars)]
            for u in us:
                got = op_apply(op, u, bound)
                assert got == compose(u, oracle.G, bound)


class TestPhiSymbolTransport:
    def test_hand_examples(self):
        for exps, ok in [((1, 1), True), ((2, 2), True), ((0, 0), True)]:
            rep = verify_phi_normal_order(SparsePoly.monomial(XIZ1, exps))
            assert rep.passed and rep.witness is None

    def test_monomial_battery_n2(self):
        for xa in itertools.product(range(4), repeat=2):
            if sum(xa) > 3:
                continue
            for zb in itertools.product(range(5), repeat=2):
                if sum(zb) > 4:
                    continue
                rep = verify_phi_normal_order(SparsePoly.monomial(XIZ2, xa + zb))
                assert rep.passed, f"failed at {xa} {zb}: {rep.witness}"

    def test_random_polynomials_n3(self):
        rng = random.Random(39)
        xiz3 = VarSet.xiz(3)
        for _ in range(20):
            terms = {tuple(rng.randint(0, 2) for _ in range(6)): Fraction(rng.randint(-3, 3))
                     for _ in range(4)}
            rep = verify_phi_normal_order(SparsePoly(xiz3, terms))
            assert rep.passed, rep.witness
