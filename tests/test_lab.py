"""Nilpotency certificates, vanishing scans, deformation series, and the corpus."""

import hashlib
import random
import time

import pytest

import agcalc.lab
from agcalc.errors import (
    ContractViolation,
    PreconditionError,
    TermCeilingExceeded,
    VerificationError,
)
from agcalc.inversion import InversionResult, cross_method_results, invert_fixed_point
from agcalc.lab import (
    FAMILIES,
    CorpusSpec,
    EquivalenceReport,
    IndexSearch,
    NilpotencyCertificate,
    VanishingReport,
    check_equivalences,
    deformed_tail_components,
    equivalence_checks,
    gen_corpus,
    gt_jacobian_series,
    is_nilpotent,
    nt_pairing_series,
    standard_corpus,
    vanishing_scan,
    vanishing_scan_poly,
)
from agcalc.poly import MapTuple, SparsePoly, VarSet, det, xi_pairing
from poly_reference import _det_bareiss, deformation_matrix, scan_value

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)
ZT2 = VarSet.zt(2)
XIZ2 = VarSet.xiz(2)


def triangular_2d():
    return MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)))


def diagonal_2d():
    return MapTuple.exact((SparsePoly.monomial(Z2, (2, 0)), SparsePoly.zero(Z2)))


def wide_2d():
    """Non-nilpotent, with powers of <xi, H> that grow: P^2 has 6 terms, P^3 10."""
    return MapTuple.exact((
        SparsePoly.monomial(Z2, (0, 2)) + SparsePoly.monomial(Z2, (0, 3)),
        SparsePoly.monomial(Z2, (2, 0)),
    ))


class TestNilpotency:
    def test_triangular_is_nilpotent(self):
        cert = is_nilpotent(triangular_2d())
        assert cert.nilpotent
        assert cert.det_deformation == SparsePoly.one(ZT2)

    def test_diagonal_is_not(self):
        cert = is_nilpotent(diagonal_2d())
        assert not cert.nilpotent
        expected = SparsePoly.one(ZT2) - SparsePoly.monomial(ZT2, (1, 0, 1), 2)
        assert cert.det_deformation == expected

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        assert is_nilpotent(h).nilpotent

    def test_series_input_refused(self):
        h = MapTuple.truncated((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.zero(Z2)), 6)
        with pytest.raises(PreconditionError):
            is_nilpotent(h)

    def test_certificate_matches_entrywise_reference(self):
        # the certificate is det J(z - t*H); the reference builds I - t*JH
        # entry by entry and takes its determinant by cofactors and by Bareiss
        rng = random.Random(17)
        maps = []
        for n in range(1, 5):
            vs = VarSet.z(n)
            for _ in range(3):
                comps = []
                for _ in range(n):
                    terms = {}
                    for _ in range(rng.randint(0, 3)):
                        exps = [0] * n
                        for _ in range(rng.randint(2, 3)):
                            exps[rng.randrange(n)] += 1
                        terms[tuple(exps)] = rng.choice([-2, -1, 1, 2])
                    comps.append(SparsePoly(vs, terms))
                maps.append(MapTuple.exact(tuple(comps)))
            families = ("triangular", "cubic") if n > 1 else ("triangular",)
            for family in families:
                maps += [i.h for i in gen_corpus(CorpusSpec(n=n, family=family, count=2, seed=n))]
        verdicts = set()
        for h in maps:
            m = deformation_matrix(h)
            cert = is_nilpotent(h)
            assert cert.det_deformation == det(m) == _det_bareiss(m)
            verdicts.add(cert.nilpotent)
        assert verdicts == {True, False}


class TestVanishingScan:
    def test_zero_tail_is_not_walked(self):
        # lambda(P^j) = 0 for every j on H = (z2^2, 0): once a step is zero the
        # chain stores it for the rest of the power, so the scan is linear in mmax
        start = time.process_time()
        (rep,) = vanishing_scan(triangular_2d(), {1: 8000})
        assert time.process_time() - start < 1
        assert rep.values[0] == (0, SparsePoly.monomial(XIZ2, (1, 0, 0, 2)))
        assert [m for m, _ in rep.values] == list(range(8001))
        assert rep.last_nonzero == 0 and rep.complete

    def test_triangular_all_zero(self):
        (rep,) = vanishing_scan(triangular_2d(), {0: 6})
        assert rep.all_zero
        assert [m for m, _ in rep.values] == [1, 2, 3, 4, 5, 6]

    def test_diagonal_first_witness(self):
        (rep,) = vanishing_scan(diagonal_2d(), {0: 4})
        assert rep.first_nonzero == 1
        # lambda(P) = trace(JH) = 2 z1
        assert rep.value(1) == SparsePoly.monomial(XIZ2, (0, 0, 1, 0), 2)

    def test_zero_map_any_k(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        (scan0,) = vanishing_scan(h, {0: 4})
        assert scan0.all_zero
        (rep1,) = vanishing_scan(h, {1: 4})
        assert rep1.all_zero  # base term P is itself zero

    def test_k1_base_term_is_pairing(self):
        (rep,) = vanishing_scan(triangular_2d(), {1: 3})
        assert rep.values[0][0] == 0
        assert rep.values[0][1] == xi_pairing(triangular_2d())

    def test_general_poly_entry_point(self):
        # P = xi1*z1^2: not of pairing form restrictions, still scannable
        p = SparsePoly.monomial(XIZ2, (1, 0, 2, 0))
        (rep,) = vanishing_scan_poly(p, {0: 3})
        assert rep.first_nonzero == 1

    def test_term_ceiling_guard(self):
        with pytest.raises(TermCeilingExceeded) as err:
            vanishing_scan(wide_2d(), {0: 6}, term_ceiling=5)
        (partial,) = err.value.partial
        assert partial.mmax == 6 and not partial.complete

    def test_through_cuts_to_a_computed_window(self):
        (rep,) = vanishing_scan(diagonal_2d(), {1: 4})
        cut = rep.through(2)
        assert (cut.k, cut.mmax) == (1, 2)
        assert cut.values == rep.values[:3]
        assert (cut.first_nonzero, cut.last_nonzero) == (0, 2)
        assert rep.through(4) == rep
        for m in (0, 5):
            with pytest.raises(ContractViolation):
                rep.through(m)

    def test_verdicts_read_off_the_values(self):
        (rep,) = vanishing_scan(diagonal_2d(), {1: 4})
        assert (rep.first_nonzero, rep.last_nonzero, rep.all_zero) == (0, 4, False)
        zero = SparsePoly.zero(XIZ2)
        inner = VanishingReport(rep.k, rep.mmax, ((0, zero), (1, rep.value(1)), (2, rep.value(2)),
                                                  (3, zero), (4, zero)))
        assert (inner.first_nonzero, inner.last_nonzero, inner.all_zero) == (1, 2, False)
        cleared = VanishingReport(rep.k, rep.mmax, tuple((m, zero) for m, _ in rep.values))
        assert (cleared.first_nonzero, cleared.last_nonzero, cleared.all_zero) == (
            None, None, True)

    def test_one_product_per_m(self, monkeypatch):
        # the power of P grows by one factor per scanned m; lambda^m of it
        # costs m applications, so both k make 1 + 2 + 3 + 4 of them.  Both
        # scans through 4 share one chain P^1..P^5: 5 products and
        # 1 + 2 + 3 + 4 + 4 applications, where two scans make 9 and 20
        p = xi_pairing(wide_2d())
        counts = {"mul": 0, "lambda_apply": 0}
        mul, apply = SparsePoly.mul, agcalc.lab.lambda_apply

        def counting_mul(self, other, trunc=None):
            counts["mul"] += 1
            return mul(self, other, trunc)

        def counting_apply(f):
            counts["lambda_apply"] += 1
            return apply(f)

        monkeypatch.setattr(SparsePoly, "mul", counting_mul)
        monkeypatch.setattr(agcalc.lab, "lambda_apply", counting_apply)
        # lambda of a zero step is zero and is not applied: on H = (z2^2, 0)
        # every lambda(P^j) is zero, so 50 applications, not 1 + 2 + ... + 50
        triangular = xi_pairing(triangular_2d())
        for q, depths, products, applications in (
                (p, {0: 4}, 4, 10), (p, {1: 4}, 5, 10), (p, {0: 4, 1: 4}, 5, 14),
                (triangular, {0: 50}, 50, 50)):
            counts.update(mul=0, lambda_apply=0)
            for rep in vanishing_scan_poly(q, depths):
                assert [m for m, _ in rep.values] == list(range(1 - rep.k, depths[rep.k] + 1))
            assert counts == {"mul": products, "lambda_apply": applications}, depths

    def test_shared_chain_depths_and_partials(self):
        p = xi_pairing(wide_2d())
        for mmax, mmax1 in ((2, 4), (4, 1), (3, 3)):
            # the scans come back in order of k, whatever the order of the keys
            scan0, scan1 = vanishing_scan_poly(p, {1: mmax1, 0: mmax})
            assert (scan0,) == vanishing_scan_poly(p, {0: mmax})
            assert (scan1,) == vanishing_scan_poly(p, {1: mmax1})
        # every step through P^2 has at most 6 terms; P^3, needed only by
        # the k=1 scan, has 10: the abort carries both scans as they stand
        with pytest.raises(TermCeilingExceeded) as err:
            vanishing_scan_poly(p, {0: 2, 1: 3}, term_ceiling=9)
        assert str(err.value) == "term count 10 exceeded ceiling 9"
        scan0, scan1 = err.value.partial
        assert scan0.complete and not scan1.complete
        assert (scan0,) == vanishing_scan(wide_2d(), {0: 2})
        (full1,) = vanishing_scan(wide_2d(), {1: 3})
        assert scan1 == VanishingReport(1, 3, full1.through(1).values)
        # a single scan's abort carries its one partial scan in a tuple
        with pytest.raises(TermCeilingExceeded) as err:
            vanishing_scan_poly(p, {1: 3}, term_ceiling=9)
        assert err.value.partial == (scan1,)
        for depths in ({}, {2: 3}, {0: 2, 2: 3}, {0: 0}, {0: 2, 1: 0}):
            with pytest.raises(ContractViolation):
                vanishing_scan_poly(p, depths)

    def test_bad_arguments(self):
        with pytest.raises(ContractViolation):
            vanishing_scan(triangular_2d(), {2: 4})
        with pytest.raises(ContractViolation):
            vanishing_scan(triangular_2d(), {0: 0})


class TestGtJacobianSeries:
    def test_triangular_collapses_to_one(self):
        assert gt_jacobian_series(triangular_2d(), 4) == SparsePoly.one(ZT2)

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z1),))
        assert gt_jacobian_series(h, 3) == SparsePoly.one(VarSet.zt(1))

    def test_diagonal_catalan_derivative(self):
        # H = (z1^2, 0): series is 1 + 2 t z1 + 6 t^2 z1^2 + ...
        series = gt_jacobian_series(diagonal_2d(), 2)
        expected = (SparsePoly.one(ZT2)
                    + SparsePoly.monomial(ZT2, (1, 0, 1), 2)
                    + SparsePoly.monomial(ZT2, (2, 0, 2), 6))
        assert series == expected

    def test_one_var_square(self):
        h = MapTuple.exact((SparsePoly.monomial(Z1, (2,)),))
        series = gt_jacobian_series(h, 3)
        zt1 = VarSet.zt(1)
        expected = (SparsePoly.one(zt1)
                    + SparsePoly.monomial(zt1, (1, 1), 2)
                    + SparsePoly.monomial(zt1, (2, 2), 6)
                    + SparsePoly.monomial(zt1, (3, 3), 20))
        assert series == expected


class TestNtSeries:
    def test_triangular_t_independent(self):
        series = nt_pairing_series(triangular_2d(), 4)
        xizt = VarSet.xizt(2)
        assert series == SparsePoly.monomial(xizt, (1, 0, 0, 2, 0))

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        assert nt_pairing_series(h, 3).is_zero

    def test_triangular_cubic(self):
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 3)), SparsePoly.zero(Z2)))
        series = nt_pairing_series(h, 4)
        xizt = VarSet.xizt(2)
        assert series == SparsePoly.monomial(xizt, (1, 0, 0, 3, 0))

    def test_non_nilpotent_refused(self):
        with pytest.raises(PreconditionError):
            nt_pairing_series(diagonal_2d(), 3)

    def test_components_recovered(self):
        n_t = deformed_tail_components(triangular_2d(), 4)
        zt = VarSet.zt(2)
        assert n_t.components == (SparsePoly.monomial(zt, (0, 2, 0)),
                                  SparsePoly.zero(zt))

    def test_genuinely_t_dependent_instance(self):
        # H = (z2^2, z3^2, 0): N_t picks up a t-linear correction
        z3 = VarSet.z(3)
        h = MapTuple.exact((SparsePoly.monomial(z3, (0, 2, 0)),
                            SparsePoly.monomial(z3, (0, 0, 2)),
                            SparsePoly.zero(z3)))
        series = nt_pairing_series(h, 4)
        assert series.max_t_degree() >= 1
        n_t = deformed_tail_components(h, 4)
        # cross-check against direct deformed inversion
        zt = VarSet.zt(3)
        t = SparsePoly.t_var(zt)
        th = MapTuple.exact(tuple(c.lift(zt).mul(t) for c in h.components))
        oracle = invert_fixed_point(th, 8)
        for i in range(3):
            shifted = {e[:-1] + (e[-1] - 1,): c
                       for e, c in oracle.N.components[i].items()}
            expect = SparsePoly(zt, shifted).truncate_t(4)
            assert n_t.components[i] == expect.truncate_z(int(series.degree()))

    def test_series_below_its_index_is_refused(self):
        # N_t of (z2^2, z3^2, 0) has t-degree 2: the sum through m=1 misses its t^2 term
        z3 = VarSet.z(3)
        h = MapTuple.exact((SparsePoly.monomial(z3, (0, 2, 0)),
                            SparsePoly.monomial(z3, (0, 0, 2)),
                            SparsePoly.zero(z3)))
        with pytest.raises(VerificationError) as err:
            nt_pairing_series(h, 1)
        assert err.value.witness == "xi1*z3^4*t^2: 0 vs 1"
        assert nt_pairing_series(h, 2).max_t_degree() == 2


class TestScanReference:
    """Both scans of the shared chain against the xi-free formulas of poly_reference."""

    def test_standard_corpus(self):
        items = [i for i in standard_corpus(0) if i.is_polynomial]
        assert len(items) == 15
        for item in items:
            for scan in vanishing_scan_poly(xi_pairing(item.h), {0: 4, 1: 4}):
                for m, v in scan.values:
                    assert v == scan_value(item.h, scan.k, m), (item.item_id, scan.k, m)


class TestEquivalences:
    def test_triangular_all_pass(self):
        rep = check_equivalences(triangular_2d(), 6, known_nt_degree=0)
        assert rep.nilpotent and rep.passed
        assert [c.status for c in rep.checks] == ["pass", "pass", "pass", "pass"]

    def test_diagonal_witness_path(self):
        rep = check_equivalences(diagonal_2d(), 6)
        assert not rep.nilpotent and rep.passed
        statuses = [c.status for c in rep.checks]
        assert statuses[0] == "pass" and "skip" in statuses

    def test_zero_map(self):
        h = MapTuple.exact((SparsePoly.zero(Z2), SparsePoly.zero(Z2)))
        rep = check_equivalences(h, 3, known_nt_degree=0)
        assert rep.passed

    def test_stabilization_index_mismatch_detected(self):
        # claiming t-degree 1 for the t-independent triangular map must fail
        rep = check_equivalences(triangular_2d(), 6, known_nt_degree=1)
        assert not rep.passed

    @pytest.mark.parametrize("mmax", [0, -5])
    def test_mmax_below_1_refused(self, mmax):
        for h in (triangular_2d(), diagonal_2d()):
            with pytest.raises(ContractViolation, match="mmax must be >= 1"):
                check_equivalences(h, mmax, known_nt_degree=0)

    def test_report_holds_certificate_and_scans(self):
        rep = check_equivalences(triangular_2d(), 4, known_nt_degree=0)
        assert rep.certificate == is_nilpotent(triangular_2d()) and rep.nilpotent
        # the k=1 scan stops at max(d, 1): the certificate proves the rest
        scan0, scan1 = rep.scans
        assert (scan0.k, scan0.mmax, scan1.k, scan1.mmax) == (0, 4, 1, 1)
        assert rep == check_equivalences(triangular_2d(), 4, known_nt_degree=0)
        # no k=1 scan on a non-nilpotent map, and the k=0 scan ends at its
        # witness m=1, short of D0 = n = 2
        rep = check_equivalences(diagonal_2d(), 1)
        assert rep.certificate == is_nilpotent(diagonal_2d()) and not rep.nilpotent
        (scan0,) = rep.scans
        assert (scan0.k, scan0.mmax) == (0, 1)

    def test_abort_carries_a_partial_report(self):
        # P^2 of wide_2d (n = 2) has 6 terms: the k=0 scan through m=2 aborts
        h = wide_2d()
        with pytest.raises(TermCeilingExceeded) as err:
            check_equivalences(h, 2, term_ceiling=5)
        assert err.value.partial == EquivalenceReport("map", is_nilpotent(h), (), ())
        assert not err.value.partial.passed
        # this cubic has t-degree 3 = n, so at mmax 3 it trips on P^4 (135
        # terms), which only the k=1 scan through m=3 needs: the finished
        # k=0 scan stays in the partial report
        item = gen_corpus(CorpusSpec(n=3, family="cubic", count=4, seed=3))[3]
        assert item.nt_degree == 3
        with pytest.raises(TermCeilingExceeded) as err:
            check_equivalences(item.h, 3, known_nt_degree=item.nt_degree, term_ceiling=100)
        assert str(err.value) == "term count 135 exceeded ceiling 100"
        full = check_equivalences(item.h, 3, known_nt_degree=item.nt_degree)
        assert [(scan.k, scan.mmax) for scan in full.scans] == [(0, 3), (1, 3)]
        assert err.value.partial == EquivalenceReport(full.label, full.certificate,
                                                      full.scans[:1], ())
        assert not err.value.partial.passed
        # n = 3 and t-degree 0: at mmax 1 the k=1 scan finishes on P^2 (3 terms)
        # and the k=0 scan through m=3 trips on P^3 (4 terms); the k=1 scan stays
        z3 = VarSet.z(3)
        squares = SparsePoly.monomial(z3, (0, 2, 0)) + SparsePoly.monomial(z3, (0, 0, 2))
        h = MapTuple.exact((squares, SparsePoly.zero(z3), SparsePoly.zero(z3)))
        with pytest.raises(TermCeilingExceeded) as err:
            check_equivalences(h, 1, known_nt_degree=0, term_ceiling=3)
        assert str(err.value) == "term count 4 exceeded ceiling 3"
        assert err.value.partial.scans == vanishing_scan(h, {1: 1})



def _nilpotent_items(ns, seeds):
    for family in ("triangular", "cubic"):
        for n in ns:
            for seed in seeds:
                yield from gen_corpus(CorpusSpec(n=n, family=family, count=3, seed=seed))


def _stabilizes(rep):
    return next(c for c in rep.checks if "stabilizes" in c.name)


class TestProvedIndex:
    """Check (ii) proves the stabilization index, and the k=1 scan stops there."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corpus_index_is_proved(self, n):
        for item in _nilpotent_items([n], (2, 3)):
            d = item.nt_degree
            # without metadata the certificate finds the index on its own
            rep = check_equivalences(item.h, d + 1)
            assert rep.passed and len(rep.checks) == 4, item.item_id
            assert _stabilizes(rep).detail.startswith(f"stabilization index {d},")
            # with it, the k=1 scan stops at the index the metadata claims
            rep = check_equivalences(item.h, 1, known_nt_degree=d)
            assert rep.passed, item.item_id
            assert rep.scans[1].mmax == max(d, 1), item.item_id

    def test_metadata_one_short_fails_at_the_certificate(self):
        checked = 0
        for item in _nilpotent_items([3], (2, 3)):
            d = item.nt_degree
            if d < 2:  # a claim of 0 still scans through m=1, which proves index 1
                continue
            checks = {c.name: c for c in
                      check_equivalences(item.h, 1, known_nt_degree=d - 1).checks}
            cross = checks["deformed inverse series cross-check"]
            assert cross.status == "fail" and cross.witness, item.item_id
            stab = checks["deformed inverse stabilizes at known t-degree"]
            assert (stab.status, stab.witness) == (
                "fail", f"no certificate through m={d - 1}: {cross.witness}")
            checked += 1
        assert checked == 5

    @pytest.mark.parametrize("excess", [3, 10**6])
    def test_metadata_too_large_names_the_proved_index(self, excess):
        for item in _nilpotent_items([3], (2, 3)):
            d = item.nt_degree
            rep = check_equivalences(item.h, 1, known_nt_degree=d + excess)
            stab = _stabilizes(rep)
            assert (stab.status, stab.witness) == ("fail", f"proved index {d}"), item.item_id
            assert rep.scans[1].mmax == d + 1

    def test_metadata_too_small_on_the_chain_map(self):
        # N_t of (z2^2, z3^2, 0) has t-degree 2; the series through m=1 misses t^2
        z3 = VarSet.z(3)
        h = MapTuple.exact((SparsePoly.monomial(z3, (0, 2, 0)),
                            SparsePoly.monomial(z3, (0, 0, 2)), SparsePoly.zero(z3)))
        stab = _stabilizes(check_equivalences(h, 1, known_nt_degree=1))
        assert stab.witness == "no certificate through m=1: xi1*z3^4*t^2: 0 vs 1"
        # without metadata an m_max below the index is a skip naming the m reached
        rep = check_equivalences(h, 1)
        assert rep.passed
        assert [(c.status, c.detail) for c in rep.checks[1:3]] == [
            ("skip", "no certificate through m=1"),
            ("skip", "through m=1, first miss xi1*z3^4*t^2: 0 vs 1")]

    def test_chain_forms_powers_only_to_the_proved_index(self, monkeypatch):
        # d = 3 = n: at mmax 1 the k=0 scan needs P^3 and the k=1 scan P^4
        item = gen_corpus(CorpusSpec(n=3, family="triangular", count=3, seed=2))[0]
        assert item.nt_degree == 3
        p, real, powers = xi_pairing(item.h), SparsePoly.mul, []

        def counted(self, other, *args, **kwargs):
            if other.vars == p.vars and other == p:
                powers.append(self.nterms)
            return real(self, other, *args, **kwargs)
        monkeypatch.setattr(SparsePoly, "mul", counted)
        assert check_equivalences(item.h, 1, known_nt_degree=3).passed
        assert len(powers) == max(3, 3 + 1)

class TestWitnessStop:
    """Check (i) is settled at a non-nilpotent map's first nonzero k=0 value."""

    def test_stop_is_asked_for_either_scan(self):
        # the stop sees each value from m=1 on, with that value's scan so
        # far; the k=0 scan it ends at m=2 is cut there, the k=1 scan runs on
        p, asked = xi_pairing(wide_2d()), []

        def stop(scan):
            asked.append((scan.k, scan.mmax))
            return scan.k == 0 and scan.mmax == 2
        scan0, scan1 = vanishing_scan_poly(p, {0: 4, 1: 3}, stop=stop)
        assert asked == [(0, 1), (1, 1), (0, 2), (1, 2), (1, 3)]
        full0, full1 = vanishing_scan_poly(p, {0: 4, 1: 3})
        assert (scan0, scan1) == (full0.through(2), full1)

    def test_index_search_answers_only_for_k1(self):
        search = IndexSearch(triangular_2d(), None, 4)
        (scan0,) = vanishing_scan(triangular_2d(), {0: 3})
        assert not search(scan0) and search.reached is None

    def test_trace_zero_map_stops_at_its_witness(self):
        # JH of (z2^2, z1^2) has trace 0, so the first nonzero value is at m=2
        h = MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)), SparsePoly.monomial(Z2, (2, 0))))
        rep = check_equivalences(h, 5)
        assert rep.passed and not rep.nilpotent
        assert [(scan.k, scan.mmax) for scan in rep.scans] == [(0, 2)]
        assert rep.checks[0].detail == "witness m=2 <= n=2: 16*z1*z2"

    def test_no_later_power_is_formed(self):
        # a scan through D0 = 6 trips the ceiling on P^3 or later; the
        # witness at m=1 needs only P^1
        z4 = VarSet.z(4)

        def m(*exps):
            return SparsePoly.monomial(z4, exps)
        h = MapTuple.exact((m(2, 0, 0, 0) + m(0, 1, 1, 0) + m(0, 0, 1, 1),
                            m(1, 0, 1, 0) + m(0, 0, 0, 2),
                            m(0, 2, 0, 0) + m(1, 0, 0, 1),
                            m(1, 1, 0, 0) + m(0, 1, 0, 1)))
        with pytest.raises(TermCeilingExceeded, match="term count 859 exceeded ceiling 500"):
            vanishing_scan(h, {0: 6}, term_ceiling=500)
        rep = check_equivalences(h, 6, term_ceiling=500)
        assert rep.passed and rep.scans[0].mmax == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_checks_match_the_full_scan(self, n):
        for seed in range(4):
            for item in gen_corpus(CorpusSpec(n=n, family="control", seed=seed)):
                rep = check_equivalences(item.h, 5)
                full = vanishing_scan(item.h, {0: max(5, n)})
                assert rep.checks == equivalence_checks(item.h, rep.certificate, full, None), (
                    item.item_id, seed)


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(agcalc.lab, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(agcalc.lab, name, counted)
    return counts


def _perturb_oracle(monkeypatch, g=lambda g: g, n=lambda n: n):
    real = agcalc.lab.invert_fixed_point

    def perturbed(h, bound, **kwargs):
        res = real(h, bound, **kwargs)
        return InversionResult(g(res.G), n(res.N), res.method, res.D, res.checked_discards)
    monkeypatch.setattr(agcalc.lab, "invert_fixed_point", perturbed)


def _add_z1_t(m: MapTuple) -> MapTuple:
    vs = m.vars
    bump = SparsePoly.z_var(vs, 0).mul(SparsePoly.t_var(vs))
    return MapTuple((m.components[0] + bump,) + m.components[1:], m.trunc)


def _add_to_k1_scan(monkeypatch, exps):
    """Add the monomial exps (over (xi, z)) to the k=1 scan value at m=0."""
    real = agcalc.lab.vanishing_scan_poly

    def perturbed(p, depths, **kwargs):
        scan0, scan1 = real(p, depths, **kwargs)  # the shared chain of both scans
        extra = SparsePoly.monomial(p.vars, exps)
        m0, v0 = scan1.values[0]
        return scan0, VanishingReport(scan1.k, scan1.mmax,
                                      ((m0, v0 + extra),) + scan1.values[1:])
    monkeypatch.setattr(agcalc.lab, "vanishing_scan_poly", perturbed)


def _checks_by_name(rep):
    return {c.name: c for c in rep.checks}


class TestEquivalenceWork:
    COUNTED = ("is_nilpotent", "vanishing_scan_poly", "invert_fixed_point")

    def test_nilpotent_item_scans_once_per_k(self, monkeypatch):
        # both scans are read off one chain
        counts = _count_calls(monkeypatch, self.COUNTED)
        rep = check_equivalences(triangular_2d(), 4, known_nt_degree=0)
        assert rep.passed
        assert counts == {"is_nilpotent": 1, "vanishing_scan_poly": 1,
                          "invert_fixed_point": 1}

    def test_control_item_scans_once(self, monkeypatch):
        counts = _count_calls(monkeypatch, self.COUNTED)
        rep = check_equivalences(diagonal_2d(), 4)
        assert rep.passed
        assert counts == {"is_nilpotent": 1, "vanishing_scan_poly": 1,
                          "invert_fixed_point": 0}


class TestEquivalenceFailures:
    """A disagreeing side is a failing check naming the first differing monomial."""

    def test_oracle_mismatch_witnesses(self, monkeypatch):
        _perturb_oracle(monkeypatch, g=_add_z1_t, n=_add_z1_t)
        checks = _checks_by_name(check_equivalences(triangular_2d(), 4, known_nt_degree=0))
        jac = checks["deformed Jacobian series"]
        assert (jac.status, jac.witness) == ("fail", "t: 0 vs 1")

    def test_series_not_xi_linear(self, monkeypatch):
        _add_to_k1_scan(monkeypatch, (2, 0, 0, 2))  # xi1^2*z2^2
        rep = check_equivalences(triangular_2d(), 4, known_nt_degree=0)
        cross = _checks_by_name(rep)["deformed inverse series cross-check"]
        assert (cross.status, cross.witness) == (
            "fail", "xi-linear part: xi1^2*z2^2: 0 vs 1")

    def test_series_not_the_deformed_inverse(self, monkeypatch):
        # N_t gains z1^2 in component 1, which H(z + t*N_t) = (z2^2, 0) lacks
        _add_to_k1_scan(monkeypatch, (1, 0, 2, 0))  # xi1*z1^2
        rep = check_equivalences(triangular_2d(), 4, known_nt_degree=0)
        cross = _checks_by_name(rep)["deformed inverse series cross-check"]
        assert (cross.status, cross.witness) == ("fail", "xi1*z1^2: 1 vs 0")

    def test_jacobian_series_must_equal_one(self, monkeypatch):
        # a false nilpotency verdict: the oracle agrees with the series, which is not 1
        monkeypatch.setattr(agcalc.lab, "is_nilpotent",
                            lambda h: NilpotencyCertificate(SparsePoly.one(ZT2)))
        rep = check_equivalences(diagonal_2d(), 2)
        jac = _checks_by_name(rep)["deformed Jacobian series"]
        assert (jac.status, jac.witness) == ("fail", "z1*t: 2 vs 0")

    def test_public_series_raise_with_witness(self, monkeypatch):
        _perturb_oracle(monkeypatch, g=_add_z1_t, n=_add_z1_t)
        with pytest.raises(VerificationError) as err:
            gt_jacobian_series(triangular_2d(), 4)
        assert err.value.witness == "t: 0 vs 1"


class TestCorpus:
    def test_deterministic(self):
        a = gen_corpus(CorpusSpec(n=2, family="triangular", count=3, seed=5))
        b = gen_corpus(CorpusSpec(n=2, family="triangular", count=3, seed=5))
        assert [i.item_id for i in a] == [i.item_id for i in b]
        assert all(x.h == y.h for x, y in zip(a, b))
        c = gen_corpus(CorpusSpec(n=2, family="triangular", count=3, seed=6))
        assert any(x.h != y.h for x, y in zip(a, c))

    def test_canonical_members(self):
        tri = gen_corpus(CorpusSpec(n=2, family="triangular", count=1))
        assert tri[0].h == triangular_2d()
        ctl = gen_corpus(CorpusSpec(n=2, family="control", count=1))
        assert ctl[0].h == diagonal_2d()

    def test_triangular_metadata_is_true_inverse(self):
        for item in gen_corpus(CorpusSpec(n=3, family="triangular", count=3, seed=1)):
            res = invert_fixed_point(item.h, 8)
            for known, computed in zip(item.known_n.components, res.N.components):
                assert known.truncate_z(8) == computed

    def test_cubic_family_nilpotent_with_unit_certificate(self):
        for item in gen_corpus(CorpusSpec(n=3, family="cubic", count=3, seed=2)):
            cert = is_nilpotent(item.h)
            assert cert.nilpotent
            assert all(c.order() >= 2 or c.is_zero for c in item.h.components)
            res = invert_fixed_point(item.h, 7)
            for known, computed in zip(item.known_n.components, res.N.components):
                assert known.truncate_z(7) == computed

    @pytest.mark.parametrize("family, calls", [("triangular", 8), ("cubic", 5)])
    def test_one_back_substitution_per_item(self, family, calls, monkeypatch):
        # one compose per nonzero component of t*H gives both known_n and nt_degree
        counts = _count_calls(monkeypatch, ["compose"])
        gen_corpus(CorpusSpec(n=3, family=family, count=4, seed=0))
        assert counts == {"compose": calls}

    @pytest.mark.parametrize("family", ["triangular", "cubic"])
    def test_nt_degree_is_stabilization_index(self, family):
        # the k=1 scan of the map itself, conjugated or not, stops at nt_degree
        for n in (2, 3):
            for seed in (1, 2):
                for item in gen_corpus(CorpusSpec(n=n, family=family, count=4, seed=seed)):
                    (scan1,) = vanishing_scan(item.h, {1: item.nt_degree + 1})
                    assert (scan1.last_nonzero or 0) == item.nt_degree, item.item_id

    def test_control_family_not_nilpotent(self):
        for item in gen_corpus(CorpusSpec(n=2, family="control", count=3, seed=3)):
            assert item.nilpotent is False
            assert not is_nilpotent(item.h).nilpotent

    def test_series_family_shape(self):
        for item in gen_corpus(CorpusSpec(n=2, family="series", count=2, seed=4)):
            assert not item.h.is_exact
            assert item.h.trunc == 12
            assert item.h.order() >= 2

    def test_invalid_descriptors(self):
        with pytest.raises(ContractViolation):
            CorpusSpec(n=0, family="triangular")
        with pytest.raises(ContractViolation):
            CorpusSpec(n=2, family="sporadic")
        with pytest.raises(ContractViolation):
            CorpusSpec(n=1, family="cubic")

    def test_standard_corpus_profile(self):
        items = standard_corpus()
        assert len(items) == 21
        assert {i.h.n for i in items} == {1, 2, 3}
        families = {i.family for i in items}
        assert families == {"triangular", "cubic", "control", "series"}
        assert len({i.item_id for i in items}) == 21

    def test_standard_corpus_inverts_everywhere(self):
        for item in standard_corpus():
            res = cross_method_results(item.h, 4)
            gs = [r.G for r in res.values()]
            assert gs[0] == gs[1] == gs[2]


def _corpus_digest() -> str:
    """sha256 over (item_id, h, nilpotent, known_n, nt_degree) of a fixed corpus sweep."""
    items = standard_corpus(0) + standard_corpus(1)
    for seed in range(3):
        for n in range(1, 5):
            for family in FAMILIES:
                if family == "cubic" and n == 1:
                    continue
                items += gen_corpus(CorpusSpec(n=n, family=family, count=8, seed=seed))
    digest = hashlib.sha256()
    for item in items:
        row = (item.item_id, str(item.h), item.nilpotent, str(item.known_n), item.nt_degree)
        digest.update(repr(row).encode() + b"\n")
    return digest.hexdigest()


class TestCorpusPin:
    # recorded before the generator moved onto compose_map and J(z - tH);
    # golden report digests do not see known_n beyond z-degree 4
    DIGEST = "203c38af040cb6befadd7155affdd56a2e9489f836200e51673b8494abddb1d0"

    def test_corpus_items_unchanged(self):
        assert _corpus_digest() == self.DIGEST
