"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line.  All equality
assertions are exact rational identities; there are no tolerances to tune.
Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from agcalc.inversion import (
    ABHYANKAR_GURJAR,
    FIXED_POINT,
    LAMBDA_SERIES,
    cross_method_results,
    invert_fixed_point,
    jacobian_factor,
    verify_phi_exponential,
    verify_round_trip,
)
from agcalc.lab import (
    gt_jacobian_series,
    is_nilpotent,
    nt_pairing_series,
    standard_corpus,
    vanishing_scan,
)
from agcalc.poly import MapTuple, SparsePoly, VarSet
from agcalc.weyl import verify_phi_normal_order
from poly_reference import diffop, op_mul, tau

DEGREE = 8
SCAN_DEPTH = 6


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="module")
def corpus_inversions(corpus):
    """All three methods at D=8 with debug-mode discard verification, timed."""
    started = time.perf_counter()
    results = {item.item_id: cross_method_results(item.h, DEGREE, debug=True)
               for item in corpus}
    elapsed = time.perf_counter() - started
    return results, elapsed


class TestAcceptance:
    def test_1_cross_method_inversion(self, corpus, corpus_inversions):
        results, elapsed = corpus_inversions
        ok = len(corpus) >= 20
        ok = ok and {item.h.n for item in corpus} == {1, 2, 3}
        ok = ok and len({item.family for item in corpus}) >= 3
        for item in corpus:
            rs = results[item.item_id]
            ok = ok and rs[ABHYANKAR_GURJAR].G == rs[FIXED_POINT].G
            ok = ok and rs[LAMBDA_SERIES].G == rs[FIXED_POINT].G
        ok = ok and elapsed < 120.0
        _report(1, "cross-method inversion at D=8", ok,
                f"{len(corpus)} maps in {elapsed:.2f}s")

    def test_2_round_trip(self, corpus, corpus_inversions):
        results, _ = corpus_inversions
        ok = True
        for item in corpus:
            rep = verify_round_trip(item.h, results[item.item_id][FIXED_POINT])
            ok = ok and rep.passed
        _report(2, "round trip F(G) == z == G(F) at D=8", ok)

    def test_3_catalan_coefficients(self):
        z1 = VarSet.z(1)
        h = MapTuple.exact((SparsePoly.monomial(z1, (2,)),))
        g = invert_fixed_point(h, 6).G.components[0]
        expected = [1, 1, 2, 5, 14, 42]
        ok = all(g.coeff((d,)) == Fraction(c)
                 for d, c in enumerate(expected, start=1))
        _report(3, "Catalan coefficients 1,1,2,5,14,42", ok)

    def test_4_phi_equals_symbol_transport(self):
        started = time.perf_counter()
        ok = True
        xiz2 = VarSet.xiz(2)
        for xa in itertools.product(range(4), repeat=2):
            if sum(xa) > 3:
                continue
            for zb in itertools.product(range(5), repeat=2):
                if sum(zb) > 4:
                    continue
                ok = ok and verify_phi_normal_order(
                    SparsePoly.monomial(xiz2, xa + zb)).passed
        xiz3 = VarSet.xiz(3)
        spot = [(1, 1, 1, 1, 1, 1), (2, 0, 1, 0, 2, 1), (3, 0, 0, 4, 0, 0),
                (0, 2, 1, 1, 0, 2), (1, 0, 2, 0, 3, 1), (2, 1, 0, 2, 2, 0)]
        for exps in spot:
            ok = ok and verify_phi_normal_order(
                SparsePoly.monomial(xiz3, exps)).passed
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 60.0
        _report(4, "exponential equals normal-ordering transport", ok,
                f"{elapsed:.2f}s")

    def test_5_tau_involution_suite(self):
        rng = random.Random(2718281828)
        z2 = VarSet.z(2)

        def random_op():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                alpha = tuple(rng.randint(0, 3) for _ in range(2))
                if sum(alpha) > 3:
                    continue
                exps = [0, 0]
                for _ in range(rng.randint(0, 3)):
                    exps[rng.randrange(2)] += 1
                c = rng.randint(-3, 3)
                if c:
                    coeff = SparsePoly.monomial(z2, exps, c)
                    terms[alpha] = terms.get(alpha, SparsePoly.zero(z2)) + coeff
            return diffop(2, terms)

        ok = True
        for _ in range(200):
            a, b = random_op(), random_op()
            ok = ok and tau(tau(a)) == a
            ok = ok and tau(op_mul(a, b)) == op_mul(tau(b), tau(a))
        _report(5, "tau is an anti-involution (200 random pairs)", ok)

    def test_6_exponential_transport_window(self, corpus):
        # ten maps, at least three with a non-unit Jacobian factor
        chosen = [i for i in corpus if i.family in ("triangular", "cubic")][:5]
        chosen += [i for i in corpus if i.family in ("control", "series")][:5]
        nonunit = 0
        ok = len(chosen) == 10
        for item in chosen:
            q, jf = SparsePoly.one(item.h.vars), jacobian_factor(item.h, 6)
            if jf != SparsePoly.one(item.h.vars):
                nonunit += 1
            rep = verify_phi_exponential(item.h, q, 3, 6, invert_fixed_point(item.h, 7), jf=jf)
            ok = ok and rep.passed
        ok = ok and nonunit >= 3
        _report(6, "exponential transport in window K<=3, D<=6", ok,
                f"{nonunit} maps with JF != 1")

    def test_7_equivalence_suite(self, corpus):
        ok = True
        nilpotent_count = 0
        control_count = 0
        for item in corpus:
            if not item.is_polynomial:
                continue
            cert = is_nilpotent(item.h)
            (scan,) = vanishing_scan(item.h, {0: SCAN_DEPTH})
            if item.nilpotent:
                nilpotent_count += 1
                ok = ok and cert.nilpotent
                ok = ok and cert.det_deformation == SparsePoly.one(cert.det_deformation.vars)
                ok = ok and scan.all_zero
            else:
                control_count += 1
                ok = ok and not cert.nilpotent
                ok = ok and scan.first_nonzero is not None
                ok = ok and scan.first_nonzero <= item.h.n
        ok = ok and nilpotent_count >= 5 and control_count >= 3
        _report(7, "nilpotency equivalence with scans to m=6", ok,
                f"{nilpotent_count} nilpotent, {control_count} controls")

    def test_8_deformation_identities(self, corpus):
        poly_items = [i for i in corpus if i.is_polynomial]
        ok = len(poly_items) >= 10
        # the series builder cross-checks against the deformed oracle internally
        # and raises on any window mismatch
        for item in poly_items[:10]:
            try:
                gt_jacobian_series(item.h, 4)
            except Exception:
                ok = False
        triangular = [i for i in corpus if i.family == "triangular"]
        stab_checked = 0
        for item in triangular:
            depth = max(4, (item.nt_degree or 0) + 1)
            try:
                nt_pairing_series(item.h, depth)
            except Exception:
                ok = False
                continue
            (scan,) = vanishing_scan(item.h, {1: depth})
            observed = scan.last_nonzero if scan.last_nonzero is not None else 0
            ok = ok and all(v.is_zero for m, v in scan.values if m > item.nt_degree)
            ok = ok and observed == item.nt_degree
            stab_checked += 1
        ok = ok and stab_checked == len(triangular) and stab_checked >= 4
        _report(8, "deformation series match the deformed oracle", ok,
                f"10 Jacobian series, {stab_checked} stabilization indices")

    def test_9_debug_mode_discard_verification(self, corpus_inversions):
        results, _ = corpus_inversions
        # any violation would have raised ConvergenceViolation during the run
        total = sum(r.checked_discards
                    for per_map in results.values() for r in per_map.values())
        ok = total > 0
        _report(9, "all truncation discards verified to have order > D", ok,
                f"{total} discarded terms checked, 0 violations")
