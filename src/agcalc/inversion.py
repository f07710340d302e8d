"""Formal inversion of maps F = z - H with o(H) >= 2, by three independent routes.

fixed_point      iterate N <- H(z + N) until the truncation freezes; this is
                 the oracle every other route is checked against.
abhyankar_gurjar evaluate the derivative sum over multi-indices alpha of
                 d^alpha(u * H^alpha * JF) / alpha! once, on u = <xi, H>:
                 d^alpha acts on z only and G = z + H(G), so the sum is
                 <xi, H(G)> = <xi, N>; the order bound o(H^alpha) >= 2|alpha|
                 stops it at |alpha| = D - 2.
lambda_series    evaluate the k = 1 phase series
                 sum_m lambda^m(P^(m+1) * JF) / (m! (m+1)!) with P = <xi, H>,
                 which is <xi, N>; it stops at m = D - 2.

Both series routes read N_i off <xi, N> as the coefficient of xi_i.

Each series route yields its shells from a generator (route 2 the terms
with |alpha| = a, route 3 the one term m) into one loop, _sum_shells, which
adds up shells 0..last; each route computes its own last, and neither
calls the other's generator.  A shell is a run of (term, weight) pairs,
the weight 1/alpha! (k!/(m! (m+k)!)) left off the term, and _sum_shells
adds every kept term, times its weight, into one weighted_sum accumulator
over a common denominator, reduced once at the end.  Every summation
cutoff is justified by an order bound, and every sum checks it: the loop
builds the first discarded shell as well, under the same truncations as
the kept ones, and it must vanish; it never builds a shell past that one.
On valid input, o(H) >= 2, which every route enforces, those truncations
already zero it, so the check passes by construction: it guards the
summation cutoff against a loop that stops too early, not the truncation
pads.  The count of checked discards, one per multi-index on route 2 and
one per term on route 3, is reported on the result.

Each product is formed once, and only to the z-degree the output window
depends on.  The oracle composes H with z + N in one compose_map per pass,
so its components share one table of monomials.  Term |alpha| = a of the
derivative sum (term m of the phase series) needs u * H^alpha * JF
(u * P^(m+k) * JF) only to z-degree D + a (D + m), the degrees the
derivatives remove; each is one multiply by H_i (by P) from a term before
it, truncated there.  That cut is the only one a term gets: d^alpha lowers
the z-degree of every monomial it keeps by exactly a (lambda^m by exactly
m), so a product cut at D + a (D + m) lands at z-degree <= D.

The Jacobian factor JF = det J(z - H) is an input of the series, like H,
computed once per map: cross_method_results forms it once and hands it to
both series routes (keyword jf), and verify hands its one JF to every
reader.  The routes read it only to z-degree max(D - 2, 0): their first
product multiplies JF by <xi, H> (route 2) or by P = <xi, H> (route 3),
both of order >= 2, truncated at D, and every later term grows from that
product, so a term of JF above D - 2 only feeds products above D.  A route
called without jf computes JF itself at that cut.  The oracle never reads
JF, so a wrong shared JF still fails route_agreement.

Series-truncated H is accepted when it is known deep enough.  The three
routes, and so cross_method_results, need trunc(H) >= D: the oracle
composes H to D, and the series routes read <xi, H> and each H_i to D and
JF only to D - 2, which H to D - 1 determines; a term of H past D only
feeds products past their pads, as o(H) >= 2.  The entry points that read
JF to z-degree D (xi_moment_series, verify_phi_exponential,
ag_jacobian_identity, and require_inputs for verify) need
trunc(H) >= D + 1, because JF at D already depends on H at D + 1.  The
inputs u and q are exact polynomials; a series is passed as its
truncation at D, which is all the window reads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, islice
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AgcalcError,
    ContractViolation,
    ConvergenceViolation,
    PreconditionError,
    TruncationError,
)
from .poly import (
    MapTuple,
    SparsePoly,
    VarSet,
    compose,
    compose_map,
    det,
    jacobian,
    weighted_sum,
    xi_pairing,
)
from .record import Record, set_field
from .report import IdentityReport, first_failure
from .weyl import lambda_pow, phi_apply

FIXED_POINT = "fixed_point"
ABHYANKAR_GURJAR = "abhyankar_gurjar"
LAMBDA_SERIES = "lambda_series"
METHODS = (FIXED_POINT, ABHYANKAR_GURJAR, LAMBDA_SERIES)


class InversionResult(Record):
    """Inverse G = z + N of F = z - H, correct mod z-degree > D."""

    __slots__ = ("G", "N", "method", "D", "checked_discards")

    def __init__(self, G: MapTuple, N: MapTuple, method: str, D: int,
                 checked_discards: int = 0) -> None:
        set_field(self, "G", G)
        set_field(self, "N", N)
        set_field(self, "method", method)
        set_field(self, "D", D)
        set_field(self, "checked_discards", checked_discards)


def _require_h(h: MapTuple, bound: int, *, derivatives: bool) -> None:
    if bound < 1:
        raise ContractViolation("inversion degree must be >= 1")
    if h.order() < 2:
        raise PreconditionError(
            f"map order must be >= 2 componentwise; got order {h.order()}")
    need = bound + 1 if derivatives else bound
    if h.effective_trunc < need:
        raise TruncationError(
            f"map truncated at z-degree {h.trunc}; this route to output degree "
            f"{bound} needs >= {need}")


def require_inputs(h: MapTuple, bound: int) -> None:
    """Refuse h as the verify checks at bound do, in their order: first the
    contract of the routes, trunc >= bound, then one degree deeper, since
    the checks read JF to z-degree bound and JF there depends on H at
    bound + 1."""
    _require_h(h, bound, derivatives=False)
    _require_h(h, bound, derivatives=True)


def f_from_h(h: MapTuple) -> MapTuple:
    """The forward map F = z - H over the same layout and truncation."""
    vs = h.vars
    return MapTuple(tuple(SparsePoly.z_var(vs, i) - h.components[i]
                          for i in range(h.n)), h.trunc)


def jacobian_factor(h: MapTuple, bound: int) -> SparsePoly:
    """JF = det(d(z - H)_i / d z_j), truncated at z-degree bound."""
    return det(jacobian(f_from_h(h)), trunc=bound)


def _require_jf(h: MapTuple, jf: SparsePoly) -> SparsePoly:
    if jf.vars != h.vars:
        raise ContractViolation(f"JF over {jf.vars.kind}(n={jf.vars.n}) does not meet a map "
                                f"over {h.vars.kind}(n={h.vars.n})")
    return jf


def _route_result(tail: Sequence[SparsePoly], method: str, bound: int,
                  checked: int = 0) -> InversionResult:
    """Package the inverse G = z + N of a route from its tail N, which must have o(N) >= 2."""
    n_map = MapTuple(tuple(tail), bound)
    if n_map.order() < 2:
        raise AgcalcError(f"{method} inverse violated o(N) >= 2")
    g_map = MapTuple(tuple(SparsePoly.z_var(c.vars, i) + c for i, c in enumerate(tail)), bound)
    return InversionResult(g_map, n_map, method, bound, checked)


def _require_oracle(oracle: InversionResult, h: MapTuple, need: int) -> None:
    if not (isinstance(oracle, InversionResult) and oracle.method == FIXED_POINT
            and oracle.D >= need and oracle.G.vars == h.vars):
        raise ContractViolation(f"oracle must be the fixed-point inverse to z-degree >= {need}"
                                f" over the map's n={h.n} variables")


# -- route 1: fixed point ---------------------------------------------------


def invert_fixed_point(h: MapTuple, bound: int) -> InversionResult:
    """Oracle inverse: iterate N <- H(z + N) mod z-degree > bound.

    Each pass freezes at least one more z-degree because o(H) >= 2, so the
    iteration reaches its fixed point within bound passes.  A t in the
    layout rides along: the z-cut alone bounds the passes.
    """
    _require_h(h, bound, derivatives=False)
    vs = h.vars
    zs = tuple(SparsePoly.z_var(vs, i) for i in range(vs.n))
    n_comps = tuple(SparsePoly.zero(vs) for _ in range(vs.n))
    for _ in range(bound + 2):
        g = MapTuple(tuple(z + c for z, c in zip(zs, n_comps)), bound)
        new_comps = compose_map(h, g, bound).components
        if new_comps == n_comps:
            break
        n_comps = new_comps
    else:
        raise AgcalcError("fixed-point iteration failed to freeze (order contract broken?)")
    return _route_result(n_comps, FIXED_POINT, bound)


# -- the shared summation loop ------------------------------------------------


def _sum_shells(shells: Iterator[Iterable[tuple[SparsePoly, Fraction]]], vs: VarSet,
                last: int, bound: int, *, where: str) -> tuple[SparsePoly, int]:
    """Add up shells 0..last of a series; shell last + 1 must vanish.

    shells yields each shell as the (term, weight) pairs of its terms, built
    only when asked for, so no shell past the last one taken is formed.  The
    kept terms stream into one weighted_sum accumulator.  The discarded
    shell is built under the same truncations as the kept ones, and a
    vanishing truncated term verifies its discard.  Returns the sum over vs
    and the count of checked discards, one per term of the discarded shell.
    """
    total = weighted_sum(vs, chain.from_iterable(islice(shells, last + 1)))
    checked = 0
    for term, weight in next(shells):
        if not term.is_zero:
            raise ConvergenceViolation(f"discarded {where}={last + 1} has order "
                                       f"<= {bound}: {term.scale(weight)}")
        checked += 1
    return total, checked


# -- route 2: the derivative sum --------------------------------------------


def _derivative_shells(u: SparsePoly, h: MapTuple, bound: int, jf: SparsePoly
                       ) -> Iterator[Iterator[tuple[SparsePoly, Fraction]]]:
    """Shell a = 0, 1, ...: the pairs (d^alpha(u * H^alpha * jf), 1/alpha!) with |alpha| = a.

    Shell a needs u * H^alpha * jf only to z-degree bound + a, the a degrees
    the derivative removes.  It is grown from shell a - 1 by one multiply
    per multi-index: alpha = beta + e_i for each beta of shell a - 1 and
    each i up to beta's first nonzero index, so i is alpha's first nonzero
    index and every alpha arises once, as (u H^beta jf) * H_i truncated at
    bound + a.  Shell a - 1 is known only to bound + a - 1, which is
    enough: o(H_i) >= 2, so a term it dropped would land past the pad.
    """
    vs = u.vars
    hs = [c.lift(vs) for c in h.components]
    shell = {(0,) * h.n: u.mul(jf.lift(vs), trunc=bound)}  # u H^alpha jf for |alpha| = a
    for a in count(1):
        yield ((base.diff_z_multi(alpha), Fraction(1, prod(map(factorial, alpha))))
               for alpha, base in shell.items())
        shell = {beta[:i] + (beta[i] + 1,) + beta[i + 1:]: base.mul(hs[i], trunc=bound + a)
                 for beta, base in shell.items()
                 for i in range(next((j for j, b in enumerate(beta) if b), h.n - 1) + 1)}


def _derivative_sum(u: SparsePoly, h: MapTuple, bound: int, *,
                    jf: SparsePoly) -> tuple[SparsePoly, int]:
    """sum over |alpha| <= bound - o of d^alpha(u * H^alpha * jf) / alpha!.

    u lives over h's layout or its xi-extension: d^alpha acts on z only, so
    a xi-block rides along (route 2 sums u = <xi, H>).  With o = min(o(u),
    bound), term |alpha| = a has z-order >= o + 2a - a, so the sum stops at
    a = bound - o.  The pads of _derivative_shells bound the sum at z-degree
    bound, since d^alpha lowers every degree by exactly a.  jf is JF, or 1
    for the sum without it.  Returns the sum, plus the count of verified
    discarded terms, one per multi-index.
    """
    vs = u.vars
    if vs not in (h.vars, h.vars.with_xi()):
        raise ContractViolation(f"u over {vs.kind}(n={vs.n}) does not meet a map over "
                                f"{h.vars.kind}(n={h.vars.n})")
    if u.is_zero:
        return u, 0
    return _sum_shells(_derivative_shells(u, h, bound, _require_jf(h, jf)), vs,
                       bound - min(u.order(), bound), bound,
                       where="derivative-sum term at |alpha|")


def invert_ag(h: MapTuple, bound: int, *, jf: SparsePoly | None = None) -> InversionResult:
    """Inverse via one derivative sum on u = <xi, H>, which is <xi, H(G)> = <xi, N>.

    jf, when given, is JF known to z-degree >= max(bound - 2, 0); otherwise
    the route computes it to that degree.
    """
    _require_h(h, bound, derivatives=False)
    if jf is None:
        jf = jacobian_factor(h, max(bound - 2, 0))
    xi_n, checked = _derivative_sum(xi_pairing(h), h, bound, jf=jf)
    return _route_result([xi_n.xi_linear_component(i) for i in range(h.n)],
                         ABHYANKAR_GURJAR, bound, checked)


def ag_jacobian_identity(u: SparsePoly, h: MapTuple, bound: int,
                         oracle: InversionResult) -> IdentityReport:
    """Check sum_alpha d^alpha(H^alpha u)/alpha! == JG * u(G), both sides built
    independently (left: derivative sum without JF; right: oracle, the
    fixed-point inverse to z-degree >= bound + 1, since JG differentiates G)."""
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound + 1)
    lhs, _ = _derivative_sum(u, h, bound, jf=SparsePoly.one(h.vars))
    jg = det(jacobian(oracle.G), trunc=bound)
    rhs = jg.mul(compose(u, oracle.G, bound), trunc=bound)
    return IdentityReport("derivative sum == JG * u(G)", lhs, rhs)


# -- route 3: the phase-space series ----------------------------------------


def _phase_terms(u: SparsePoly, h: MapTuple, bound: int, k: int, jf: SparsePoly
                 ) -> Iterator[tuple[tuple[SparsePoly, Fraction]]]:
    """Term m = 0, 1, ... of the phase series, as a one-term shell, u over the xi-layout.

    Term m is the pair (lambda^m(u * P^(m+k) * JF), k! / (m! (m+k)!)), and
    each monomial of its term has xi-degree exactly k.  It needs
    u * P^(m+k) * JF only to z-degree bound + m, the m degrees lambda^m
    removes, so it is grown from the term before by one multiply by P
    truncated at bound + m; the term before is known to one degree less,
    which is enough as o(P) >= 2.
    """
    pairing = xi_pairing(h)
    base = u.mul(jf.lift(u.vars), trunc=bound)  # u P^(m+k) JF
    for _ in range(k):
        base = base.mul(pairing, trunc=bound)
    for m in count():
        if m:
            base = base.mul(pairing, trunc=bound + m)
        term = lambda_pow(base, m)
        if not term.is_zero and term.xi_degrees() != {k}:
            raise AgcalcError(f"phase-series term has xi-degree other than {k}")
        yield ((term, Fraction(factorial(k), factorial(m) * factorial(m + k))),)


def _lambda_sum(u: SparsePoly, h: MapTuple, bound: int, *, k: int,
                jf: SparsePoly) -> tuple[SparsePoly, int]:
    """k! sum_m lambda^m(u * P^(m+k) * JF) / (m! (m+k)!), u lifted to the xi-layout.

    It equals u(G) * <xi, N>^k mod z-degree > bound.  Term m has z-order
    >= m + 2k + o, with o = min(o(u), bound), so the sum stops at
    m = bound - 2k - o.  Returns the sum, plus the count of verified
    discarded terms (one).
    """
    u = u.lift(h.vars.with_xi())
    if u.is_zero:
        return u, 0
    return _sum_shells(_phase_terms(u, h, bound, k, _require_jf(h, jf)), u.vars,
                       bound - 2 * k - min(u.order(), bound), bound,
                       where="phase-series term at m")


def invert_lambda(h: MapTuple, bound: int, *, jf: SparsePoly | None = None) -> InversionResult:
    """Inverse via the k = 1 phase series of u = 1, which is <xi, N> (cutoff m <= bound - 2).

    jf, when given, is JF known to z-degree >= max(bound - 2, 0); otherwise
    the route computes it to that degree.
    """
    _require_h(h, bound, derivatives=False)
    if jf is None:
        jf = jacobian_factor(h, max(bound - 2, 0))
    xi_n, checked = _lambda_sum(SparsePoly.one(h.vars), h, bound, k=1, jf=jf)
    return _route_result([xi_n.xi_linear_component(i) for i in range(h.n)],
                         LAMBDA_SERIES, bound, checked)


def xi_moment_series(h: MapTuple, q: SparsePoly, k: int, bound: int, *,
                     jf: SparsePoly) -> SparsePoly:
    """The xi-degree-k phase series k! sum_m lambda^m(P^(m+k) q JF)/(m!(m+k)!).

    Equals q(G) * <xi, N>^k mod z-degree > bound, with N the inverse tail;
    at k = 0 it is q(G), the composition with the inverse.  jf is JF known
    to z-degree >= bound.
    """
    if k < 0:
        raise ContractViolation("moment index k must be >= 0")
    _require_h(h, bound, derivatives=True)
    return _lambda_sum(q, h, bound, k=k, jf=jf)[0]


# -- the exponential transport identity --------------------------------------


def _exp_slices(head: SparsePoly, x: SparsePoly, pads: Iterable[int]) -> SparsePoly:
    """sum_j head * x^j / j!, slice j >= 1 cut at the j-th of pads, up to the first zero slice."""
    def slices():
        yield head, 1
        power = head  # head * x^j, cut at the pads so far
        for j, pad in enumerate(pads, 1):
            power = power.mul(x, trunc=pad)
            if power.is_zero:
                return
            yield power, Fraction(1, factorial(j))
    return weighted_sum(head.vars, slices())


def verify_phi_exponential(h: MapTuple, q: SparsePoly, xi_bound: int,
                           bound: int, oracle: InversionResult, *,
                           jf: SparsePoly) -> IdentityReport:
    """Window check of Phi(q JF e^<xi,H>) == q(G) e^<xi,N>, for xi_bound >= 0.

    The left side is assembled from the xi-degree-j slices q JF P^j / j!
    (slice j padded to z-degree bound + j, j <= bound); by the order profile
    o(H) >= 2 that input window determines the output exactly on
    xi-degree <= xi_bound, z-degree <= bound.  The right side sums the slices
    q(G) <xi,N>^k / k!, of xi-degree exactly k <= xi_bound, from oracle, the
    fixed-point inverse to z-degree >= bound.  xi_bound is capped at bound by the window rule.
    Phi sums the assembled input exactly, and the window is cut from its output.
    jf is JF known to z-degree >= bound.
    """
    if xi_bound < 0:
        raise ContractViolation("xi-degree bound must be >= 0")
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound)
    k_eff = min(xi_bound, bound)
    target = h.vars.with_xi()
    head = q.lift(target).mul(_require_jf(h, jf).lift(target), trunc=bound)
    assembled = _exp_slices(head, xi_pairing(h), range(bound + 1, 2 * bound + 1))
    lhs = phi_apply(assembled).restrict_xi(k_eff).truncate_z(bound)

    q_of_g = compose(q, oracle.G, bound).lift(target)
    rhs = _exp_slices(q_of_g, xi_pairing(oracle.N), [bound] * k_eff)
    return IdentityReport(f"exponential transport (xi<={k_eff}, z<={bound})", lhs, rhs)


# -- cross-route verification -------------------------------------------------


def verify_round_trip(h: MapTuple, result: InversionResult) -> IdentityReport:
    """F(G) == z == G(F) mod z-degree > D, componentwise via plain composition.

    A mismatch is named "component <i> of F(G)" (or "of G(F)") in front of
    the witness, for the first component that differs, F(G) before G(F).
    """
    f_map = f_from_h(h)
    f_of_g = compose_map(f_map, result.G, result.D)
    g_of_f = compose_map(result.G, f_map, result.D)
    return first_failure(
        IdentityReport("round trip F(G) == z == G(F)", got, z,
                       where=f"component {i + 1} of {side}")
        for i, (z, fg, gf) in enumerate(zip(MapTuple.identity(h.vars), f_of_g, g_of_f))
        for side, got in (("F(G)", fg), ("G(F)", gf)))


def cross_method_results(h: MapTuple, bound: int, *, debug: bool = False,
                         jf: SparsePoly | None = None,
                         oracle: InversionResult | None = None) -> dict[str, InversionResult]:
    """The three routes to z-degree bound, keyed by method.

    Both series routes read one JF: jf, known to z-degree >= max(bound - 2,
    0), or, when none is given, JF computed here to that degree.  oracle,
    when given, is a fixed-point inverse to z-degree >= bound and stands in
    for route 1, cut at bound: the inverse mod z-degree > bound is unique.
    debug is unread: every series sum checks its cutoff; the keyword is
    kept for callers that pass one.
    """
    if oracle is None:
        fixed = invert_fixed_point(h, bound)
    else:
        _require_oracle(oracle, h, bound)
        fixed = _route_result([c.truncate_z(bound) for c in oracle.N], FIXED_POINT, bound)
    if jf is None:
        jf = jacobian_factor(h, max(bound - 2, 0))
    return {
        FIXED_POINT: fixed,
        ABHYANKAR_GURJAR: invert_ag(h, bound, jf=jf),
        LAMBDA_SERIES: invert_lambda(h, bound, jf=jf),
    }


def route_agreement(results: Mapping[str, InversionResult], *,
                    detail: str | None = None) -> IdentityReport:
    """Every component of every route against the fixed-point result.

    A mismatch is named "<method> component <i>: <monomial>: <route
    coefficient> vs <fixed-point coefficient>", for the first route and
    component that differ.
    """
    base = results[FIXED_POINT].G.components
    return first_failure(
        IdentityReport("cross-method agreement", got, want,
                       where=f"{method} component {i + 1}", detail=detail)
        for method in (ABHYANKAR_GURJAR, LAMBDA_SERIES)
        for i, (got, want) in enumerate(zip(results[method].G.components, base)))
