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
calls the other's generator.  Every summation cutoff is justified by an
order bound.  When asked, the loop builds the first discarded shell as
well, under the same truncations as the kept ones, and it must vanish; it
never builds a shell past that one.  The routes invert_ag and
invert_lambda (and cross_method_results) ask for it with debug=True;
ag_apply and lambda_compose, whose results nothing else checks, always
ask; ag_jacobian_identity and xi_moment_series, which are compared against
the oracle, never do.  On valid input, o(H) >= 2, which every route
enforces, those truncations already zero it, so the check passes by
construction: it guards the summation cutoff against a loop that stops too
early, not the truncation pads.  The count of checked discards, one per
multi-index on route 2 and one per term on route 3, is reported on the
result.

Each product is formed once, and only to the z-degree the output window
depends on.  The oracle composes H with z + N in one compose_map per pass,
so its components share one table of monomials.  Term |alpha| = a of the
derivative sum (term m of the phase series) needs u * H^alpha * JF
(u * P^(m+k) * JF) only to z-degree D + a (D + m), the degrees the
derivatives remove; each is one multiply by H_i (by P) from a term before
it, truncated there.  That cut is the only one a term gets: d^alpha lowers
the z-degree of every monomial it keeps by exactly a (lambda^m by exactly
m), so a product cut at D + a (D + m) lands at z-degree <= D.

Series-truncated H is accepted when it is known deep enough: composition
routes need trunc(H) >= D, while the derivative-based routes need
trunc(H) >= D + 1 because the Jacobian factor at z-degree D already
depends on H at degree D + 1.  The inputs u and q are exact polynomials; a
series is passed as its truncation at D, which is all the window reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
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
    xi_pairing,
)
from .report import IdentityReport, first_failure
from .weyl import lambda_pow, phi_apply

FIXED_POINT = "fixed_point"
ABHYANKAR_GURJAR = "abhyankar_gurjar"
LAMBDA_SERIES = "lambda_series"
METHODS = (FIXED_POINT, ABHYANKAR_GURJAR, LAMBDA_SERIES)


@dataclass(frozen=True)
class InversionResult:
    """Inverse G = z + N of F = z - H, correct mod z-degree > D."""

    G: MapTuple
    N: MapTuple
    method: str
    D: int
    checked_discards: int = 0


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


def f_from_h(h: MapTuple) -> MapTuple:
    """The forward map F = z - H over the same layout and truncation."""
    vs = h.vars
    return MapTuple(tuple(SparsePoly.z_var(vs, i) - h.components[i]
                          for i in range(h.n)), h.trunc)


def jacobian_factor(h: MapTuple, bound: int) -> SparsePoly:
    """JF = det(d(z - H)_i / d z_j), truncated at z-degree bound."""
    return det(jacobian(f_from_h(h)), trunc=bound)


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


def invert_fixed_point(h: MapTuple, bound: int, *,
                       t_bound: int | None = None) -> InversionResult:
    """Oracle inverse: iterate N <- H(z + N) mod z-degree > bound.

    Each pass freezes at least one more z-degree because o(H) >= 2, so the
    iteration reaches its fixed point within bound passes.  t_bound, when
    given, additionally truncates t-degrees between passes (a congruence
    mod t^(t_bound+1); used by the deformation machinery).
    """
    _require_h(h, bound, derivatives=False)
    vs = h.vars
    zs = tuple(SparsePoly.z_var(vs, i) for i in range(vs.n))
    n_comps = tuple(SparsePoly.zero(vs) for _ in range(vs.n))
    for _ in range(bound + 2):
        g = MapTuple(tuple(z + c for z, c in zip(zs, n_comps)), bound)
        new_comps = compose_map(h, g, bound).components
        if t_bound is not None:
            new_comps = tuple(c.truncate_t(t_bound) for c in new_comps)
        if new_comps == n_comps:
            break
        n_comps = new_comps
    else:
        raise AgcalcError("fixed-point iteration failed to freeze (order contract broken?)")
    return _route_result(n_comps, FIXED_POINT, bound)


# -- the shared summation loop ------------------------------------------------


def _sum_shells(shells: Iterator[list[SparsePoly]], vs: VarSet, last: int, bound: int, *,
                debug: bool, where: str) -> tuple[SparsePoly, int]:
    """Add up shells 0..last of a series; with debug, shell last + 1 must vanish.

    shells yields each shell as the list of its terms, built only when asked
    for, so no shell past the last one taken is formed.  The discarded shell
    is built under the same truncations as the kept ones, and a vanishing
    truncated term verifies its discard.  Returns the sum over vs and the
    count of checked discards, one per term of the discarded shell.
    """
    total, checked = SparsePoly.zero(vs), 0
    for index, shell in zip(range(last + 1 + debug), shells):
        if index <= last:
            total = sum(shell, total)
            continue
        checked = len(shell)
        for term in shell:
            if not term.is_zero:
                raise ConvergenceViolation(
                    f"discarded {where}={index} has order <= {bound}: {term}")
    return total, checked


# -- route 2: the derivative sum --------------------------------------------


def _derivative_shells(u: SparsePoly, h: MapTuple, bound: int,
                       include_jf: bool) -> Iterator[list[SparsePoly]]:
    """Shell a = 0, 1, ...: the terms d^alpha(u * H^alpha * JF?) / alpha! with |alpha| = a.

    Shell a needs u * H^alpha * JF only to z-degree bound + a, the a degrees
    the derivative removes.  It is grown from shell a - 1 by one multiply
    per multi-index: alpha = beta + e_i for each beta of shell a - 1 and
    each i up to beta's first nonzero index, so i is alpha's first nonzero
    index and every alpha arises once, as (u H^beta JF) * H_i truncated at
    bound + a.  Shell a - 1 is known only to bound + a - 1, which is
    enough: o(H_i) >= 2, so a term it dropped would land past the pad.
    """
    vs = u.vars
    jf = jacobian_factor(h, bound) if include_jf else SparsePoly.one(h.vars)
    hs = [c.lift(vs) for c in h.components]
    shell = {(0,) * h.n: u.mul(jf.lift(vs), trunc=bound)}  # u H^alpha JF for |alpha| = a
    for a in count(1):
        yield [base.diff_z_multi(alpha).scale(Fraction(1, prod(map(factorial, alpha))))
               for alpha, base in shell.items()]
        shell = {beta[:i] + (beta[i] + 1,) + beta[i + 1:]: base.mul(hs[i], trunc=bound + a)
                 for beta, base in shell.items()
                 for i in range(next((j for j, b in enumerate(beta) if b), h.n - 1) + 1)}


def _derivative_sum(u: SparsePoly, h: MapTuple, bound: int, *,
                    include_jf: bool, debug: bool) -> tuple[SparsePoly, int]:
    """sum over |alpha| <= bound - o of d^alpha(u * H^alpha * JF?) / alpha!.

    u lives over h's layout or its xi-extension: d^alpha acts on z only, so
    a xi-block rides along (route 2 sums u = <xi, H>).  With o = min(o(u),
    bound), term |alpha| = a has z-order >= o + 2a - a, so the sum stops at
    a = bound - o.  The pads of _derivative_shells bound the sum at z-degree
    bound, since d^alpha lowers every degree by exactly a.  Returns the sum,
    plus the count of debug-verified discarded terms, one per multi-index.
    """
    vs = u.vars
    if vs not in (h.vars, h.vars.with_xi()):
        raise ContractViolation(f"u over {vs.kind}(n={vs.n}) does not meet a map over "
                                f"{h.vars.kind}(n={h.vars.n})")
    if u.is_zero:
        return u, 0
    return _sum_shells(_derivative_shells(u, h, bound, include_jf), vs,
                       bound - min(u.order(), bound), bound, debug=debug,
                       where="derivative-sum term at |alpha|")


def invert_ag(h: MapTuple, bound: int, *, debug: bool = False) -> InversionResult:
    """Inverse via one derivative sum on u = <xi, H>, which is <xi, H(G)> = <xi, N>."""
    _require_h(h, bound, derivatives=True)
    xi_n, checked = _derivative_sum(xi_pairing(h), h, bound, include_jf=True, debug=debug)
    return _route_result([xi_n.xi_linear_component(i) for i in range(h.n)],
                         ABHYANKAR_GURJAR, bound, checked)


def ag_apply(u: SparsePoly, h: MapTuple, bound: int) -> SparsePoly:
    """u composed with the inverse map by the derivative sum; always checks its discard."""
    _require_h(h, bound, derivatives=True)
    return _derivative_sum(u, h, bound, include_jf=True, debug=True)[0]


def ag_jacobian_identity(u: SparsePoly, h: MapTuple, bound: int,
                         oracle: InversionResult) -> IdentityReport:
    """Check sum_alpha d^alpha(H^alpha u)/alpha! == JG * u(G), both sides built
    independently (left: derivative sum without JF; right: oracle, the
    fixed-point inverse to z-degree >= bound + 1, since JG differentiates G)."""
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound + 1)
    lhs, _ = _derivative_sum(u, h, bound, include_jf=False, debug=False)
    jg = det(jacobian(oracle.G), trunc=bound)
    rhs = jg.mul(compose(u, oracle.G, bound), trunc=bound)
    return IdentityReport("derivative sum == JG * u(G)", lhs, rhs)


# -- route 3: the phase-space series ----------------------------------------


def _phase_terms(u: SparsePoly, h: MapTuple, bound: int,
                 k: int) -> Iterator[list[SparsePoly]]:
    """Term m = 0, 1, ... of the phase series, as a one-term shell, u over the xi-layout.

    Term m is k! lambda^m(u * P^(m+k) * JF) / (m! (m+k)!) and has xi-degree
    exactly k.  It needs u * P^(m+k) * JF only to z-degree bound + m, the m
    degrees lambda^m removes, so it is grown from the term before by one
    multiply by P truncated at bound + m; the term before is known to one
    degree less, which is enough as o(P) >= 2.
    """
    pairing = xi_pairing(h)
    base = u.mul(jacobian_factor(h, bound).lift(u.vars), trunc=bound)  # u P^(m+k) JF
    for _ in range(k):
        base = base.mul(pairing, trunc=bound)
    for m in count():
        if m:
            base = base.mul(pairing, trunc=bound + m)
        term = lambda_pow(base, m)
        if not term.is_zero and term.max_xi_degree() != k:
            raise AgcalcError(f"phase-series term has xi-degree other than {k}")
        yield [term.scale(Fraction(factorial(k), factorial(m) * factorial(m + k)))]


def _lambda_sum(u: SparsePoly, h: MapTuple, bound: int, *,
                debug: bool, k: int = 0) -> tuple[SparsePoly, int]:
    """k! sum_m lambda^m(u * P^(m+k) * JF) / (m! (m+k)!), u lifted to the xi-layout.

    k = 0 is the inversion series, whose callers drop the xi-block.  Term m
    has z-order >= m + 2k + o, with o = min(o(u), bound), so the sum stops
    at m = bound - 2k - o.  Returns the sum, plus the count of
    debug-verified discarded terms (one).
    """
    u = u.lift(h.vars.with_xi())
    if u.is_zero:
        return u, 0
    return _sum_shells(_phase_terms(u, h, bound, k), u.vars,
                       bound - 2 * k - min(u.order(), bound), bound, debug=debug,
                       where="phase-series term at m")


def invert_lambda(h: MapTuple, bound: int, *, debug: bool = False) -> InversionResult:
    """Inverse via the k = 1 phase series of u = 1, which is <xi, N> (cutoff m <= bound - 2)."""
    _require_h(h, bound, derivatives=True)
    xi_n, checked = _lambda_sum(SparsePoly.one(h.vars), h, bound, debug=debug, k=1)
    return _route_result([xi_n.xi_linear_component(i) for i in range(h.n)],
                         LAMBDA_SERIES, bound, checked)


def lambda_compose(q: SparsePoly, h: MapTuple, bound: int) -> SparsePoly:
    """q composed with the inverse map by the phase series; always checks its discard."""
    _require_h(h, bound, derivatives=True)
    return _lambda_sum(q, h, bound, debug=True)[0].drop_xi()


def xi_moment_series(h: MapTuple, q: SparsePoly, k: int, bound: int) -> SparsePoly:
    """The xi-degree-k phase series k! sum_m lambda^m(P^(m+k) q JF)/(m!(m+k)!).

    Equals q(G) * <xi, N>^k mod z-degree > bound, with N the inverse tail;
    the k = 0 case reduces to lambda_compose.
    """
    if k < 0:
        raise ContractViolation("moment index k must be >= 0")
    _require_h(h, bound, derivatives=True)
    return _lambda_sum(q, h, bound, debug=False, k=k)[0]


# -- the exponential transport identity --------------------------------------


def _exp_slices(head: SparsePoly, x: SparsePoly, pads: Iterable[int]) -> SparsePoly:
    """sum_j head * x^j / j!, slice j >= 1 cut at the j-th of pads, up to the first zero slice."""
    total = slice_j = head
    for j, pad in enumerate(pads, 1):
        slice_j = slice_j.mul(x, trunc=pad).scale(Fraction(1, j))
        if slice_j.is_zero:
            break
        total = total + slice_j
    return total


def verify_phi_exponential(h: MapTuple, q: SparsePoly, xi_bound: int,
                           bound: int, oracle: InversionResult) -> IdentityReport:
    """Window check of Phi(q JF e^<xi,H>) == q(G) e^<xi,N>, for xi_bound >= 0.

    The left side is assembled from the xi-degree-j slices q JF P^j / j!
    (slice j padded to z-degree bound + j, j <= bound); by the order profile
    o(H) >= 2 that input window determines the output exactly on
    xi-degree <= xi_bound, z-degree <= bound.  The right side sums the slices
    q(G) <xi,N>^k / k!, of xi-degree exactly k <= xi_bound, from oracle, the
    fixed-point inverse to z-degree >= bound.  xi_bound is capped at bound by the window rule.
    Phi sums the assembled input exactly, and the window is cut from its output.
    """
    if xi_bound < 0:
        raise ContractViolation("xi-degree bound must be >= 0")
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound)
    k_eff = min(xi_bound, bound)
    target = h.vars.with_xi()
    head = q.lift(target).mul(jacobian_factor(h, bound).lift(target), trunc=bound)
    assembled = _exp_slices(head, xi_pairing(h), range(bound + 1, 2 * bound + 1))
    lhs = phi_apply(assembled).restrict_xi(k_eff).truncate_z(bound)

    q_of_g = compose(q, oracle.G, bound).lift(target)
    rhs = _exp_slices(q_of_g, xi_pairing(oracle.N), [bound] * k_eff)
    return IdentityReport(f"exponential transport (xi<={k_eff}, z<={bound})", lhs, rhs)


# -- cross-route verification -------------------------------------------------


def verify_round_trip(h: MapTuple, result: InversionResult) -> IdentityReport:
    """F(G) == z == G(F) mod z-degree > D, componentwise via plain composition."""
    bound = result.D
    f_map = f_from_h(h)
    vs = h.vars
    f_of_g = compose_map(f_map, result.G, bound)
    g_of_f = compose_map(result.G, f_map, bound)
    for i, (fg, gf) in enumerate(zip(f_of_g, g_of_f)):
        zi = SparsePoly.z_var(vs, i)
        if fg != zi:
            return IdentityReport(f"round trip, component {i + 1} of F(G)", fg, zi)
        if gf != zi:
            return IdentityReport(f"round trip, component {i + 1} of G(F)", gf, zi)
    ident = SparsePoly.z_var(vs, 0)
    return IdentityReport("round trip F(G) == z == G(F)", ident, ident)


def cross_method_results(h: MapTuple, bound: int, *,
                         debug: bool = False) -> dict[str, InversionResult]:
    return {
        FIXED_POINT: invert_fixed_point(h, bound),
        ABHYANKAR_GURJAR: invert_ag(h, bound, debug=debug),
        LAMBDA_SERIES: invert_lambda(h, bound, debug=debug),
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
