"""Formal inversion of maps F = z - H with o(H) >= 2, by three independent routes.

fixed_point      iterate N <- H(z + N) until the truncation freezes; this is
                 the oracle every other route is checked against.
abhyankar_gurjar evaluate the derivative sum over multi-indices alpha of
                 d^alpha(u * H^alpha * JF) / alpha!, truncated by the order
                 bound o(H^alpha) >= 2|alpha|.
lambda_series    evaluate sum_m lambda^m(q * P^m * JF) / (m!)^2 with
                 P = <xi, H>, reading the inverse off the xi-degree-0 part.

Every summation cutoff is justified by an order bound.  With debug=True the
first discarded shell (term) is computed as well, under the same truncations
as the kept ones, and must vanish.  On valid input, o(H) >= 2, which every
route enforces, those truncations already zero it, so the check passes by
construction: it guards the summation cutoff against a loop that stops too
early, not the truncation pads.  The count of checked discards is reported
on the result.

Each product is formed once, and only to the z-degree the output window
depends on.  The oracle composes H with z + N in one compose_map per pass,
so its components share one table of monomials.  The two series measure
o, the least order of their nonzero inputs u: term |alpha| = a of
the derivative sum (term m of the phase series) needs u * H^alpha * JF
(u * P^m * JF) only to z-degree D + a (D + m), the degrees the derivatives
remove, so its u-free factor is needed only to D + a - o (D + m - o).

Series-truncated H is accepted when it is known deep enough: composition
routes need trunc(H) >= D, while the derivative-based routes need
trunc(H) >= D + 1 because the Jacobian factor at z-degree D already
depends on H at degree D + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .errors import (
    AgcalcError,
    ContractViolation,
    ConvergenceViolation,
    PreconditionError,
    TruncationError,
)
from .poly import (
    MapTuple,
    SeriesTrunc,
    SparsePoly,
    VarSet,
    compose,
    compose_map,
    det,
    jacobian,
    series_parts,
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


def _known_to(u: SparsePoly | SeriesTrunc, bound: int, name: str) -> SparsePoly:
    """The polynomial part of u, which must be known to z-degree >= bound."""
    poly, trunc = series_parts(u)
    if trunc < bound:
        raise TruncationError(f"{name} known to z-degree {trunc}; need >= {bound}")
    return poly


def f_from_h(h: MapTuple) -> MapTuple:
    """The forward map F = z - H over the same layout and truncation."""
    vs = h.vars
    return MapTuple(tuple(SparsePoly.z_var(vs, i) - h.components[i]
                          for i in range(h.n)), h.trunc)


def jacobian_factor(h: MapTuple, bound: int) -> SparsePoly:
    """JF = det(d(z - H)_i / d z_j), truncated at z-degree bound."""
    return det(jacobian(f_from_h(h)), trunc=bound)


def _route_result(comps: Sequence[SparsePoly], method: str, bound: int,
                  checked: int) -> InversionResult:
    """Package the inverse G = comps of a route; its tail N = G - z must have o(N) >= 2."""
    g_map = MapTuple(tuple(comps), bound)
    n_map = MapTuple(tuple(c - SparsePoly.z_var(c.vars, i)
                           for i, c in enumerate(comps)), bound)
    if n_map.order() < 2:
        raise AgcalcError(f"{method} inverse violated o(N) >= 2")
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
    n_map = MapTuple(n_comps, bound)
    g_map = MapTuple(tuple(z + c for z, c in zip(zs, n_comps)), bound)
    return InversionResult(g_map, n_map, FIXED_POINT, bound)


# -- route 2: the derivative sum --------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_factorial(alpha: Sequence[int]) -> int:
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def _least_order(us: Sequence[SparsePoly], bound: int) -> int:
    """min o(u) over the nonzero u, capped at bound (a lower bound past it pads nothing)."""
    return min([bound] + [u.order() for u in us if not u.is_zero])


def _derivative_sum(us: Sequence[SparsePoly], h: MapTuple, bound: int, *,
                    include_jf: bool, debug: bool) -> tuple[list[SparsePoly], int]:
    """sum over |alpha| <= bound - o of d^alpha(u * H^alpha * JF?) / alpha!, per u.

    Let o be the least order of a nonzero u (at most bound).  Term |alpha| = a
    has z-order >= o + 2a - a, so the sum stops at a = bound - o.  It needs
    u * H^alpha * JF only to z-degree bound + a (the a degrees the derivative
    removes), so H^alpha * JF is needed only to bound + a - o.  The shell
    |alpha| = a is grown from the one before by one multiply per multi-index,
    H^alpha = H^(alpha - e_i) * H_i with i the first nonzero index of alpha,
    truncated at bound + a - o.  The previous shell is known only to z-degree
    bound + a - 1 - o, which is enough: o(H_i) >= 2, so a term it dropped
    would land past the pad.
    Returns the sums truncated at bound, plus the count of debug-verified
    discarded terms.
    """
    vs = h.vars
    n = h.n
    o = _least_order(us, bound)
    one = SparsePoly.one(vs)
    jf = jacobian_factor(h, bound) if include_jf else one
    max_shell = bound - o
    shell: dict[tuple[int, ...], SparsePoly] = {}  # H^alpha for every |alpha| = a
    sums = [SparsePoly.zero(vs) for _ in us]
    checked = 0
    top = max_shell + (1 if debug else 0)
    for a in range(top + 1):
        discard_shell = a > max_shell
        pad = bound + a
        pad_h = pad - o  # H^alpha and H^alpha * JF meet a u of order >= o
        prev, shell = shell, {}
        for alpha in _compositions(a, n):
            if discard_shell:
                # a vanishing truncated product verifies the discard too
                checked += len(us)
            if a == 0:
                h_alpha = one
            else:
                i = next(j for j, k in enumerate(alpha) if k)
                lower = prev[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]
                h_alpha = lower.mul(h.components[i], trunc=pad_h)
            shell[alpha] = h_alpha
            if h_alpha.is_zero:
                continue
            base = h_alpha if not include_jf else h_alpha.mul(jf, trunc=pad_h)
            if base.is_zero:
                continue
            inv_fact = Fraction(1, _multi_factorial(alpha))
            for idx, u_poly in enumerate(us):
                prod = base.mul(u_poly, trunc=pad)
                term = prod.diff_z_multi(alpha).truncate_z(bound)
                if discard_shell:
                    if not term.is_zero:
                        raise ConvergenceViolation(
                            f"discarded derivative-sum term at |alpha|={a} has "
                            f"order <= {bound}: {term.scale(inv_fact)}")
                elif not term.is_zero:
                    sums[idx] = sums[idx] + term.scale(inv_fact)
    return sums, checked


def invert_ag(h: MapTuple, bound: int, *, debug: bool = False) -> InversionResult:
    """Inverse via the derivative sum applied to each coordinate function."""
    _require_h(h, bound, derivatives=True)
    us = [SparsePoly.z_var(h.vars, i) for i in range(h.n)]
    comps, checked = _derivative_sum(us, h, bound, include_jf=True, debug=debug)
    return _route_result(comps, ABHYANKAR_GURJAR, bound, checked)


def ag_apply(u: SparsePoly | SeriesTrunc, h: MapTuple, bound: int, *,
             debug: bool = False) -> SeriesTrunc:
    """u composed with the inverse map, via the derivative sum (no oracle)."""
    _require_h(h, bound, derivatives=True)
    sums, _ = _derivative_sum([_known_to(u, bound, "u")], h, bound, include_jf=True, debug=debug)
    return SeriesTrunc(sums[0], bound)


def ag_jacobian_identity(u: SparsePoly | SeriesTrunc, h: MapTuple, bound: int,
                         oracle: InversionResult) -> IdentityReport:
    """Check sum_alpha d^alpha(H^alpha u)/alpha! == JG * u(G), both sides built
    independently (left: derivative sum without JF; right: oracle, the
    fixed-point inverse to z-degree >= bound + 1, since JG differentiates G)."""
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound + 1)
    sums, _ = _derivative_sum([_known_to(u, bound, "u")], h, bound, include_jf=False, debug=False)
    lhs = sums[0]
    jg = det(jacobian(oracle.G), trunc=bound)
    u_of_g = compose(u, oracle.G, bound)
    rhs = jg.mul(u_of_g.poly, trunc=bound)
    return IdentityReport("derivative sum == JG * u(G)", lhs, rhs)


# -- route 3: the phase-space series ----------------------------------------


def _phase_data(h: MapTuple, bound: int) -> tuple[VarSet, SparsePoly, SparsePoly]:
    """Target xi-layout, the pairing P = <xi, H>, and lifted JF (trunc bound)."""
    vs = h.vars
    target = VarSet.xizt(vs.n) if vs.has_t else VarSet.xiz(vs.n)
    pairing = xi_pairing(h)
    jf = jacobian_factor(h, bound).lift(target)
    return target, pairing, jf


def _lambda_sum(us: Sequence[SparsePoly], h: MapTuple, bound: int, *,
                debug: bool, k: int = 0) -> tuple[list[SparsePoly], int]:
    """k! sum_m lambda^m(u * P^(m+k) * JF) / (m! (m+k)!) for each u (lifted).

    Every term has xi-degree exactly k; k = 0 is the inversion series, whose
    callers drop the xi-block.  Term m of a nonzero u has z-order
    >= m + 2k + o(u), which sets the per-u summation cutoff; a zero u is
    skipped.  Term m needs u * P^(m+k) * JF only to z-degree bound + m (the
    m degrees lambda^m removes), so P^(m+k) * JF is formed once per m, to
    bound + m - o with o the least order of a nonzero u (at most bound),
    and then multiplied by each u to bound + m.  P^(m+k) grows from the
    power before it, known to one degree less, which is enough as o(P) >= 2.
    """
    target, pairing, jf = _phase_data(h, bound)
    sums = [SparsePoly.zero(target) for _ in us]
    checked = 0
    us_l = {idx: u.lift(target) for idx, u in enumerate(us) if not u.is_zero}
    if not us_l:
        return sums, checked
    o = _least_order(us, bound)
    jf_is_one = jf == SparsePoly.one(target)
    cutoffs = {idx: bound - 2 * k - us[idx].order() for idx in us_l}
    max_m = max(cutoffs.values())
    p_power = pairing.power(k, trunc=bound - o)
    top = max_m + (1 if debug else 0)
    for m in range(top + 1):
        pad = bound + m
        if m > 0:
            p_power = p_power.mul(pairing, trunc=pad - o)
        p_jf = p_power if jf_is_one else p_power.mul(jf, trunc=pad - o)
        scale = Fraction(factorial(k), factorial(m) * factorial(m + k))
        for idx, u_l in us_l.items():
            if m > cutoffs[idx] + (1 if debug else 0):
                continue
            discard = m > cutoffs[idx]
            if discard:
                # the truncated computation below IS the verification
                checked += 1
            if p_jf.is_zero:
                continue
            base = p_jf.mul(u_l, trunc=pad)
            term = lambda_pow(base, m).truncate_z(bound)
            if term.is_zero:
                continue
            if term.max_xi_degree() != k:
                raise AgcalcError(f"phase-series term has xi-degree other than {k}")
            term = term.scale(scale)
            if discard:
                raise ConvergenceViolation(
                    f"discarded phase-series term at m={m} has order <= {bound}: {term}")
            sums[idx] = sums[idx] + term
    return sums, checked


def invert_lambda(h: MapTuple, bound: int, *, debug: bool = False) -> InversionResult:
    """Inverse via the phase-space series with u = z_i (cutoff m <= bound - 1)."""
    _require_h(h, bound, derivatives=True)
    us = [SparsePoly.z_var(h.vars, i) for i in range(h.n)]
    sums, checked = _lambda_sum(us, h, bound, debug=debug)
    return _route_result([s.drop_xi() for s in sums], LAMBDA_SERIES, bound, checked)


def lambda_compose(q: SparsePoly | SeriesTrunc, h: MapTuple, bound: int, *,
                   debug: bool = False) -> SeriesTrunc:
    """q composed with the inverse map, via the phase-space series (m <= bound)."""
    _require_h(h, bound, derivatives=True)
    sums, _ = _lambda_sum([_known_to(q, bound, "q")], h, bound, debug=debug)
    return SeriesTrunc(sums[0].drop_xi(), bound)


def xi_moment_series(h: MapTuple, q: SparsePoly | SeriesTrunc, k: int,
                     bound: int) -> SparsePoly:
    """The xi-degree-k phase series k! sum_m lambda^m(P^(m+k) q JF)/(m!(m+k)!).

    Equals q(G) * <xi, N>^k mod z-degree > bound, with N the inverse tail;
    the k = 0 case reduces to lambda_compose.
    """
    if k < 0:
        raise ContractViolation("moment index k must be >= 0")
    _require_h(h, bound, derivatives=True)
    sums, _ = _lambda_sum([_known_to(q, bound, "q")], h, bound, debug=False, k=k)
    return sums[0]


# -- the exponential transport identity --------------------------------------


def verify_phi_exponential(h: MapTuple, q: SparsePoly | SeriesTrunc, xi_bound: int,
                           bound: int, oracle: InversionResult) -> IdentityReport:
    """Window check of Phi(q JF e^<xi,H>) == q(G) e^<xi,N>.

    The left side is assembled from the xi-degree-j slices q JF P^j / j!
    (slice j padded to z-degree bound + j, j <= bound); by the order profile
    o(H) >= 2 that input window determines the output exactly on
    xi-degree <= xi_bound, z-degree <= bound.  The right side is built from
    oracle, the fixed-point inverse to z-degree >= bound.  xi_bound is
    capped at bound by the window rule.
    """
    _require_h(h, bound, derivatives=True)
    _require_oracle(oracle, h, bound)
    q_poly = _known_to(q, bound, "q")
    k_eff = min(xi_bound, bound)
    target, pairing, jf = _phase_data(h, bound)
    q_l = q_poly.lift(target)
    head = q_l.mul(jf, trunc=bound)

    assembled = SparsePoly.zero(target)
    slice_j = head  # q JF P^j / j!, truncated at z-degree bound + j
    for j in range(bound + 1):
        if j > 0:
            slice_j = slice_j.mul(pairing, trunc=bound + j).scale(Fraction(1, j))
            if slice_j.is_zero:
                break
        assembled = assembled + slice_j
    lhs = phi_apply(assembled, xi_bound=k_eff, z_bound=bound)

    q_of_g = compose(q, oracle.G, bound).poly.lift(target)
    xi_n = xi_pairing(oracle.N)
    rhs = SparsePoly.zero(target)
    tail = q_of_g  # q(G) <xi,N>^k / k!, truncated at z-degree bound
    for k in range(k_eff + 1):
        if k > 0:
            tail = tail.mul(xi_n, trunc=bound).scale(Fraction(1, k))
            if tail.is_zero:
                break
        rhs = rhs + tail
    rhs = rhs.restrict_xi(k_eff).truncate_z(bound)
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
