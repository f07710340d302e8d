"""Formal inversion of maps F = z - H with o(H) >= 2, by three independent routes.

fixed_point      climb N <- H(z + N) one z-degree per pass, at bounds 3..D,
                 from N = H mod z-degree > 2, each pass checked to keep the
                 degrees below it; this is the oracle every other route is
                 checked against.
abhyankar_gurjar evaluate the derivative sum over multi-indices alpha of
                 d^alpha(u * H^alpha * JF) / alpha! on each u = H_i, which
                 is u(G) = H_i(G) = N_i as G = z + H(G); term alpha reads
                 H_i * H^alpha = H^(alpha+e_i), so all n sums read one chain
                 of products H^beta * JF, and the order bound
                 o(H^alpha) >= 2|alpha| stops them at |alpha| = D - 2.
lambda_series    evaluate the k = 1 phase series
                 sum_m lambda^m(P^(m+1) * JF) / (m! (m+1)!) with P = <xi, H>,
                 which is <xi, N>; it stops at m = D - 2.

Route 2 sums each N_i in the z-layout; route 3 reads N_i off <xi, N> as
the coefficient of xi_i.

Each series route yields its shells from a generator (route 2 the terms
with |alpha| = a, route 3 the one term m) into one loop, _sum_shells, which
adds up shells 0..last; each route computes its own last, and neither
calls the other's generator.  A shell is a run of (terms, weight) pairs,
one term per component of the sum (route 2 the n terms of alpha, one per
N_i; route 3 and the sum of one u a single term), the weight 1/alpha!
(k!/(m! (m+k)!)) left off the terms, and _sum_shells adds every kept term,
times its weight, into its component's weighted_sum accumulator over a
common denominator, reduced once at the end.  Every summation
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
so its components share one table of monomials; it starts at pass 3, as
N = H to degree 2 when o(H) >= 2, and a pass at bound 2 would compose H
with the identity map.  Term alpha of the
derivative sum of u (term m of the phase series) needs u * H^alpha * JF
(u * P^(m+k) * JF) only to z-degree D + |alpha| (D + m), the degrees the
derivatives remove; each is one multiply by H_i (by P) from a term before
it, truncated there.  Route 2 forms each H^beta * JF once, to
D + |beta| - 1, and every alpha = beta - e_i with beta_i >= 1 reads it.
That cut is the only one a term gets: d^alpha lowers the z-degree of
every monomial it keeps by exactly |alpha| (lambda^m by exactly m), so a
product cut at D + |alpha| (D + m) lands at z-degree <= D.

The Jacobian factor JF = det J(z - H) is an input of the series, like H,
computed once per map: cross_method_results forms it once and hands it to
both series routes (keyword jf), and verify hands its one JF to every
reader.  The routes read it only to z-degree max(D - 2, 0): their first
products multiply JF by each H_i (route 2) or by P = <xi, H> (route 3),
all of order >= 2, truncated at D, and every later term grows from those
products, so a term of JF above D - 2 only feeds products above D.  A route
called without jf computes JF itself at that cut.  The oracle never reads
JF, so a wrong shared JF still fails route_agreement.

Series-truncated H is accepted when it is known deep enough.  The three
routes, and so cross_method_results, need trunc(H) >= D: the oracle
composes H to D, and the series routes read each H_i to D and
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
    if jf.vars is not h.vars:
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
            and oracle.D >= need and oracle.G.vars is h.vars):
        raise ContractViolation(f"oracle must be the fixed-point inverse to z-degree >= {need}"
                                f" over the map's n={h.n} variables")


# -- route 1: fixed point ---------------------------------------------------


def invert_fixed_point(h: MapTuple, bound: int) -> InversionResult:
    """Oracle inverse: N = H(z + N) mod z-degree > bound, one degree per pass.

    The climb starts from H mod z-degree > 2, which is N to degree 2: as
    o(H) >= 2, H(z + N) agrees with H(z) to degree 2, so a pass at bound 2
    would compose H with the identity and check only that nothing lies
    below degree 2, which _require_h has already enforced.  Pass
    j = 3..bound composes at bound j from N known below j.  Degree j of
    H(z + N) reads N only below j, so pass j gives N exactly to degree j;
    it must give back every lower degree unchanged, or it raises naming
    the component and monomial.  No pass confirms bound: pass bound's check
    shows N = H(z + N) below bound, and degree bound does not read N there.
    A t in the layout rides along: the z-cut alone bounds the passes.
    """
    _require_h(h, bound, derivatives=False)
    vs = h.vars
    zs = tuple(SparsePoly.z_var(vs, i) for i in range(vs.n))
    n_comps = tuple(c.truncate_z(min(bound, 2)) for c in h.components)
    for j in range(3, bound + 1):
        g = MapTuple(tuple(z + c for z, c in zip(zs, n_comps)), j)
        new_comps = compose_map(h, g, j).components
        name = f"fixed-point pass at bound {j}"
        rep = first_failure(IdentityReport(name, new.truncate_z(j - 1), old, f"component {i + 1}")
                            for i, (new, old) in enumerate(zip(new_comps, n_comps)))
        if not rep.passed:
            raise AgcalcError(f"{name} moved a lower degree: {rep.witness}")
        n_comps = new_comps
    return _route_result(n_comps, FIXED_POINT, bound)


# -- the shared summation loop ------------------------------------------------


def _sum_shells(shells: Iterator[Iterable[tuple[tuple[SparsePoly, ...], Fraction]]],
                vs: VarSet, last: int, bound: int, *, where: str,
                width: int = 1) -> tuple[tuple[SparsePoly, ...], int]:
    """Add up shells 0..last of a series of width components; shell last + 1
    must vanish.  A last below -1 (an order bound past the window) sums no
    shell and checks shell 0.

    shells yields each shell as the (terms, weight) pairs of its terms, one
    term per component, built only when asked for, so no shell past the
    last one taken is formed.  Component i of the kept terms goes into one
    weighted_sum accumulator.  The discarded shell is built under the same
    truncations as the kept ones, and a vanishing truncated term verifies
    its discard.  Returns the width sums over vs and the count of checked
    discards, one per pair of the discarded shell.
    """
    last = max(last, -1)
    kept = list(chain.from_iterable(islice(shells, last + 1)))
    totals = tuple(weighted_sum(vs, ((terms[i], weight) for terms, weight in kept))
                   for i in range(width))
    checked = 0
    for terms, weight in next(shells):
        for i, term in enumerate(terms):
            if not term.is_zero:
                at = f" in component {i + 1}" if width > 1 else ""
                raise ConvergenceViolation(f"discarded {where}={last + 1} has order "
                                           f"<= {bound}: {term.scale(weight)}{at}")
        checked += 1
    return totals, checked


# -- route 2: the derivative sum --------------------------------------------


def _raised(beta: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The multi-index beta + e_i."""
    return beta[:i] + (beta[i] + 1,) + beta[i + 1:]


def _inverse_factorial(alpha: tuple[int, ...]) -> Fraction:
    return Fraction(1, prod(map(factorial, alpha)))


def _power_chain(base: SparsePoly, hs: Sequence[SparsePoly], pad: int
                 ) -> Iterator[dict[tuple[int, ...], SparsePoly]]:
    """Level b = 0, 1, ...: the products {beta: base * H^beta} with |beta| = b.

    Level b is cut at z-degree pad + b, and base is level 0 as given.  Each
    product is formed once, by one multiply from one predecessor: beta is
    reached from beta - e_i, with i beta's first nonzero index, so level b
    is grown from level b - 1 by multiplying each beta there by every H_i
    with i up to beta's first nonzero index.  Level b - 1 is known only to
    pad + b - 1, which is enough: o(H_i) >= 2, so a term it dropped would
    land past pad + b.  Level b is formed only when asked for.
    """
    n = len(hs)
    level = {(0,) * n: base}
    for b in count(1):
        yield level
        level = {_raised(beta, i): y.mul(hs[i], trunc=pad + b)
                 for beta, y in level.items()
                 for i in range(next((j for j, e in enumerate(beta) if e), n - 1) + 1)}


def _derivative_shells(u: SparsePoly, h: MapTuple, bound: int, jf: SparsePoly
                       ) -> Iterator[Iterator[tuple[tuple[SparsePoly], Fraction]]]:
    """Shell a = 0, 1, ...: the pairs ((d^alpha(u * H^alpha * jf),), 1/alpha!) with |alpha| = a.

    Shell a reads level a of the power chain of u * jf, cut at bound + a:
    the a degrees the derivative removes.
    """
    vs = u.vars
    levels = _power_chain(u.mul(jf.lift(vs), trunc=bound),
                          [c.lift(vs) for c in h.components], bound)
    return ((((y.diff_z_multi(alpha),), _inverse_factorial(alpha)) for alpha, y in level.items())
            for level in levels)


def _derivative_sum(u: SparsePoly, h: MapTuple, bound: int, *,
                    jf: SparsePoly) -> tuple[SparsePoly, int]:
    """sum over |alpha| <= bound - o of d^alpha(u * H^alpha * jf) / alpha!.

    u lives over h's layout or its xi-extension: d^alpha acts on z only, so
    a xi-block rides along.  With o = min(o(u), bound), term |alpha| = a has
    z-order >= o + 2a - a, so the sum stops at a = bound - o.  The pads of
    the power chain bound the sum at z-degree bound, since d^alpha lowers
    every degree by exactly a.  jf is JF, or 1 for the sum without it.
    Returns the sum, plus the count of verified discarded terms, one per
    multi-index.
    """
    vs = u.vars
    if vs not in (h.vars, h.vars.with_xi()):
        raise ContractViolation(f"u over {vs.kind}(n={vs.n}) does not meet a map over "
                                f"{h.vars.kind}(n={h.vars.n})")
    if u.is_zero:
        return u, 0
    (total,), checked = _sum_shells(_derivative_shells(u, h, bound, _require_jf(h, jf)), vs,
                                    bound - min(u.order(), bound), bound,
                                    where="derivative-sum term at |alpha|")
    return total, checked


def _component_shells(h: MapTuple, bound: int, jf: SparsePoly
                      ) -> Iterator[list[tuple[tuple[SparsePoly, ...], Fraction]]]:
    """Shell a = 0, 1, ...: per multi-index alpha with |alpha| = a, the pair
    ((d^alpha(Y_(alpha+e_1)), ..., d^alpha(Y_(alpha+e_n))), 1/alpha!).

    Y_beta = H^beta * jf is level |beta| of the power chain of jf, cut at
    bound + |beta| - 1, and H_i * H^alpha = H^(alpha+e_i), so component i
    of the pair is term alpha of the derivative sum of u = H_i.  Shell a
    reads levels a and a + 1: every Y_beta with |beta| = a + 1 is formed
    once and differentiated once per nonzero coordinate of beta (a zero
    one, as every Y_beta of the discarded shell is on valid input, is not).
    """
    levels = _power_chain(jf, h.components, bound - 1)
    alphas = next(levels)  # beta = 0: jf, no product
    for products in levels:
        yield [(tuple(y if y.is_zero else y.diff_z_multi(alpha)
                      for y in (products[_raised(alpha, i)] for i in range(h.n))),
                _inverse_factorial(alpha))
               for alpha in alphas]
        alphas = products


def invert_ag(h: MapTuple, bound: int, *, jf: SparsePoly | None = None) -> InversionResult:
    """Inverse via the derivative sum per component: N_i = H_i(G) is
    sum_alpha d^alpha(H_i * H^alpha * JF) / alpha!.

    Every term of N_i's sum at alpha has z-order >= o(H) + |alpha|, so the
    sums stop at |alpha| = bound - o(H); where that is below 0 no term is
    kept and shell 0 is the discard checked.  One loop adds the n sums,
    from one chain of products H^beta * JF, each formed once.  jf, when
    given, is JF known to z-degree >= max(bound - 2, 0); otherwise the
    route computes it to that degree.
    """
    _require_h(h, bound, derivatives=False)
    if jf is None:
        jf = jacobian_factor(h, max(bound - 2, 0))
    tail, checked = _sum_shells(_component_shells(h, bound, _require_jf(h, jf)), h.vars,
                                bound - h.order(), bound,
                                where="derivative-sum term at |alpha|", width=h.n)
    return _route_result(tail, ABHYANKAR_GURJAR, bound, checked)


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
                 ) -> Iterator[tuple[tuple[tuple[SparsePoly], Fraction]]]:
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
        yield (((term,), Fraction(factorial(k), factorial(m) * factorial(m + k))),)


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
    (total,), checked = _sum_shells(_phase_terms(u, h, bound, k, _require_jf(h, jf)), u.vars,
                                    bound - 2 * k - min(u.order(), bound), bound,
                                    where="phase-series term at m")
    return total, checked


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
