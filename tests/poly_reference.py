"""Reference implementations that the polynomial kernel is tested against.

agcalc itself uses none of this.  The first group treats a polynomial as a
plain ``{exponent tuple: Fraction}`` dict with no zero coefficients and
shares no code with ``agcalc.poly``; the property tests compare the kernel
with it.  ``exact_div`` and ``_det_bareiss`` work through the public
``SparsePoly`` API and give ``det`` an independent second route.
An operator is its right total symbol: ``diffop`` builds one from its
grouped terms {alpha: a_alpha(z)}, ``op_mul`` composes two through
``agcalc.weyl``'s one Leibniz rule, ``op_apply`` applies one to a
z-polynomial, and ``tau`` is the product-reversing involution;
``deformation_matrix`` builds the nilpotency test's matrix I - t*JH entry by
entry, beside ``agcalc.lab``'s route through J(z - t*H).
``scan_value`` computes a vanishing-scan value from z-derivatives alone,
beside ``agcalc.lab``'s chain of ``lambda_apply`` steps on powers of <xi, H>.
``fixed_point_tail`` inverts by full-bound passes until the tail freezes,
beside ``agcalc.inversion``'s one checked pass per degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, perm, prod

from agcalc.errors import ContractViolation
from agcalc.poly import MapTuple, PolyMatrix, SparsePoly, VarSet
from agcalc.weyl import _leibniz, normal_order

Poly = dict  # {tuple[int, ...]: Fraction}, zero coefficients never stored


def z_block(kind: str, n: int) -> slice:
    """Where the z-exponents sit in an exponent tuple of layout `kind`."""
    start = n if kind in ("xiz", "xizt") else 0
    return slice(start, start + n)


def _nonzero(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c}


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def mul(a: Poly, b: Poly, zs: slice, trunc: int | None = None) -> Poly:
    """Every pair of terms; products of z-degree > trunc are dropped."""
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if trunc is None or sum(e[zs]) <= trunc:
                out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def diff_z_multi(p: Poly, alpha: tuple[int, ...], zs: slice) -> Poly:
    """d^alpha in the z-block, one variable at a time."""
    out = dict(p)
    for i, a in enumerate(alpha):
        k = zs.start + i
        nxt: Poly = {}
        for e, c in out.items():
            if e[k] >= a:
                nxt[e[:k] + (e[k] - a,) + e[k + 1:]] = c * perm(e[k], a)
        out = nxt
    return out


def lambda_apply(p: Poly, n: int) -> Poly:
    """sum_i d_xi_i d_z_i over the (xi, z) layout."""
    out: Poly = {}
    for e, c in p.items():
        for i in range(n):
            a, b = e[i], e[n + i]
            if a and b:
                ne = list(e)
                ne[i] -= 1
                ne[n + i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * a * b
    return _nonzero(out)


def compose(u: Poly, g: list[Poly], kind: str, bound: int) -> Poly:
    """u(g_1, ..., g_n) mod z-degree > bound, for u and g over one z or (z, t)
    layout; each z_i^b is b multiplications by g_i, each cut at bound."""
    n = len(g)
    zs = z_block(kind, n)
    out: Poly = {}
    for e, c in u.items():
        base = [0] * len(e)
        if kind == "zt":
            base[-1] = e[-1]
        term = {tuple(base): c}
        for i in range(n):
            for _ in range(e[zs.start + i]):
                term = mul(term, g[i], zs, bound)
        out = add(out, term)
    return out


def fixed_point_tail(h: list[Poly], kind: str, bound: int) -> list[Poly]:
    """The inverse tail N = H(z + N) mod z-degree > bound, for H over one z
    or (z, t) layout: full-bound passes of ``compose`` until N stops changing."""
    n = len(h)
    ident = [{tuple(int(k == i) for k in range(n + (kind == "zt"))): Fraction(1)}
             for i in range(n)]
    tail: list[Poly] = [{} for _ in h]
    for _ in range(bound + 2):
        g = [add(z, c) for z, c in zip(ident, tail)]
        new = [compose(hi, g, kind, bound) for hi in h]
        if new == tail:
            return tail
        tail = new
    raise AssertionError(f"fixed-point passes at bound {bound} did not freeze")


def exact_div(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Quotient p / q when q divides p exactly (leading-term elimination)."""
    if p.vars != q.vars:
        raise ContractViolation("cannot divide polynomials over different layouts")
    if q.is_zero:
        raise ContractViolation("division by the zero polynomial")
    q_lead = q.sorted_exponents()[0]
    q_terms = dict(q.items())
    q_lc = q_terms[q_lead]
    rem = dict(p.items())
    out: Poly = {}
    while rem:
        e = max(rem, key=lambda x: (sum(x), x))
        d = tuple(a - b for a, b in zip(e, q_lead))
        if any(x < 0 for x in d):
            raise ContractViolation("polynomial division is not exact")
        k = rem[e] / q_lc
        out[d] = out.get(d, Fraction(0)) + k
        for qe, qc in q_terms.items():
            ne = tuple(a + b for a, b in zip(d, qe))
            v = rem.get(ne, Fraction(0)) - k * qc
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return SparsePoly(p.vars, out)


def deformation_matrix(h: MapTuple) -> PolyMatrix:
    """I - t*JH over the (z, t) layout: entry (i, j) is delta_ij - t * d h_i / d z_j."""
    zt = VarSet.zt(h.n)
    t = SparsePoly.t_var(zt)
    return PolyMatrix(tuple(
        tuple((SparsePoly.one(zt) if i == j else SparsePoly.zero(zt))
              - h.components[i].diff_z(j).lift(zt).mul(t) for j in range(h.n))
        for i in range(h.n)))


def _derivative_shell(h: MapTuple, u: SparsePoly, m: int) -> SparsePoly:
    """sum over |alpha| = m of d^alpha(u H^alpha) / alpha!, over the z layout."""
    acc = SparsePoly.zero(h.vars)
    for picks in combinations_with_replacement(range(h.n), m):
        alpha = tuple(picks.count(i) for i in range(h.n))
        term = u
        for i in picks:
            term = term.mul(h.components[i])
        acc = acc + term.diff_z_multi(alpha).scale(
            Fraction(1, prod(factorial(a) for a in alpha)))
    return acc


def scan_value(h: MapTuple, k: int, m: int) -> SparsePoly:
    """lambda^m(P^(m+k)) for P = <xi, H>, over the (xi, z) layout, without lambda_apply.

    Expanding P^(m+k) and lambda^m by the multinomial theorem leaves only
    z-derivatives of products of the components:
      k=0: (m!)^2 sum_{|alpha|=m} d^alpha(H^alpha)/alpha!
      k=1: m!(m+1)! sum_i xi_i sum_{|alpha|=m} d^alpha(H_i H^alpha)/alpha!
    """
    xiz = VarSet.xiz(h.n)
    scale = factorial(m) * factorial(m + k)
    if k == 0:
        return _derivative_shell(h, SparsePoly.one(h.vars), m).scale(scale).lift(xiz)
    return sum((SparsePoly.xi_var(xiz, i).mul(_derivative_shell(h, hi, m).lift(xiz))
                for i, hi in enumerate(h.components)),
               SparsePoly.zero(xiz)).scale(scale)


def _det_bareiss(m: PolyMatrix) -> SparsePoly:
    """Determinant by fraction-free elimination (Bareiss 1968)."""
    n = m.dim
    vs = m.vars
    a = [[m.rows[i][j] for j in range(n)] for i in range(n)]
    prev = SparsePoly.one(vs)
    sign = 1
    for k in range(n - 1):
        pivot_row = k
        while a[pivot_row][k].is_zero:
            pivot_row += 1
            if pivot_row == n:
                return SparsePoly.zero(vs)
        if pivot_row != k:
            a[pivot_row], a[k] = a[k], a[pivot_row]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k].mul(a[i][j]) - a[i][k].mul(a[k][j])
                a[i][j] = exact_div(num, prev)
            a[i][k] = SparsePoly.zero(vs)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


def diffop(n: int, terms: dict) -> SparsePoly:
    """sum_alpha a_alpha(z) d^alpha, built as its right total symbol."""
    return SparsePoly(VarSet.xiz(n), {alpha + e: c for alpha, a in terms.items()
                                      for e, c in a.items()})


def op_mul(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """The right symbol of the composition a * b, reordered by the Leibniz rule:
    a z^p d^alpha * b z^q d^beta = a b z^p (d^alpha z^q) d^beta."""
    n = a.vars.n
    out: Poly = {}
    for e, ca in a.items():
        alpha, p = e[:n], e[n:]
        for f, cb in b.items():
            beta = f[:n]
            for rest, ze, coeff in _leibniz(alpha, f[n:], ca * cb):
                key = (tuple(r + s for r, s in zip(rest, beta))
                       + tuple(x + y for x, y in zip(p, ze)))
                out[key] = out.get(key, 0) + coeff
    return SparsePoly(a.vars, out)


def op_apply(op: SparsePoly, u: SparsePoly, bound: int) -> SparsePoly:
    """The operator of right symbol op applied to the z-polynomial u, mod z-degree > bound.

    A series u must be known to z-degree bound + max(op.xi_degrees(), default=0), since
    every d^alpha consumes |alpha| degrees of information.
    """
    n = u.vars.n
    return sum((SparsePoly.monomial(u.vars, e[n:], c).mul(u.diff_z_multi(e[:n]), trunc=bound)
                for e, c in op.items()), SparsePoly.zero(u.vars))


def tau(op: SparsePoly) -> SparsePoly:
    """The product-reversing involution a(z) d^alpha -> (-1)^|alpha| d^alpha a(z)."""
    n = op.vars.n
    return normal_order(SparsePoly(op.vars, {e: -c if sum(e[:n]) % 2 else c
                                             for e, c in op.items()}))
