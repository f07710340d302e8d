"""Polynomial-coefficient differential operators and their total symbols.

Operators are kept in right-normal form: a finite sum of a_alpha(z) d^alpha
terms, indexed by the derivative multi-index alpha.  The right total symbol
replaces d^alpha by xi^alpha positionally; reading a phase polynomial as a
LEFT symbol instead (derivatives on the left of their coefficients) and
reordering it into right-normal form is normal_order.  Both normal_order and
DiffOp composition reorder d^alpha b with the one Leibniz rule, _leibniz.

The module also carries the two phase-space endomorphisms the rest of the
package is built on: the mixed second-derivative operator
sum_i d_xi_i d_z_i (lambda_apply, whose term loop lives with the
polynomial storage in poly, and lambda_pow) and its exponential
(phi_apply).  Both preserve the eta grading, so on polynomials the
exponential is a finite sum.  phi_apply only ever receives a polynomial;
callers that want a series argument assemble its window-bounded slices
themselves and pass the window (xi_bound, z_bound) along.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Mapping

from .errors import ContractViolation, TruncationError
from .poly import (
    INF,
    Exponent,
    SeriesTrunc,
    SparsePoly,
    VarSet,
    lambda_apply,
    series_parts,
)
from .report import IdentityReport


def _leibniz(alpha: Exponent, beta: Exponent, c: Fraction):
    """The package's one copy of the Leibniz rule, for one term c d^alpha z^beta:
    d^alpha z^beta = sum_gamma C(alpha, gamma) (d^gamma z^beta) d^(alpha - gamma).

    Yields (alpha - gamma, beta - gamma, coefficient) for every gamma <= alpha
    with a nonzero derivative d^gamma z^beta.
    """
    n = len(alpha)
    ranges = [range(min(alpha[i], beta[i]) + 1) for i in range(n)]
    for gamma in itertools.product(*ranges):
        coeff = c
        for i, g in enumerate(gamma):
            if g:
                coeff = coeff * comb(alpha[i], g) * perm(beta[i], g)
        yield (tuple(alpha[i] - gamma[i] for i in range(n)),
               tuple(beta[i] - gamma[i] for i in range(n)), coeff)


def _bucket_add(out: dict, rest: Exponent, ze: Exponent, coeff: Fraction) -> None:
    bucket = out.setdefault(rest, {})
    bucket[ze] = bucket.get(ze, 0) + coeff


@dataclass(frozen=True, eq=False)
class DiffOp:
    """Differential operator sum_alpha a_alpha(z) d^alpha in right-normal form."""

    n: int
    terms: Mapping[Exponent, SparsePoly]

    def __post_init__(self) -> None:
        vs = VarSet.z(self.n)
        clean: dict[Exponent, SparsePoly] = {}
        for alpha, a in self.terms.items():
            alpha = tuple(alpha)
            if len(alpha) != self.n or any(k < 0 for k in alpha):
                raise ContractViolation(f"derivative multi-index {alpha} invalid for n={self.n}")
            if a.vars != vs:
                raise ContractViolation("operator coefficients must be z-polynomials")
            if not a.is_zero:
                clean[alpha] = a
        object.__setattr__(self, "terms", clean)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffOp":
        return cls(n, {})

    @classmethod
    def multiplication(cls, a: SparsePoly) -> "DiffOp":
        n = a.vars.n
        return cls(n, {(0,) * n: a})

    @classmethod
    def partial(cls, n: int, i: int, k: int = 1) -> "DiffOp":
        alpha = tuple(k if j == i else 0 for j in range(n))
        return cls(n, {alpha: SparsePoly.one(VarSet.z(n))})

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def nu(self) -> int | float:
        """Grading: min over stored monomials z^beta d^alpha of |beta| - |alpha|."""
        if not self.terms:
            return INF
        vals = []
        for alpha, a in self.terms.items():
            da = sum(alpha)
            vals.extend(sum(e) - da for e, _ in a.items())
        return min(vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        out = dict(self.terms)
        for alpha, a in other.terms.items():
            cur = out.get(alpha)
            out[alpha] = a if cur is None else cur + a
        return DiffOp(self.n, out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.n, {a: -p for a, p in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def _check(self, other: "DiffOp") -> None:
        if not isinstance(other, DiffOp) or other.n != self.n:
            raise ContractViolation("operator variable counts differ")

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition, reordered back into right-normal form by _leibniz."""
        self._check(other)
        n = self.n
        zvs = VarSet.z(n)
        out: dict[Exponent, SparsePoly] = {}
        for alpha, a in self.terms.items():
            # d^alpha b d^beta, collected by resulting derivative before the product with a
            reordered: dict[Exponent, dict[Exponent, Fraction]] = {}
            for beta, b in other.terms.items():
                for e, c in b.items():
                    for rest, ze, coeff in _leibniz(alpha, e, c):
                        _bucket_add(reordered, tuple(rest[i] + beta[i] for i in range(n)),
                                    ze, coeff)
            for res, bucket in reordered.items():
                piece = a.mul(SparsePoly(zvs, bucket))
                cur = out.get(res)
                out[res] = piece if cur is None else cur + piece
        return DiffOp(n, out)

    def apply(self, u: SparsePoly | SeriesTrunc, bound: int) -> SeriesTrunc:
        """Apply to a series, correct mod z-degree > bound.

        The input must be known to degree bound + max_order(), since every
        d^alpha consumes |alpha| degrees of information.
        """
        upoly, utrunc = series_parts(u)
        if upoly.vars != VarSet.z(self.n):
            raise ContractViolation("operator acts on z-polynomials with matching n")
        need = bound + self.max_order()
        if utrunc < need:
            raise TruncationError(
                f"input known to z-degree {utrunc}; applying an operator of order "
                f"{self.max_order()} to output degree {bound} requires >= {need}")
        acc = SparsePoly.zero(upoly.vars)
        for alpha, a in self.terms.items():
            acc = acc + a.mul(upoly.diff_z_multi(alpha), trunc=bound)
        return SeriesTrunc(acc.truncate_z(bound), bound)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            a = self.terms[alpha]
            dsym = "*".join(f"d{i + 1}^{k}" if k > 1 else f"d{i + 1}"
                            for i, k in enumerate(alpha) if k)
            coeff = str(a) if a.nterms == 1 else f"({a})"
            parts.append(f"{coeff}*{dsym}" if dsym and coeff != "1" else (dsym or coeff))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp(n={self.n}: {self})"


# -- total symbols ---------------------------------------------------------


def right_symbol(op: DiffOp) -> SparsePoly:
    """Right total symbol: xi^alpha replaces d^alpha positionally."""
    vs = VarSet.xiz(op.n)
    out: dict[Exponent, Fraction] = {}
    for alpha, a in op.terms.items():
        for e, c in a.items():
            out[alpha + e] = c
    return SparsePoly(vs, out)


def from_right_symbol(f: SparsePoly) -> DiffOp:
    """Inverse of right_symbol."""
    vs = f.vars
    if not vs.has_xi or vs.has_t:
        raise ContractViolation("a total symbol lives over the (xi, z) layout")
    n = vs.n
    zvs = VarSet.z(n)
    buckets: dict[Exponent, dict[Exponent, Fraction]] = {}
    for e, c in f.items():
        buckets.setdefault(e[:n], {})[e[n:]] = c
    return DiffOp(n, {alpha: SparsePoly(zvs, t) for alpha, t in buckets.items()})


def normal_order(f: SparsePoly) -> DiffOp:
    """Read f as a LEFT total symbol and rewrite into right-normal form.

    A left-symbol term c*xi^alpha*z^beta stands for d^alpha (c z^beta ...),
    which _leibniz reorders into right-normal terms.
    """
    vs = f.vars
    if not vs.has_xi or vs.has_t:
        raise ContractViolation("a total symbol lives over the (xi, z) layout")
    n = vs.n
    zvs = VarSet.z(n)
    out: dict[Exponent, dict[Exponent, Fraction]] = {}
    for e, c in f.items():
        for rest, ze, coeff in _leibniz(e[:n], e[n:], c):
            _bucket_add(out, rest, ze, coeff)
    return DiffOp(n, {alpha: SparsePoly(zvs, t) for alpha, t in out.items()})


def tau(op: DiffOp) -> DiffOp:
    """The product-reversing involution a(z) d^alpha -> (-1)^|alpha| d^alpha a(z)."""
    flipped: dict[Exponent, Fraction] = {}
    for alpha, a in op.terms.items():
        sign = -1 if sum(alpha) % 2 else 1
        for e, c in a.items():
            flipped[alpha + e] = sign * c
    left = SparsePoly(VarSet.xiz(op.n), flipped)
    return normal_order(left)


# -- the mixed Laplacian and its exponential --------------------------------


def lambda_pow(f: SparsePoly, m: int) -> SparsePoly:
    """m-fold application; exact, since f is a polynomial."""
    if m < 0:
        raise ContractViolation("the mixed derivative has no negative powers")
    for _ in range(m):
        if f.is_zero:
            break
        f = lambda_apply(f)
    return f


def phi_apply(f: SparsePoly, xi_bound: int | None = None,
              z_bound: int | None = None) -> SparsePoly:
    """Exponential of the mixed derivative: sum_m lambda^m(f) / m!.

    Exact on polynomials (each pass strictly lowers the maximal xi-degree,
    so the sum terminates).  When bounds are given the result is restricted
    to the window xi-degree <= xi_bound, z-degree <= z_bound; for inputs
    assembled from order >= 2 map data per the window rule, that window of
    the output is exact.
    """
    total = f
    term = f
    m = 1
    while True:
        term = lambda_apply(term)
        if term.is_zero:
            break
        total = total + term.scale(Fraction(1, factorial(m)))
        m += 1
    if xi_bound is not None:
        total = total.restrict_xi(xi_bound)
    if z_bound is not None:
        total = total.truncate_z(z_bound)
    return total


def verify_phi_normal_order(f: SparsePoly) -> IdentityReport:
    """Check right_symbol(normal_order(f)) == phi_apply(f), exactly.

    lhs is the normal-ordering route, rhs the exponential route.
    """
    return IdentityReport("symbol transport", right_symbol(normal_order(f)), phi_apply(f))
