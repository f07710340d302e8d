"""Polynomial-coefficient differential operators and their total symbols.

Operators are kept in right-normal form, a finite sum of a_alpha(z) d^alpha
terms.  A DiffOp stores exactly that as its right total symbol, the (xi, z)
polynomial sum_alpha a_alpha(z) xi^alpha with xi^alpha standing in for
d^alpha positionally, so sums, equality and the eta grading are those of the
symbol; coefficients() groups it by alpha on demand.  Reading a phase
polynomial as a LEFT symbol instead (derivatives on the left of their
coefficients) and reordering it into right-normal form is normal_order.
Both normal_order and DiffOp composition reorder d^alpha b with the one
Leibniz rule, _leibniz.  DiffOp.apply acts on an exact z-polynomial.

The module also carries the two phase-space endomorphisms the rest of the
package is built on: the mixed second-derivative operator
sum_i d_xi_i d_z_i (lambda_apply, whose term loop lives with the
polynomial storage in poly, and lambda_pow) and its exponential
(phi_apply).  Both preserve the eta grading, so on polynomials the
exponential is a finite sum.  phi_apply only ever receives a polynomial;
callers that want a series argument assemble its window-bounded slices
themselves and cut the output to their window.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm

from .errors import ContractViolation
from .poly import Exponent, SparsePoly, VarSet, lambda_apply
from .record import Record, set_field
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


def _require_symbol_layout(vs: VarSet) -> None:
    if vs != VarSet.xiz(vs.n):
        raise ContractViolation("a total symbol lives over the (xi, z) layout")


class DiffOp(Record):
    """Differential operator sum_alpha a_alpha(z) d^alpha in right-normal form,
    stored as its right total symbol sum_alpha a_alpha(z) xi^alpha."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: SparsePoly) -> None:
        _require_symbol_layout(symbol.vars)
        set_field(self, "symbol", symbol)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "DiffOp":
        return cls(SparsePoly.zero(VarSet.xiz(n)))

    @classmethod
    def multiplication(cls, a: SparsePoly) -> "DiffOp":
        if a.vars != VarSet.z(a.vars.n):
            raise ContractViolation("operator coefficients must be z-polynomials")
        return cls(a.lift(VarSet.xiz(a.vars.n)))

    @classmethod
    def partial(cls, n: int, i: int, k: int = 1) -> "DiffOp":
        vs = VarSet.xiz(n)
        exps = [0] * vs.nvars
        exps[vs.xi_index(i)] = k
        return cls(SparsePoly.monomial(vs, exps))

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.symbol.vars.n

    def max_order(self) -> int:
        return self.symbol.max_xi_degree()

    def coefficients(self) -> dict[Exponent, SparsePoly]:
        """The grouped view {alpha: a_alpha(z)}, every a_alpha nonzero."""
        n = self.n
        buckets: dict[Exponent, dict[Exponent, Fraction]] = {}
        for e, c in self.symbol.items():
            buckets.setdefault(e[:n], {})[e[n:]] = c
        zvs = VarSet.z(n)
        return {alpha: SparsePoly(zvs, t) for alpha, t in buckets.items()}

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        return DiffOp(self.symbol + other.symbol)

    def __neg__(self) -> "DiffOp":
        return DiffOp(-self.symbol)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def _check(self, other: "DiffOp") -> None:
        if not isinstance(other, DiffOp) or other.n != self.n:
            raise ContractViolation("operator variable counts differ")

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition, reordered back into right-normal form by _leibniz:
        a z^p d^alpha * b z^q d^beta = a b z^p (d^alpha z^q) d^beta."""
        self._check(other)
        n = self.n
        out: dict[Exponent, Fraction] = {}
        rhs = other.symbol.items()
        for e, a in self.symbol.items():
            alpha, p = e[:n], e[n:]
            for f, b in rhs:
                beta = f[:n]
                for rest, ze, coeff in _leibniz(alpha, f[n:], a * b):
                    key = (tuple(r + s for r, s in zip(rest, beta))
                           + tuple(x + y for x, y in zip(p, ze)))
                    out[key] = out.get(key, 0) + coeff
        return DiffOp(SparsePoly(self.symbol.vars, out))

    def apply(self, u: SparsePoly, bound: int) -> SparsePoly:
        """Apply to the z-polynomial u, mod z-degree > bound.

        A series u must be passed known to z-degree bound + max_order(), since
        every d^alpha consumes |alpha| degrees of information.
        """
        if u.vars != VarSet.z(self.n):
            raise ContractViolation("operator acts on z-polynomials with matching n")
        acc = SparsePoly.zero(u.vars)
        for alpha, a in self.coefficients().items():
            acc = acc + a.mul(u.diff_z_multi(alpha), trunc=bound)
        return acc

    def __str__(self) -> str:
        terms = self.coefficients()
        if not terms:
            return "0"
        parts = []
        for alpha in sorted(terms, key=lambda a: (sum(a), a), reverse=True):
            a = terms[alpha]
            dsym = "*".join(f"d{i + 1}^{k}" if k > 1 else f"d{i + 1}"
                            for i, k in enumerate(alpha) if k)
            # signs as render_poly writes them: a one-term coefficient carries its sign out
            negative = a.nterms == 1 and a.items()[0][1] < 0
            coeff = str(-a if negative else a) if a.nterms == 1 else f"({a})"
            body = f"{coeff}*{dsym}" if dsym and coeff != "1" else (dsym or coeff)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp(n={self.n}: {self})"


def normal_order(f: SparsePoly) -> DiffOp:
    """Read f as a LEFT total symbol and rewrite into right-normal form.

    A left-symbol term c*xi^alpha*z^beta stands for d^alpha (c z^beta ...),
    which _leibniz reorders into right-normal terms.
    """
    vs = f.vars
    _require_symbol_layout(vs)
    n = vs.n
    out: dict[Exponent, Fraction] = {}
    for e, c in f.items():
        for rest, ze, coeff in _leibniz(e[:n], e[n:], c):
            key = rest + ze
            out[key] = out.get(key, 0) + coeff
    return DiffOp(SparsePoly(vs, out))


def tau(op: DiffOp) -> DiffOp:
    """The product-reversing involution a(z) d^alpha -> (-1)^|alpha| d^alpha a(z)."""
    n = op.n
    flipped = {e: -c if sum(e[:n]) % 2 else c for e, c in op.symbol.items()}
    return normal_order(SparsePoly(op.symbol.vars, flipped))


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


def phi_apply(f: SparsePoly) -> SparsePoly:
    """Exponential of the mixed derivative: sum_m lambda^m(f) / m!.

    Exact on polynomials (each pass strictly lowers the maximal xi-degree,
    so the sum terminates).
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
    return total


def verify_phi_normal_order(f: SparsePoly) -> IdentityReport:
    """Check normal_order(f).symbol == phi_apply(f), exactly.

    lhs is the normal-ordering route, rhs the exponential route.
    """
    return IdentityReport("symbol transport", normal_order(f).symbol, phi_apply(f))
