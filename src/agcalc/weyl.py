"""Total symbols of polynomial-coefficient differential operators.

An operator sum_alpha a_alpha(z) d^alpha in right-normal form is its right
total symbol, the (xi, z) polynomial sum_alpha a_alpha(z) xi^alpha with
xi^alpha standing in for d^alpha positionally; the package keeps no other
representation of an operator.  Reading a phase polynomial as a LEFT symbol
instead (derivatives on the left of their coefficients) and reordering it
into right-normal form is normal_order, which reorders d^alpha b with the
one Leibniz rule, _leibniz.

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
from .poly import Exponent, SparsePoly, VarSet, lambda_apply, weighted_sum
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


def normal_order(f: SparsePoly) -> SparsePoly:
    """Read f as a LEFT total symbol and return the right total symbol of its operator.

    A left-symbol term c*xi^alpha*z^beta stands for d^alpha (c z^beta ...),
    which _leibniz reorders into right-normal terms.
    """
    vs = f.vars
    if vs is not VarSet.xiz(vs.n):
        raise ContractViolation("a total symbol lives over the (xi, z) layout")
    n = vs.n
    out: dict[Exponent, Fraction] = {}
    for e, c in f.items():
        for rest, ze, coeff in _leibniz(e[:n], e[n:], c):
            key = rest + ze
            out[key] = out.get(key, 0) + coeff
    return SparsePoly(vs, out)


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
    def terms():
        term, m = f, 0
        while True:
            yield term, Fraction(1, factorial(m))
            term, m = lambda_apply(term), m + 1
            if term.is_zero:
                return
    return weighted_sum(f.vars, terms())


def verify_phi_normal_order(f: SparsePoly) -> IdentityReport:
    """Check normal_order(f) == phi_apply(f), exactly.

    lhs is the normal-ordering route, rhs the exponential route.
    """
    return IdentityReport("symbol transport", normal_order(f), phi_apply(f))
