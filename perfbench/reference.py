"""Naive dict-of-tuples polynomial arithmetic used only to check outputs.

Nothing here calls into agcalc's arithmetic: a polynomial is a plain
``{exponent tuple: Fraction}`` dictionary over the z-variables, and products
are the schoolbook double loop.  The benchmark's correctness gate uses this
to check results that agcalc computed, so a defect in agcalc's kernel cannot
also hide itself in the check.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict  # {tuple[int, ...]: Fraction}, zero coefficients never stored


def from_entries(entries) -> Poly:
    """Read the canonical term list of agcalc's map files and JSON reports."""
    out: Poly = {}
    for item in entries:
        c = Fraction(item["coeff"])
        if c:
            out[tuple(item["exps"])] = c
    return out


def trunc_mul(a: Poly, b: Poly, bound: int) -> Poly:
    """a*b with every term of total degree > bound dropped."""
    out: Poly = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        if d1 > bound:
            continue
        for e2, c2 in b.items():
            if d1 + sum(e2) > bound:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def add_into(acc: Poly, p: Poly, scale=1) -> None:
    for e, c in p.items():
        v = acc.get(e, 0) + scale * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def compose(u: Poly, g: list[Poly], bound: int) -> Poly:
    """u(g_1, ..., g_n) mod total degree > bound."""
    n = len(g)
    powers = [[{(0,) * n: Fraction(1)}] for _ in range(n)]

    def power(i: int, k: int) -> Poly:
        while len(powers[i]) <= k:
            powers[i].append(trunc_mul(powers[i][-1], g[i], bound))
        return powers[i][k]

    out: Poly = {}
    for e, c in u.items():
        acc: Poly = {(0,) * n: c}
        for i, k in enumerate(e):
            if k:
                acc = trunc_mul(acc, power(i, k), bound)
        add_into(out, acc)
    return out


def round_trip_defect(h: list[Poly], g: list[Poly], bound: int) -> str | None:
    """Check F(G) == z mod degree > bound for F = z - H; None when it holds.

    Otherwise name the first component and monomial that differ.
    """
    n = len(h)
    for i in range(n):
        fg = {e: c for e, c in g[i].items() if sum(e) <= bound}
        add_into(fg, compose(h[i], g, bound), -1)
        unit = tuple(1 if j == i else 0 for j in range(n))
        want = {unit: Fraction(1)}
        if fg != want:
            e = min(e for e in set(fg) | set(want) if fg.get(e, 0) != want.get(e, 0))
            return (f"component {i + 1} of F(G) at {e}: "
                    f"{fg.get(e, 0)} vs {want.get(e, 0)}")
    return None


def jacobian_trace(h: list[Poly]) -> Poly:
    """sum_i d h_i / d z_i; a nonzero trace rules out a nilpotent Jacobian."""
    out: Poly = {}
    for i, hi in enumerate(h):
        for e, c in hi.items():
            k = e[i]
            if k:
                add_into(out, {e[:i] + (k - 1,) + e[i + 1:]: c * k})
    return out
