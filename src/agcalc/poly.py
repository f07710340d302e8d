"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial maps exponent tuples to nonzero Fraction coefficients, so
identity testing is exact and no float ever appears.  That dictionary is
private to this module: other code reads a polynomial through items(),
nterms and coeff(), and every loop that must touch the storage, the mixed
derivative lambda_apply among them, lives here.
The variable layout is fixed by a VarSet: an optional xi-block
(xi1..xin), then the z-block (z1..zn), then an optional deformation
variable t.  All four layouts share one exponent-tuple convention, so
moving a polynomial between compatible layouts is pure index bookkeeping
(see SparsePoly.lift).

Degrees and truncation are always measured in the z-block alone:
order() is the minimal z-total-degree of any term (+inf for 0),
degree() the maximal (-inf for 0).  xi- and t-degrees are bounded
separately by the callers that need bounds.  The infinities are
sentinels used only in comparisons, never in arithmetic.

Canonical term order for rendering and witnesses is graded
lexicographic on the full exponent tuple (xi-block before z-block
before t), so output is deterministic and diff-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ItemsView, Iterator, Mapping, Sequence

from .errors import CompositionError, ContractViolation, TruncationError

Exponent = tuple[int, ...]

INF = math.inf
NEG_INF = -math.inf

_XI_KINDS = frozenset({"xiz", "xizt"})
_T_KINDS = frozenset({"zt", "xizt"})
_ALL_KINDS = frozenset({"z", "xiz", "zt", "xizt"})


@dataclass(frozen=True)
class VarSet:
    """Variable layout (xi1..xin | z1..zn | t) restricted by kind."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ContractViolation(f"unknown variable kind {self.kind!r}")
        if self.n < 1:
            raise ContractViolation("variable count n must be >= 1")

    @classmethod
    def z(cls, n: int) -> "VarSet":
        return cls("z", n)

    @classmethod
    def xiz(cls, n: int) -> "VarSet":
        return cls("xiz", n)

    @classmethod
    def zt(cls, n: int) -> "VarSet":
        return cls("zt", n)

    @classmethod
    def xizt(cls, n: int) -> "VarSet":
        return cls("xizt", n)

    @property
    def has_xi(self) -> bool:
        return self.kind in _XI_KINDS

    @property
    def has_t(self) -> bool:
        return self.kind in _T_KINDS

    @property
    def nvars(self) -> int:
        return (2 * self.n if self.has_xi else self.n) + (1 if self.has_t else 0)

    @property
    def z_start(self) -> int:
        return self.n if self.has_xi else 0

    def z_index(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ContractViolation(f"z-variable index {i} out of range for n={self.n}")
        return self.z_start + i

    def xi_index(self, i: int) -> int:
        if not self.has_xi:
            raise ContractViolation(f"variable kind {self.kind!r} has no xi-block")
        if not 0 <= i < self.n:
            raise ContractViolation(f"xi-variable index {i} out of range for n={self.n}")
        return i

    @property
    def t_index(self) -> int:
        if not self.has_t:
            raise ContractViolation(f"variable kind {self.kind!r} has no t variable")
        return self.nvars - 1

    def z_degree(self, exps: Exponent) -> int:
        s = self.z_start
        return sum(exps[s:s + self.n])

    def xi_degree(self, exps: Exponent) -> int:
        return sum(exps[:self.n]) if self.has_xi else 0

    def t_degree(self, exps: Exponent) -> int:
        return exps[-1] if self.has_t else 0

    def names(self) -> list[str]:
        out: list[str] = []
        if self.has_xi:
            out.extend(f"xi{i + 1}" for i in range(self.n))
        out.extend(f"z{i + 1}" for i in range(self.n))
        if self.has_t:
            out.append("t")
        return out

    def without_xi(self) -> "VarSet":
        return VarSet("zt" if self.has_t else "z", self.n)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise ContractViolation(f"coefficient {c!r} is not an exact rational")


def _grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


@dataclass(frozen=True, eq=False)
class SparsePoly:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    vars: VarSet
    _terms: Mapping[Exponent, Fraction]

    def __post_init__(self) -> None:
        nv = self.vars.nvars
        clean: dict[Exponent, Fraction] = {}
        for exps, c in self._terms.items():
            exps = tuple(exps)
            if len(exps) != nv or any(e < 0 for e in exps):
                raise ContractViolation(
                    f"exponent {exps} invalid for variable layout {self.vars.kind}(n={self.vars.n})")
            c = _as_fraction(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _unchecked(cls, vs: VarSet, terms: dict[Exponent, Fraction]) -> "SparsePoly":
        # internal fast path: terms already canonical apart from possible zeros
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vs)
        object.__setattr__(p, "_terms", {e: c for e, c in terms.items() if c})
        return p

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vs: VarSet) -> "SparsePoly":
        return cls._unchecked(vs, {})

    @classmethod
    def const(cls, vs: VarSet, c) -> "SparsePoly":
        c = _as_fraction(c)
        return cls._unchecked(vs, {(0,) * vs.nvars: c} if c else {})

    @classmethod
    def one(cls, vs: VarSet) -> "SparsePoly":
        return cls.const(vs, 1)

    @classmethod
    def monomial(cls, vs: VarSet, exps: Sequence[int], c=1) -> "SparsePoly":
        return cls(vs, {tuple(exps): _as_fraction(c)})

    @classmethod
    def variable(cls, vs: VarSet, index: int) -> "SparsePoly":
        if not 0 <= index < vs.nvars:
            raise ContractViolation(f"variable index {index} out of range")
        exps = [0] * vs.nvars
        exps[index] = 1
        return cls._unchecked(vs, {tuple(exps): Fraction(1)})

    @classmethod
    def z_var(cls, vs: VarSet, i: int) -> "SparsePoly":
        return cls.variable(vs, vs.z_index(i))

    @classmethod
    def xi_var(cls, vs: VarSet, i: int) -> "SparsePoly":
        return cls.variable(vs, vs.xi_index(i))

    @classmethod
    def t_var(cls, vs: VarSet) -> "SparsePoly":
        return cls.variable(vs, vs.t_index)

    # -- access and degree data -----------------------------------------

    def items(self) -> ItemsView[Exponent, Fraction]:
        """The (exponent, coefficient) pairs, every coefficient nonzero."""
        return self._terms.items()

    @property
    def nterms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def order(self) -> int | float:
        """Minimal z-total-degree of a term; +inf for the zero polynomial."""
        if not self._terms:
            return INF
        zd = self.vars.z_degree
        return min(zd(e) for e in self._terms)

    def degree(self) -> int | float:
        """Maximal z-total-degree of a term; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        zd = self.vars.z_degree
        return max(zd(e) for e in self._terms)

    def eta(self) -> int | float:
        """Phase grading: min over terms of z-degree minus xi-degree (t ignored)."""
        if not self.vars.has_xi:
            raise ContractViolation("eta grading needs a xi-block")
        if not self._terms:
            return INF
        vs = self.vars
        return min(vs.z_degree(e) - vs.xi_degree(e) for e in self._terms)

    def max_xi_degree(self) -> int:
        vs = self.vars
        return max((vs.xi_degree(e) for e in self._terms), default=0)

    def max_t_degree(self) -> int:
        vs = self.vars
        return max((vs.t_degree(e) for e in self._terms), default=0)

    # -- ring operations -----------------------------------------------

    def _check_same(self, other: "SparsePoly") -> None:
        if not isinstance(other, SparsePoly):
            raise ContractViolation(f"expected SparsePoly, got {type(other).__name__}")
        if other.vars != self.vars:
            raise ContractViolation(
                f"variable layout mismatch: {self.vars.kind}(n={self.vars.n}) vs "
                f"{other.vars.kind}(n={other.vars.n})")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return SparsePoly._unchecked(self.vars, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._unchecked(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c) -> "SparsePoly":
        c = _as_fraction(c)
        if not c:
            return SparsePoly.zero(self.vars)
        return SparsePoly._unchecked(self.vars, {e: c * v for e, v in self._terms.items()})

    def mul(self, other: "SparsePoly", trunc: int | None = None) -> "SparsePoly":
        """Product; terms of z-total-degree > trunc are dropped when trunc is given."""
        self._check_same(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return SparsePoly.zero(self.vars)
        out: dict[Exponent, Fraction] = {}
        if trunc is None:
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    v = out.get(e)
                    p = c1 * c2
                    out[e] = p if v is None else v + p
        else:
            zd = self.vars.z_degree
            bl = sorted((zd(e), e) for e in b)
            for e1, c1 in a.items():
                room = trunc - zd(e1)
                if room < 0:
                    continue
                for d2, e2 in bl:
                    if d2 > room:
                        break
                    e = tuple(x + y for x, y in zip(e1, e2))
                    v = out.get(e)
                    p = c1 * b[e2]
                    out[e] = p if v is None else v + p
        return SparsePoly._unchecked(self.vars, out)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return self.mul(other)

    def power(self, k: int, trunc: int | None = None) -> "SparsePoly":
        if k < 0:
            raise ContractViolation("negative powers are not in the ring")
        out = SparsePoly.one(self.vars)
        for _ in range(k):
            out = out.mul(self, trunc)
            if out.is_zero:
                break
        return out

    def __pow__(self, k: int) -> "SparsePoly":
        return self.power(k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    __hash__ = None  # mutable mapping inside; equality is structural

    # -- calculus -------------------------------------------------------

    def diff(self, index: int) -> "SparsePoly":
        """Partial derivative with respect to the variable at absolute index."""
        if not 0 <= index < self.vars.nvars:
            raise ContractViolation(f"variable index {index} out of range")
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            k = e[index]
            if k:
                ne = e[:index] + (k - 1,) + e[index + 1:]
                out[ne] = c * k
        return SparsePoly._unchecked(self.vars, out)

    def diff_z(self, i: int) -> "SparsePoly":
        return self.diff(self.vars.z_index(i))

    def diff_z_multi(self, alpha: Sequence[int]) -> "SparsePoly":
        """Iterated z-derivative d^alpha, via falling factorials on exponents."""
        vs = self.vars
        if len(alpha) != vs.n:
            raise ContractViolation("derivative multi-index length must equal n")
        zs = vs.z_start
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            ne = list(e)
            coeff = c
            alive = True
            for i, a in enumerate(alpha):
                if a == 0:
                    continue
                k = e[zs + i]
                if k < a:
                    alive = False
                    break
                f = 1
                for j in range(a):
                    f *= k - j
                coeff = coeff * f
                ne[zs + i] = k - a
            if alive:
                out[tuple(ne)] = coeff
        return SparsePoly._unchecked(self.vars, out)

    # -- truncation and slicing -----------------------------------------

    def truncate_z(self, bound: int) -> "SparsePoly":
        zd = self.vars.z_degree
        return SparsePoly._unchecked(
            self.vars, {e: c for e, c in self._terms.items() if zd(e) <= bound})

    def truncate_t(self, bound: int) -> "SparsePoly":
        td = self.vars.t_degree
        return SparsePoly._unchecked(
            self.vars, {e: c for e, c in self._terms.items() if td(e) <= bound})

    def restrict_xi(self, bound: int) -> "SparsePoly":
        xd = self.vars.xi_degree
        return SparsePoly._unchecked(
            self.vars, {e: c for e, c in self._terms.items() if xd(e) <= bound})

    def xi_slice(self, k: int) -> "SparsePoly":
        xd = self.vars.xi_degree
        return SparsePoly._unchecked(
            self.vars, {e: c for e, c in self._terms.items() if xd(e) == k})

    def drop_xi(self) -> "SparsePoly":
        """Strip the xi-block; every term must have xi-degree zero."""
        vs = self.vars
        n = vs.n
        if any(any(e[:n]) for e in self._terms):
            raise ContractViolation("polynomial has xi-terms; cannot drop the xi-block")
        return SparsePoly._unchecked(vs.without_xi(), {e[n:]: c for e, c in self._terms.items()})

    def xi_linear_component(self, i: int) -> "SparsePoly":
        """Coefficient of xi_i among terms whose xi-part is exactly xi_i."""
        vs = self.vars
        n = vs.n
        unit = tuple(1 if j == i else 0 for j in range(n))
        out = {e[n:]: c for e, c in self._terms.items() if e[:n] == unit}
        return SparsePoly._unchecked(vs.without_xi(), out)

    def lift(self, target: VarSet) -> "SparsePoly":
        """Reinterpret over a larger layout with the same n (new blocks get exponent 0)."""
        vs = self.vars
        if target == vs:
            return self
        if (target.n != vs.n or (vs.has_xi and not target.has_xi)
                or (vs.has_t and not target.has_t)):
            raise ContractViolation(
                f"cannot lift {vs.kind}(n={vs.n}) into {target.kind}(n={target.n})")
        n = vs.n
        xi_pad = (0,) * n if (target.has_xi and not vs.has_xi) else ()
        t_pad = (0,) if (target.has_t and not vs.has_t) else ()
        zs = vs.z_start
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            xi_part = e[:n] if vs.has_xi else xi_pad
            z_part = e[zs:zs + n]
            t_part = (e[-1],) if vs.has_t else t_pad
            out[xi_part + z_part + t_part] = c
        return SparsePoly._unchecked(target, out)

    # -- rendering -------------------------------------------------------

    def sorted_exponents(self) -> list[Exponent]:
        return sorted(self._terms, key=_grlex_key, reverse=True)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"SparsePoly[{self.vars.kind},n={self.vars.n}]({render_poly(self)})"


def render_monomial(vs: VarSet, exps: Exponent) -> str:
    names = vs.names()
    parts = [f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(exps) if k]
    return "*".join(parts) if parts else "1"


def render_poly(p: SparsePoly) -> str:
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for e in p.sorted_exponents():
        c = p._terms[e]
        mono = render_monomial(p.vars, e)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def first_difference(p: SparsePoly, q: SparsePoly
                     ) -> tuple[Exponent, Fraction, Fraction] | None:
    """First (lowest, in canonical order) monomial where p and q differ."""
    if p.vars != q.vars:
        raise ContractViolation("cannot diff polynomials over different layouts")
    exps = set(p._terms) | set(q._terms)
    for e in sorted(exps, key=_grlex_key):
        a, b = p.coeff(e), q.coeff(e)
        if a != b:
            return (e, a, b)
    return None


def diff_witness(p: SparsePoly, q: SparsePoly) -> str | None:
    d = first_difference(p, q)
    if d is None:
        return None
    e, a, b = d
    return f"{render_monomial(p.vars, e)}: {a} vs {b}"


# -- truncated series and map tuples -------------------------------------


@dataclass(frozen=True, eq=False)
class SeriesTrunc:
    """A polynomial known to represent a series correctly mod z-degree > trunc."""

    poly: SparsePoly
    trunc: int

    def __post_init__(self) -> None:
        if self.trunc < 0:
            raise ContractViolation("truncation order must be >= 0")
        if self.poly.degree() > self.trunc:
            raise ContractViolation(
                f"series carries degree {self.poly.degree()} terms beyond trunc={self.trunc}")

    @classmethod
    def of(cls, poly: SparsePoly, trunc: int) -> "SeriesTrunc":
        return cls(poly.truncate_z(trunc), trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        return self.trunc == other.trunc and self.poly == other.poly

    __hash__ = None

    def __str__(self) -> str:
        return f"{self.poly} + O(z^{self.trunc + 1})"


def series_parts(u: SparsePoly | SeriesTrunc) -> tuple[SparsePoly, int | float]:
    """Normalize an exact polynomial / truncated series argument."""
    if isinstance(u, SeriesTrunc):
        return u.poly, u.trunc
    if isinstance(u, SparsePoly):
        return u, INF
    raise ContractViolation(f"expected SparsePoly or SeriesTrunc, got {type(u).__name__}")


@dataclass(frozen=True, eq=False)
class MapTuple:
    """n-tuple of z-components over a common layout.

    trunc=None marks an exact polynomial tuple; otherwise every component
    is a series known mod z-degree > trunc.
    """

    components: tuple[SparsePoly, ...]
    trunc: int | None = None

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ContractViolation("map tuple needs at least one component")
        vs = comps[0].vars
        if any(c.vars != vs for c in comps):
            raise ContractViolation("map components must share one variable layout")
        if vs.has_xi:
            raise ContractViolation("map components live in z-variables (optionally with t)")
        if len(comps) != vs.n:
            raise ContractViolation(
                f"map has {len(comps)} components but layout expects n={vs.n}")
        if self.trunc is not None:
            if self.trunc < 0:
                raise ContractViolation("truncation order must be >= 0")
            for i, c in enumerate(comps):
                if c.degree() > self.trunc:
                    raise ContractViolation(
                        f"component {i + 1} carries degree {c.degree()} beyond trunc={self.trunc}")
        object.__setattr__(self, "components", comps)

    @property
    def vars(self) -> VarSet:
        return self.components[0].vars

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def is_exact(self) -> bool:
        return self.trunc is None

    @property
    def effective_trunc(self) -> int | float:
        return INF if self.trunc is None else self.trunc

    def order(self) -> int | float:
        return min(c.order() for c in self.components)

    def __iter__(self) -> Iterator[SparsePoly]:
        return iter(self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MapTuple):
            return NotImplemented
        return self.trunc == other.trunc and self.components == other.components

    __hash__ = None

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.components)
        tail = "" if self.trunc is None else f" (trunc {self.trunc})"
        return f"({body}){tail}"

    @classmethod
    def identity(cls, vs: VarSet, trunc: int | None = None) -> "MapTuple":
        return cls(tuple(SparsePoly.z_var(vs, i) for i in range(vs.n)), trunc)

    @classmethod
    def exact(cls, components: Sequence[SparsePoly]) -> "MapTuple":
        return cls(tuple(components), None)

    @classmethod
    def truncated(cls, components: Sequence[SparsePoly], trunc: int) -> "MapTuple":
        return cls(tuple(c.truncate_z(trunc) for c in components), trunc)

    def lift(self, target: VarSet) -> "MapTuple":
        return MapTuple(tuple(c.lift(target) for c in self.components), self.trunc)

    def apply(self, f: Callable[[SparsePoly], SparsePoly]) -> "MapTuple":
        return MapTuple(tuple(f(c) for c in self.components), self.trunc)


def xi_pairing(h: MapTuple) -> SparsePoly:
    """The phase polynomial sum_i xi_i * h_i over the xi-extended layout."""
    vs = h.vars
    target = VarSet.xizt(vs.n) if vs.has_t else VarSet.xiz(vs.n)
    acc = SparsePoly.zero(target)
    for i, hi in enumerate(h.components):
        acc = acc + SparsePoly.xi_var(target, i).mul(hi.lift(target))
    return acc


def lambda_apply(f: SparsePoly) -> SparsePoly:
    """One application of the mixed derivative sum_i d_xi_i d_z_i."""
    vs = f.vars
    if not vs.has_xi:
        raise ContractViolation("the mixed derivative needs a xi-block")
    n = vs.n
    zs = vs.z_start
    out: dict[Exponent, Fraction] = {}
    for e, c in f._terms.items():
        for i in range(n):
            a, b = e[i], e[zs + i]
            if a and b:
                ne = list(e)
                ne[i] = a - 1
                ne[zs + i] = b - 1
                ne_t = tuple(ne)
                v = out.get(ne_t)
                k = c * (a * b)
                out[ne_t] = k if v is None else v + k
    return SparsePoly._unchecked(vs, out)


# -- composition ----------------------------------------------------------


def compose(u: SparsePoly | SeriesTrunc, g: MapTuple, bound: int) -> SeriesTrunc:
    """Substitute the components of g for the z-variables of u, mod z-degree > bound.

    An exact polynomial u composes with any map; a proper series u needs
    every component of g to be z-constant-free, and both u and g must be
    known at least to the requested bound.
    """
    upoly, utrunc = series_parts(u)
    vsu, vsg = upoly.vars, g.vars
    if vsu.has_xi:
        raise ContractViolation("composition substitutes z-variables only; no xi allowed in u")
    if vsu.n != vsg.n:
        raise ContractViolation(f"u has n={vsu.n} but map has n={vsg.n}")
    if vsu.has_t and not vsg.has_t:
        raise ContractViolation("u depends on t but the map layout has no t")
    if bound < 0:
        raise ContractViolation("composition bound must be >= 0")
    if g.effective_trunc < bound:
        raise TruncationError(
            f"map known to z-degree {g.trunc}; composition to degree {bound} needs >= {bound}")
    if isinstance(u, SeriesTrunc):
        if utrunc < bound:
            raise TruncationError(
                f"series u known to z-degree {utrunc}; need >= {bound}")
        for i, gi in enumerate(g.components):
            if not gi.is_zero and gi.order() == 0:
                raise CompositionError(
                    f"component {i + 1} has a z-constant term; substituting it into a "
                    f"proper series is undefined")

    n = vsg.n
    const_free = [gi.is_zero or gi.order() >= 1 for gi in g.components]
    powers = [[SparsePoly.one(vsg)] for _ in range(n)]  # g_i^k, truncated at bound
    zs = vsu.z_start
    out: dict[Exponent, Fraction] = {}
    for e, c in upoly._terms.items():
        base_exps = [0] * vsg.nvars
        if vsu.has_t:
            base_exps[vsg.t_index] = e[-1]
        acc = SparsePoly.monomial(vsg, base_exps, c)
        for i in range(n):
            b = e[zs + i]
            if b == 0:
                continue
            if const_free[i] and b > bound:
                acc = SparsePoly.zero(vsg)
                break
            pw = powers[i]
            while len(pw) <= b:
                pw.append(pw[-1].mul(g.components[i], trunc=bound))
            acc = acc.mul(pw[b], trunc=bound)
            if acc.is_zero:
                break
        for ae, ac in acc._terms.items():
            v = out.get(ae)
            out[ae] = ac if v is None else v + ac
    # no cut needed: each acc is a z-free monomial or the output of a mul
    # truncated at bound
    return SeriesTrunc(SparsePoly._unchecked(vsg, out), bound)


# -- matrices and determinants -------------------------------------------


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Square matrix of polynomials over a common layout."""

    rows: tuple[tuple[SparsePoly, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ContractViolation("matrix must be square and nonempty")
        vs = rows[0][0].vars
        if any(e.vars != vs for r in rows for e in r):
            raise ContractViolation("matrix entries must share one variable layout")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def vars(self) -> VarSet:
        return self.rows[0][0].vars

    def entry(self, i: int, j: int) -> SparsePoly:
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    @classmethod
    def identity(cls, vs: VarSet, dim: int) -> "PolyMatrix":
        one, zero = SparsePoly.one(vs), SparsePoly.zero(vs)
        return cls(tuple(tuple(one if i == j else zero for j in range(dim))
                         for i in range(dim)))

    def map(self, f: Callable[[SparsePoly], SparsePoly]) -> "PolyMatrix":
        return PolyMatrix(tuple(tuple(f(e) for e in r) for r in self.rows))

    def sub(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ContractViolation("matrix dimension mismatch")
        return PolyMatrix(tuple(
            tuple(self.rows[i][j] - other.rows[i][j] for j in range(self.dim))
            for i in range(self.dim)))


def jacobian(h: MapTuple) -> PolyMatrix:
    """Matrix of z-partials: entry (i, j) = d h_i / d z_j."""
    n = h.n
    return PolyMatrix(tuple(
        tuple(h.components[i].diff_z(j) for j in range(n)) for i in range(n)))


def det(m: PolyMatrix, trunc: int | None = None) -> SparsePoly:
    """Determinant by cofactor expansion with memoized minors; terms of
    z-degree > trunc are dropped from every product when trunc is given."""
    n = m.dim
    vs = m.vars
    memo: dict[tuple[int, int], SparsePoly] = {}

    def minor(row: int, mask: int) -> SparsePoly:
        if row == n:
            return SparsePoly.one(vs)
        key = (row, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = SparsePoly.zero(vs)
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            e = m.rows[row][j]
            if not e.is_zero:
                sub = minor(row + 1, mask & ~bit)
                contrib = e.mul(sub, trunc)
                acc = acc + (contrib if sign > 0 else -contrib)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, (1 << n) - 1)
