"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored in packed form, after Monagan & Pearce, "Parallel
sparse polynomial multiplication using heaps" (ISSAC 2009):

- Each exponent tuple is one int key.  Its leading field, which is
  unbounded, holds the z-total-degree; below it sits one 16-bit field per
  variable, the first variable of the layout in the most significant one.
  A monomial product is an int add, the truncation test "z-degree <= trunc"
  is key < (trunc + 1) << shift, and order() and degree() read key >> shift.
- The coefficients are int numerators over one positive common
  denominator, kept canonical: no numerator is zero and
  gcd(den, *numerators) == 1, so equality is a plain structural compare.

The kernel loops read that order.  A truncated mul walks the keys of its
left operand in ascending order, as Monagan & Pearce process terms in
sorted order, and bisects the sorted right operand for each row's window;
since the key of a larger z-degree is larger, the rows only shrink, and
the walk stops at the first empty one.  A product that is empty by order
costs the sort of its right operand and one min() of its left one, which
is never sorted.  lambda_apply groups the terms
by xi-part (key & xi_mask): terms of one group share the xi-exponents
a_i, so each a_i is read once per group, and per term only the z-field of
a nonzero a_i.  weighted_sum streams (term, weight) pairs into one dict
over a common denominator and reduces once, at the end.

The top bit of every field is a guard, so each exponent must lie in
0..MAX_EXPONENT (32767).  The constructor refuses a larger one, and a mul
whose product crosses the limit raises ContractViolation: two fields below
the limit sum without carrying into the next field, so one AND against the
guard mask finds the overflow.

That storage is private to this module.  Other code builds a polynomial
from {exponent tuple: coefficient} and reads it through items(), nterms,
coeff() and sorted_exponents(), which speak in exponent tuples and
Fractions; every loop that must touch the storage, the mixed derivative
lambda_apply among them, lives here.

The variable layout is fixed by a VarSet: an optional xi-block
(xi1..xin), then the z-block (z1..zn), then an optional deformation
variable t.  Layouts are interned, one object per (kind, n) that carries
its key arithmetic, so a layout check is an identity test.  All four
layouts share one exponent-tuple convention, and the z- and t-fields of a
key sit at the same place in every layout with the same t, so moving a
polynomial between compatible layouts is a shift of its keys (see
SparsePoly.lift).

Degrees and truncation are always measured in the z-block alone:
order() is the minimal z-total-degree of any term (+inf for 0),
degree() the maximal (-inf for 0).  xi- and t-degrees are bounded
separately by the callers that need bounds.  The infinities are
sentinels used only in comparisons, never in arithmetic.

A power series exists only as a MapTuple whose trunc is the z-degree to
which its components are known; every single polynomial is exact, and
compose_map, the one place a series is substituted into, holds its contract.

Canonical term order for rendering and witnesses is graded
lexicographic on the full exponent tuple (xi-block before z-block
before t), so output is deterministic and diff-stable.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from math import gcd, lcm, perm
from operator import index, mul, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CompositionError, ContractViolation, TruncationError
from .record import Record, set_field

Exponent = tuple[int, ...]

INF = math.inf
NEG_INF = -math.inf

_XI_KINDS = frozenset({"xiz", "xizt"})
_T_KINDS = frozenset({"zt", "xizt"})
_ALL_KINDS = frozenset({"z", "xiz", "zt", "xizt"})

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1  # the top bit of a field is its guard


_LAYOUTS: dict[tuple[str, int], "VarSet"] = {}  # the one VarSet of each (kind, n)


class VarSet(Record):
    """Variable layout (xi1..xin | z1..zn | t) restricted by kind.

    There is one VarSet per (kind, n): the constructor, the classmethods,
    with_xi, without_xi, pickle and copy all return it.  So two layouts are
    equal exactly when they are one object, and equality and hash are those
    of the object, as cheap as the kernel's checks need.  A layout is
    validated once, when first asked for, and carries the key arithmetic of
    its packed storage in _pk.
    """

    __slots__ = ("kind", "n", "_pk")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: str, n: int) -> "VarSet":
        vs = _LAYOUTS.get((kind, n))
        if vs is None:
            if kind not in _ALL_KINDS:
                raise ContractViolation(f"unknown variable kind {kind!r}")
            if n < 1:
                raise ContractViolation("variable count n must be >= 1")
            vs = object.__new__(cls)
            set_field(vs, "kind", kind)
            set_field(vs, "n", index(n))  # a plain int, so n=True is the layout of n=1
            set_field(vs, "_pk", _Packing(vs))
            _LAYOUTS[kind, vs.n] = vs
        return vs

    def __reduce__(self):  # pickle and copy return the one layout
        return (VarSet, (self.kind, self.n))

    def __repr__(self) -> str:
        return f"VarSet(kind={self.kind!r}, n={self.n!r})"

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

    def names(self) -> list[str]:
        out: list[str] = []
        if self.has_xi:
            out.extend(f"xi{i + 1}" for i in range(self.n))
        out.extend(f"z{i + 1}" for i in range(self.n))
        if self.has_t:
            out.append("t")
        return out

    def with_xi(self) -> "VarSet":
        return VarSet("xizt" if self.has_t else "xiz", self.n)

    def without_xi(self) -> "VarSet":
        return VarSet("zt" if self.has_t else "z", self.n)


class _Packing:
    """The key arithmetic of one layout: where each variable's field sits."""

    def __init__(self, vs: VarSet) -> None:
        nv = vs.nvars
        zs = vs.z_start
        self.shift = _FIELD_BITS * nv  # the z-degree field starts here
        self.fields = (1 << self.shift) - 1
        self.guard = sum(1 << (_FIELD_BITS - 1 + _FIELD_BITS * i) for i in range(nv))
        self.shifts = tuple(_FIELD_BITS * (nv - 1 - i) for i in range(nv))
        # the key of each variable: its field, plus the z-degree for z_i
        self.units = tuple((1 << s) + (1 << self.shift if zs <= i < zs + vs.n else 0)
                           for i, s in enumerate(self.shifts))
        self.xi_shifts = self.shifts[:vs.n] if vs.has_xi else ()
        self.xi_mask = sum(_FIELD_MASK << s for s in self.xi_shifts)
        self._struct = struct.Struct(f">{nv}H")  # one unsigned 16-bit field each

    def pack(self, exps: Exponent) -> int:
        return sum(map(mul, exps, self.units))

    def exps(self, key: int) -> Exponent:
        return self._struct.unpack((key & self.fields).to_bytes(2 * len(self.shifts), "big"))

    def xi_degree(self, key: int) -> int:
        return sum((key >> s) & _FIELD_MASK for s in self.xi_shifts)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)) and not isinstance(c, bool):
        return Fraction(c)
    raise ContractViolation(f"coefficient {c!r} is not an exact rational")


def _grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


_INT = frozenset({int})


def _valid_exponents(keys: list[tuple], nv: int) -> bool:
    """Every key has nv entries, each exactly an int (so no bool) in 0..MAX_EXPONENT."""
    flat = list(chain.from_iterable(keys))
    return (set(map(len, keys)) <= {nv} and set(map(type, flat)) <= _INT
            and (not flat or 0 <= min(flat) and max(flat) <= MAX_EXPONENT))


_new = object.__new__


def _make(vs: VarSet, terms: dict[int, int], den: int) -> "SparsePoly":
    """A polynomial from storage that is already canonical."""
    p = _new(SparsePoly)
    _set_vars(p, vs)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def _reduced(vs: VarSet, terms: dict[int, int], den: int) -> "SparsePoly":
    """A polynomial from numerators over den > 0, dropping zeros and common factors.

    terms may become the new polynomial's storage, so callers pass a dict of their own.
    """
    if 0 in terms.values():
        terms = {k: v for k, v in terms.items() if v}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: v // g for k, v in terms.items()}
    return _make(vs, terms, den)


def _sum_into(out: dict[int, int], den: int, terms: Mapping[int, int], tden: int,
              num: int = 1) -> int:
    """Add num * terms/tden to out/den in place; returns the new common denominator.

    Zero numerators may be left in out.
    """
    g = gcd(den, tden)
    up, scale = tden // g, den // g * num
    if up != 1:
        for k in out:
            out[k] *= up
        den *= up
    get = out.get
    for k, v in terms.items():
        out[k] = get(k, 0) + v * scale
    return den


class SparsePoly(Record):
    """Immutable sparse polynomial over the rationals, in packed form.

    Built from {exponent tuple: Fraction | int | str}; zero coefficients
    are dropped.
    """

    __slots__ = ("vars", "_terms", "_den")

    def __init__(self, vars: VarSet, terms: Mapping[Exponent, Fraction | int | str]) -> None:
        pk = vars._pk
        nv = len(pk.shifts)
        try:
            keys = [tuple(e) for e in terms]
        except TypeError:
            raise ContractViolation(f"exponents must be tuples of ints, got {list(terms)}") from None
        if not _valid_exponents(keys, nv):
            bad = next(e for e in keys if not _valid_exponents([e], nv))
            raise ContractViolation(
                f"exponent {bad} invalid for variable layout {vars.kind}(n={vars.n}): "
                f"it needs {nv} ints in 0..{MAX_EXPONENT}")
        ratios = [(c if type(c) is Fraction else _as_fraction(c)).as_integer_ratio()
                  for c in terms.values()]
        den = lcm(*[d for _, d in ratios])
        pack = pk.pack
        set_field(self, "vars", vars)
        set_field(self, "_terms", {pack(e): num * (den // d)
                                   for e, (num, d) in zip(keys, ratios) if num})
        set_field(self, "_den", den)

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return (SparsePoly, (self.vars, dict(self.items())))

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vs: VarSet) -> "SparsePoly":
        return _make(vs, {}, 1)

    @classmethod
    def const(cls, vs: VarSet, c) -> "SparsePoly":
        c = _as_fraction(c)
        return _make(vs, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls, vs: VarSet) -> "SparsePoly":
        return _make(vs, {0: 1}, 1)

    @classmethod
    def monomial(cls, vs: VarSet, exps: Sequence[int], c=1) -> "SparsePoly":
        return cls(vs, {tuple(exps): _as_fraction(c)})

    @classmethod
    def variable(cls, vs: VarSet, index: int) -> "SparsePoly":
        if not 0 <= index < vs.nvars:
            raise ContractViolation(f"variable index {index} out of range")
        return _make(vs, {vs._pk.units[index]: 1}, 1)

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

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """The (exponent, coefficient) pairs, every coefficient nonzero."""
        exps, den = self.vars._pk.exps, self._den
        return [(exps(k), Fraction(v, den)) for k, v in self._terms.items()]

    @property
    def nterms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        pk = self.vars._pk
        if len(exps) != len(pk.shifts):
            raise ContractViolation(
                f"exponent {exps} has {len(exps)} entries; layout "
                f"{self.vars.kind}(n={self.vars.n}) has {len(pk.shifts)} variables")
        if not all(0 <= e <= MAX_EXPONENT for e in exps):
            return Fraction(0)  # no stored term has such an exponent
        v = self._terms.get(pk.pack(exps))
        return Fraction(0) if v is None else Fraction(v, self._den)

    def order(self) -> int | float:
        """Minimal z-total-degree of a term; +inf for the zero polynomial."""
        if not self._terms:
            return INF
        return min(self._terms) >> self.vars._pk.shift

    def degree(self) -> int | float:
        """Maximal z-total-degree of a term; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(self._terms) >> self.vars._pk.shift

    def eta(self) -> int | float:
        """Phase grading: min over terms of z-degree minus xi-degree (t ignored)."""
        if not self.vars.has_xi:
            raise ContractViolation("eta grading needs a xi-block")
        if not self._terms:
            return INF
        pk = self.vars._pk
        return min((k >> pk.shift) - pk.xi_degree(k) for k in self._terms)

    def xi_degrees(self) -> set[int]:
        """The xi-degrees of the terms, read once per distinct xi-part."""
        pk = self.vars._pk
        return set(map(pk.xi_degree, {k & pk.xi_mask for k in self._terms}))

    def max_t_degree(self) -> int:
        if not self.vars.has_t:
            return 0
        return max((k & _FIELD_MASK for k in self._terms), default=0)  # t is the last field

    # -- ring operations -----------------------------------------------

    def _check_same(self, other: "SparsePoly") -> None:
        if not isinstance(other, SparsePoly):
            raise ContractViolation(f"expected SparsePoly, got {type(other).__name__}")
        if other.vars is not self.vars:
            raise _layout_mismatch(self.vars, other.vars)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        den = _sum_into(out, self._den, other._terms, other._den)
        return _reduced(self.vars, out, den)

    def __neg__(self) -> "SparsePoly":
        return _make(self.vars, {k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c) -> "SparsePoly":
        c = _as_fraction(c)
        if not c:
            return SparsePoly.zero(self.vars)
        num = c.numerator
        return _reduced(self.vars, {k: v * num for k, v in self._terms.items()},
                        self._den * c.denominator)

    def mul(self, other: "SparsePoly", trunc: int | None = None) -> "SparsePoly":
        """Product; terms of z-total-degree > trunc are dropped when trunc is given."""
        self._check_same(other)
        a, b = self._terms, other._terms
        vs = self.vars
        if not a or not b:
            return _make(vs, {}, 1)
        pk = vs._pk
        out: dict[int, int] = {}
        get = out.get
        if trunc is None:
            bl = list(b.items())
            for k1, c1 in a.items():
                for k2, c2 in bl:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        else:
            # k1 + k2 < limit exactly when the z-degrees sum to <= trunc; keys
            # order by z-degree first, so rows only shrink as k1 ascends, and
            # from the first k1 >= stop on every row is empty
            limit = (trunc + 1) << pk.shift
            bk = sorted(b)
            stop = limit - bk[0]
            if min(a) >= stop:  # empty by order: a is not sorted
                return _make(vs, {}, 1)
            bl = [(k, b[k]) for k in bk]
            for k1 in sorted(a):
                if k1 >= stop:
                    break
                c1 = a[k1]
                for k2, c2 in islice(bl, bisect_left(bk, limit - k1)):
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        # an overflowing field sets its guard bit, and OR-ing the keys keeps it
        if reduce(or_, out, 0) & pk.guard:
            raise ContractViolation(
                f"product has an exponent above the per-variable limit {MAX_EXPONENT}")
        return _reduced(vs, out, self._den * other._den)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self._den == other._den and self._terms == other._terms
                and self.vars is other.vars)

    __hash__ = None  # mutable mapping inside; equality is structural

    # -- calculus -------------------------------------------------------

    def diff(self, index: int) -> "SparsePoly":
        """Partial derivative with respect to the variable at absolute index."""
        if not 0 <= index < self.vars.nvars:
            raise ContractViolation(f"variable index {index} out of range")
        pk = self.vars._pk
        s, unit = pk.shifts[index], pk.units[index]
        out: dict[int, int] = {}
        for k, v in self._terms.items():
            e = (k >> s) & _FIELD_MASK
            if e:
                out[k - unit] = v * e
        return _reduced(self.vars, out, self._den)

    def diff_z(self, i: int) -> "SparsePoly":
        return self.diff(self.vars.z_index(i))

    def diff_z_multi(self, alpha: Sequence[int]) -> "SparsePoly":
        """Iterated z-derivative d^alpha, via falling factorials on exponents."""
        vs = self.vars
        if len(alpha) != vs.n:
            raise ContractViolation("derivative multi-index length must equal n")
        pk = vs._pk
        zs = vs.z_start
        steps = [(pk.shifts[zs + i], a) for i, a in enumerate(alpha) if a]
        drop = sum(a * pk.units[zs + i] for i, a in enumerate(alpha))
        out: dict[int, int] = {}
        for k, v in self._terms.items():
            for s, a in steps:
                e = (k >> s) & _FIELD_MASK
                if e < a:
                    break
                v *= perm(e, a)
            else:
                out[k - drop] = v
        return _reduced(vs, out, self._den)

    # -- truncation and slicing -----------------------------------------

    def _where(self, keep: Callable[[int], bool]) -> "SparsePoly":
        """The terms whose key passes keep."""
        terms = self._terms
        kept = {k: v for k, v in terms.items() if keep(k)}
        if len(kept) == len(terms):
            return self
        return _reduced(self.vars, kept, self._den)

    def truncate_z(self, bound: int) -> "SparsePoly":
        limit = (bound + 1) << self.vars._pk.shift
        if not self._terms or max(self._terms) < limit:
            return self
        return _reduced(self.vars, {k: v for k, v in self._terms.items() if k < limit},
                        self._den)

    def truncate_t(self, bound: int) -> "SparsePoly":
        if not self.vars.has_t:
            return self
        return self._where(lambda k: k & _FIELD_MASK <= bound)

    def restrict_xi(self, bound: int) -> "SparsePoly":
        xd = self.vars._pk.xi_degree
        return self._where(lambda k: xd(k) <= bound)

    def xi_slice(self, k: int) -> "SparsePoly":
        xd = self.vars._pk.xi_degree
        return self._where(lambda key: xd(key) == k)

    def _xi_free(self, keys: dict[int, int]) -> "SparsePoly":
        """keys, free of xi, re-read over the layout without the xi-block."""
        vs = self.vars
        target = vs.without_xi()
        s, ts, low = vs._pk.shift, target._pk.shift, target._pk.fields
        return _reduced(target, {((k >> s) << ts) | (k & low): v for k, v in keys.items()},
                        self._den)

    def drop_xi(self) -> "SparsePoly":
        """Strip the xi-block; every term must have xi-degree zero."""
        if not self.vars.has_xi:
            raise ContractViolation(f"variable kind {self.vars.kind!r} has no xi-block")
        xi_mask = self.vars._pk.xi_mask
        if any(k & xi_mask for k in self._terms):
            raise ContractViolation("polynomial has xi-terms; cannot drop the xi-block")
        return self._xi_free(self._terms)

    def xi_linear_component(self, i: int) -> "SparsePoly":
        """Coefficient of xi_i among terms whose xi-part is exactly xi_i."""
        pk = self.vars._pk
        unit, xi_mask = 1 << pk.shifts[self.vars.xi_index(i)], pk.xi_mask
        return self._xi_free({k - unit: v for k, v in self._terms.items()
                              if k & xi_mask == unit})

    def lift(self, target: VarSet) -> "SparsePoly":
        """Reinterpret over a larger layout with the same n (new blocks get exponent 0)."""
        vs = self.vars
        if target is vs:
            return self
        if (target.n != vs.n or (vs.has_xi and not target.has_xi)
                or (vs.has_t and not target.has_t)):
            raise ContractViolation(
                f"cannot lift {vs.kind}(n={vs.n}) into {target.kind}(n={target.n})")
        # a new xi-block sits above the old fields; a new t-field below them
        up = _FIELD_BITS if target.has_t and not vs.has_t else 0
        src, ts = vs._pk, target._pk.shift
        s, fields = src.shift, src.fields
        return _make(target, {((k >> s) << ts) | ((k & fields) << up): v
                              for k, v in self._terms.items()}, self._den)

    # -- rendering -------------------------------------------------------

    def sorted_exponents(self) -> list[Exponent]:
        return sorted(map(self.vars._pk.exps, self._terms), key=_grlex_key,
                      reverse=True)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"SparsePoly[{self.vars.kind},n={self.vars.n}]({render_poly(self)})"


# _make writes the slots through their descriptors, past the frozen __setattr__
_set_vars, _set_terms, _set_den = (vars(SparsePoly)[name].__set__
                                   for name in SparsePoly.__slots__)


def _layout_mismatch(vs: VarSet, other: VarSet) -> ContractViolation:
    return ContractViolation(f"variable layout mismatch: {vs.kind}(n={vs.n}) vs "
                             f"{other.kind}(n={other.n})")


def weighted_sum(vs: VarSet, pairs: Iterable[tuple[SparsePoly, Fraction | int]]) -> SparsePoly:
    """sum of weight * term over the (term, weight) pairs, every term over vs.

    The terms stream into one dict of numerators over one common
    denominator, reduced once at the end, so no term is scaled and no
    partial sum is copied.
    """
    out: dict[int, int] = {}
    den = 1
    for term, weight in pairs:
        if term.vars is not vs:
            raise _layout_mismatch(vs, term.vars)
        if term._terms:
            w = _as_fraction(weight)
            den = _sum_into(out, den, term._terms, term._den * w.denominator, w.numerator)
    return _reduced(vs, out, den)


def render_monomial(vs: VarSet, exps: Exponent) -> str:
    names = vs.names()
    parts = [f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(exps) if k]
    return "*".join(parts) if parts else "1"


def render_poly(p: SparsePoly) -> str:
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    coeffs = dict(p.items())
    for e in sorted(coeffs, key=_grlex_key, reverse=True):
        c = coeffs[e]
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
    if p.vars is not q.vars:
        raise ContractViolation("cannot diff polynomials over different layouts")
    a, b = dict(p.items()), dict(q.items())
    zero = Fraction(0)
    for e in sorted(a.keys() | b.keys(), key=_grlex_key):
        ca, cb = a.get(e, zero), b.get(e, zero)
        if ca != cb:
            return (e, ca, cb)
    return None


def diff_witness(p: SparsePoly, q: SparsePoly) -> str | None:
    d = first_difference(p, q)
    if d is None:
        return None
    e, a, b = d
    return f"{render_monomial(p.vars, e)}: {a} vs {b}"


# -- map tuples ---------------------------------------------------------


class MapTuple(Record):
    """n-tuple of z-components over a common layout.

    trunc=None marks an exact polynomial tuple; otherwise every component
    is a series known mod z-degree > trunc.
    """

    __slots__ = ("components", "trunc")

    def __init__(self, components: Sequence[SparsePoly], trunc: int | None = None) -> None:
        comps = tuple(components)
        if not comps:
            raise ContractViolation("map tuple needs at least one component")
        vs = comps[0].vars
        if any(c.vars is not vs for c in comps):
            raise ContractViolation("map components must share one variable layout")
        if vs.has_xi:
            raise ContractViolation("map components live in z-variables (optionally with t)")
        if len(comps) != vs.n:
            raise ContractViolation(
                f"map has {len(comps)} components but layout expects n={vs.n}")
        if trunc is not None:
            if trunc < 0:
                raise ContractViolation("truncation order must be >= 0")
            for i, c in enumerate(comps):
                if c.degree() > trunc:
                    raise ContractViolation(
                        f"component {i + 1} carries degree {c.degree()} beyond trunc={trunc}")
        set_field(self, "components", comps)
        set_field(self, "trunc", trunc)

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


def xi_pairing(h: MapTuple) -> SparsePoly:
    """The phase polynomial sum_i xi_i * h_i over the xi-extended layout."""
    target = h.vars.with_xi()
    acc = SparsePoly.zero(target)
    # xi_i * h_i adds the key of xi_i, the i-th unit, to each key of a lift whose xi_i is 0
    for hi, unit in zip(h.components, target._pk.units):
        hi = hi.lift(target)
        acc = acc + _make(target, {k + unit: v for k, v in hi._terms.items()}, hi._den)
    return acc


def lambda_apply(f: SparsePoly) -> SparsePoly:
    """One application of the mixed derivative sum_i d_xi_i d_z_i."""
    vs = f.vars
    if not vs.has_xi:
        raise ContractViolation("the mixed derivative needs a xi-block")
    pk = vs._pk
    n = vs.n
    # per i: the fields of xi_i and z_i, and the key of xi_i*z_i
    pairs = [(pk.shifts[i], pk.shifts[n + i], pk.units[i] + pk.units[n + i])
             for i in range(n)]
    # terms that share a xi-part share its exponents a_i, so each a_i is read
    # once per xi-part, and per term only the z-field b_i of a nonzero a_i
    xi_mask = pk.xi_mask
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, v in f._terms.items():
        group = groups.get(k & xi_mask)
        if group is None:
            groups[k & xi_mask] = [(k, v)]
        else:
            group.append((k, v))
    out: dict[int, int] = {}
    get = out.get
    for xp, group in groups.items():
        for xs, zs, step in pairs:
            a = (xp >> xs) & _FIELD_MASK
            if a:
                for k, v in group:
                    b = (k >> zs) & _FIELD_MASK
                    if b:
                        nk = k - step
                        out[nk] = get(nk, 0) + v * (a * b)
    return _reduced(vs, out, f._den)


# -- composition ----------------------------------------------------------


class MonomialTable:
    """The z-monomials g^e of one map g, truncated at z-degree bound, each built once.

    g^e = g^(e without its last nonzero entry) * g_i^(e_i), with i that
    entry, so each entry costs at most one multiply from a smaller one.
    Compositions that share a table share its entries; the table holds no
    reference to itself, so it is freed as soon as its last user drops it.
    """

    def __init__(self, g: MapTuple, bound: int) -> None:
        n = g.vars.n
        self.g = g
        self.bound = bound
        self.const_free = [gi.is_zero or gi.order() >= 1 for gi in g.components]
        self.one = SparsePoly.one(g.vars)
        self._zero = SparsePoly.zero(g.vars)
        self._powers = [[self.one, gi.truncate_z(bound)] for gi in g.components]  # g_i^k
        self._table: dict[Exponent, SparsePoly] = {(0,) * n: self.one}

    def power(self, ez: Exponent) -> SparsePoly:
        """g^ez, filling in the table each missing prefix (ez_1..ez_i, 0..0)."""
        table = self._table
        out = table.get(ez)
        if out is not None:
            return out
        n, bound, one = len(ez), self.bound, self.one
        out = one
        for i, b in enumerate(ez):
            if not b:
                continue
            prefix = ez[:i + 1] + (0,) * (n - i - 1)
            hit = table.get(prefix)
            if hit is None:
                if out.is_zero or self.const_free[i] and b > bound:
                    hit = self._zero
                else:
                    pw = self._powers[i]
                    while len(pw) <= b:
                        pw.append(pw[-1].mul(self.g.components[i], trunc=bound))
                    hit = pw[b] if out is one or pw[b].is_zero else out.mul(pw[b], trunc=bound)
                table[prefix] = hit
            out = hit
        return out


def compose(u: SparsePoly, g: MapTuple, bound: int, *,
            table: MonomialTable | None = None) -> SparsePoly:
    """Substitute the components of g for the z-variables of u, mod z-degree > bound.

    u is an exact polynomial; g must be known at least to the requested
    bound.  table, when given, is the MonomialTable of this g and bound;
    compositions that pass the same table build each g^e once between
    them.  u is a scaled sum of table entries; a t-exponent of u enters as
    a monomial factor through mul.
    """
    vsu, vsg = u.vars, g.vars
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
    if table is None:
        table = MonomialTable(g, bound)
    elif table.g is not g or table.bound != bound:
        raise ContractViolation("monomial table was built for another map or bound")

    n = vsg.n
    one = table.one
    upk = vsu._pk
    out: dict[int, int] = {}
    den = 1
    for key, num in u._terms.items():
        e = upk.exps(key)
        gp = table.power(e[:n])  # the z-block leads both z layouts
        if gp.is_zero:
            continue
        t_exp = e[-1] if vsu.has_t else 0
        if t_exp:
            # the z-free monomial c*t^e_t; t is the last field of both layouts
            common = gcd(num, u._den)
            mono = _make(vsg, {t_exp: num // common}, u._den // common)
            gp = mono if gp is one else mono.mul(gp, trunc=bound)
            den = _sum_into(out, den, gp._terms, gp._den)
        else:
            den = _sum_into(out, den, gp._terms, gp._den * u._den, num)
    # no cut needed: each table entry is 1 or truncated at bound
    return _reduced(vsg, out, den)


def compose_map(h: MapTuple, g: MapTuple, bound: int) -> MapTuple:
    """Every component of h with g substituted, mod z-degree > bound.

    One compose per component, all through one MonomialTable, so each
    g^e is built once per call however many components use it.  This is
    the one place a series is substituted into: a truncated h must be known
    to the bound, and g must be z-constant-free, or a series term of
    unbounded degree would land in the window.
    """
    table = MonomialTable(g, bound)
    if h.trunc is not None:
        if h.trunc < bound:
            raise TruncationError(
                f"series known to z-degree {h.trunc}; composition to degree {bound} "
                f"needs >= {bound}")
        if False in table.const_free:
            raise CompositionError(
                f"component {table.const_free.index(False) + 1} has a z-constant term; "
                "substituting it into a proper series is undefined")
    return MapTuple(tuple(compose(hi, g, bound, table=table) for hi in h.components), bound)


# -- matrices and determinants -------------------------------------------


class PolyMatrix(Record):
    """Square matrix of polynomials over a common layout."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[SparsePoly]]) -> None:
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ContractViolation("matrix must be square and nonempty")
        vs = rows[0][0].vars
        if any(e.vars is not vs for r in rows for e in r):
            raise ContractViolation("matrix entries must share one variable layout")
        set_field(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def vars(self) -> VarSet:
        return self.rows[0][0].vars

    def entry(self, i: int, j: int) -> SparsePoly:
        return self.rows[i][j]


def jacobian(h: MapTuple) -> PolyMatrix:
    """Matrix of z-partials: entry (i, j) = d h_i / d z_j."""
    n = h.n
    return PolyMatrix(tuple(
        tuple(h.components[i].diff_z(j) for j in range(n)) for i in range(n)))


def det(m: PolyMatrix, trunc: int | None = None) -> SparsePoly:
    """Determinant by cofactor expansion along the rows, each minor formed once;
    terms of z-degree > trunc are dropped from every product when trunc is given.

    The minors of row r are taken on the column masks that nonzero entries
    of rows 0..r-1 leave; those masks are found row by row going down, and
    the minors are summed row by row coming up, so no call nests per row.
    """
    n, vs = m.dim, m.vars
    # (bit of column j, entry) for each nonzero entry, per row, in order of j
    entries = [[(1 << j, e) for j, e in enumerate(row) if not e.is_zero] for row in m.rows]
    levels = [[(1 << n) - 1]]  # the masks of row 0, then of each row below it
    for row in entries[:-1]:
        levels.append(dict.fromkeys(mask & ~bit for mask in levels[-1]
                                    for bit, _ in row if mask & bit))
    below = {0: SparsePoly.one(vs)}  # the minor past the last row
    for row, masks in zip(reversed(entries), reversed(levels)):
        minors = {}
        for mask in masks:
            acc = SparsePoly.zero(vs)
            for bit, e in row:
                if mask & bit:
                    contrib = e.mul(below[mask & ~bit], trunc)
                    # the sign of column j alternates over the columns of mask before it
                    odd = (mask & (bit - 1)).bit_count() & 1
                    acc = acc + (-contrib if odd else contrib)
            minors[mask] = acc
        below = minors
    return below[(1 << n) - 1]
