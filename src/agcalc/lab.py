"""Nilpotency testing, vanishing scans, and the t-deformation workbench.

For a polynomial map F = z - H the deformation F_t = z - t*H is inverted
over Q[t]; the z-degree-0-in-xi part of the phase series recovers the
Jacobian of the deformed inverse, and its xi-degree-1 part recovers the
deformed inverse tail itself.  Everything here is exact: series-truncated
maps are rejected, and every scan value is a genuine polynomial identity.
The xi-degree-1 series is proved exactly, as the one fixed point
N_t = H(z + t*N_t); the Jacobian series is compared with the deformed oracle.

Both vanishing scans, lambda^m(P^m) and lambda^m(P^(m+1)) for P = <xi, H>,
are read off one chain of powers P^j: the k=1 value at m = j - 1 is a step
on the way to the k=0 value at m = j.  lambda is applied to P^j only up to
the last step recorded, and not past a step that is zero, so a chain that
goes zero costs one product per power.  check_equivalences composes
equivalence_depths, one vanishing_scan and equivalence_checks.  The scan's
stop ends each scan where its check is settled: on a non-nilpotent map
witness_found ends the k=0 scan at its first nonzero value, check (i)'s
witness, and on a nilpotent one an IndexSearch ends the k=1 scan at the
index its certificate proves.
The scans are combinatorially explosive in m, so they run under a
term-count ceiling and abort loudly (TermCeilingExceeded, whose partial has
the shape its raiser returns) instead of grinding.  vanishing_scan_poly,
vanishing_scan and check_equivalences take the ceiling as term_ceiling=;
the deformation series gt_jacobian_series, nt_pairing_series and
deformed_tail_components run under DEFAULT_TERM_CEILING.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .errors import (
    ContractViolation,
    PreconditionError,
    TermCeilingExceeded,
    VerificationError,
)
from .inversion import f_from_h, invert_fixed_point
from .poly import (
    MapTuple,
    SparsePoly,
    VarSet,
    compose,
    compose_map,
    det,
    jacobian,
    render_poly,
    weighted_sum,
    xi_pairing,
)
from .record import Record, set_field
from .report import (
    Check,
    IdentityReport,
    failed_check,
    first_failure,
    passed_check,
    skipped_check,
)
from .weyl import lambda_apply

DEFAULT_TERM_CEILING = 10_000_000


def _require_exact(h: MapTuple) -> None:
    if not h.is_exact:
        raise PreconditionError(
            "deformation machinery needs an exact polynomial map; "
            "series-truncated input is refused")
    if h.vars.has_t:
        raise ContractViolation("the deformation variable t is introduced internally")
    if h.order() < 2:
        raise PreconditionError(f"map order must be >= 2; got {h.order()}")


class NilpotencyCertificate(Record):
    __slots__ = ("det_deformation",)

    def __init__(self, det_deformation: SparsePoly) -> None:
        set_field(self, "det_deformation", det_deformation)  # det(I - t*JH) over (z, t)

    @property
    def nilpotent(self) -> bool:
        return self.det_deformation == SparsePoly.one(self.det_deformation.vars)


def is_nilpotent(h: MapTuple) -> NilpotencyCertificate:
    """JH is nilpotent exactly when det J(z - t*H) = det(I - t*JH) collapses to 1."""
    _require_exact(h)
    return NilpotencyCertificate(det(jacobian(f_from_h(_deformed_map(h)))))


# -- vanishing scans ---------------------------------------------------------


class VanishingReport(Record):
    """Values lambda^m(P^(m+k)) for one phase polynomial P."""

    __slots__ = ("k", "mmax", "values")

    def __init__(self, k: int, mmax: int, values: tuple[tuple[int, SparsePoly], ...]) -> None:
        set_field(self, "k", k)
        set_field(self, "mmax", mmax)
        set_field(self, "values", values)

    @property
    def first_nonzero(self) -> int | None:
        return next((m for m, v in self.values if not v.is_zero), None)

    @property
    def last_nonzero(self) -> int | None:
        return next((m for m, v in reversed(self.values) if not v.is_zero), None)

    @property
    def all_zero(self) -> bool:
        return self.first_nonzero is None

    @property
    def complete(self) -> bool:
        """The scan reached mmax; an abort's partial scan may stop short of it."""
        return bool(self.values) and self.values[-1][0] == self.mmax

    def value(self, m: int) -> SparsePoly:
        for mm, v in self.values:
            if mm == m:
                return v
        raise KeyError(m)

    def through(self, m: int) -> "VanishingReport":
        """The same scan cut to m <= mmax."""
        if not 1 <= m <= self.mmax:
            raise ContractViolation(f"scan ran through m={self.mmax}; cannot cut at m={m}")
        return VanishingReport(self.k, m, tuple((mm, v) for mm, v in self.values if mm <= m))


def _guard(p: SparsePoly, ceiling: int, partial_fn) -> SparsePoly:
    if p.nterms > ceiling:
        raise TermCeilingExceeded(
            f"term count {p.nterms} exceeded ceiling {ceiling}",
            partial=partial_fn())
    return p


def vanishing_scan_poly(p: SparsePoly, depths: dict[int, int], *,
                        term_ceiling: int | None = None,
                        stop: Callable[[VanishingReport], bool] | None = None,
                        ) -> tuple[VanishingReport, ...]:
    """Exact scans of lambda^m(p^(m+k)) for a general phase polynomial p.

    This is the open-ended entry point: no equivalence with nilpotency is
    claimed for arbitrary p, only for the pairing built from a map (see
    vanishing_scan).  depths maps each offset k in {0, 1} to the mmax of
    its scan, and the scans come back in order of k.  k=0 scans
    m = 1..mmax; k=1 also reports the base term m=0, which is p itself.

    Every value is a step of one chain: p^j takes one product from p^(j-1),
    and lambda^m(p^j) is the value at m of the scan with k = j - m.  So
    after j - 1 applications of lambda the chain holds the k=1 value at
    m = j - 1, and one more gives the k=0 value at m = j.  lambda is applied
    only up to the last step recorded, and lambda of zero is zero, so a step
    that is zero is not applied again: it is the value at every later m.
    stop, when given, is asked after each value of either scan from m = 1
    on, with that scan so far; a scan for which it answers True ends there,
    its mmax cut to that m, and the chain runs on only as far as the other
    scan needs: once every scan has ended, no later power is formed.
    A term-ceiling abort carries the tuple of scans as they stand.
    """
    if not p.vars.has_xi:
        raise ContractViolation("scans run over a xi-extended layout")
    if not depths or not depths.keys() <= {0, 1}:
        raise ContractViolation("scan offset k must be 0 or 1")
    if min(depths.values()) < 1:
        raise ContractViolation("mmax must be >= 1")
    ceiling = DEFAULT_TERM_CEILING if term_ceiling is None else term_ceiling
    depths = dict(depths)  # a stopped scan ends where it stops
    values: dict[int, list[tuple[int, SparsePoly]]] = {k: [] for k in sorted(depths)}

    def reports():
        return tuple(VanishingReport(k, depths[k], tuple(vals))
                     for k, vals in values.items())

    power = SparsePoly.one(p.vars)  # p^j, one factor more per j
    j = 0
    while j < max(depth + k for k, depth in depths.items()):
        j += 1
        v = power = _guard(power.mul(p), ceiling, reports)
        m = 0  # v is lambda^m(p^j), or zero, which is every later step too
        for k in (1, 0):  # the recorded steps m = j - k, in order of m
            if j - k <= depths.get(k, -1):
                while m < j - k and not v.is_zero:
                    v = _guard(lambda_apply(v), ceiling, reports)
                    m += 1
                values[k].append((j - k, v))
                if j > k and stop is not None and stop(
                        VanishingReport(k, j - k, tuple(values[k]))):
                    depths[k] = j - k
    return reports()


def vanishing_scan(h: MapTuple, depths: dict[int, int], *,
                   term_ceiling: int | None = None,
                   stop: Callable[[VanishingReport], bool] | None = None,
                   ) -> tuple[VanishingReport, ...]:
    """vanishing_scan_poly on P = <xi, H> built from an exact polynomial map."""
    _require_exact(h)
    return vanishing_scan_poly(xi_pairing(h), depths, term_ceiling=term_ceiling, stop=stop)


# -- deformation series ------------------------------------------------------


def _deformed_map(h: MapTuple) -> MapTuple:
    """t*H over the (z, t) layout; the tail of F_t = z - t*H."""
    zt = VarSet.zt(h.vars.n)
    t = SparsePoly.t_var(zt)
    return MapTuple.exact(tuple(c.lift(zt).mul(t) for c in h.components))


def _scan_series(scan: VanishingReport) -> SparsePoly:
    """sum_m t^m v_m / (m!(m+k)!) over (xi, z, t); the k=0 series starts at 1."""
    xizt = VarSet.xizt(scan.values[0][1].vars.n)
    no_t = (0,) * xizt.t_index  # t is the last variable

    def terms():
        if scan.k == 0:
            yield SparsePoly.one(xizt), 1
        for m, v in scan.values:
            if not v.is_zero:
                yield (v.lift(xizt).mul(SparsePoly.monomial(xizt, no_t + (m,))),
                       Fraction(1, factorial(m) * factorial(m + scan.k)))
    return weighted_sum(xizt, terms())


def _jacobian_series_report(h: MapTuple, scan0: VanishingReport) -> IdentityReport:
    """The k=0 series against det(jacobian(G_t)), G_t the deformed oracle inverse."""
    series = _scan_series(scan0).drop_xi()
    z_window = max(int(series.degree()), 0)
    oracle_bound = z_window + 1  # one extra degree: the determinant differentiates
    oracle = invert_fixed_point(_deformed_map(h), oracle_bound)  # the z-cut bounds t too
    jg = det(jacobian(oracle.G), trunc=z_window).truncate_t(scan0.mmax)
    return IdentityReport("deformed Jacobian series", series, jg)


def _nt_series_report(h: MapTuple, scan1: VanishingReport) -> IdentityReport:
    """The k=1 series against <xi, H(G_t)>, G_t = z + t*N_t with N_t read off the series.

    The series must be xi-linear.  N -> H(z + t*N) has one fixed point in
    Q[[z, t]], as its factor t makes it a contraction, and H(G_t) is composed
    at deg H * deg G_t, where nothing is cut: equality proves the series is
    <xi, N_t> of the inverse of z - t*H in every degree.
    """
    name = "deformed inverse series cross-check"
    series = _scan_series(scan1)

    def comparisons():
        yield IdentityReport(name, series.xi_slice(1), series, where="xi-linear part")
        t = SparsePoly.t_var(VarSet.zt(h.n))
        g_t = MapTuple.exact(tuple(z + t.mul(series.xi_linear_component(i))
                                   for i, z in enumerate(MapTuple.identity(t.vars))))
        bound = max(0, *(c.degree() for c in h)) * max(c.degree() for c in g_t)
        yield IdentityReport(name, series, xi_pairing(compose_map(h, g_t, bound)))
    return first_failure(comparisons())


def _verified_series(rep: IdentityReport) -> SparsePoly:
    if not rep.passed:
        raise VerificationError(f"{rep.name} fails at {rep.witness}", witness=rep.witness)
    return rep.lhs


def gt_jacobian_series(h: MapTuple, mmax: int) -> SparsePoly:
    """sum_m t^m lambda^m(P^m) / (m!)^2 over (z, t), cross-checked.

    The sum is computed exactly to t-degree mmax, then compared in the
    shared window against det(jacobian(G_t)) with G_t the fixed-point
    inverse of z - t*H over Q[t].  A window mismatch raises
    VerificationError naming the offending coefficient.
    """
    (scan,) = vanishing_scan(h, {0: mmax})
    return _verified_series(_jacobian_series_report(h, scan))


def nt_pairing_series(h: MapTuple, mmax: int) -> SparsePoly:
    """<xi, N_t> = sum_m t^m lambda^m(P^(m+1)) / (m!(m+1)!) over (xi, z, t).

    Requires a nilpotent Jacobian (so the deformed map has Jacobian one);
    non-nilpotent input is a precondition error.  mmax must reach the
    stabilization index, the t-degree of N_t: the sum is proved exact, so a
    sum cut below it raises VerificationError naming a coefficient it misses.
    """
    cert = is_nilpotent(h)
    if not cert.nilpotent:
        raise PreconditionError(
            "the deformed-inverse series needs JH nilpotent (deformed Jacobian == 1); "
            f"certificate: det(I - t*JH) = {cert.det_deformation}")
    (scan,) = vanishing_scan(h, {1: mmax})
    return _verified_series(_nt_series_report(h, scan))


def deformed_tail_components(h: MapTuple, mmax: int) -> MapTuple:
    """N_t read off nt_pairing_series componentwise, over (z, t).

    mmax must reach the stabilization index, the t-degree of N_t.
    """
    series = nt_pairing_series(h, mmax)
    return MapTuple.exact(tuple(series.xi_linear_component(i) for i in range(h.n)))


# -- the per-instance equivalence report --------------------------------------


class EquivalenceReport(Record):
    """The certificate, the scans the checks read (k=0, then k=1), and the checks."""

    __slots__ = ("label", "certificate", "scans", "checks")

    def __init__(self, label: str, certificate: NilpotencyCertificate,
                 scans: tuple[VanishingReport, ...], checks: tuple[Check, ...]) -> None:
        set_field(self, "label", label)
        set_field(self, "certificate", certificate)
        set_field(self, "scans", scans)
        set_field(self, "checks", checks)

    @property
    def nilpotent(self) -> bool:
        return self.certificate.nilpotent

    @property
    def passed(self) -> bool:
        """At least one check ran and none failed; an abort's partial ran none."""
        return bool(self.checks) and all(c.status != "fail" for c in self.checks)


def equivalence_depths(h: MapTuple, mmax: int, cert: NilpotencyCertificate,
                       known_nt_degree: int | None) -> dict[int, int]:
    """The {k: mmax} of the scans equivalence_checks reads.

    The k=0 scan runs at most through D0 = max(mmax, n): on a nilpotent
    map its all-zero values are check (i)'s evidence, and on any other
    witness_found stops it at its first nonzero value.  On a nilpotent map
    the k=1 scan, which only check (ii) reads, runs at most through the
    claimed index, max(d, 1) for a known t-degree d, else through mmax; its
    IndexSearch stops it earlier once a certificate holds.
    """
    if mmax < 1:
        raise ContractViolation("mmax must be >= 1")
    depths = {0: max(mmax, h.n)}
    if cert.nilpotent:
        depths[1] = mmax if known_nt_degree is None else max(known_nt_degree, 1)
    return depths


def witness_found(scan: VanishingReport) -> bool:
    """Check (i)'s stop on a non-nilpotent map: the k=0 scan ends at its first nonzero value.

    That value is the witness check (i) reads, and it reads no later one.
    """
    return scan.k == 0 and not scan.all_zero


STABILIZES = "deformed inverse stabilizes at known t-degree"


class IndexSearch:
    """Check (ii): the stopping rule of the k=1 scan, and its verdict.

    As a stop of vanishing_scan it answers only for the k=1 scan.  It tries
    the exact certificate (_nt_series_report) at each zero value below
    depth, the deepest m the k=1 scan may reach, and ends the scan at the
    first m where it holds, or at depth.  N -> H(z + t*N) has one fixed point in Q[[z, t]], so a
    certificate proves every later value zero: the stabilization index is
    then the last nonzero m, and scanning further adds no evidence.
    """

    __slots__ = ("h", "known", "depth", "reached", "_tried")

    def __init__(self, h: MapTuple, known_nt_degree: int | None, depth: int) -> None:
        self.h, self.known, self.depth = h, known_nt_degree, depth
        self.reached: int | None = None  # the m where the scan stopped
        self._tried = None  # (the scan through its last nonzero value, its certificate)

    def proof(self, scan: VanishingReport) -> IdentityReport:
        """The certificate of the scan's series, built once per series."""
        head = scan.values[:(scan.last_nonzero or 0) + 1]
        if self._tried is None or self._tried[0] != head:
            self._tried = (head, _nt_series_report(self.h, scan))
        return self._tried[1]

    def __call__(self, scan: VanishingReport) -> bool:
        if scan.k != 1:
            return False
        if self.reached is None:
            m, v = scan.values[-1]
            if m >= self.depth or (v.is_zero and self.proof(scan).passed):
                self.reached = m
        return self.reached is not None

    def checks(self, scan: VanishingReport) -> tuple[Check, Check]:
        """The index check and the certificate, on the k=1 scan this search stopped."""
        scan, d, m = scan.through(self.reached), self.known, self.reached
        proof = self.proof(scan)
        index = (scan.last_nonzero or 0) if proof.passed else None  # H = 0: index 0
        if index is not None and d in (None, index):
            return (passed_check(STABILIZES, detail=(
                f"stabilization index {index}, certificate through m={m}; "
                "later values proved zero, not scanned")), proof.check)
        if d is not None:
            witness = (f"proved index {index}" if index is not None
                       else f"no certificate through m={m}: {proof.witness}")
            return (failed_check(STABILIZES, witness=witness, detail=f"expected exactly m={d}"),
                    proof.check)
        return (skipped_check(STABILIZES, detail=f"no certificate through m={m}"),
                skipped_check(proof.name, detail=f"through m={m}, first miss {proof.witness}"))


def equivalence_checks(h: MapTuple, cert: NilpotencyCertificate,
                       scans: tuple[VanishingReport, ...],
                       search: IndexSearch | None) -> tuple[Check, ...]:
    """The checks of check_equivalences, given the scans equivalence_depths names.

    scans holds those scans in order of k, the k=1 scan stopped by search,
    the IndexSearch of a nilpotent map (None otherwise).
    """
    scan0 = scans[0]
    checks: list[Check] = []
    if cert.nilpotent:
        if scan0.all_zero:
            checks.append(passed_check(
                "nilpotent iff scan vanishes",
                detail=f"det certificate 1; scan zero through m={scan0.mmax}"))
        else:
            m = scan0.first_nonzero
            checks.append(failed_check(
                "nilpotent iff scan vanishes",
                witness=f"m={m}: {render_poly(scan0.value(m))}",
                detail="nilpotent certificate but nonzero scan value"))
    else:
        m = scan0.first_nonzero
        if m is not None and m <= h.n:
            checks.append(passed_check(
                "nilpotent iff scan vanishes",
                detail=f"witness m={m} <= n={h.n}: {render_poly(scan0.value(m))}"))
        else:
            checks.append(failed_check(
                "nilpotent iff scan vanishes",
                witness=f"first nonzero at m={m}",
                detail=f"non-nilpotent instance needs a witness at m <= n={h.n}"))

    if search is not None:
        checks.extend(search.checks(scans[1]))
    else:
        checks.append(skipped_check(STABILIZES, detail="not nilpotent"))

    if cert.nilpotent:
        oracle = _jacobian_series_report(h, scan0)
        unit = IdentityReport(oracle.name, oracle.lhs, SparsePoly.one(oracle.lhs.vars),
                              detail="equals 1, oracle agrees")
        checks.append(first_failure((oracle, unit)).check)
    else:
        checks.append(skipped_check("deformed Jacobian series", detail="not nilpotent"))
    return tuple(checks)


def check_equivalences(h: MapTuple, mmax: int, *,
                       known_nt_degree: int | None = None,
                       term_ceiling: int | None = None,
                       label: str = "map") -> EquivalenceReport:
    """Consolidated instance-level report.

    (i)   det(I - t*JH) == 1 iff the k=0 scan vanishes; a non-nilpotent
          instance must yield a witness at some m <= n (the determinant's
          first nonunit coefficient sits at t-degree <= n).  A nilpotent
          instance scans through D0 = max(mmax, n), as its all-zero scan
          is the evidence; any other scan ends at its first nonzero value,
          the witness, and no later power is formed.
    (ii)  on a nilpotent instance, the stabilization index is proved: the
          k=1 scan stops at the first zero value (or at its depth) where
          the series is certified, G_t = z + t*N_t read off it giving
          <xi, H(G_t)> exactly, and the index is its last nonzero m.  A
          known t-degree d bounds the scan at max(d, 1) and must equal the
          proved index; without one the scan runs to mmax, and an index not
          proved by then is a skip naming the m reached.
    (iii) the deformed-Jacobian series cross-checks (and equals 1 when
          nilpotent).  Skipped for non-nilpotent instances.
    The report holds the certificate, the scans of equivalence_depths (read
    off one vanishing_scan chain) and the checks; the series of (ii) and
    (iii) are summed from the scans.  When the term ceiling trips, the
    TermCeilingExceeded carries an EquivalenceReport with no checks: the
    certificate and every scan that reached its depth before the abort.
    """
    cert = is_nilpotent(h)
    depths = equivalence_depths(h, mmax, cert, known_nt_degree)
    search = IndexSearch(h, known_nt_degree, depths[1]) if 1 in depths else None
    try:
        scans = vanishing_scan(h, depths, term_ceiling=term_ceiling,
                               stop=search if cert.nilpotent else witness_found)
    except TermCeilingExceeded as err:
        finished = tuple(scan for scan in err.partial if scan.complete)
        err.partial = EquivalenceReport(label, cert, finished, ())
        raise
    return EquivalenceReport(label, cert, scans, equivalence_checks(h, cert, scans, search))


# -- corpus generation ---------------------------------------------------------


FAMILIES = ("triangular", "cubic", "control", "series")
MAX_DEGREE = 3  # z-degree of the random terms (series maps draw one degree more)
SERIES_TRUNC = 12  # z-degree to which series maps are known


class CorpusSpec(Record):
    __slots__ = ("n", "family", "count", "seed")

    def __init__(self, n: int, family: str, count: int = 3, seed: int = 0) -> None:
        if not 1 <= n <= 4:
            raise ContractViolation("corpus supports 1 <= n <= 4")
        if family not in FAMILIES:
            raise ContractViolation(
                f"unknown family {family!r}; choose from {FAMILIES}")
        if count < 1:
            raise ContractViolation("corpus count must be >= 1")
        if family == "cubic" and n < 2:
            raise ContractViolation(
                "no nonzero strictly-triangular homogeneous cubic exists for n=1")
        set_field(self, "n", n)
        set_field(self, "family", family)
        set_field(self, "count", count)
        set_field(self, "seed", seed)

    def __hash__(self) -> int:
        return hash(self._values(self))


class CorpusItem(Record):
    __slots__ = ("item_id", "family", "h", "nilpotent", "known_n", "nt_degree")

    def __init__(self, item_id: str, family: str, h: MapTuple,
                 nilpotent: bool | None,  # None for series items: the lab refuses them
                 known_n: MapTuple | None = None,  # exact inverse tail, G = z + N
                 nt_degree: int | None = None) -> None:
        set_field(self, "item_id", item_id)
        set_field(self, "family", family)
        set_field(self, "h", h)
        set_field(self, "nilpotent", nilpotent)
        set_field(self, "known_n", known_n)
        set_field(self, "nt_degree", nt_degree)

    @property
    def is_polynomial(self) -> bool:
        return self.h.is_exact


def _random_poly(rng, vs: VarSet, allowed: Sequence[int], terms: tuple[int, int],
                 degrees: tuple[int, int]) -> SparsePoly:
    """A sum of rng.randint(*terms) monomials in the z-variables allowed.

    Each has a degree drawn from degrees (a fixed degree draws nothing) and
    a nonzero coefficient in [-2, 2]; the monomials are summed as drawn.
    """
    lo, hi = degrees
    acc = SparsePoly.zero(vs)
    for _ in range(rng.randint(*terms)):
        exps = [0] * vs.nvars
        for _ in range(lo if lo == hi else rng.randint(lo, hi)):
            exps[vs.z_index(rng.choice(allowed))] += 1
        c = 0
        while c == 0:
            c = rng.randint(-2, 2)
        acc = acc + SparsePoly.monomial(vs, exps, c)
    return acc


def _strictly_triangular(rng, n: int, homogeneous: int | None = None) -> MapTuple:
    vs = VarSet.z(n)
    degrees = (2, MAX_DEGREE) if homogeneous is None else (homogeneous, homogeneous)
    return MapTuple.exact(tuple(
        _random_poly(rng, vs, range(i + 1, n), (1, 2), degrees) if i < n - 1
        else SparsePoly.zero(vs) for i in range(n)))


def _deformed_inverse(h: MapTuple) -> tuple[MapTuple, int]:
    """Exact inverse tail N of z - H, and the t-degree of N_t, for strictly triangular H.

    One back-substitution inverts F_t = z - t*H over the (z, t) layout; its
    tail is t*N_t, and N is N_t at t = 1.  A linear conjugate T^-1 H(T z)
    conjugates N_t by the same T, so it keeps the t-degree.
    """
    tail = _deformed_map(h)
    vs = tail.vars
    g = [SparsePoly.z_var(vs, i) for i in range(h.n)]
    for i in reversed(range(h.n)):  # g[i] is still z_i, and g[i+1:] are done
        hi = tail.components[i]
        if not hi.is_zero:
            bound = int(hi.degree()) * max(1, max(int(c.degree()) for c in g))
            g[i] = g[i] + compose(hi, MapTuple.exact(tuple(g)), bound)
    t_n = [gi - z for gi, z in zip(g, MapTuple.identity(vs))]  # t*N_t
    at_one = []
    for comp in t_n:  # at t = 1, terms that differ only in t add up
        terms: dict = {}
        for e, c in comp.items():
            terms[e[:-1]] = terms.get(e[:-1], 0) + c
        at_one.append(SparsePoly(h.vars, terms))
    return MapTuple.exact(at_one), max(0, *(c.max_t_degree() - 1 for c in t_n))


def _shear_maps(rng, vs: VarSet) -> tuple[MapTuple, MapTuple]:
    """z -> T z and z -> T^-1 z for an integer T, a product of random shears."""
    n = vs.n
    t_mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t_inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # T <- E_ij(c) T ; T^-1 <- T^-1 E_ij(-c)
        for col in range(n):
            t_mat[i][col] += c * t_mat[j][col]
        for row in range(n):
            t_inv[row][j] += -c * t_inv[row][i]
    return tuple(MapTuple.exact(tuple(
        SparsePoly(vs, {tuple(int(k == j) for k in range(n)): c
                        for j, c in enumerate(row) if c}) for row in m))
        for m in (t_mat, t_inv))


def _conjugate_map(h: MapTuple, t: MapTuple, t_inv: MapTuple) -> MapTuple:
    """T^-1 H(T z): same nilpotency and inverse structure in new coordinates.

    Composed as (T^-1 H)(T z): the monomials of T^-1 H are among those of H,
    which are fewer than those of H(T z).  T is linear, so both compositions
    are exact at the largest z-degree of h.
    """
    bound = max(0, *(c.degree() for c in h.components))
    return MapTuple.exact(compose_map(compose_map(t_inv, h, bound), t, bound).components)


def _random_series_map(rng, n: int) -> MapTuple:
    vs = VarSet.z(n)
    return MapTuple.truncated(tuple(
        _random_poly(rng, vs, range(n), (1, 3), (2, MAX_DEGREE + 1)) for _ in range(n)),
        SERIES_TRUNC)


def _control_map(rng, n: int, idx: int) -> MapTuple:
    """Item idx of a control cell, certified non-nilpotent by one is_nilpotent.

    For n = 1, and for item 0 of n = 2, it is the canonical (z1^2, 0, ...),
    which draws nothing from rng.
    """
    vs = VarSet.z(n)
    canonical = n == 1 or (n == 2 and idx == 0)
    for _ in range(32):
        comps = [SparsePoly.zero(vs) if canonical else
                 _random_poly(rng, vs, range(n), (0, 2), (2, MAX_DEGREE)) for _ in range(n)]
        # a diagonal square term usually forces a nonzero Jacobian trace;
        # random cancellation is possible, so reject and redraw
        comps[0] = comps[0] + SparsePoly.monomial(vs, (2,) + (0,) * (n - 1))
        h = MapTuple.exact(tuple(comps))
        if not is_nilpotent(h).nilpotent:
            return h
    raise ContractViolation("could not draw a non-nilpotent control instance")


def gen_corpus(spec: CorpusSpec) -> list[CorpusItem]:
    """Deterministic corpus for one (n, family) cell."""
    import random as _random

    # integer mix, stable across processes (string hashing is not)
    mixed = ((spec.seed * 1_000_003 + spec.n) * 101
             + FAMILIES.index(spec.family)) * 1009 + spec.count
    rng = _random.Random(mixed)
    items: list[CorpusItem] = []
    n = spec.n
    vs = VarSet.z(n)

    for idx in range(spec.count):
        item_id = f"{spec.family}-n{n}-{idx}"
        if spec.family == "triangular":
            if n == 2 and idx == 0:
                # canonical smallest member
                h = MapTuple.exact((SparsePoly.monomial(vs, (0, 2)), SparsePoly.zero(vs)))
            else:
                h = _strictly_triangular(rng, n)
            items.append(CorpusItem(item_id, spec.family, h, True, *_deformed_inverse(h)))
        elif spec.family == "cubic":
            base = _strictly_triangular(rng, n, homogeneous=3)
            t, t_inv = _shear_maps(rng, vs)
            h = _conjugate_map(base, t, t_inv)
            cert = is_nilpotent(h)
            if not cert.nilpotent:
                raise ContractViolation(
                    f"conjugated cubic instance lost nilpotency: {cert.det_deformation}")
            base_n, nt_degree = _deformed_inverse(base)
            items.append(CorpusItem(item_id, spec.family, h, True,
                                    _conjugate_map(base_n, t, t_inv), nt_degree))
        elif spec.family == "control":
            items.append(CorpusItem(item_id, spec.family, _control_map(rng, n, idx), False))
        else:  # series
            h = _random_series_map(rng, n)
            items.append(CorpusItem(item_id, spec.family, h, None))
    return items


def standard_corpus(seed: int = 0) -> list[CorpusItem]:
    """The mixed corpus used by the acceptance suite: 21 maps over n in {1,2,3}."""
    cells = [
        (1, "control", 1), (1, "series", 2),
        (2, "triangular", 3), (2, "cubic", 2), (2, "control", 2), (2, "series", 2),
        (3, "triangular", 3), (3, "cubic", 2), (3, "control", 2), (3, "series", 2),
    ]
    items: list[CorpusItem] = []
    for n, family, count in cells:
        items.extend(gen_corpus(CorpusSpec(n=n, family=family, count=count, seed=seed)))
    return items
