"""Property tests: the SparsePoly kernel against the naive dict reference.

Random polynomials over the z, (xi, z), (z, t) and (xi, z, t) layouts
with n <= 3.  Results are read only through items(), so the tests hold for
any storage behind SparsePoly.  The packed storage adds its own contracts:
an exponent above MAX_EXPONENT is refused, at construction and in a
product, and equal polynomials compare equal however they were reached.
Both vanishing scans of one shared chain are checked against their
xi-free formulas on small random maps, and the fixed-point inverse against
full-bound passes until it freezes.  det is checked against sympy, when
it is installed.  Runs are
derandomized, keep no example database, and leave nothing in the working
directory.
"""

import gc
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import agcalc.poly  # noqa: E402
import poly_reference as ref  # noqa: E402
from agcalc.errors import CompositionError, ContractViolation, TruncationError  # noqa: E402
from agcalc.poly import (  # noqa: E402
    MAX_EXPONENT,
    MapTuple,
    MonomialTable,
    PolyMatrix,
    SparsePoly,
    VarSet,
    compose,
    compose_map,
    det,
    weighted_sum,
    xi_pairing,
)
from agcalc.inversion import invert_fixed_point  # noqa: E402
from agcalc.lab import vanishing_scan_poly  # noqa: E402
from agcalc.weyl import lambda_apply  # noqa: E402

# hypothesis caches the constants it reads from local source files under its
# home directory, ./.hypothesis by default, whatever the database setting, and
# its pytest plugin does so while collecting; a temporary home is removed at exit
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def layouts(kinds=("z", "xiz", "zt", "xizt")):
    return st.builds(VarSet, st.sampled_from(kinds), st.integers(1, 3))


def polys(vs: VarSet, max_exp=3, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * vs.nvars)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


def as_dict(p: SparsePoly) -> dict:
    return dict(p.items())


@st.composite
def poly_pairs(draw):
    vs = draw(layouts())
    return vs, draw(polys(vs)), draw(polys(vs))


class TestKernelMatchesReference:
    @PROPERTY
    @given(poly_pairs())
    def test_add(self, case):
        vs, a, b = case
        assert as_dict(SparsePoly(vs, a) + SparsePoly(vs, b)) == ref.add(a, b)

    @PROPERTY
    @given(poly_pairs(), st.none() | st.integers(0, 6))
    def test_mul(self, case, trunc):
        vs, a, b = case
        got = SparsePoly(vs, a).mul(SparsePoly(vs, b), trunc)
        assert as_dict(got) == ref.mul(a, b, ref.z_block(vs.kind, vs.n), trunc)

    @PROPERTY
    @given(st.data())
    def test_diff_z_multi(self, data):
        vs = data.draw(layouts())
        p = data.draw(polys(vs))
        alpha = data.draw(st.tuples(*[st.integers(0, 3)] * vs.n))
        got = SparsePoly(vs, p).diff_z_multi(alpha)
        assert as_dict(got) == ref.diff_z_multi(p, alpha, ref.z_block(vs.kind, vs.n))

    @PROPERTY
    @given(st.data())
    def test_xi_degrees(self, data):
        # read once per distinct xi-part, they must still be every term's
        vs = data.draw(layouts(("xiz", "xizt")))
        p = SparsePoly(vs, data.draw(polys(vs)))
        naive = [sum(e[:vs.n]) for e in as_dict(p)]  # the xi-block comes first
        assert p.xi_degrees() == set(naive)
        assert SparsePoly.zero(vs).xi_degrees() == set()

    @PROPERTY
    @given(st.data())
    def test_lambda_apply(self, data):
        vs = data.draw(layouts(("xiz", "xizt")))
        p = data.draw(polys(vs))
        assert as_dict(lambda_apply(SparsePoly(vs, p))) == ref.lambda_apply(p, vs.n)

    @PROPERTY
    @given(st.data())
    def test_compose(self, data):
        vs = data.draw(layouts(("z", "zt")))
        u = data.draw(polys(vs, max_exp=2, max_terms=4))
        g = [data.draw(polys(vs, max_exp=2, max_terms=3)) for _ in range(vs.n)]
        if data.draw(st.booleans()):  # constant-free, so high powers of g_i vanish
            zs = ref.z_block(vs.kind, vs.n)
            g = [{e: c for e, c in gi.items() if sum(e[zs])} for gi in g]
        bound = data.draw(st.integers(0, 4))
        got = compose(SparsePoly(vs, u), MapTuple.exact([SparsePoly(vs, c) for c in g]), bound)
        assert as_dict(got) == ref.compose(u, g, vs.kind, bound)


@st.composite
def shared_xi_parts(draw):
    """A polynomial over a xi-layout whose terms share one to three xi-parts."""
    vs = draw(layouts(("xiz", "xizt")))
    parts = draw(st.lists(st.tuples(*[st.integers(0, 3)] * vs.n), min_size=1, max_size=3))
    rest = st.tuples(*[st.integers(0, 3)] * (vs.nvars - vs.n))
    terms = draw(st.dictionaries(st.tuples(st.sampled_from(parts), rest), coeffs, max_size=12))
    return vs, {part + r: c for (part, r), c in terms.items()}


@st.composite
def unequal_products(draw):
    """A product of a 5..14-term and a 1..3-term operand, in either order,
    with a window from two z-degrees below the product's order (empty by
    order) to its degree (rows empty partway through the walk)."""
    vs = draw(layouts())
    exps = st.tuples(*[st.integers(0, 4)] * vs.nvars)
    big = draw(st.dictionaries(exps, coeffs, min_size=5, max_size=14))
    small = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    a, b = (big, small) if draw(st.booleans()) else (small, big)
    zs = ref.z_block(vs.kind, vs.n)
    lo = min(sum(e[zs]) for e in a) + min(sum(e[zs]) for e in b)
    hi = max(sum(e[zs]) for e in a) + max(sum(e[zs]) for e in b)
    return vs, a, b, draw(st.integers(max(lo - 2, 0), hi)), lo


class TestKernelLoops:
    """The row walk of truncated mul, lambda_apply's grouping by xi-part and
    the weighted_sum accumulator, against the reference and the naive chain."""

    @PROPERTY
    @given(shared_xi_parts())
    def test_lambda_apply_on_shared_xi_parts(self, case):
        vs, p = case
        assert as_dict(lambda_apply(SparsePoly(vs, p))) == ref.lambda_apply(p, vs.n)

    @PROPERTY
    @given(unequal_products())
    def test_truncated_mul_of_unequal_operands(self, case):
        vs, a, b, trunc, lo = case
        got = SparsePoly(vs, a).mul(SparsePoly(vs, b), trunc)
        assert as_dict(got) == ref.mul(a, b, ref.z_block(vs.kind, vs.n), trunc)
        if trunc < lo:
            assert got.is_zero

    @PROPERTY
    @given(st.data())
    def test_weighted_sum_against_scale_chain(self, data):
        vs = data.draw(layouts())
        weights = coeffs | st.integers(-3, 3)
        pairs = [(SparsePoly(vs, p), w)
                 for p, w in data.draw(st.lists(st.tuples(polys(vs), weights), max_size=5))]
        cancel = data.draw(st.booleans())
        if cancel:  # every term again with the opposite weight, in a drawn order
            pairs = data.draw(st.permutations(pairs + [(p, -w) for p, w in pairs]))
        naive = SparsePoly.zero(vs)
        for p, w in pairs:
            naive = naive + p.scale(w)
        got = weighted_sum(vs, pairs)
        assert got == naive
        assert got.is_zero or not cancel

    def test_weighted_sum_refuses_another_layout(self):
        z2 = VarSet.z(2)
        with pytest.raises(ContractViolation, match="layout mismatch"):
            weighted_sum(z2, [(SparsePoly.one(z2), 1), (SparsePoly.one(VarSet.zt(2)), 1)])


class TestComposeMap:
    """compose_map shares one table of the monomials g^e across the components of h."""

    @PROPERTY
    @given(st.data())
    def test_matches_reference_per_component(self, data):
        vs = data.draw(layouts(("z", "zt")))
        zs = ref.z_block(vs.kind, vs.n)
        h = [data.draw(polys(vs, max_exp=2, max_terms=4)) for _ in range(vs.n)]
        g = [data.draw(polys(vs, max_exp=2, max_terms=3)) for _ in range(vs.n)]
        bound = data.draw(st.integers(0, 4))
        trunc = data.draw(st.none() | st.integers(bound, bound + 2))
        if trunc is None:
            h_map = MapTuple.exact([SparsePoly(vs, c) for c in h])
        else:  # a truncated h is a proper series: g must be constant-free
            g = [{e: c for e, c in gi.items() if sum(e[zs])} for gi in g]
            h_map = MapTuple.truncated([SparsePoly(vs, c) for c in h], trunc)
        got = compose_map(h_map, MapTuple.exact([SparsePoly(vs, c) for c in g]), bound)
        assert got.trunc == bound
        for hi, gi in zip(h_map, got):
            assert as_dict(gi) == ref.compose(as_dict(hi), g, vs.kind, bound)

    def test_truncated_h_refuses_constant_in_g(self):
        vs = VarSet.z(2)
        z1, z2 = SparsePoly.z_var(vs, 0), SparsePoly.z_var(vs, 1)
        h = MapTuple.truncated([z1.mul(z2), z2.power(2)], 3)
        g_bad = MapTuple.exact([z1 + SparsePoly.one(vs), z2])
        with pytest.raises(CompositionError, match="component 1 has a z-constant term"):
            compose_map(h, g_bad, 3)
        # the same components, read as exact polynomials, compose fine
        assert compose_map(MapTuple.exact(h.components), g_bad, 3).trunc == 3

    def test_truncated_h_known_short_of_bound_refused(self):
        # every inversion route refuses such an h before it composes, in
        # _require_h; compose_map still holds the contract on its own
        vs = VarSet.z(2)
        z1, z2 = SparsePoly.z_var(vs, 0), SparsePoly.z_var(vs, 1)
        h = MapTuple.truncated([z1.mul(z2), z2.power(2)], 3)
        g = MapTuple.exact([z1 + z2.power(2), z2])
        with pytest.raises(TruncationError, match="known to z-degree 3; .* needs >= 4"):
            compose_map(h, g, 4)
        assert compose_map(h, g, 3).trunc == 3

    def test_t_exponent_overflow_refused(self):
        vs = VarSet.zt(1)
        t = SparsePoly.t_var(vs)
        h = MapTuple.exact([SparsePoly(vs, {(1, MAX_EXPONENT): 1})])
        with pytest.raises(ContractViolation, match="per-variable limit"):
            compose_map(h, MapTuple.exact([SparsePoly.z_var(vs, 0).mul(t)]), 2)

    def test_table_freed_with_the_call(self):
        # the monomial table must not sit in a reference cycle, which only
        # the cyclic garbage collector would free, some time after the call
        vs = VarSet.z(2)
        z1, z2 = SparsePoly.z_var(vs, 0), SparsePoly.z_var(vs, 1)
        h = MapTuple.exact([z1.mul(z2) + z2.power(2), z1.power(3)])
        g = MapTuple.exact([z1 + z2.power(2), z2 + z1.mul(z2)])
        gc.collect()
        gc.disable()
        try:
            compose_map(h, g, 5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_supports_cost_one_component(self, monkeypatch):
        # three components over the same monomials, with different
        # coefficients, take exactly the products of one of them
        vs = VarSet.z(3)
        support = [(2, 0, 0), (1, 1, 0), (0, 1, 2), (1, 1, 1), (0, 0, 3)]
        h = MapTuple.exact([SparsePoly(vs, {e: i + j + 1 for j, e in enumerate(support)})
                            for i in range(3)])
        g = MapTuple.exact([SparsePoly.z_var(vs, i) + SparsePoly.monomial(vs, e, i + 1)
                            for i, e in enumerate(support[:3])])
        calls = []
        mul = SparsePoly.mul

        def counting_mul(self, other, trunc=None):
            calls.append(trunc)
            return mul(self, other, trunc)

        monkeypatch.setattr(SparsePoly, "mul", counting_mul)
        one = compose(h.components[0], g, 5)
        one_calls = len(calls)
        calls.clear()
        all_three = compose_map(h, g, 5)
        assert len(calls) == one_calls > 0
        assert all_three.components[0] == one

    def test_one_compose_per_component(self, monkeypatch):
        # compose_map is compose per component over one shared table, so a
        # count of compose calls still counts component compositions
        vs = VarSet.z(2)
        z1, z2 = SparsePoly.z_var(vs, 0), SparsePoly.z_var(vs, 1)
        h = MapTuple.exact([z1.mul(z2), z2.power(2)])
        g = MapTuple.exact([z1 + z2.power(2), z2])
        tables = []
        original = agcalc.poly.compose

        def counting(u, g_map, bound, *, table=None):
            tables.append(table)
            return original(u, g_map, bound, table=table)

        monkeypatch.setattr(agcalc.poly, "compose", counting)
        compose_map(h, g, 4)
        assert len(tables) == 2 and tables[0] is tables[1] is not None

    def test_table_of_another_map_refused(self):
        vs = VarSet.z(1)
        z = SparsePoly.z_var(vs, 0)
        g = MapTuple.exact([z + z.power(2)])
        with pytest.raises(ContractViolation, match="another map or bound"):
            compose(z.power(2), g, 3, table=MonomialTable(g, 4))
        with pytest.raises(ContractViolation, match="another map or bound"):
            compose(z.power(2), g, 3, table=MonomialTable(MapTuple.exact([z]), 3))


@st.composite
def inversion_inputs(draw):
    """H of z-order >= 2 over z, or the deformed tH over (z, t), exact or
    cut at the bound, with the bound."""
    vs = draw(layouts(("z", "zt")))
    z_exps = st.tuples(*[st.integers(0, 2)] * vs.n).filter(lambda e: sum(e) >= 2)
    t_exps = st.tuples(st.integers(1, 2)) if vs.has_t else st.just(())
    exps = st.tuples(z_exps, t_exps).map(lambda zt: zt[0] + zt[1])
    h = [SparsePoly(vs, draw(st.dictionaries(exps, coeffs, max_size=3))) for _ in range(vs.n)]
    bound = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return MapTuple.exact(h), bound
    return MapTuple.truncated(h, bound), bound


class TestFixedPointAgainstReference:
    """invert_fixed_point's one checked pass per degree against the full-bound
    passes until frozen of the reference."""

    @settings(PROPERTY, max_examples=120)
    @given(inversion_inputs())
    def test_tail_matches_reference(self, case):
        h, bound = case
        zs = ref.z_block(h.vars.kind, h.n)
        got = [as_dict(c) for c in invert_fixed_point(h, bound).N]
        assert got == ref.fixed_point_tail([as_dict(c) for c in h], h.vars.kind, bound)
        if bound == 1:
            assert got == [{}] * h.n
        if bound == 2:
            assert got == [{e: c for e, c in as_dict(hi).items() if sum(e[zs]) == 2} for hi in h]


class TestPackedForm:
    @PROPERTY
    @given(st.data(), st.none() | st.just(2 * MAX_EXPONENT))
    def test_overflow_guard(self, data, trunc):
        vs = data.draw(layouts())
        i = data.draw(st.integers(0, vs.nvars - 1))
        # a + b is MAX_EXPONENT, the largest allowed, or one more
        a = data.draw(st.integers(1, MAX_EXPONENT))
        b = MAX_EXPONENT - a + data.draw(st.integers(0, 1))

        def power(k):
            exps = [0] * vs.nvars
            exps[i] = k
            return tuple(exps)

        with pytest.raises(ContractViolation):
            SparsePoly(vs, {power(MAX_EXPONENT + 1): 1})
        pa, pb = SparsePoly(vs, {power(a): 1}), SparsePoly(vs, {power(b): 2})
        if a + b > MAX_EXPONENT:
            with pytest.raises(ContractViolation):
                pa.mul(pb, trunc)
        else:
            assert as_dict(pa.mul(pb, trunc)) == {power(a + b): 2}

    @PROPERTY
    @given(st.data())
    def test_product_empty_by_order_is_zero(self, data):
        # order(a) + order(b) > trunc: zero over denominator 1, as the reference
        vs = data.draw(layouts())
        zs = ref.z_block(vs.kind, vs.n)

        def shifted(p, k):  # p * z1^k
            z1 = zs.start
            return {e[:z1] + (e[z1] + k,) + e[z1 + 1:]: c for e, c in p.items()}

        a = shifted(data.draw(polys(vs, max_exp=4, max_terms=14).filter(bool)),
                    data.draw(st.integers(1, 3)))
        b = shifted(data.draw(polys(vs, max_exp=4, max_terms=3).filter(bool)),
                    data.draw(st.integers(0, 3)))
        if data.draw(st.booleans()):
            a, b = b, a
        lo = min(sum(e[zs]) for e in a) + min(sum(e[zs]) for e in b)
        trunc = data.draw(st.integers(0, lo - 1))
        got = SparsePoly(vs, a).mul(SparsePoly(vs, b), trunc)
        assert ref.mul(a, b, zs, trunc) == {} == as_dict(got)
        assert got == SparsePoly.zero(vs)

    @PROPERTY
    @given(st.data())
    def test_overflow_guard_inside_a_window(self, data):
        # a product with terms in its window refuses a field past the limit,
        # whichever operand is the large one and whatever the window drops
        vs = data.draw(layouts())
        zs = ref.z_block(vs.kind, vs.n)
        i = data.draw(st.integers(0, vs.nvars - 1))
        a = data.draw(st.integers(1, MAX_EXPONENT))

        def power(k):
            exps = [0] * vs.nvars
            exps[i] = k
            return tuple(exps)

        big = data.draw(polys(vs, max_exp=4, max_terms=12))
        big[power(a)] = Fraction(1)
        small = {power(MAX_EXPONENT + 1 - a): Fraction(2)}
        if data.draw(st.booleans()):
            big, small = small, big
        # the overflowing pair has z-degree MAX_EXPONENT + 1 when i is a z-variable, else 0
        trunc = 2 * MAX_EXPONENT if zs.start <= i < zs.stop else data.draw(st.integers(0, 4))
        with pytest.raises(ContractViolation, match="per-variable limit"):
            SparsePoly(vs, big).mul(SparsePoly(vs, small), trunc)

    @PROPERTY
    @given(st.data())
    def test_associative_product(self, data):
        vs = data.draw(layouts())
        a, b, c = (SparsePoly(vs, data.draw(polys(vs, max_exp=2, max_terms=4)))
                   for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))

    @PROPERTY
    @given(st.data(), coeffs)
    def test_scale_round_trip(self, data, q):
        vs = data.draw(layouts())
        a = SparsePoly(vs, data.draw(polys(vs)))
        assert a.scale(q).scale(1 / q) == a


class TestScanAgainstReference:
    @PROPERTY
    @given(st.data(), st.integers(1, 3), st.integers(1, 3))
    def test_shared_chain(self, data, mmax, mmax1):
        vs = VarSet.z(data.draw(st.integers(1, 3)))
        h = MapTuple.exact([SparsePoly(vs, {e: c for e, c in data.draw(
            polys(vs, max_exp=2, max_terms=3)).items() if sum(e) >= 2}) for _ in range(vs.n)])
        for scan in vanishing_scan_poly(xi_pairing(h), {0: mmax, 1: mmax1}):
            for m, v in scan.values:
                assert v == ref.scan_value(h, scan.k, m)


def sympy_det(sympy, m: PolyMatrix, trunc):
    """det(m) by sympy, as a dict over the exponent tuples of m's layout."""
    vs = m.vars
    syms = sympy.symbols(f"x0:{vs.nvars}")

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
                    for e, c in p.items()), sympy.Integer(0))

    # division-free; sympy's default method ran about 8x slower on these entries
    d = sympy.Matrix([[expr(p) for p in row] for row in m.rows]).det(method="berkowitz")
    zs = ref.z_block(vs.kind, vs.n)
    out = {}
    for e, c in sympy.Poly(sympy.expand(d), *syms).as_dict().items():
        if c and (trunc is None or sum(e[zs]) <= trunc):
            out[tuple(int(k) for k in e)] = Fraction(int(c.p), int(c.q))
    return out


class TestDetAgainstSympy:
    @settings(PROPERTY, max_examples=30)
    @given(st.data(), st.none() | st.integers(0, 4))
    def test_det(self, data, trunc):
        sympy = pytest.importorskip("sympy")
        vs = data.draw(layouts())
        dim = data.draw(st.integers(1, 4))
        m = PolyMatrix(tuple(tuple(SparsePoly(vs, data.draw(polys(vs, max_exp=2, max_terms=3)))
                                   for _ in range(dim)) for _ in range(dim)))
        assert as_dict(det(m, trunc)) == sympy_det(sympy, m, trunc)
