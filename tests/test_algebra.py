"""Exact arithmetic kernel: polynomials, fractions, series, roots."""

import cmath
import math
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fraction_oracle
import nazeta.algebra
import zeta_series_oracle
from nazeta.algebra import (
    ROOT_TOL,
    Poly,
    RationalFunction,
    poly_complex_roots,
    poly_gcd,
    power_sums,
    series_exp,
    series_log_coefficients,
    substitute,
)
from nazeta.curve import CurveData, expand_sum, zeta_factors
from nazeta.errors import DomainError, NumericError
from nazeta.multivar import LaurentPoly, MultiRationalFunction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def small_polys(max_deg=3, nonzero=False):
    base = st.lists(rationals, min_size=1, max_size=max_deg + 1).map(
        Poly.from_list
    )
    if nonzero:
        return base.filter(lambda p: not p.is_zero())
    return base


class TestPoly:
    def test_zero_handling(self):
        assert Poly.of(0, 0).is_zero()
        assert Poly.of(1, 0).degree == 0

    def test_exact_div(self):
        a = Poly.of(1, -1) * Poly.of(2, 0, 1)
        assert a.exact_div(Poly.of(1, -1)) == Poly.of(2, 0, 1)
        # rational contents and a divisor with a negative lead
        half = Poly.of(F(1, 2), F(-1, 2))
        assert a.scale(F(-3, 4)).exact_div(half) == Poly.of(-3, 0, F(-3, 2))
        assert Poly.zero().exact_div(Poly.of(1, 1)) == Poly.zero()
        refused = [
            (a + Poly.of(5), Poly.of(1, -1)),  # remainder 5
            (Poly.of(1, 0, 1), Poly.of(1, 1)),  # remainder 2, integral quotient steps
            (Poly.of(1), Poly.of(1, 1)),  # divisor of higher degree
            (a, Poly.zero()),
        ]
        for num, den in refused:
            with pytest.raises(DomainError):
                num.exact_div(den)
        with pytest.raises(DomainError):
            nazeta.algebra._int_div_exact([1, 0, 1], [1, 1])

    def test_shift_is_taylor(self):
        p = Poly.of(1, 2, 3, 4)
        for a in (F(1, 2), F(-5, 3), F(0), F(7)):
            sh = p.shift(a)
            for x in (F(0), F(1), F(-2, 3)):
                assert sh.evaluate(x) == p.evaluate(x + a)

    def test_gcd_common_factor(self):
        g = Poly.of(-1, 0, 1)
        a = g * Poly.of(2, 3)
        b = g * Poly.of(1, 1, 5)
        assert poly_gcd(a, b) == g.scale(1 / g.leading())


def assert_canonical(p):
    """content times a primitive integer tuple with a positive lead; 0 is (0, ())."""
    assert isinstance(p.content, F) and all(type(v) is int for v in p.prim)
    if p.prim:
        assert p.content != 0 and p.prim[-1] > 0 and math.gcd(*p.prim) == 1
    else:
        assert p.content == 0


class TestRepresentation:
    """Poly's stored form against the oracle's plain Fraction lists."""

    # zeros (trailing ones too), small and wide rationals
    coeff = st.one_of(
        st.just(F(0)),
        rationals,
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
    )
    lists = st.lists(coeff, max_size=6)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=lists, b=lists, x=coeff)
    @example(a=[F(-3), F(6), F(-9)], b=[F(-1, 2), F(0)], x=F(-2, 3))  # negative leads
    @example(a=[F(1, 6), F(0), F(-5, 4), F(2)], b=[F(-7), F(3, 5)], x=F(0))  # zero offset
    def test_operations_match_the_oracle(self, a, b, x):
        o = fraction_oracle
        p, q = Poly.from_list(a), Poly.from_list(b)
        a, b = o.trim(a), o.trim(b)
        assert p.coeffs == tuple(a) and q.coeffs == tuple(b)
        results = {
            "add": (p + q, o.add(a, b)),
            "sub": (p - q, o.sub(a, b)),
            "mul": (p * q, o.mul(a, b)),
            "scale": (p.scale(x), o.scale(a, x)),
            "shift": (p.shift(x), o.shift(a, x)),
        }
        if b:
            results["exact_div"] = ((p * q).exact_div(q), o.poly_divmod(o.mul(a, b), b)[0])
        for name, (got, want) in results.items():
            assert_canonical(got)
            assert got.coeffs == tuple(want), name
        assert p.evaluate(x) == o.evaluate(a, x)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=lists, b=lists, k=st.integers(-30, 30).filter(bool))
    def test_equal_polynomials_are_equal_and_hash_alike(self, a, b, k):
        p, q = Poly.from_list(a), Poly.from_list(b)
        den = math.lcm(*(F(c).denominator for c in a))
        ints = [int(c * den * k) for c in a]  # p times k * den, as integers
        routes = [
            Poly.from_ints(ints, F(1, den * k)),
            Poly.of(*a),
            p.scale(k).scale(F(1, k)),
            (p + q) - q,
            -(-p),
            p * Poly.one(),
        ]
        if q:
            routes.append((p * q).exact_div(q))
        for r in routes:
            assert_canonical(r)
            assert r == p and hash(r) == hash(p)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        small_polys(),
        small_polys(nonzero=True),
        rationals.filter(bool),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(-3, 3),
    )
    def test_rational_function_parts_are_canonical(self, a, b, c, d, k):
        # the oracle comparison of substitute and mul_monomial is
        # TestSubstitution.test_gcd_free_results_match_the_fraction_oracle
        f = RationalFunction.make(a, b, "u")
        for g in (f, substitute(f, c, d, "v"), f.mul_monomial(k), f * f, f + f):
            assert_canonical(g.num)
            assert_canonical(g.den)
            assert g.den.leading() == 1


class TestRationalFunction:
    def test_reduction_and_canonical_eq(self):
        f = RationalFunction.make(Poly.of(-1, 0, 1), Poly.of(1, 1), "u")
        assert f == RationalFunction.from_poly(Poly.of(-1, 1), "u")

    @settings(max_examples=60, deadline=None)
    @given(small_polys(nonzero=True), small_polys(nonzero=True), small_polys(nonzero=True))
    def test_canonical_form_product_quotient(self, a, b, d):
        # reduce(f*g)/reduce(g) = reduce(f) exactly
        f = RationalFunction.make(a, d, "u")
        g = RationalFunction.make(b, Poly.of(1, 2), "u")
        assert (f * g) / g == f

    # coefficients with denominators up to 10^30, either sign
    wide = st.one_of(
        rationals,
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**30),
    )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        a=st.lists(wide, max_size=5),
        b=st.lists(wide, min_size=1, max_size=5),
        f=st.lists(wide, min_size=1, max_size=4),
    )
    @example(a=[], b=[1, 2], f=[3, 1])  # zero numerator
    @example(a=[1, 2, 3], b=[F(-5, 7)], f=[2])  # constant den
    @example(  # negative leading coefficients, a cubic common factor
        a=[1, -3], b=[2, 0, -7], f=[F(1, 10**30), 0, 1, -4]
    )
    def test_make_matches_the_fraction_oracle(self, a, b, f):
        # num and den share the factor f, of degree 0..3, multiplied out
        # by the oracle's own arithmetic
        a, b, f = map(fraction_oracle.trim, (a, b, f))
        if not b or not f:
            return
        num, den = fraction_oracle.mul(a, f), fraction_oracle.mul(b, f)
        p, q = Poly.from_list(num), Poly.from_list(den)
        assert RationalFunction.make(p, q, "T") == fraction_oracle.make(num, den, "T")
        assert list(poly_gcd(p, q).coeffs) == fraction_oracle.fraction_gcd(num, den)

    def test_scale_by_zero_is_the_canonical_zero(self):
        f = RationalFunction.make(Poly.of(1, 2), Poly.of(3, 0, 1), "T")
        assert f.scale(0) == RationalFunction.const(0, "T")
        assert f.scale(F(0)).den == Poly.one()

    def test_series_of_geometric(self):
        f = RationalFunction.make(Poly.one(), Poly.of(1, -1), "T")
        assert f.series(4) == [F(1)] * 5


int_lists = st.lists(st.integers(-6, 6), max_size=5)


class TestIntegerReaders:
    """The constructors and readers run on integers: a Fraction is only
    built, never added, multiplied, divided or raised to a power."""

    ARITHMETIC = (
        "__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__",
    )

    def test_no_fraction_arithmetic(self, monkeypatch):
        P = Poly.from_list([1, F(3, 2), 3])  # content 1/2: prim [2, 3, 6]
        c = CurveData(1, 3, P)
        f = RationalFunction.make(Poly.of(F(-2, 3), 0, 6), Poly.of(F(1, 5), F(3, 7)))
        # atoms with q-exponents of both signs: (2, 3) gives P(q^-3 u^2)
        factors = [zeta_factors(c, k, h) for k, h in ((1, 0), (-2, 1), (3, -2), (2, 3))]
        # a common factor for make to divide out (Poly.__mul__ keeps its
        # content product, so the inputs are built first)
        num, den = f.num * f.den, f.den * Poly.of(-3, F(1, 2))

        def runs():
            return (
                Poly.from_list([F(1, 6), 0, F(-5, 4), 2]),
                RationalFunction.make(num, den),
                substitute(f, F(-2, 3), -2, "v"),
                substitute(f, 3, 2, "t"),
                f.mul_monomial(2),
                f.mul_monomial(-3),
                power_sums(P, 6),
                CurveData(1, 3, P),
                [expand_sum(c, [t]) for t in factors],
            )

        expected = runs()

        def refuse(*args):
            raise AssertionError("Fraction arithmetic")

        with monkeypatch.context() as m:
            for name in self.ARITHMETIC:
                m.setattr(F, name, refuse)
            got = runs()
        assert got == expected


class TestCrossMultiplied:
    """_same_ratio decides a/b = c/d by a d = c b, with neither reduced."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        a=int_lists,
        b=int_lists.filter(any),
        kind=st.sampled_from(["scaled copy", "numerator negated", "both negated", "unrelated"]),
        factor=st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any),
        other=st.tuples(int_lists, int_lists.filter(any)),
    )
    @example(a=[0, 0], b=[0, 3], kind="unrelated", factor=[1], other=([], [1, 2]))
    @example(a=[], b=[2], kind="numerator negated", factor=[1], other=([], [1]))
    @example(a=[1, 2], b=[3, 0, 0], kind="scaled copy", factor=[0, -2], other=([], [1]))
    def test_agrees_with_reduced_equality(self, a, b, kind, factor, other):
        if kind == "scaled copy":  # by a polynomial, sign and constant included
            c, d = nazeta.algebra._int_mul(a, factor), nazeta.algebra._int_mul(b, factor)
        elif kind == "numerator negated":  # the same function only when a = 0
            c, d = [-v for v in a], b
        elif kind == "both negated":
            c, d = [-v for v in a], [-v for v in b]
        else:
            c, d = other
        reduced = RationalFunction.make(
            Poly.from_ints(a), Poly.from_ints(b)
        ) == RationalFunction.make(Poly.from_ints(c), Poly.from_ints(d))
        assert nazeta.algebra._same_ratio(a, b, c, d) == reduced


class TestPseudoRemainder:
    """_int_prem against the remainder over Q: a positive multiple of it,
    so a Sturm chain built from it keeps its signs."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.lists(st.integers(-20, 20), max_size=7),
        b=st.lists(st.integers(-20, 20), max_size=4).map(fraction_oracle.trim).filter(bool),
    )
    @example(a=[1, 0, 1], b=[0, -1])  # x^2 + 1 = (-x)(-x) + 1
    @example(a=[3, 1, 0, 2], b=[1, 0, -3])  # leading coefficients of both signs
    def test_positive_multiple_of_the_remainder(self, a, b):
        got = nazeta.algebra._int_prem(a, [int(v) for v in b])
        want = fraction_oracle.poly_divmod(fraction_oracle.trim(a), b)[1]
        assert len(got) == len(want)
        if want:
            ratio = got[-1] / want[-1]
            assert ratio > 0
            assert [F(v) for v in got] == [ratio * w for w in want]


class TestSubstitution:
    def test_reciprocal_example(self):
        f = RationalFunction.make(Poly.one(), Poly.of(1, -1), "u")
        g = substitute(f, 1, -1, "u")
        assert g == RationalFunction.make(Poly.of(0, -1), Poly.of(1, -1), "u")

    def test_scaled_reciprocal(self):
        g = substitute(RationalFunction.variable("u"), 4, -1, "u")
        assert g == RationalFunction.make(Poly.of(4), Poly.of(0, 1), "u")

    @settings(max_examples=40, deadline=None)
    @given(small_polys(nonzero=True), small_polys(nonzero=True))
    def test_reciprocal_is_involution(self, a, b):
        f = RationalFunction.make(a, b, "u")
        c = F(9, 2)
        assert substitute(substitute(f, c, -1, "u"), c, -1, "u") == f

    def test_power_substitution(self):
        f = RationalFunction.make(Poly.of(1, 1), Poly.of(1, -1), "T")
        g = substitute(f, 1, 2, "t")
        assert g == RationalFunction.make(Poly.of(1, 0, 1), Poly.of(1, 0, -1), "t")

    def test_substitutions_compose(self):
        # u -> c*u is the power substitution with d = 1
        f = RationalFunction.make(Poly.of(1, 2, 1), Poly.of(3, 0, 1), "u")
        one_step = substitute(f, F(3, 2), 1, "u")
        two_step = substitute(substitute(f, 3, 1, "u"), F(1, 2), 1, "u")
        assert one_step == two_step

    @settings(max_examples=80, deadline=None)
    @given(
        small_polys(nonzero=True),
        small_polys(nonzero=True),
        rationals.filter(bool),
        st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
        rationals.filter(bool),
    )
    def test_value_at_substituted_point(self, a, b, c, d, x):
        f = RationalFunction.make(a, b, "u")
        y = c * x**d
        assume(f.den.evaluate(y) != 0)
        assert substitute(f, c, d, "v").evaluate(x) == f.evaluate(y)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        small_polys(),
        small_polys(nonzero=True),
        rationals.filter(bool),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.integers(-3, 3),
    )
    # a power of u to strip: u^2 * (1/u), and u^-1 * 3u^2/(1 + u)
    @example(Poly.of(1), Poly.of(0, 1), F(2), 1, 2)
    @example(Poly.of(0, 0, 3), Poly.of(1, 1), F(-1, 2), -2, -1)
    def test_gcd_free_results_match_the_fraction_oracle(self, a, b, c, d, k):
        # substitute and mul_monomial skip the gcd; the oracle reduces the
        # placed coefficients by a Euclidean gcd over Q
        f = RationalFunction.make(a, b, "u")
        m = max(f.num.degree, f.den.degree, 0)

        def place(p):
            out = [F(0)] * (abs(d) * m + 1)
            for i, x in enumerate(p.coeffs):
                out[d * i if d > 0 else -d * (m - i)] = x * c**i
            return out

        expected = fraction_oracle.make(place(f.num), place(f.den), "v")
        assert substitute(f, c, d, "v") == expected
        num, den = list(f.num.coeffs), list(f.den.coeffs)
        if k >= 0:
            expected = fraction_oracle.make([F(0)] * k + num, den, "u")
        else:
            expected = fraction_oracle.make(num, [F(0)] * -k + den, "u")
        assert f.mul_monomial(k) == expected

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            substitute(RationalFunction.variable("u"), 0, 1, "u")

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            substitute(RationalFunction.variable("u"), 1, 0, "u")


class TestLogSeries:
    def test_geometric_coefficients(self):
        f = RationalFunction.make(Poly.one(), Poly.of(1, -1), "T")
        cs = series_log_coefficients(f, 3)
        assert cs == [F(1), F(1, 2), F(1, 3)]
        assert [m * c for m, c in zip((1, 2, 3), cs)] == [1, 1, 1]

    def test_round_trip(self):
        f = RationalFunction.make(Poly.of(1, 1), Poly.of(1, -1), "T")
        cs = series_log_coefficients(f, 6)
        assert series_exp(cs, 6) == f.series(6)

    def test_point_counts_match_newton_identities(self):
        # rank-one zeta of the q=2, N=3 curve: counts from power sums
        num = Poly.of(1, 0, 2)
        f = RationalFunction.make(num, Poly.of(1, -1) * Poly.of(1, -2), "T")
        cs = series_log_coefficients(f, 5)
        # Newton identities for power sums of the inverse roots of num:
        # p_k + a_1 p_{k-1} + ... + k a_k = 0 with num = 1 + a_1 T + a_2 T^2
        a = [num[i] for i in range(3)]
        power_sums = []
        for k in range(1, 6):
            acc = -k * (a[k] if k < 3 else 0)
            for j in range(1, min(k, 2) + 1):
                acc -= a[j] * (power_sums[k - j - 1] if k - j >= 1 else 0)
            power_sums.append(acc)
        for m in range(1, 6):
            assert m * cs[m - 1] == 1 + 2**m - power_sums[m - 1]

    def test_requires_unit_constant(self):
        f = RationalFunction.make(Poly.of(2, 1), Poly.of(1, -1), "T")
        with pytest.raises(DomainError):
            series_log_coefficients(f, 3)

    def test_power_sums_of_one_and_two(self):
        # 1 - 3T + 2T^2 = (1 - T)(1 - 2T), so s_m = 1 + 2^m
        assert power_sums(Poly.of(1, -3, 2), 5) == [1 + 2**m for m in range(1, 6)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tail=st.lists(rationals, max_size=5), upto=st.integers(1, 8))
    @example(tail=[F(1, 2), F(2)], upto=6)  # prim [2, 1, 4]: prim[0] is not 1
    @example(tail=[F(-3, 2), F(0), F(-4, 3)], upto=8)
    @example(tail=[], upto=3)
    def test_power_sums_match_the_fraction_recurrence(self, tail, upto):
        p = Poly.from_list([1] + tail)
        assert power_sums(p, upto) == zeta_series_oracle.fraction_power_sums(p, upto)


def _residual_ok(p, z):
    # in mpmath, whose exponents do not overflow, so that a root is also
    # judged where p's coefficients or its powers leave double range
    with mpmath.workdps(30):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in p.coeffs]
        value = mpmath.polyval(cs[::-1], mpmath.mpc(z))
        scale = sum(abs(c) * abs(mpmath.mpc(z)) ** i for i, c in enumerate(cs))
        return abs(value) <= ROOT_TOL * max(scale, 1e-300)


def _by_position(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _check_multiplicities(p, expected, tol):
    """Each (root, mult) of ``expected`` is found once, repeated exactly
    mult times, and the list is sorted and conjugate-symmetric."""
    roots = poly_complex_roots(p)
    counts = Counter(roots)
    assert len(roots) == p.degree and len(counts) == len(expected)
    for z, mult in expected:
        w = min(counts, key=lambda w: abs(w - z))
        assert abs(w - z) < tol * (1 + abs(z)) and counts[w] == mult
    assert roots == _by_position(roots)
    assert _by_position(z.conjugate() for z in roots) == roots


# roots of a T-linear atom T - a, or of a quadratic atom T^2 + bT + c, b^2 < 4c
root_atoms = st.one_of(
    st.integers(-4, 4).map(lambda a: (a,)),
    st.tuples(st.integers(-3, 3), st.integers(1, 5)).filter(
        lambda bc: bc[0] ** 2 < 4 * bc[1]
    ),
)


class TestComplexRoots:
    def test_factored_quadratic(self):
        roots = poly_complex_roots(Poly.of(-1, 0, 1))
        values = [z.real for z in roots]
        assert abs(values[0] + 1) < 1e-9 and abs(values[1] - 1) < 1e-9

    def test_conjugate_pair_modulus(self):
        roots = poly_complex_roots(Poly.of(1, 1, 4))
        assert len(roots) == 2
        assert all(abs(abs(z) - 0.5) < 1e-9 for z in roots)
        assert roots[0].conjugate() == roots[1]

    def test_two_rational_roots(self):
        roots = poly_complex_roots(Poly.of(1, -2) * Poly.of(1, -3))
        values = [z.real for z in roots]
        assert abs(values[0] - 1 / 3) < 1e-9 and abs(values[1] - 1 / 2) < 1e-9

    def test_multiplicity(self):
        roots = poly_complex_roots(Poly.of(1, -2) ** 2)
        assert len(roots) == 2 and roots[0] == roots[1]
        assert abs(roots[0] - 0.5) < 1e-12

    def test_residual_bound(self):
        for coeffs in ((3, 0, -2, 1), (1, 1, 1, 1, 1), (-5, 0, 0, 0, 2)):
            p = Poly.of(*coeffs)
            assert all(_residual_ok(p, z) for z in poly_complex_roots(p))

    def test_non_finite_roots_fail_the_residual_bound(self):
        coeffs = [1.0, 1.0, 4.0]  # 1 + T + 4T^2
        for z in (complex("nan"), complex("nan+nanj"), complex("inf")):
            assert not nazeta.algebra._residuals_ok(coeffs, [z])

    def test_coefficients_beyond_double_range(self):
        # the root 2 fits in a double although the coefficients do not:
        # it is judged on p(rho y), whose coefficients are -1 and 1
        roots = poly_complex_roots(Poly.of(-2 * 10**320, 10**320))
        # rho from the exact ratio p_0/p_d, not from two logarithms near 737
        assert len(roots) == 1 and abs(roots[0] - 2) <= 2e-15
        p = Poly.of(-(10**320), 3 * 10**320, 10**320)  # roots (-3 +- sqrt 13)/2
        roots = poly_complex_roots(p)
        exact = [(-3 - math.sqrt(13)) / 2, (-3 + math.sqrt(13)) / 2]
        assert len(roots) == 2
        assert all(abs(z - x) <= 1e-15 * abs(x) for z, x in zip(roots, exact))
        assert all(_residual_ok(p, z) for z in roots)

    @pytest.mark.parametrize("p", [Poly.of(-1, 10**400), Poly.of(-(10**310), 1)])
    def test_root_beyond_double_range_is_a_numeric_error(self, p):
        # roots 1e-400 and 1e310: p(rho y) is fine, rho y is no double
        with pytest.raises(NumericError):
            poly_complex_roots(p)

    def test_degree_sum(self):
        p = Poly.of(2, 0, 0, 1, 5, 1)
        assert len(poly_complex_roots(p)) == p.degree

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            poly_complex_roots(Poly.zero())

    @pytest.mark.parametrize(
        "p, expected",
        [
            (
                Poly.of(1, -3, 9) ** 6,
                [(complex(1, s * 3**0.5) / 6, 6) for s in (1, -1)],
            ),
            (Poly.of(1, 1) ** 4, [(-1, 4)]),
            (Poly.of(1, -1) ** 6 * Poly.of(1, 0, 1) ** 2, [(1, 6), (1j, 2), (-1j, 2)]),
        ],
        ids=["(1-3T+9T^2)^6", "(1+T)^4", "(1-T)^6(1+T^2)^2"],
    )
    def test_repeated_roots(self, p, expected):
        _check_multiplicities(p, expected, 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(root_atoms, st.integers(1, 3)),
            min_size=1,
            max_size=4,
            unique_by=lambda am: am[0],
        )
    )
    def test_multiplicities_of_squarefree_parts(self, atoms):
        # f g^2 h^3, f, g, h the products of the atoms of multiplicity 1, 2, 3
        p, expected = Poly.one(), []
        for atom, mult in atoms:
            if len(atom) == 1:
                factor, zs = Poly.of(-atom[0], 1), [complex(atom[0])]
            else:
                b, c = atom
                factor, d = Poly.of(c, b, 1), cmath.sqrt(b * b - 4 * c)
                zs = [(-b + d) / 2, (-b - d) / 2]
            p = p * factor**mult
            expected += [(z, mult) for z in zs]
        _check_multiplicities(p, expected, 1e-8)

    @pytest.mark.parametrize(
        "p, factor_degrees",
        [
            (Poly.of(1, 1, 2) * Poly.of(1, -1, 2), [4]),
            (
                Poly.of(1, -3, 2)
                * Poly.of(1, -2, 2) * Poly.of(1, -1, 2) * Poly.of(1, 0, 2)
                * Poly.of(1, 1, 2) * Poly.of(1, 2, 2),
                [12],
            ),
            (Poly.of(1, 1, 2) * Poly.of(1, -2) ** 2, [2, 1]),
        ],
        ids=["degree-4", "degree-12", "linear-square"],
    )
    def test_companion_fallback(self, p, factor_degrees, monkeypatch):
        # an Aberth run on p(rho y) that ends off the roots hands over to
        # the companion matrix, whose roots must meet the same residual bound
        monkeypatch.setattr(
            nazeta.algebra,
            "_aberth",
            lambda coeffs: [complex(k + 3, 1) for k in range(len(coeffs) - 1)],
        )
        calls = []
        companion = nazeta.algebra._companion_roots
        monkeypatch.setattr(
            nazeta.algebra,
            "_companion_roots",
            lambda q: calls.append(q.degree) or companion(q),
        )
        roots = poly_complex_roots(p)
        assert calls == factor_degrees
        assert len(roots) == p.degree
        assert all(_residual_ok(p, z) for z in roots)

    def test_out_of_double_range_is_a_numeric_error(self):
        # roots near -1e300 and -1e-600: the rescaled polynomial's leading
        # coefficient underflows, so the Aberth run refuses it
        p = Poly.of(F(1, 10**300), F(10) ** 300, 1)
        with pytest.raises(NumericError):
            poly_complex_roots(p)

    @pytest.mark.parametrize(
        "p",
        [Poly.of(10**350, 1), Poly.of(10**300, 0, 3, 10**300, F(1, 10**300))],
        ids=["root-1e350", "monic-1e600"],
    )
    def test_float_overflow_is_a_numeric_error(self, p):
        with pytest.raises(NumericError):
            poly_complex_roots(p)

    def test_one_aberth_run_per_factor(self, monkeypatch):
        # coefficients up to about 1e10 in two square-free factors: each is
        # solved by one Aberth run, on p(rho y) divided by its largest
        # coefficient
        runs = []
        aberth = nazeta.algebra._aberth
        monkeypatch.setattr(
            nazeta.algebra,
            "_aberth",
            lambda coeffs: runs.append(coeffs) or aberth(coeffs),
        )
        p = Poly.of(10**10, 1, 1) * Poly.of(3, 1) ** 2
        roots = poly_complex_roots(p)
        assert sorted(len(coeffs) - 1 for coeffs in runs) == [1, 2]
        assert all(max(abs(c) for c in coeffs) == 1 for coeffs in runs)
        assert all(_residual_ok(p, z) for z in roots)

    def test_one_gcd_of_p_and_its_derivative(self, monkeypatch):
        # (T - 1)^2 (T + 1): the gcd that finds p not square-free is the
        # one Yun's split starts from; the loop adds one more (its last z
        # is zero and needs none)
        calls = []
        gcd = nazeta.algebra._int_gcd
        monkeypatch.setattr(
            nazeta.algebra, "_int_gcd", lambda a, b: calls.append(a) or gcd(a, b)
        )
        roots = poly_complex_roots(Poly.of(-1, 1) ** 2 * Poly.of(1, 1))
        assert roots == [-1, 1, 1]
        assert len(calls) == 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(
                st.builds(
                    lambda sign, m, k: sign * m * 10**k,
                    st.sampled_from((1, -1)),
                    st.integers(1, 9),
                    st.integers(0, 400),
                ),
                min_size=2,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    # a conjugate pair at +-1e-10 i: the snap to the real axis is relative
    @example(factors=[[1, 1, 10**20]])
    def test_coefficients_up_to_1e400(self, factors):
        # a product of linear and quadratic integer factors: roots that
        # meet the residual bound, or a NumericError, and no other outcome
        p = Poly.one()
        for coeffs in factors:
            p = p * Poly.of(*coeffs)
        assume(nazeta.algebra._squarefree_split(p) == [(p, 1)])
        try:
            roots = poly_complex_roots(p)
        except NumericError:
            return
        assert len(roots) == p.degree
        assert all(_residual_ok(p, z) for z in roots)


class TestMultivariate:
    def test_specialization_matches_univariate(self):
        # (1 + u1 u2)/(1 - u2) specialized at u1 = 3 equals the direct build
        one = LaurentPoly.const(2, 1)
        u1 = LaurentPoly.var(2, 0)
        u2 = LaurentPoly.var(2, 1)
        f = MultiRationalFunction.make(one + u1 * u2, one - u2)
        spec = f.eval_var(0, 3).to_univariate(1, "u")
        direct = RationalFunction.make(Poly.of(1, 3), Poly.of(1, -1), "u")
        assert spec == direct

    def test_monomial_content_removed(self):
        u1 = LaurentPoly.var(2, 0)
        f = MultiRationalFunction.make(
            u1.mul_monomial((2, 1)), u1.mul_monomial((1, 1))
        )
        lo_n = f.num.degree_in(0)[0]
        lo_d = f.den.degree_in(0)[0]
        assert min(lo_n, lo_d) == 0
        assert not f.num.uses_var(1) and not f.den.uses_var(1)

    def test_cross_equality(self):
        one = LaurentPoly.const(2, 1)
        u2 = LaurentPoly.var(2, 1)
        a = MultiRationalFunction.make(one - u2 * u2, (one - u2) * (one + u2))
        b = MultiRationalFunction.const(2, 1)
        assert a.equal(b)
