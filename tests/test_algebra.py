"""Exact arithmetic kernel: polynomials, fractions, series, roots."""

import cmath
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fraction_oracle
import nazeta.algebra
from nazeta.algebra import (
    ROOT_TOL,
    Poly,
    RationalFunction,
    poly_complex_roots,
    poly_gcd,
    series_exp,
    series_log_coefficients,
    substitute,
)
from nazeta.errors import DomainError
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

    def test_divmod_exact(self):
        a = Poly.of(1, -1) * Poly.of(2, 0, 1) + Poly.of(5)
        q, r = a.divmod(Poly.of(1, -1))
        assert q == Poly.of(2, 0, 1)
        assert r == Poly.of(5)

    def test_shift_is_taylor(self):
        p = Poly.of(1, 2, 3, 4)
        sh = p.shift(F(1, 2))
        for x in (F(0), F(1), F(-2, 3)):
            assert sh.evaluate(x) == p.evaluate(x + F(1, 2))

    def test_gcd_common_factor(self):
        g = Poly.of(-1, 0, 1)
        a = g * Poly.of(2, 3)
        b = g * Poly.of(1, 1, 5)
        assert poly_gcd(a, b) == g.scale(1 / g.leading())


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
        a=st.lists(wide, max_size=5).map(Poly.from_list),
        b=st.lists(wide, min_size=1, max_size=5).map(Poly.from_list),
        f=st.lists(wide, min_size=1, max_size=4).map(Poly.from_list),
    )
    @example(a=Poly.zero(), b=Poly.of(1, 2), f=Poly.of(3, 1))  # zero numerator
    @example(a=Poly.of(1, 2, 3), b=Poly.of(F(-5, 7)), f=Poly.of(2))  # constant den
    @example(  # negative leading coefficients, a cubic common factor
        a=Poly.of(1, -3), b=Poly.of(2, 0, -7), f=Poly.of(F(1, 10**30), 0, 1, -4)
    )
    def test_make_matches_the_fraction_oracle(self, a, b, f):
        # num and den share the factor f, of degree 0..3
        if b.is_zero() or f.is_zero():
            return
        num, den = a * f, b * f
        assert RationalFunction.make(num, den, "T") == fraction_oracle.make(
            num, den, "T"
        )
        assert poly_gcd(num, den) == fraction_oracle.fraction_gcd(num, den)

    def test_series_of_geometric(self):
        f = RationalFunction.make(Poly.one(), Poly.of(1, -1), "T")
        assert f.series(4) == [F(1)] * 5


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


def _residual_ok(p, z):
    scale = sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coeffs))
    return abs(p.evaluate_complex(z)) <= ROOT_TOL * max(scale, 1e-300)


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
        # an Aberth run that ends off the roots hands over to the
        # companion matrix, whose roots must meet the same residual bound
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
