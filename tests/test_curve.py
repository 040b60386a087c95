"""Curve data, zeta factors and special values."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracle
from zeta_series_oracle import artin_zeta, brute_force_numerator, series_point_counts
from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import (
    FactorProduct,
    _atom_ints,
    artin_zeta_value,
    completed_zeta_factor,
    completed_zeta_value,
    curve_from_numerator,
    curve_from_point_counts,
    elliptic_curve,
    expand_sum,
    product,
    zeta_special_residue,
)
from nazeta.errors import DomainError, PoleError, ValidationError

GENUS2_P = Poly.of(1, 0, 2) ** 2


class TestConstruction:
    def test_elliptic_supersingular_shape(self):
        c = elliptic_curve(2, 3)
        expected_low = brute_force_numerator(1, 2, [3])
        assert list(c.P.coeffs[:2]) == expected_low[:2]
        assert c.P == Poly.of(1, 0, 2)

    def test_elliptic_trace_two(self):
        assert elliptic_curve(2, 1).P == Poly.of(1, -2, 2)

    def test_genus2_round_trip(self):
        curve = curve_from_numerator(2, 2, GENUS2_P.coeffs)
        counts = curve.point_counts(2)
        assert curve_from_point_counts(2, 2, counts).P == GENUS2_P

    def test_count_length_enforced(self):
        with pytest.raises(DomainError):
            curve_from_point_counts(2, 2, [3])

    def test_symmetry_violation_names_index(self):
        with pytest.raises(ValidationError) as err:
            curve_from_numerator(1, 2, [1, 0, 3])
        assert "i=0" in str(err.value)

    def test_symmetry_violation_message_on_a_rational_numerator(self):
        # the first failing index, with both sides as Fractions
        with pytest.raises(ValidationError) as err:
            curve_from_numerator(2, 2, [1, F(1, 3), F(2, 7), F(5, 7), 4])
        assert str(err.value) == (
            "coefficient symmetry a_{2g-i} = q^(g-i) a_i fails at i=1: 5/7 != 2/3"
        )
        with pytest.raises(ValidationError) as err:
            curve_from_numerator(1, 2, [F(3, 2), 0, 3])
        assert str(err.value) == "numerator must have constant term 1"

    def test_genus_zero_rejected(self):
        with pytest.raises(ValidationError):
            curve_from_numerator(0, 2, [1])

    def test_weil_check(self):
        assert elliptic_curve(3, 4).weil_numbers_check()
        assert curve_from_numerator(2, 2, GENUS2_P.coeffs).weil_numbers_check()

    def test_weil_check_rejects_coefficients_beyond_hasse_weil(self):
        # a_1 = 5 > 2 sqrt(2): roots off the circle
        assert not curve_from_numerator(1, 2, [1, 5, 2]).weil_numbers_check()
        # a_1 = 10^200: the float root test alone reported true here
        assert not curve_from_numerator(1, 2, [1, 10**200, 2]).weil_numbers_check()
        # the bound is inclusive: 1 + 2T + 2T^2 has its roots on the circle
        assert curve_from_numerator(1, 2, [1, 2, 2]).weil_numbers_check()


GENUS_Q_COUNTS = st.tuples(st.integers(1, 3), st.integers(2, 9)).flatmap(
    lambda gq: st.tuples(
        st.just(gq[0]), st.just(gq[1]),
        st.lists(st.integers(1, 1000), min_size=gq[0], max_size=gq[0]),
    )
)


class TestNewtonBridge:
    """Counts to numerator and back by power sums, against the series of
    the Artin zeta."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=GENUS_Q_COUNTS)
    @example(case=(1, 2, [3]))
    @example(case=(2, 2, [3, 13]))  # (1 + 2T^2)^2
    @example(case=(2, 3, [4, 1]))  # a_2 = -9/2: N_4 is not an integer
    def test_matches_the_series_oracle(self, case):
        g, q, counts = case
        c = curve_from_point_counts(g, q, counts)
        assert list(c.P.coeffs[: g + 1]) == brute_force_numerator(g, q, counts)
        try:
            expected = series_point_counts(c, g + 2)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                c.point_counts(g + 2)
        else:
            assert c.point_counts(g + 2) == expected

    def test_rational_numerator_has_no_integer_counts(self):
        c = curve_from_numerator(1, 2, [1, F(1, 2), 2])
        for counts in (c.point_counts, lambda upto: series_point_counts(c, upto)):
            with pytest.raises(ValidationError, match="non-integer point count"):
                counts(3)


class TestArtinZeta:
    def test_elliptic_closed_form(self):
        c = elliptic_curve(2, 3)
        expected = RationalFunction.make(
            Poly.of(1, 0, 2), Poly.of(1, -1) * Poly.of(1, -2), "t"
        )
        assert artin_zeta(c) == expected

    def test_constant_term_one(self):
        for q, n in ((2, 3), (3, 4), (5, 6)):
            z = artin_zeta(elliptic_curve(q, n))
            assert z.evaluate(0) == 1

    def test_values_at_integers(self):
        c = elliptic_curve(2, 3)
        assert artin_zeta_value(c, 2) == artin_zeta(c).evaluate(F(1, 4))


class TestCompletedZeta:
    def test_constant_value_example(self):
        c = elliptic_curve(2, 3)
        assert completed_zeta_factor(c, 0, 2) == RationalFunction.const(3, "u")
        assert completed_zeta_value(c, 2) == 3

    def test_reflection_pairs(self):
        c = elliptic_curve(2, 3)
        assert (
            completed_zeta_factor(c, 1, 2)
            == completed_zeta_factor(c, -1, -1)
        )

    @pytest.mark.parametrize("curve", [
        elliptic_curve(2, 3),
        elliptic_curve(3, 4),
        curve_from_numerator(2, 2, GENUS2_P.coeffs),
    ])
    def test_reflection_grid(self, curve):
        for k in range(-5, 6):
            for h in range(-6, 7):
                if k == 0 and (h in (0, 1) or 1 - h in (0, 1)):
                    continue
                a = completed_zeta_factor(curve, k, h)
                b = completed_zeta_factor(curve, -k, 1 - h)
                assert a == b, (k, h)

    @pytest.mark.parametrize("curve", [
        elliptic_curve(2, 3),
        elliptic_curve(3, 4),
        curve_from_numerator(2, 2, GENUS2_P.coeffs),
    ])
    def test_against_the_definition(self, curve):
        # q^{(g-1)h} U^{-(g-1)} P(U q^{-h}) / ((1 - U q^{-h})(1 - U q^{1-h}))
        # at U = u^k; a negative k exercises the folding of u^{-m}
        q, g = F(curve.q), curve.g
        for k in range(-5, 6):
            for h in range(-6, 7):
                if k == 0 and h in (0, 1):
                    continue
                f = completed_zeta_factor(curve, k, h)
                for u in (F(5, 7), F(11, 13)):
                    U = u**k
                    x = U * q**-h
                    p_x = sum(a * x**i for i, a in enumerate(curve.P.coeffs))
                    expected = q ** ((g - 1) * h) * U ** (1 - g) * p_x / (
                        (1 - x) * (1 - U * q ** (1 - h))
                    )
                    assert f.evaluate(u) == expected, (k, h, u)

    def test_simple_pole_at_one(self):
        zf = completed_zeta_factor(elliptic_curve(2, 3), 1, 1)
        assert zf.den.evaluate(1) == 0
        assert zf.num.evaluate(1) != 0

    def test_pole_arguments_rejected(self):
        c = elliptic_curve(2, 3)
        for h in (0, 1):
            with pytest.raises(PoleError):
                completed_zeta_factor(c, 0, h)


class TestSpecialResidue:
    def test_elliptic_value(self):
        assert zeta_special_residue(elliptic_curve(2, 3)) == 3

    def test_elliptic_general_formula(self):
        for q, n in ((2, 1), (3, 4), (4, 7), (5, 9)):
            c = elliptic_curve(q, n)
            assert zeta_special_residue(c) == F(n, q - 1)

    def test_genus2_value(self):
        assert zeta_special_residue(curve_from_numerator(2, 2, GENUS2_P.coeffs)) == 9

    def test_two_evaluations_agree(self):
        # q^g P(1/q)/(q-1) = P(1)/(q-1) by coefficient symmetry
        for curve in (
            elliptic_curve(2, 5),
            elliptic_curve(7, 10),
            curve_from_numerator(2, 3, (Poly.of(1, -1, 3) * Poly.of(1, 2, 3)).coeffs),
        ):
            q = F(curve.q)
            lhs = q**curve.g * curve.P.evaluate(1 / q) / (q - 1)
            assert zeta_special_residue(curve) == lhs
            assert lhs == curve.P.evaluate(1) / (q - 1)


# atoms ("L", j, m) = 1 - q^j u^m and ("P", j, m) = P(q^j u^m)
ATOMS = st.tuples(st.sampled_from("LP"), st.integers(-4, 4), st.integers(1, 3))
FACTORED = st.builds(
    FactorProduct,
    const=st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=9)),
    upow=st.integers(-4, 4),
    atoms=st.dictionaries(
        ATOMS, st.integers(-3, 3).filter(bool), max_size=3
    ).map(lambda exps: tuple(exps.items())),
)
FACTORED_TERMS = st.lists(FACTORED, max_size=4)
CURVES = pytest.mark.parametrize("curve", [
    elliptic_curve(2, 3),
    curve_from_numerator(2, 2, GENUS2_P.coeffs),
    curve_from_numerator(1, 3, [1, F(1, 2), 3]),  # rational coefficients
], ids=["genus-1", "genus-2", "rational"])


class TestExpandSum:
    @CURVES
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(terms=FACTORED_TERMS)
    @example(terms=[])
    @example(terms=[FactorProduct(F(0), -2, ((("P", 1, 2), -1),))])
    @example(terms=[
        FactorProduct(F(3, 2), -3, ((("L", -4, 1), 2), (("P", 4, 3), -1))),
        FactorProduct(F(-1), 2, ((("P", -4, 1), 3), (("L", 4, 2), -3))),
    ])
    def test_matches_the_per_term_fraction_oracle(self, curve, terms):
        assert expand_sum(curve, terms) == fraction_oracle.expand_sum(curve, terms)


class TestAtomInts:
    """Each atom's integer parts, and through expand_sum, against the
    oracle's Fraction polynomial of the atom."""

    # P = (1/2)(2 + 3T + 6T^2): at j = -1 the scaled list 18, 9, 6 has gcd 3
    CURVE = curve_from_numerator(1, 3, [1, F(3, 2), 3])

    @pytest.mark.parametrize("kind", ["L", "P"])
    @pytest.mark.parametrize("j", [-2, -1, 0, 1, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_the_fraction_atom(self, kind, j, m):
        c, atom = self.CURVE, (kind, j, m)
        num, den, ints = _atom_ints(c, atom)
        assert den > 0 and math.gcd(num, den) == 1 and math.gcd(*ints) == 1
        spread = [0] * (m * (len(ints) - 1) + 1)
        spread[::m] = ints
        assert Poly.from_list(spread).scale(F(num, den)) == Poly.from_list(
            fraction_oracle.atom_poly(c, atom)
        )
        for e in (2, -1):
            terms = [FactorProduct(F(-3, 4), 1, ((atom, e),))]
            assert expand_sum(c, terms) == fraction_oracle.expand_sum(c, terms)


X = FactorProduct(F(-3, 2), 1, ((("L", 2, 1), 1), (("P", -1, 2), -2)))
Y = FactorProduct(F(4, 9), -3, ((("L", 2, 1), -1), (("L", -3, 3), 2)))


class TestProduct:
    @CURVES
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(FACTORED, st.integers(-3, 3)), max_size=4))
    @example(pairs=[])
    @example(pairs=[(X, 0), (FactorProduct(F(0)), 0)])  # both are 1
    @example(pairs=[(X, 1), (X, -1), (Y, -2)])  # ("L", 2, 1) cancels, reappears
    @example(pairs=[(X, 2), (FactorProduct(F(0), 1), -1)])
    def test_matches_the_per_factor_fraction_oracle(self, curve, pairs):
        if any(f.const == 0 and e < 0 for f, e in pairs):
            with pytest.raises(DomainError, match="division by the zero function"):
                product(pairs)
            return
        result = product(pairs)
        assert all(e for _, e in result.atoms)
        assert expand_sum(curve, [result]) == fraction_oracle.product(curve, pairs)
        for f, e in pairs:
            assert f**e == product([(f, e)])
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            assert a * b == product([(a, 1), (b, 1)])
