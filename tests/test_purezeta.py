"""Pure zeta assembly, mass formulas, counterexamples, RH reports."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import nazeta.purezeta
from nazeta.acceptance import hasse_range
from nazeta.algebra import Poly, RationalFunction, substitute
from nazeta.compositions import MASS_RANK_CAP, parabolic_mass_sum
from nazeta.curve import (
    artin_zeta_value,
    completed_zeta_value,
    curve_from_numerator,
    elliptic_curve,
    zeta_special_residue,
)
from nazeta.errors import CapabilityError, DomainError, ValidationError
from nazeta.purezeta import (
    MASS_DIGITS_SLACK,
    PureZetaInputs,
    bundle_counts,
    elliptic_beta2_closed_form,
    elliptic_rank2_inputs,
    fe_check_pure,
    mass_digits_estimate,
    mass_reformulated,
    mixed_numerator,
    mixed_zeta_rank2,
    partial_rank3_bracket,
    partial_rank3_identity_check,
    partial_zeta_rank3_elliptic,
    pure_numerator,
    pure_zeta,
    rank1_inputs,
    rh_report,
    zagier_beta,
)

from composition_oracle import COMPOSITION_RANK_CAP, compositions, fraction_zagier_beta
from genus2_oracle import genus2_numerator, genus2_rh_criterion
from zeta_series_oracle import artin_zeta

GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) ** 2).coeffs)


# ---------------------------------------------------------------------------
# Reference sums: the composition enumeration the library's recurrences
# replaced, kept as the small-rank oracle
# ---------------------------------------------------------------------------


def enumerated_zagier_beta(c, r, d=0):
    """Zagier's degree-d mass, one summand per composition of r."""
    q = F(c.q)
    g = c.g

    def v(n):
        val = c.P.evaluate(1) / (q - 1)
        val *= q ** ((n * n - 1) * (g - 1))
        for i in range(2, n + 1):
            val *= artin_zeta_value(c, i)
        return val

    total = F(0)
    for comp in compositions(r):
        k = len(comp)
        cross = sum(comp[i] * comp[j] for i in range(k) for j in range(i + 1, k))
        term = q ** ((g - 1) * cross)
        exponent = F(0)
        for i in range(k - 1):
            prefix = F(sum(comp[: i + 1]) * d, r)
            exponent += (comp[i] + comp[i + 1]) * (prefix - math.floor(prefix))
            term /= 1 - q ** (comp[i] + comp[i + 1])
        if exponent.denominator != 1:
            raise ValidationError(f"non-integer q-exponent {exponent} for {comp}")
        term *= q ** int(exponent)
        for n in comp:
            term *= v(n)
        total += term
    return total


def enumerated_mass_sum(r, zhat, pair_weight):
    """The alternating composition sum of parabolic_mass_sum, term by term."""
    total = 0
    for comp in compositions(r):
        term = 1 if len(comp) % 2 == 1 else -1
        for n in comp:
            for i in range(1, n + 1):
                term = term * zhat(i)
        for a, b in zip(comp, comp[1:]):
            term = term / pair_weight(a, b)
        total = total + term
    return total


class TestCompositions:
    def test_rank_three(self):
        assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
        assert len(compositions(3)) == 4

    def test_counts(self):
        for r in range(1, 7):
            assert len(compositions(r)) == 2 ** (r - 1)

    def test_rank_cap(self):
        # the enumeration stays usable as the test oracle (r <= 10 here)
        assert COMPOSITION_RANK_CAP >= 13
        with pytest.raises(CapabilityError):
            compositions(COMPOSITION_RANK_CAP + 1)
        with pytest.raises(DomainError):
            compositions(0)


class TestMassFormulas:
    def test_elliptic_rank2_value(self):
        c = elliptic_curve(2, 3)
        assert zagier_beta(c, 2, 0) == 6
        assert mass_reformulated(c, 2) == 6
        assert elliptic_beta2_closed_form(2, 3) == 6

    def test_rank1_is_class_mass(self):
        c = elliptic_curve(2, 3)
        assert zagier_beta(c, 1, 0) == 3
        assert mass_reformulated(c, 1) == F(3)

    def test_degree_one_rank2_elliptic(self):
        # beta(1) = N/(q-1): pins the fractional-part exponents
        for q, n in ((2, 3), (3, 4), (4, 7), (5, 8)):
            assert zagier_beta(elliptic_curve(q, n), 2, 1) == F(n, q - 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_genus2_routes_agree(self, r):
        assert zagier_beta(GENUS2, r, 0) == mass_reformulated(GENUS2, r)

    def test_elliptic_grid_routes_agree(self):
        for q in (2, 3):
            for n in hasse_range(q):
                c = elliptic_curve(q, n)
                for r in (1, 2, 3):
                    assert zagier_beta(c, r, 0) == mass_reformulated(c, r)

    def test_rank_must_be_positive(self):
        with pytest.raises(DomainError):
            zagier_beta(elliptic_curve(2, 3), 0)


ORACLE_CURVES = {
    "E(2,3)": elliptic_curve(2, 3),
    "E(3,2)": elliptic_curve(3, 2),
    "GENUS2": GENUS2,
}


class TestMassRecurrences:
    """The prefix-sum recurrences against the composition enumeration."""

    @pytest.mark.parametrize("name", ORACLE_CURVES)
    def test_zagier_beta_matches_enumeration(self, name):
        c = ORACLE_CURVES[name]
        for r in range(1, 10):
            for d in range(r + 1):
                assert zagier_beta(c, r, d) == enumerated_zagier_beta(c, r, d), (r, d)

    def test_zagier_beta_negative_and_large_degrees(self):
        c = ORACLE_CURVES["GENUS2"]
        for r, d in ((4, -1), (5, -7), (6, 13)):
            assert zagier_beta(c, r, d) == enumerated_zagier_beta(c, r, d)

    @pytest.mark.parametrize("name", ORACLE_CURVES)
    def test_mass_sum_matches_enumeration_on_curve_values(self, name):
        c = ORACLE_CURVES[name]
        q = F(c.q)

        def zhat(i):
            return zeta_special_residue(c) if i == 1 else completed_zeta_value(c, i)

        def pair_weight(a, b):
            return q ** (a + b) - 1

        for r in range(1, 11):
            assert parabolic_mass_sum(r, zhat, pair_weight) == enumerated_mass_sum(
                r, zhat, pair_weight
            )

    def test_mass_sum_matches_enumeration_on_generic_scalars(self):
        def zhat(i):
            return F(2 * i + 1, i * i + 3)

        def pair_weight(a, b):
            return F(a * a + 3 * b, 7) + 1  # not symmetric in (a, b)

        for r in range(1, 11):
            assert parabolic_mass_sum(r, zhat, pair_weight) == enumerated_mass_sum(
                r, zhat, pair_weight
            )

    @pytest.mark.parametrize("r", [20, 40])
    @pytest.mark.parametrize("name", ["E(2,3)", "GENUS2"])
    def test_routes_agree_at_high_rank(self, name, r):
        c = ORACLE_CURVES[name]
        assert zagier_beta(c, r, 0) == mass_reformulated(c, r)

    def test_completed_values_built_once_per_argument(self, monkeypatch):
        calls = []
        exact = nazeta.purezeta.completed_zeta_value
        monkeypatch.setattr(
            nazeta.purezeta,
            "completed_zeta_value",
            lambda c, h: calls.append(h) or exact(c, h),
        )
        mass_reformulated(GENUS2, 12)
        assert sorted(calls) == list(range(2, 13))

    def test_mass_rank_cap(self):
        c = elliptic_curve(2, 3)
        for route in (zagier_beta, mass_reformulated):
            with pytest.raises(CapabilityError):
                route(c, MASS_RANK_CAP + 1)
            with pytest.raises(DomainError):
                route(c, 0)

    def test_digits_estimate_bounds_the_mass(self):
        curves = list(ORACLE_CURVES.values()) + [
            elliptic_curve(101, 122),  # near the Hasse bound
            elliptic_curve(10**9, 10**9 + 1),
            curve_from_numerator(1, 2, [1, F(1, 1000), 2]),  # not a Weil numerator
            curve_from_numerator(1, 3, [1, 10**30, 3]),
            curve_from_numerator(3, 2, (Poly.of(1, 0, 2) ** 3).coeffs),
        ]
        for c in curves:
            for r in (1, 2, 5, 12):
                m = mass_reformulated(c, r)
                digits = max(len(str(abs(m.numerator))), len(str(m.denominator)))
                assert digits <= mass_digits_estimate(c, r), (c, r)
        # not so loose that it refuses printable masses of real curves
        for c, r in (
            (GENUS2, 40),
            (elliptic_curve(10**9, 10**9 + 1), 20),
            (curve_from_numerator(1, 3, [1, 10**30, 3]), 40),
        ):
            m = zagier_beta(c, r, 0)
            digits = max(len(str(abs(m.numerator))), len(str(m.denominator)))
            assert mass_digits_estimate(c, r) <= MASS_DIGITS_SLACK * digits


# the benchmark's seed-1 genus-2 curve G(q=2,a=0,b=-1), a numerator with
# rational content (1 + 3/2 T + 3 T^2 over F_3), a genus-3 curve and a
# large field
SEED1_GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) * Poly.of(1, 1, 2)).coeffs)
RATIONAL_CONTENT = curve_from_numerator(1, 3, [1, F(3, 2), 3])
GENUS3 = curve_from_numerator(3, 2, (Poly.of(1, 0, 2) ** 3).coeffs)
LARGE_Q = elliptic_curve(10**9, 10**9 + 1)


class TestIntegerPairRecurrence:
    """zagier_beta's integer-pair states against the same recurrence on
    reduced Fractions, beyond the reach of the enumeration."""

    ARITHMETIC = (
        "__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
        "__rtruediv__", "__sub__", "__rsub__", "__pow__",
    )

    @pytest.mark.parametrize(
        "c", [elliptic_curve(2, 3), SEED1_GENUS2], ids=["E(2,3)", "SEED1_GENUS2"]
    )
    def test_high_rank(self, c):
        for r, d in ((16, 1), (24, 0), (32, 1), (40, 0)):
            assert zagier_beta(c, r, d) == fraction_zagier_beta(c, r, d), (r, d)

    def test_large_q(self):
        for r in (2, 7, 13, 20):
            assert zagier_beta(LARGE_Q, r, 0) == fraction_zagier_beta(LARGE_Q, r, 0), r

    @pytest.mark.parametrize(
        "c", [RATIONAL_CONTENT, GENUS3], ids=["RATIONAL_CONTENT", "GENUS3"]
    )
    def test_every_degree(self, c):
        for r in range(1, 11):
            for d in range(-r - 2, 2 * r + 3):
                assert zagier_beta(c, r, d) == fraction_zagier_beta(c, r, d), (r, d)

    def test_fraction_arithmetic_only_in_the_zeta_values(self, monkeypatch):
        # the O(r) zeta values may use Fractions, the O(r^3) loop may not
        calls = [0]

        def counted(method):
            def wrapper(*args):
                calls[0] += 1
                return method(*args)

            return wrapper

        counts = {}
        for r in (6, 12):
            calls[0] = 0
            with monkeypatch.context() as m:
                for name in self.ARITHMETIC:
                    m.setattr(F, name, counted(getattr(F, name)))
                got = zagier_beta(SEED1_GENUS2, r, 1)
            counts[r] = calls[0]
            assert got == fraction_zagier_beta(SEED1_GENUS2, r, 1)
        assert counts[12] <= 2 * counts[6] + 16, counts


class TestPureZeta:
    def test_elliptic_rank2_closed_form(self):
        c = elliptic_curve(2, 3)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        assert res.numerator == Poly.of(3, 3, 12)
        expected = RationalFunction.make(
            Poly.of(3, 3, 12), Poly.of(1, -1) * Poly.of(1, -4), "T"
        )
        assert res.zeta == expected

    def test_rank1_equals_artin(self):
        for q, n in ((2, 3), (3, 5), (4, 6)):
            c = elliptic_curve(q, n)
            res = pure_zeta(c, rank1_inputs(c))
            assert res.zeta.retag("t") == artin_zeta(c)

    def test_genus2_numerator_shape(self):
        # symbolic coefficients against the expanded quartic
        for a0, a2, b0 in ((F(1), F(2), F(3)), (F(2, 3), F(5), F(7, 2))):
            inputs = PureZetaInputs.make(2, [a0, a2], b0)
            res = pure_zeta(GENUS2, inputs)
            Q = F(4)
            assert res.numerator == genus2_numerator(a0, a2, b0, Q)
            assert res.numerator.degree == 4

    def test_completed_reflection(self):
        c = elliptic_curve(3, 4)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        assert substitute(res.completed, F(1, 3), -1, "t") == res.completed

    def test_alpha_length_enforced(self):
        with pytest.raises(DomainError):
            pure_zeta(GENUS2, PureZetaInputs.make(2, [F(1)], F(1)))


class TestFECheck:
    def test_elliptic_certificate(self):
        c = elliptic_curve(2, 3)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        cert = fe_check_pure(res.zeta, 1, 2, 2)
        assert cert.passed
        assert any("p[2]" in line["identity"] for line in cert.checks)

    def test_corrupted_coefficient_fails(self):
        bad = RationalFunction.make(
            Poly.of(3, 3, 13), Poly.of(1, -1) * Poly.of(1, -4), "T"
        )
        cert = fe_check_pure(bad, 1, 2, 2)
        assert not cert.passed
        failing = [line for line in cert.checks if not line["ok"]]
        assert failing and "p[2]" in failing[0]["identity"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        g=st.integers(1, 3),
        q=st.sampled_from([2, 3, 5]),
        r=st.integers(1, 3),
        half=st.lists(st.fractions(-20, 20, max_denominator=6), min_size=4, max_size=4),
        bump=st.tuples(st.integers(0, 6), st.fractions(-3, 3, max_denominator=4)),
    )
    def test_lines_match_the_fraction_comparison(self, g, q, r, half, bump):
        # symmetric numerators, some with one coefficient moved; each line's
        # verdict and both strings as the Fraction comparison gives them
        Q = F(q) ** r
        coeffs = [F(0)] * (2 * g + 1)
        for i in range(g + 1):
            coeffs[i] = half[i]
            coeffs[2 * g - i] = Q ** (g - i) * half[i]
        k, delta = bump
        if k <= 2 * g:
            coeffs[k] += delta
        num = Poly.from_list(coeffs)
        assume(not num.is_zero())
        z = RationalFunction.make(num, Poly.of(1, -1) * Poly.from_list([1, -Q]), "T")
        p = pure_numerator(z, Q)
        expected = []
        for i in range(2 * g + 1):
            lhs, rhs = p[2 * g - i], Q ** (g - i) * p[i]
            expected.append(
                {
                    "identity": f"p[{2 * g - i}] = Q^{g - i} * p[{i}]",
                    "ok": lhs == rhs,
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
            )
        cert = fe_check_pure(z, g, q, r)
        assert cert.checks == expected
        assert cert.passed == all(line["ok"] for line in expected)

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(min_value=F(1, 3), max_value=4, max_denominator=4),
        st.fractions(min_value=0, max_value=4, max_denominator=4),
        st.fractions(min_value=0, max_value=4, max_denominator=4),
    )
    def test_fe_structural_over_random_inputs(self, a0, a2, b0):
        inputs = PureZetaInputs.make(2, [a0, a2], b0)
        res = pure_zeta(GENUS2, inputs)
        assert fe_check_pure(res.zeta, 2, 2, 2).passed

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=3))
    def test_generic_numerator_degree(self, a0):
        inputs = PureZetaInputs.make(2, [a0, a0 + 1], a0 + 2)
        res = pure_zeta(GENUS2, inputs)
        assert res.numerator.degree == 4


class TestRHReport:
    def test_exact_quadratic_pass(self):
        rep = rh_report(Poly.of(1, 1, 4), 4)
        assert rep.verdict

    def test_double_root_on_circle(self):
        rep = rh_report(Poly.of(1, -2) ** 2, 4)
        assert rep.verdict

    def test_real_roots_off_circle_fail(self):
        rep = rh_report(Poly.of(1, -5, 4), 4)
        assert not rep.verdict

    def test_elliptic_rank2_grid(self):
        for q in range(2, 17):
            for n in hasse_range(q):
                Q = F(q) ** 2
                rep = rh_report(Poly.from_list([1, n - 2, Q]), Q)
                assert rep.verdict
                assert (n - 2) ** 2 < 4 * Q

    def test_double_root_of_a_genus2_numerator(self):
        # 2 (1-2T)^2 (1 + 5T/2 + 4T^2): the float deviation of the double
        # root is about 2e-9, but every root is on |T| = 1/2
        p = genus2_numerator(2, 7, 5, 4)
        assert p == Poly.of(1, -2) ** 2 * Poly.of(2, 5, 8)
        rep = rh_report(p, 4)
        assert rep.verdict
        assert rep.to_json()["verdict"] == "pass"


class TestMixedZeta:
    def test_numerator_from_sum_definition(self):
        # the t^2 coefficient is N-2: [t^2] zeta = alpha(2) = (q^2-1) beta(0)
        for q, n in ((2, 3), (3, 4), (5, 8)):
            mz = mixed_zeta_rank2(q, n)
            den = Poly.of(1, 0, -1) * Poly.from_list([1, 0, -q * q])
            prod = mz * RationalFunction.from_poly(den, "t")
            assert prod.den.degree == 0
            numer = prod.num.scale(1 / prod.den[0])
            assert numer == mixed_numerator(q, n).scale(F(n, q - 1))

    def test_series_counts_match_vanishing_theorem(self):
        for q, n in ((2, 3), (3, 4)):
            mz = mixed_zeta_rank2(q, n)
            series = mz.series(4)
            beta0 = elliptic_beta2_closed_form(q, n)
            beta1 = F(n, q - 1)
            assert series[1] == (q - 1) * beta1  # alpha(1)
            assert series[2] == (q * q - 1) * beta0  # alpha(2)
            assert series[3] == (q**3 - 1) * beta1  # alpha(3)

    def test_factorization_signs(self):
        # A+ + A- = q-1 and A+ A- = (N-2) - 2q < 0 for admissible N,
        # so the factors are real with opposite-sign linear terms
        for q in (2, 3, 4, 5):
            for n in hasse_range(q):
                s, p = q - 1, (n - 2) - 2 * q
                assert p < 0 and s * s - 4 * p > 0

    def test_rh_failure_where_it_actually_fails(self):
        # the blanket failure claim is asymptotic; at desk scale it fails
        # for e.g. (5, 6) and holds for (2, 3) (see ledger)
        assert not rh_report(mixed_numerator(5, 6), 5).verdict
        assert rh_report(mixed_numerator(2, 3), 2).verdict


class TestPartialRank3:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 4), (4, 5), (5, 8)])
    def test_displayed_identity(self, q, n):
        assert partial_rank3_identity_check(q, n)

    def test_bracket_coefficients(self):
        # exact expansion forces 1 + (q+1)t + q(q+1)t^3 + q^2 t^4
        assert partial_rank3_bracket(2) == Poly.of(1, 3, 0, 6, 4)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_rh_fails(self, q):
        rep = rh_report(partial_rank3_bracket(q), q)
        assert not rep.verdict
        assert rep.max_deviation() > 1e-3

    def test_function_values(self):
        f = partial_zeta_rank3_elliptic(2, 3)
        # spot value at t = 1/5: compare against the displayed difference
        t = F(1, 5)
        direct = 3 * (
            (2 * t + 4 * t**2) / (1 - 8 * t**3) - (t + t**2) / (1 - t**3)
        )
        assert f.evaluate(t) == direct


class TestBundleCounts:
    def test_rank1_point_counts(self):
        c = elliptic_curve(2, 3)
        res = pure_zeta(c, rank1_inputs(c))
        counts = bundle_counts(res.zeta, 1, 2, 4)
        assert counts[:2] == [3, 9]

    def test_rank2_first_count(self):
        c = elliptic_curve(2, 3)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        counts = bundle_counts(res.zeta, 3, 4, 4)
        assert counts[0] == 6  # 1 + Q - sum(omega) = 1 + 4 - (-1)

    def test_series_counts_match_newton_power_sums(self):
        c = elliptic_curve(3, 4)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        # would raise if the series and the power sums disagreed
        counts = bundle_counts(res.zeta, 2, 9, 6)
        # 1 + 2T + 9T^2 = (1 - w1 T)(1 - w2 T): s_1 = -2, s_2 = 4 - 18
        assert counts[:2] == [1 + 9 + 2, 1 + 81 + 14]

    def test_perturbed_series_coefficient_raises(self, monkeypatch):
        series = nazeta.purezeta.series_log_coefficients

        def perturbed(f, order):
            cs = series(f, order)
            cs[2] += F(1, 10**12)  # far below any float tolerance
            return cs

        monkeypatch.setattr(nazeta.purezeta, "series_log_coefficients", perturbed)
        c = elliptic_curve(3, 4)
        res = pure_zeta(c, elliptic_rank2_inputs(c))
        with pytest.raises(ValidationError, match=r"N\(3\)"):
            bundle_counts(res.zeta, 2, 9, 6)


class TestPureNumerator:
    def test_elliptic_grid_matches_the_assembled_numerator(self):
        for q in range(2, 17):
            for n in hasse_range(q):
                c = elliptic_curve(q, n)
                res = pure_zeta(c, elliptic_rank2_inputs(c))
                assert pure_numerator(res.zeta, res.Q) == res.numerator

    def test_genus2_matches_the_assembled_numerator(self):
        res = pure_zeta(GENUS2, PureZetaInputs.make(2, [F(2, 3), F(5)], F(7, 2)))
        assert res.numerator.degree == 4
        assert pure_numerator(res.zeta, res.Q) == res.numerator

    def test_other_denominator_rejected(self):
        z = RationalFunction.make(Poly.one(), Poly.of(1, -3), "T")
        with pytest.raises(
            DomainError, match="^function does not have the pure-zeta denominator$"
        ):
            pure_numerator(z, F(4))


class TestGenus2Criterion:
    def test_zero_linear_terms_pass(self):
        Q = F(4)
        a0, a2 = F(1), F(5)
        b0 = F(25, 3)
        A, B, verdict = genus2_rh_criterion(a0, a2, b0, Q)
        assert verdict and abs(A) < 1e-12 and abs(B) < 1e-12
        assert genus2_numerator(a0, a2, b0, Q) == Poly.of(1, 0, 8, 0, 16)

    def test_expansion_matches_quartic(self):
        # (1 - AT + QT^2)(1 - BT + QT^2) re-expands to the numerator
        Q = F(9)
        for a0, a2, b0 in ((F(1), F(3), F(2)), (F(2), F(1), F(5))):
            p = genus2_numerator(a0, a2, b0, Q)
            s = (Q + 1) - a2 / a0
            prod = (Q - 1) * (b0 / a0) - (Q + 1) * (a2 / a0)
            expanded = Poly.from_list(
                [1, -s, 2 * Q + prod, -Q * s, Q * Q]
            ).scale(a0)
            assert p == expanded

    def test_adversarial_failure(self):
        _, _, verdict = genus2_rh_criterion(1, F(11), F(1), F(4))
        assert not verdict

    def test_complex_split_decided_exactly(self):
        # choose alpha', beta' so A, B are complex conjugates: the verdict
        # is still the exact test, the same as the report's
        Q = F(4)
        a0, a2, b0 = F(1), F(1), F(40)
        A, B, verdict = genus2_rh_criterion(a0, a2, b0, Q)
        assert isinstance(A, complex) and B == A.conjugate()
        rep = rh_report(genus2_numerator(a0, a2, b0, Q), Q)
        assert not verdict and not rep.verdict

    def test_boundary_split_passes(self):
        # (1-2T)^2 (1-2T+4T^2): A = 4 sits on the boundary A^2 = 4Q, and
        # its double root 1/2 is on the circle
        assert genus2_numerator(1, -1, 1, 4) == Poly.of(1, -2) ** 2 * Poly.of(1, -2, 4)
        A, B, verdict = genus2_rh_criterion(1, -1, 1, 4)
        assert {A, B} == {4.0, 2.0} and verdict

    def test_alpha0_zero_rejected(self):
        with pytest.raises(DomainError):
            genus2_rh_criterion(0, 1, 1, 4)

