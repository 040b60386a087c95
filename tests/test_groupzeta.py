"""Group zeta assembly, functional equations, zeros, uniformity."""

import sys
from fractions import Fraction as F

import pytest

import nazeta.algebra
import nazeta.curve
import nazeta.groupzeta
import per_root_oracle
import records

from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import (
    FactorProduct,
    completed_zeta_factor,
    curve_from_numerator,
    elliptic_curve,
    expand_sum,
)
from nazeta.groupzeta import (
    UniformityMatch,
    UniformityNotFound,
    edge_residue,
    fe_check_group,
    fe_substitution,
    fg_involution_check,
    group_zeta,
    group_zeta_zeros,
    omega_D_decompose,
    period_gp,
    uniformity_match,
)
from nazeta.purezeta import elliptic_rank2_inputs, pure_zeta, zagier_beta
from nazeta.rootsys import (
    SUPPORTED,
    build_root_system,
    enumerate_weyl,
    parabolic_data,
)

E23 = elliptic_curve(2, 3)
GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) ** 2).coeffs)
# the benchmark's seed-1 curves, E(q=3,N=2) and G(q=2,a=0,b=-1)
SEED1_CURVES = (
    elliptic_curve(3, 2),
    curve_from_numerator(2, 2, (Poly.of(1, 0, 2) * Poly.of(1, 1, 2)).coeffs),
)
# the curves of acceptance criterion 5, E(q=2,N=3) and G(q=2,a=1,b=-1)
CRITERION_5_CURVES = (
    E23,
    curve_from_numerator(2, 2, (Poly.of(1, -1, 2) * Poly.of(1, 1, 2)).coeffs),
)


def pair(label, rank, p):
    rs = build_root_system(label, rank)
    W = enumerate_weyl(rs)
    return rs, W, parabolic_data(rs, W, p)


A1 = pair("A", 1, 1)

POINTS = (F(5, 7), F(11, 13))


def scalar_zeta(c, k, h, u):
    """Completed zeta at k*s + h, evaluated at u from its definition:
    q^{(g-1)h} U^{-(g-1)} P(U q^{-h}) / ((1 - U q^{-h})(1 - U q^{1-h})),
    U = u^k."""
    q, U = F(c.q), u**k
    x = U * q**-h
    p_x = sum(a * x**i for i, a in enumerate(c.P.coeffs))
    return q ** ((c.g - 1) * h) * U ** (1 - c.g) * p_x / (
        (1 - x) * (1 - U * q ** (1 - h))
    )


def scalar_period(c, rs, W, pd, u):
    """Oracle: the Weyl-subset sum at the point u, one Fraction per factor.

    Each w contributes 1/(1 - u^k q^{1-h}) over the simple roots alpha
    with w^{-1} alpha outside the Levi simple roots, and Z(k, h)/Z(k, h+1)
    over its inversion set, Z(0, 1) being the stripped value
    q^g P(1/q)/(q-1); (k, h) = (<lambda_p, beta^vee>, ht beta^vee).
    """
    q = F(c.q)
    stripped = q**c.g * sum(a * q**-i for i, a in enumerate(c.P.coeffs)) / (q - 1)
    simples = rs.simple_indices()
    levi = {s for j, s in enumerate(simples) if j != pd.p0}

    def key(idx):
        return rs.weight_pairing(pd.p0, idx), rs.coroot_height(idx)

    total = F(0)
    for w in pd.weyl_subset:
        winv = w.inverse()
        term = F(1)
        for s in simples:
            beta = winv.apply(s)
            if beta not in levi:
                k, h = key(beta)
                term /= 1 - u**k * q ** (1 - h)
        for idx in W.inversion_set(w):
            k, h = key(idx)
            num = stripped if (k, h) == (0, 1) else scalar_zeta(c, k, h, u)
            term *= num / scalar_zeta(c, k, h + 1, u)
        total += term
    return total


ALL_PAIRS = [
    (label, rank, p)
    for label, ranks in SUPPORTED.items()
    for rank in ranks
    for p in range(1, rank + 1)
]
SMALL_PAIRS = [t for t in ALL_PAIRS if t[1] <= 4]


class TestRankOnePair:
    def test_period_hand_expansion(self):
        rs, W, pd = A1
        one = RationalFunction.const(1, "u")
        u = RationalFunction.variable("u")
        z1 = completed_zeta_factor(E23, 1, 1)
        z2 = completed_zeta_factor(E23, 1, 2)
        expected = one / (one - u) + (z1 / z2) / (
            one - RationalFunction.const(4, "u") / u
        )
        assert period_gp(E23, rs, W, pd) == expected

    def test_normalization_table(self):
        z = group_zeta(E23, *A1)
        assert z.normalization == {(1, 2): 1}

    def test_closed_form(self):
        rs, W, pd = A1
        z = group_zeta(E23, rs, W, pd)
        one = RationalFunction.const(1, "u")
        u = RationalFunction.variable("u")
        z1 = completed_zeta_factor(E23, 1, 1)
        z2 = completed_zeta_factor(E23, 1, 2)
        expected = z2 / (one - u) + z1 / (one - RationalFunction.const(4, "u") / u)
        assert z.zeta == expected
        # and the fully reduced closed form for q=2, N=3
        assert z.zeta == RationalFunction.make(
            Poly.of(4, 1, 1), Poly.of(4, -5, 1), "u"
        )

    def test_period_evaluation_two_ways(self):
        rs, W, pd = A1
        om = period_gp(E23, rs, W, pd)
        val = om.evaluate(F(-1))
        one = RationalFunction.const(1, "u")
        u = RationalFunction.variable("u")
        z1 = completed_zeta_factor(E23, 1, 1)
        z2 = completed_zeta_factor(E23, 1, 2)
        term1 = (one / (one - u)).evaluate(F(-1))
        term2 = (z1.evaluate(F(-1)) / z2.evaluate(F(-1))) / (1 - F(4) / F(-1))
        assert val == term1 + term2


class TestPeriodStructure:
    @pytest.mark.parametrize(
        "label,p,size", [("A", 1, 5), ("B", 1, 6), ("G2", 2, 8)]
    )
    def test_summand_per_surviving_element(self, label, p, size):
        rs, W, pd = pair(label, 2, p)
        total = RationalFunction.const(0, "u")
        ratios = nazeta.groupzeta._ratio_table(E23, rs, pd)
        for w in pd.weyl_subset:
            term = nazeta.groupzeta._weyl_factors(E23, rs, W, pd, w, ratios)
            total = total + term.expand(E23)
        assert total == period_gp(E23, rs, W, pd)
        assert len(pd.weyl_subset) == size

    @pytest.mark.parametrize("label,rank,p", SMALL_PAIRS + [("A", 5, 3)])
    def test_against_the_scalar_sum(self, label, rank, p):
        rs, W, pd = pair(label, rank, p)
        curves = (GENUS2,) if rank == 5 else (E23, GENUS2)
        for curve in curves:
            omega = period_gp(curve, rs, W, pd)
            for u in POINTS:
                assert omega.evaluate(u) == scalar_period(curve, rs, W, pd, u)

    @pytest.mark.parametrize("label,rank,p", ALL_PAIRS)
    def test_key_counts_against_the_per_root_products(self, label, rank, p):
        # every period summand and every g_w, built from key counts, minus
        # the oracle's per-root product reduces to zero
        rs, W, pd = pair(label, rank, p)
        minus = FactorProduct(F(-1))
        for curve in SEED1_CURVES:
            ratios = nazeta.groupzeta._ratio_table(curve, rs, pd)
            for w in pd.weyl_subset:
                term = nazeta.groupzeta._weyl_factors(curve, rs, W, pd, w, ratios)
                oracle = per_root_oracle.weyl_factors(curve, rs, W, pd, w)
                assert expand_sum(curve, [term, oracle * minus]).is_zero()
                g = nazeta.groupzeta._g_factors(curve, pd, w)
                oracle = per_root_oracle.g_factors(curve, rs, pd, w)
                assert expand_sum(curve, [g, oracle * minus]).is_zero()

    def test_one_reduction_per_period(self, monkeypatch):
        rs, W, pd = pair("A", 5, 3)
        calls = []
        gcd = nazeta.algebra._int_gcd  # the gcd core of make and poly_gcd

        def counted(a, b):
            calls.append((len(a), len(b)))
            return gcd(a, b)

        def refuse(*args):
            raise AssertionError("period_gp expanded a factor or term alone")

        monkeypatch.setattr(nazeta.algebra, "_int_gcd", counted)
        for name, module in list(sys.modules.items()):
            if name.startswith("nazeta") and hasattr(module, "completed_zeta_factor"):
                monkeypatch.setattr(module, "completed_zeta_factor", refuse)
        omega = period_gp(GENUS2, rs, W, pd)
        assert len(calls) == 1
        for u in POINTS:
            assert omega.evaluate(u) == scalar_period(GENUS2, rs, W, pd, u)


class TestFunctionalEquation:
    @pytest.mark.parametrize("curve", [E23, elliptic_curve(3, 4), GENUS2])
    def test_a1(self, curve):
        z = group_zeta(curve, *A1)
        assert fe_check_group(z).passed

    @pytest.mark.parametrize("p", [1, 2])
    def test_a2(self, p):
        rs, W, pd = pair("A", 2, p)
        for curve in (E23, GENUS2):
            assert fe_check_group(group_zeta(curve, rs, W, pd)).passed

    def test_corrupted_fails(self):
        z = group_zeta(E23, *A1)
        bad_num = Poly.from_list(
            [z.zeta.num[0] + 1] + list(z.zeta.num.coeffs[1:])
        )
        bad_zeta = RationalFunction.make(bad_num, z.zeta.den, "u")
        bad = records.replace(z, zeta=bad_zeta)
        assert not fe_check_group(bad).passed


class TestDecomposition:
    def test_a1_trivial_denominator(self):
        rs, W, pd = A1
        z = group_zeta(E23, rs, W, pd)
        dec = omega_D_decompose(z)
        assert dec.denominator == RationalFunction.const(1, "u")
        assert dec.clearing == completed_zeta_factor(E23, 1, 2)
        assert dec.omega_global == z.zeta

    def test_a2_nontrivial(self):
        rs, W, pd = pair("A", 2, 1)
        z = group_zeta(E23, rs, W, pd)
        dec = omega_D_decompose(z)
        assert dec.denominator != RationalFunction.const(1, "u")
        assert z.zeta * dec.denominator == dec.omega_global
        assert dec.certificate.passed

    def test_perturbed_zeta_fails_one_identity(self):
        rs, W, pd = pair("A", 2, 1)
        z = group_zeta(E23, rs, W, pd)
        bad = records.replace(z, zeta=z.zeta.scale(F(1001, 1000)))
        cert = omega_D_decompose(bad).certificate
        assert not cert.passed
        assert [c["identity"] for c in cert.failures()] == [
            "zeta * denominator = clearing * period"
        ]
        assert len(cert.checks) == 4

    @pytest.mark.parametrize("label,rank,p", [
        ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2), ("A", 3, 3)
    ])
    @pytest.mark.parametrize("curve", CRITERION_5_CURVES)
    def test_one_zeta_factor_per_nonzero_exponent(
        self, monkeypatch, curve, label, rank, p
    ):
        rs, W, pd = pair(label, rank, p)
        z = group_zeta(curve, rs, W, pd)
        exponents, calls = [], []
        zeta_product = nazeta.groupzeta._zeta_product
        zeta_factors = nazeta.groupzeta.zeta_factors

        def recorded(c, exps):
            exponents.append(dict(exps))
            return zeta_product(c, exps)

        def counted(c, k, h):
            calls.append((k, h))
            return zeta_factors(c, k, h)

        monkeypatch.setattr(nazeta.groupzeta, "_zeta_product", recorded)
        monkeypatch.setattr(nazeta.groupzeta, "zeta_factors", counted)
        assert omega_D_decompose(z).certificate.passed
        nonzero = [
            key for exps in exponents for key, e in exps.items()
            if e and key != (0, 1)  # (0, 1) takes the special residue
        ]
        assert sorted(calls) == sorted(nonzero)


def involution_certificate(c, rs, W, pd):
    z = group_zeta(c, rs, W, pd)
    return fg_involution_check(z, W, omega_D_decompose(z))


class TestInvolution:
    def test_a1_hand_values(self):
        rs, W, pd = A1
        one = RationalFunction.const(1, "u")
        u = RationalFunction.variable("u")
        z1 = completed_zeta_factor(E23, 1, 1)
        z2 = completed_zeta_factor(E23, 1, 2)

        def f_and_g(w):
            f = nazeta.groupzeta._rational_factors(E23, rs, pd, w)
            g = nazeta.groupzeta._g_factors(E23, pd, w)
            return f.expand(E23), g.expand(E23)

        fid, gid = f_and_g(W.identity)
        assert fid * gid == z2 / (one - u)
        fw0, gw0 = f_and_g(W.longest)
        assert fw0 * gw0 == z1 / (one - RationalFunction.const(4, "u") / u)

    @pytest.mark.parametrize(
        "label,rank,p",
        [("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 2)],
    )
    def test_full_certificates(self, label, rank, p):
        rs, W, pd = pair(label, rank, p)
        cert = involution_certificate(E23, rs, W, pd)
        assert cert.passed
        per_w = [c for c in cert.checks if c["identity"] == "f involution"]
        assert len(per_w) == len(pd.weyl_subset)

    @pytest.mark.parametrize("curve", [E23, GENUS2], ids=["E23", "genus2"])
    @pytest.mark.parametrize("label,rank,p", [("A", 2, 1), ("A", 3, 2)])
    def test_single_pass_on_the_callers_results(
        self, monkeypatch, curve, label, rank, p
    ):
        rs, W, pd = pair(label, rank, p)
        z = group_zeta(curve, rs, W, pd)
        decomp = omega_D_decompose(z)

        def rebuild(*args, **kwargs):
            raise AssertionError("the involution check rebuilt a result")

        for name in ("group_zeta", "period_gp", "omega_D_decompose", "count_tables"):
            monkeypatch.setattr(nazeta.groupzeta, name, rebuild)
        calls = []
        exact = nazeta.curve.expand_sum

        def counted(c, terms):
            calls.append(len(terms))
            return exact(c, terms)

        monkeypatch.setattr(nazeta.curve, "expand_sum", counted)
        monkeypatch.setattr(nazeta.groupzeta, "expand_sum", counted)
        cert = fg_involution_check(z, W, decomp)
        assert cert.passed
        # f and g expanded once per element, the f*g sum reduced once
        assert len(calls) <= 2 * len(pd.weyl_subset) + 1
        assert calls[-1] == len(pd.weyl_subset)

    def test_perturbed_g_factor_records_every_failure(self, monkeypatch):
        rs, W, pd = pair("A", 2, 1)
        exact = nazeta.groupzeta._g_factors

        def perturbed(c, pd, w):
            g = exact(c, pd, w)
            return g * FactorProduct(F(1001, 1000)) if w == W.identity else g

        monkeypatch.setattr(nazeta.groupzeta, "_g_factors", perturbed)
        cert = involution_certificate(E23, rs, W, pd)
        failed = [c["identity"] for c in cert.failures()]
        # the identity and its partner w_0 w_p both see the bad factor
        assert failed == [
            "g involution", "g involution", "sum of f*g equals clearing * period"
        ]
        assert len(cert.checks) == 2 * len(pd.weyl_subset) + 1

    def test_partner_outside_the_subset_is_a_recorded_failure(self):
        rs, W, pd = pair("A", 2, 1)
        partner = W.longest.compose(W.identity).compose(pd.levi_longest)
        cut = records.replace(
            pd, weyl_subset=tuple(w for w in pd.weyl_subset if w != partner)
        )
        cert = involution_certificate(E23, rs, W, cut)
        leaving = [
            c for c in cert.failures()
            if c["identity"] == "involution stays in the Weyl subset"
        ]
        assert len(leaving) == 1


class TestZeros:
    def test_a1_elliptic_family(self):
        for q in (2, 3, 4, 5):
            for n in (q, q + 1, q + 2):
                z = group_zeta(elliptic_curve(q, n), *A1)
                rep = group_zeta_zeros(z)
                assert rep.verdict, (q, n)
                assert rep.center_modulus == pytest.approx(float(q))

    def test_a1_genus2(self):
        z = group_zeta(GENUS2, *A1)
        rep = group_zeta_zeros(z)
        assert rep.verdict

    def test_zero_count_stable_under_reflection(self):
        z = group_zeta(E23, *A1)
        reflected = fe_substitution(z.zeta, 2, z.c_p)
        assert reflected.num.degree == z.zeta.num.degree

    def test_a2_report_emitted(self):
        rs, W, pd = pair("A", 2, 1)
        z = group_zeta(E23, rs, W, pd)
        rep = group_zeta_zeros(z)
        assert len(rep.zeros_u) == z.zeta.num.degree
        # exploratory: no verdict asserted, but the report is well formed
        assert all(len(c) == 2 for c in rep.s_coordinates)


class TestEdgeResidue:
    def test_a1_value_against_derivative_oracle(self):
        z = group_zeta(E23, *A1)
        er = edge_residue(z)
        assert er.order == 1
        # independent oracle: simple-pole residue of f/u via the
        # derivative of the denominator
        u0 = F(4)
        f = z.zeta.mul_monomial(-1)
        quotient = f.den.exact_div(Poly.from_list([-u0, 1]))
        res = f.num.evaluate(u0) / quotient.evaluate(u0)
        assert er.value == -res
        assert er.value == -2

    def test_no_pole_returns_zero(self):
        rs, W, pd = A1
        z = group_zeta(E23, rs, W, pd)
        no_pole = RationalFunction.make(Poly.of(1), Poly.of(1, 1), "u")
        shifted = records.replace(z, zeta=no_pole)
        er = edge_residue(shifted)
        assert er.order == 0 and er.value == 0

    def test_double_pole_reports_principal_part(self):
        rs, W, pd = A1
        doubled = z = group_zeta(E23, rs, W, pd)
        f = RationalFunction.make(
            Poly.of(1), Poly.from_list([-4, 1]) ** 2, "u"
        )
        fake = records.replace(z, zeta=f)
        er = edge_residue(fake)
        assert er.order == 2 and er.value is None
        # zeta/u = 1/(u (u-4)^2) and 1/u = 1/4 - (u-4)/16 + ..., negated
        assert er.principal == (F(-1, 4), F(1, 16))

    def test_mass_comparison_row(self):
        # printed for inspection only; just confirm both values exist
        z = group_zeta(E23, *A1)
        er = edge_residue(z)
        mass = zagier_beta(E23, 2, 0)
        assert er.value is not None and mass == 6


# the elliptic curves criterion 8 matches
CRITERION_8_CURVES = [(2, 3), (3, 4), (3, 2)]


class TestUniformity:
    @pytest.mark.parametrize("q,n", CRITERION_8_CURVES)
    def test_rank2_match(self, q, n):
        c = elliptic_curve(q, n)
        z = group_zeta(c, *pair("A", 1, 1))
        pz = pure_zeta(c, elliptic_rank2_inputs(c))
        match = uniformity_match(pz.completed.retag("u"), z)
        assert isinstance(match, UniformityMatch)
        assert match.verified
        assert (match.a, match.b) == (2, -2)
        assert match.c == F(n, q - 1)

    @pytest.mark.parametrize("q,n", CRITERION_8_CURVES)
    def test_functional_equation_partner_matches(self, q, n):
        # group(s) = group(-c_p - s) turns (a, b) into (-a, -c_p - b), so
        # the partner verifies through a negative-exponent substitution
        c = elliptic_curve(q, n)
        z = group_zeta(c, *pair("A", 1, 1))
        pure_u = pure_zeta(c, elliptic_rank2_inputs(c)).completed.retag("u")
        match = uniformity_match(pure_u, z)
        a, b = -match.a, -z.c_p - match.b
        qb = nazeta.groupzeta._q_power_fraction(q, b)
        partner = nazeta.groupzeta._verify_uniformity(pure_u, z, a, b, qb)
        assert partner == UniformityMatch(a, b, match.c, True)

    def test_self_match_recovers_scale(self):
        z = group_zeta(E23, *A1)
        match = uniformity_match(z.zeta.scale(F(7, 2)), z)
        assert isinstance(match, UniformityMatch)
        assert (match.a, match.b, match.c) == (1, 0, F(7, 2))

    def test_mismatched_inputs_not_found(self):
        rs, W, pd = pair("A", 2, 1)
        z2 = group_zeta(E23, rs, W, pd)
        pz = pure_zeta(E23, elliptic_rank2_inputs(E23))
        match = uniformity_match(pz.completed.retag("u"), z2)
        assert isinstance(match, UniformityNotFound)

    def test_irrational_offsets_are_skipped_not_tried(self):
        # the lines {0, 1} of 1/((1 - u)(1 - 2u)) map onto the lines
        # {-1/2, 1/2} of 1/((1 - u^2/2)(1 - 2u^2)) only at b = -+1/2, and
        # 2^(-+1/2) is irrational, so no candidate is verified
        z = group_zeta(E23, *A1)
        pure = RationalFunction.make(
            Poly.of(1), Poly.of(1, -1) * Poly.of(1, -2), "u"
        )
        group = RationalFunction.make(
            Poly.of(1), Poly.of(1, 0, F(-1, 2)) * Poly.of(1, 0, -2), "u"
        )
        match = uniformity_match(pure, records.replace(z, zeta=group))
        assert match == UniformityNotFound((), ((1, F(-1, 2)), (-1, F(1, 2))))

    def test_q_power_root_beyond_float_precision(self):
        # a float square root of (2^61 - 1)^2 is off by one after rounding
        q = (2**61 - 1) ** 2
        assert nazeta.groupzeta._q_power_fraction(q, F(1, 2)) == F(1, 2**61 - 1)
        assert nazeta.groupzeta._q_power_fraction(q + 2, F(1, 2)) is None

    def test_q_power_root_beyond_float_range(self):
        q = 3**700  # past the largest float
        assert nazeta.groupzeta._q_power_fraction(q, F(-3, 2)) == 3**1050
        assert nazeta.groupzeta._q_power_fraction(q, F(1, 7)) == F(1, 3**100)
        assert nazeta.groupzeta._q_power_fraction(q, F(1, 3)) is None


class TestRouteEquivalence:
    @pytest.mark.parametrize("label,rank,p", [("A", 1, 1), ("A", 2, 1), ("A", 2, 2)])
    def test_formula_vs_residue_engine(self, label, rank, p):
        rs, W, pd = pair(label, rank, p)
        za = group_zeta(E23, rs, W, pd, route="formula2")
        zb = group_zeta(E23, rs, W, pd, route="residue-engine")
        assert za.zeta == zb.zeta
        assert zb.route == "residue-engine"

    @pytest.mark.parametrize("label,rank,p", [t for t in ALL_PAIRS if t[1] <= 3])
    def test_engine_period_on_every_pair_up_to_rank_3(self, label, rank, p):
        rs, W, pd = pair(label, rank, p)
        z = group_zeta(E23, rs, W, pd, route="residue-engine")
        assert z.omega == period_gp(E23, rs, W, pd)


class TestAllSupportedPairs:
    @pytest.mark.parametrize(
        "label,rank,ps",
        [
            ("B", 2, (1, 2)),
            ("C", 2, (1, 2)),
            ("B", 3, (1, 2, 3)),
            ("C", 3, (1, 2, 3)),
            ("G2", 2, (1, 2)),
        ],
    )
    def test_fe_holds_everywhere(self, label, rank, ps):
        rs = build_root_system(label, rank)
        W = enumerate_weyl(rs)
        for p in ps:
            pd = parabolic_data(rs, W, p)
            z = group_zeta(E23, rs, W, pd)
            assert fe_check_group(z).passed, (label, rank, p)
