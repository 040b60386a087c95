"""Exact critical-circle verdicts, and their agreement with the float roots."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import nazeta.algebra
from circle_oracle import two_chain_roots_on_circle
from nazeta.acceptance import hasse_range
from nazeta.algebra import Poly, roots_on_circle
from nazeta.curve import curve_from_numerator, curve_from_point_counts, elliptic_curve
from nazeta.errors import DomainError
from nazeta.groupzeta import group_zeta, group_zeta_zeros
from nazeta.purezeta import (
    elliptic_rank2_inputs,
    mixed_numerator,
    partial_rank3_bracket,
    pure_zeta,
    rh_report,
)
from nazeta.rootsys import build_root_system, enumerate_weyl, parabolic_data

E23 = elliptic_curve(2, 3)
GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) ** 2).coeffs)

# every supported (type, rank, p), A5 at p = 3 only to keep the suite fast
GROUP_PAIRS = (
    [("A", n, p) for n in range(1, 5) for p in range(1, n + 1)]
    + [("A", 5, 3)]
    + [(t, n, p) for t in "BC" for n in (2, 3) for p in range(1, n + 1)]
    + [("G2", 2, 1), ("G2", 2, 2)]
)


def float_verdict(deviations) -> bool:
    return all(d <= 1e-6 for d in deviations)


class TestRootsOnCircle:
    def test_asymmetric_numerator_fails(self):
        # 1 + T + 3T^2: constant/leading is not the squared radius
        assert not roots_on_circle(Poly.of(1, 1, 3), F(1, 2))

    def test_root_at_zero_fails(self):
        assert not roots_on_circle(Poly.of(0, 1, 1), 1)

    def test_odd_degree(self):
        assert roots_on_circle(Poly.of(1, -2), F(1, 4))
        assert not roots_on_circle(Poly.of(1, -2), F(1, 2))
        # symmetric at 4 with p_0/p_d > 0; the roots 3 +- sqrt(5) are off it
        assert not roots_on_circle(Poly.of(2, 1) * Poly.of(4, -6, 1), 4)

    def test_antisymmetric_case(self):
        # T^2 - 4 = (T - 2)(T + 2): p_0/p_d < 0, decided through its square
        assert roots_on_circle(Poly.of(-4, 0, 1), 4)
        # (T - 2)^3 (T + 2): even degree, p_0/p_d < 0, every root on the circle
        assert roots_on_circle(Poly.of(-4, 0, 1) * Poly.of(-2, 1) ** 2, 4)

    def test_constant_has_no_roots(self):
        assert roots_on_circle(Poly.of(3), 2)

    def test_bad_input_rejected(self):
        with pytest.raises(DomainError):
            roots_on_circle(Poly.zero(), 1)
        with pytest.raises(DomainError):
            roots_on_circle(Poly.of(1, 1), 0)


# squared radii with and without a rational square root
RADII = {F(1): F(1), F(4): F(2), F(9, 4): F(3, 2), F(1, 9): F(1, 3),
         F(2): None, F(1, 2): None, F(2, 3): None, F(3): None}


@st.composite
def circle_cases(draw):
    """A product of up to four factors, each up to the cube, times a
    nonzero content; factors on, at the ends of and off the circle."""
    r2 = draw(st.sampled_from(sorted(RADII)))
    root, signs = RADII[r2], st.sampled_from([1, -1])
    kinds = ["trace", "zero", "minus", "off", "linear"] + (["end", "root"] if root else [])
    p = Poly.constant(F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) * draw(signs))
    for _ in range(draw(st.integers(1, 4))):
        kind, sign = draw(st.sampled_from(kinds)), draw(signs)
        if kind == "trace":  # z^2 - y z + r2: on the circle iff y^2 <= 4 r2
            y = F(draw(st.integers(-12, 12)), draw(st.integers(1, 4)))
            f = Poly.of(r2, -y, 1)
        elif kind == "zero":  # y = 0
            f = Poly.of(r2, 0, 1)
        elif kind == "minus":  # the real roots +-sqrt(r2)
            f = Poly.of(-r2, 0, 1)
        elif kind == "end":  # y^2 = 4 r2: a double root at +-sqrt(r2)
            f = Poly.of(r2, -2 * sign * root, 1)
        elif kind == "root":
            f = Poly.of(-sign * root, 1)
        elif kind == "linear":
            f = Poly.of(F(draw(st.integers(-9, 9)), draw(st.integers(1, 4))), 1)
        else:  # z^2 + b z + c, mostly off the circle
            c = F(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 4)))
            f = Poly.of(c, draw(st.integers(-6, 6)), 1)
        p = p * f ** draw(st.integers(1, 3))
    return p, r2


class TestOneChain:
    """One Sturm chain of H itself against the square-free part's chain."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=circle_cases())
    @example(case=(Poly.of(4, -1, 1) ** 2 * Poly.of(-2, 1), F(4)))
    @example(case=(Poly.of(4, -4, 1) * Poly.of(4, 0, 1), F(4)))  # y^2 = 4 r2 and y = 0
    @example(case=(Poly.of(F(9, 4), 3, 1) ** 3, F(9, 4)))  # a sixfold end root
    @example(case=(Poly.of(-1, 1) * Poly.of(F(-1, 2), 0, 1), F(1, 2)))  # 1 is off
    @example(case=(Poly.of(1, 1, 1, -1, 1, 1, 1), F(1)))
    def test_matches_the_two_chain_oracle(self, case):
        p, r2 = case
        assert roots_on_circle(p, r2) == two_chain_roots_on_circle(p, r2)

    def test_large_coefficients(self):
        # symmetric, so the whole chain runs, on coefficients of ~480 bits
        q = 10**9 + 7
        P = curve_from_point_counts(16, q, [3] * 16).P
        assert roots_on_circle(P, F(1, q)) is two_chain_roots_on_circle(P, F(1, q)) is False

    def test_one_remainder_sequence(self, monkeypatch):
        # (T^2 - T + 4)^2 (T - 2): every root on |z|^2 = 4, H not square-free
        p = Poly.of(4, -1, 1) ** 2 * Poly.of(-2, 1)
        calls = []
        prem = nazeta.algebra._int_prem

        def spy(a, b):
            calls.append((list(a), list(b)))
            return prem(a, b)

        def refuse(*args):
            raise AssertionError("a second remainder sequence")

        monkeypatch.setattr(nazeta.algebra, "_int_prem", spy)
        for name in ("poly_gcd", "_int_gcd", "_derivative", "Fraction"):
            monkeypatch.setattr(nazeta.algebra, name, refuse)
        monkeypatch.setattr(Poly, "exact_div", refuse)
        assert roots_on_circle(p, 4)
        # each pseudo-division continues the chain of the one before
        assert calls and all(a == prev[1] for (a, _), prev in zip(calls[1:], calls))


class TestAgreementWithFloatRoots:
    """The exact verdict against 'every float root within 1e-6'."""

    @pytest.mark.parametrize(
        "label,rank,p", GROUP_PAIRS, ids=[f"{t}-{n}-{p}" for t, n, p in GROUP_PAIRS]
    )
    def test_group_zetas(self, label, rank, p):
        rs = build_root_system(label, rank)
        W = enumerate_weyl(rs)
        pd = parabolic_data(rs, W, p)
        for curve in (E23, GENUS2):
            rep = group_zeta_zeros(group_zeta(curve, rs, W, pd))
            assert rep.verdict == float_verdict(rep.deviations)

    def test_sturm_chain_with_negative_leading_coefficients(self, monkeypatch):
        # p = z^3 h(z + 1/z), h = y^3 + y^2 - 2y - 3 with two complex roots;
        # the chain over Z is -9 + 10w - 5w^2 + w^3, 10 - 10w + 3w^2,
        # 31 - 10w, -1, and 31 - 10w divides by its negative lead
        divisor_leads = []
        prem = nazeta.algebra._int_prem

        def spy(a, b):
            divisor_leads.append(b[-1])
            return prem(a, b)

        monkeypatch.setattr(nazeta.algebra, "_int_prem", spy)
        rep = rh_report(Poly.of(1, 1, 1, -1, 1, 1, 1), 1)
        assert min(divisor_leads) < 0
        assert rep.verdict == float_verdict(rep.deviations)
        assert not rep.verdict

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_mixed_and_partial_numerators(self, q):
        for p in (mixed_numerator(q, q + 1), partial_rank3_bracket(q)):
            rep = rh_report(p, q)
            assert rep.verdict == float_verdict(rep.deviations)
        # RH holds for the mixed numerator at q in {2, 3} only
        assert rh_report(mixed_numerator(q, q + 1), q).verdict == (q in (2, 3))

    def test_elliptic_rank2_grid(self):
        for q in range(2, 17):
            for n in hasse_range(q):
                curve = elliptic_curve(q, n)
                z = pure_zeta(curve, elliptic_rank2_inputs(curve))
                rep = rh_report(z.numerator, z.Q)
                assert rep.verdict == float_verdict(rep.deviations)
