"""Iterated residues against the closed Weyl-subset formula."""

from fractions import Fraction as F

import pytest

import nazeta.residues
from nazeta.curve import curve_from_numerator, elliptic_curve
from nazeta.errors import CapabilityError, DomainError
from nazeta.groupzeta import period_gp
from nazeta.multivar import LaurentPoly, MultiRationalFunction, residue_at_one
from nazeta.algebra import Poly
from nazeta.residues import (
    SymbolicWeight,
    iterated_residue,
    period_full,
    residue_route_equivalence,
    weyl_term_full,
)
from nazeta.rootsys import build_root_system, enumerate_weyl, parabolic_data

E23 = elliptic_curve(2, 3)


def pair(label, rank, p):
    rs = build_root_system(label, rank)
    W = enumerate_weyl(rs)
    return rs, W, parabolic_data(rs, W, p)


class TestResidueOperator:
    def _scaffold(self):
        one = LaurentPoly.const(2, 1)
        u0 = LaurentPoly.var(2, 0)
        u1 = LaurentPoly.var(2, 1)
        return one, u0, u1

    def test_simple_pole_strips_factor(self):
        one, u0, u1 = self._scaffold()
        g = MultiRationalFunction.make(one + u1, one - u1.mul_monomial((0, 1)))
        f = MultiRationalFunction.make(one, one - u0) * g
        assert residue_at_one(f, 0).equal(g)

    def test_regular_gives_zero(self):
        one, u0, u1 = self._scaffold()
        f = MultiRationalFunction.make(one + u0, one + u0 * u1)
        assert residue_at_one(f, 0).is_zero()

    def test_linearity(self):
        one, u0, u1 = self._scaffold()
        f = MultiRationalFunction.make(u1, one - u0)
        g = MultiRationalFunction.make(one, (one - u0) * (one + u0 * u1))
        lhs = residue_at_one(f + g, 0)
        rhs = residue_at_one(f, 0) + residue_at_one(g, 0)
        assert lhs.equal(rhs)

    def test_higher_order_pole(self):
        one, u0, u1 = self._scaffold()
        f = MultiRationalFunction.make(u1, (one - u0) * (one - u0))
        assert residue_at_one(f, 0).equal(MultiRationalFunction.from_poly(u1))


class TestSymbolicWeight:
    def test_pairings(self):
        rs = build_root_system("A", 2)
        sw = SymbolicWeight(rs)
        # highest root: pairing (1, 1), coroot height 2
        theta = rs.root_index((1, 1))
        assert sw.pairing(theta) == ((1, 1), 2)


class TestFullPeriod:
    def test_a1_matches_definition(self):
        rs = build_root_system("A", 1)
        W = enumerate_weyl(rs)
        pd = parabolic_data(rs, W, 1)
        full = period_full(E23, rs, W)
        assert full.to_univariate(0, "u") == period_gp(E23, rs, W, pd)

    def test_summand_count_is_weyl_order(self):
        rs = build_root_system("A", 2)
        W = enumerate_weyl(rs)
        terms = [weyl_term_full(E23, rs, W, w) for w in W.elements]
        assert len(terms) == 6
        total = MultiRationalFunction.const(2, 0)
        for t in terms:
            total = total + t
        assert total.equal(period_full(E23, rs, W))

    def test_specialization_consistency(self):
        rs = build_root_system("A", 2)
        W = enumerate_weyl(rs)
        full = period_full(E23, rs, W)
        point = [F(1, 8), F(1, 4)]
        total = sum(
            weyl_term_full(E23, rs, W, w).evaluate(point) for w in W.elements
        )
        assert full.evaluate(point) == total

    def test_rank_cap(self):
        rs = build_root_system("A", 4)
        W = enumerate_weyl(rs)
        with pytest.raises(CapabilityError):
            period_full(E23, rs, W)


class TestRouteEquivalence:
    @pytest.mark.parametrize("p", [1, 2])
    def test_a2(self, p):
        rs, W, pd = pair("A", 2, p)
        cert = residue_route_equivalence(E23, rs, W, pd)
        assert cert.passed
        vanish = [
            c for c in cert.checks if c["identity"] == "non-surviving term vanishes"
        ]
        assert len(vanish) == 1  # exactly one excluded Weyl element

    def test_mismatch_records_every_failing_check(self, monkeypatch):
        exact = nazeta.residues.weyl_term
        monkeypatch.setattr(
            nazeta.residues,
            "weyl_term",
            lambda *args: exact(*args).scale(F(1001, 1000)),
        )
        rs, W, pd = pair("A", 2, 1)
        cert = residue_route_equivalence(E23, rs, W, pd)
        assert not cert.passed
        assert len(cert.checks) == len(W) + 1
        failed = [c["identity"] for c in cert.failures()]
        assert failed == (
            ["surviving term matches closed formula"] * len(pd.weyl_subset)
            + ["summed residues equal the closed period"]
        )
        surviving = {tuple(w.perm) for w in pd.weyl_subset}
        assert {tuple(c["perm"]) for c in cert.failures()[:-1]} == surviving

    def test_a2_genus2_curve(self):
        g2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) ** 2).coeffs)
        rs, W, pd = pair("A", 2, 1)
        cert = residue_route_equivalence(g2, rs, W, pd)
        assert cert.passed

    def test_full_sum_residue(self):
        rs, W, pd = pair("A", 2, 1)
        full = period_full(E23, rs, W)
        assert iterated_residue(full, pd) == period_gp(E23, rs, W, pd)

    def test_order_override_must_skip_kept(self):
        rs, W, pd = pair("A", 2, 1)
        full = period_full(E23, rs, W)
        with pytest.raises(DomainError):
            iterated_residue(full, pd, order=(0, 1))

    def test_order_experiment_rank3(self):
        # the stated order and its reverse agree term by term for A_3
        rs, W, pd = pair("A", 3, 2)
        closed = period_gp(E23, rs, W, pd)
        total_fwd = None
        total_rev = None
        for w in W.elements:
            term = weyl_term_full(E23, rs, W, w)
            fwd = iterated_residue(term, pd, order=(0, 2))
            rev = iterated_residue(term, pd, order=(2, 0))
            total_fwd = fwd if total_fwd is None else total_fwd + fwd
            total_rev = rev if total_rev is None else total_rev + rev
        assert total_fwd == closed
        assert total_rev == closed
