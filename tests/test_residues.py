"""Iterated residues against the closed Weyl-subset formula."""

import sys
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import nazeta.algebra
import nazeta.residues
import per_root_oracle
import records
from multivar_oracle import atom_product, collapse_sum
from nazeta.curve import FactorProduct, curve_from_numerator, elliptic_curve
from nazeta.errors import CapabilityError, DomainError
from nazeta.groupzeta import period_gp
from nazeta.multivar import (
    LaurentPoly,
    MultiRationalFunction,
    residue_at_one,
    residue_at_one_factored,
)
from nazeta.algebra import Poly
from nazeta.residues import (
    iterated_residue,
    residue_period,
    residue_route_equivalence,
    weyl_term_full,
)
from nazeta.rootsys import SUPPORTED, build_root_system, enumerate_weyl, parabolic_data

E23 = elliptic_curve(2, 3)  # q = 2, P = 1 + 2x^2
E32 = elliptic_curve(3, 2)  # q = 3, P = 1 - 2x + 3x^2
GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, -1, 2) * Poly.of(1, 1, 2)).coeffs)
LINE = Poly.of(1, -1)


def pair(label, rank, p):
    rs = build_root_system(label, rank)
    W = enumerate_weyl(rs)
    return rs, W, parabolic_data(rs, W, p)


def atom_poly(c, atom):
    """The atom (kind, j, k) as a polynomial in x = u^k: p(q^j x)."""
    kind, j, _ = atom
    p = LINE if kind == "L" else c.P
    return Poly.from_list([a * F(c.q) ** (j * d) for d, a in enumerate(p.coeffs)])


def numerator(f):
    """The numerator of a factored product as a rational Laurent polynomial."""
    return LaurentPoly.make(f.nvars, {m: f.content * v for m, v in f.num})


def product_value(c, f, point):
    """A factored product evaluated atom by atom, from the atom's meaning."""
    mono = lambda m: prod(F(x) ** e for x, e in zip(point, m))  # noqa: E731
    value = sum(f.content * v * mono(m) for m, v in f.num)
    for atom, e in f.atoms:
        value *= atom_poly(c, atom).evaluate(mono(atom[2])) ** e
    return value


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


def product(nvars, num, atoms):
    """num (monomial -> coefficient) times atoms ((kind, j, k), e); a key
    listed twice has its exponents added."""
    exps = {}
    for atom, e in atoms:
        exps[atom] = exps.get(atom, 0) + e
    return atom_product(nvars, num, exps)


def expand(c, f):
    """A factored product as one sparse fraction, from the atom's meaning."""
    n = f.nvars
    num, den = numerator(f), LaurentPoly.const(n, 1)
    for atom, e in f.atoms:
        k = atom[2]
        p = atom_poly(c, atom)
        terms = {tuple(d * x for x in k): a for d, a in enumerate(p.coeffs)}
        for _ in range(abs(e)):
            if e > 0:
                num = num * LaurentPoly.make(n, terms)
            else:
                den = den * LaurentPoly.make(n, terms)
    return MultiRationalFunction.make(num, den)


def agrees_with_oracle(c, f, j):
    factored = residue_at_one_factored(c, f, j, {})
    assert expand(c, factored).equal(residue_at_one(expand(c, f), j))
    return factored


NUM2 = {(0, 0): 1, (1, 1): -2, (-1, 2): F(1, 3)}
NUM3 = {(0, 0, 0): 2, (1, 0, -1): 1, (0, 2, 1): -1}


class TestFactoredResidue:
    """The factored R_j against the whole-fraction oracle, on q = 2."""

    CASES = {
        "simple pole": (2, 0, [(("L", 0, (1, 0)), -1), (("L", -1, (1, 1)), -1)]),
        "order 2": (2, 0, [(("L", 0, (1, 0)), -2), (("P", -1, (1, 1)), -1)]),
        "order 3": (
            3,
            1,
            [(("L", 0, (0, 1, 0)), -1), (("L", 0, (0, 2, 0)), -2),
             (("L", 1, (1, 1, 0)), -1), (("P", -2, (0, 1, 1)), 1)],
        ),
        "1 - u_j^2": (2, 1, [(("L", 0, (0, 2)), -1), (("L", 0, (1, 1)), -1)]),
        "c != 1 only": (2, 0, [(("L", 1, (1, 0)), -2), (("L", 0, (1, 1)), -1)]),
        "regular": (3, 2, [(("L", 0, (1, 1, 1)), -2), (("P", 1, (0, 0, 1)), -1)]),
        "zero cancels the pole": (2, 0, [(("L", 0, (1, 0)), -1), (("L", 0, (2, 0)), 1)]),
        "negative exponents": (2, 0, [(("L", 0, (-1, 0)), -2), (("L", 1, (-1, -1)), -1)]),
        "atom free of u_j": (3, 0, [(("L", 0, (1, 0, 0)), -1), (("P", 1, (0, 1, 1)), -2)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_named_case(self, name):
        n, j, atoms = self.CASES[name]
        f = product(n, NUM2 if n == 2 else NUM3, atoms)
        r = agrees_with_oracle(E23, f, j)
        if name in ("c != 1 only", "regular", "zero cancels the pole"):
            assert r.is_zero()
        else:
            assert not r.is_zero()
        assert all(k[j] == 0 for (_, _, k), _ in r.atoms)
        assert all(m[j] == 0 for m, _ in r.num)

    def test_iterated_in_three_variables(self):
        n, j, atoms = self.CASES["order 3"]
        f = product(n, NUM3, atoms + [(("L", 0, (1, 0, 0)), -2)])
        once = agrees_with_oracle(E23, f, j)
        agrees_with_oracle(E23, once, 0)
        assert not residue_at_one_factored(E23, once, 0, {}).is_zero()

    def test_linearity_on_a_sum_of_two_products(self):
        f1 = product(2, NUM2, self.CASES["order 2"][2])
        f2 = product(2, {(0, 1): 5}, self.CASES["simple pole"][2])
        lhs = residue_at_one(expand(E23, f1) + expand(E23, f2), 0)
        rhs = (
            expand(E23, residue_at_one_factored(E23, f1, 0, {}))
            + expand(E23, residue_at_one_factored(E23, f2, 0, {}))
        )
        assert lhs.equal(rhs)

    def test_collapse_sums_over_the_common_denominator(self):
        f1 = product(1, {(1,): 2}, [(("L", 0, (1,)), -1), (("P", -1, (1,)), -2)])
        f2 = product(1, {(-1,): 1}, [(("P", -1, (1,)), -1), (("L", 2, (2,)), 1)])
        expected = expand(E23, f1) + expand(E23, f2)
        assert collapse_sum(E23, [f1, f2], 0) == expected.to_univariate(0)

    def test_collapse_refuses_other_variables(self):
        f = product(2, {(0, 1): 1}, [(("L", 0, (1, 0)), -1)])
        with pytest.raises(DomainError):
            collapse_sum(E23, [f], 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_products(self, data):
        c = data.draw(st.sampled_from([E23, E32, GENUS2]), "curve")
        n = data.draw(st.integers(2, 5), "nvars")
        j = data.draw(st.integers(0, n - 1), "j")
        alone = tuple(int(i == j) for i in range(n))
        pole = st.tuples(st.just("L"), st.just(0), st.sampled_from([alone, tuple(2 * x for x in alone)]))
        vector = st.tuples(*[st.integers(-1, 2)] * n).filter(any)
        atom = st.tuples(st.sampled_from("LP"), st.integers(-2, 1), vector)
        poles = data.draw(st.lists(st.tuples(pole, st.integers(-3, -1)), max_size=2), "poles")
        others = data.draw(
            st.lists(st.tuples(atom, st.integers(-2, 2).filter(bool)), max_size=2), "atoms"
        )
        num = data.draw(
            st.dictionaries(st.tuples(*[st.integers(-1, 2)] * n), st.integers(-3, 3), min_size=1, max_size=3),
            "numerator",
        )
        agrees_with_oracle(c, product(n, num, poles + others), j)


class TestCollapse:
    """The integer collapse_sum against the whole-fraction expansion."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_sums(self, data):
        c = data.draw(st.sampled_from([E23, E32, GENUS2]), "curve")
        n = data.draw(st.integers(1, 5), "nvars")
        j = data.draw(st.integers(0, n - 1), "j")
        at = lambda e: tuple(e * (i == j) for i in range(n))  # noqa: E731
        # a small pool of atoms, so that keys repeat within and across terms
        pool = data.draw(
            st.lists(
                st.tuples(st.sampled_from("LP"), st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2])),
                min_size=1, max_size=3,
            ),
            "pool",
        )
        atom = st.sampled_from([(kind, i, at(m)) for kind, i, m in pool])
        term = st.tuples(
            st.dictionaries(st.integers(-2, 3).map(at), st.integers(-3, 3), max_size=3),
            st.lists(st.tuples(atom, st.integers(-2, 2)), max_size=4),
        )
        terms = [product(n, num, atoms) for num, atoms in data.draw(st.lists(term, max_size=4), "terms")]
        expected = MultiRationalFunction.const(n, 0)
        for t in terms:
            expected = expected + expand(c, t)
        assert collapse_sum(c, terms, j) == expected.to_univariate(j)


class TestFullPeriod:
    def test_specialization_consistency(self):
        # each factored summand agrees with its expansion at a point
        rs = build_root_system("A", 2)
        W = enumerate_weyl(rs)
        point = [F(1, 8), F(1, 4)]
        for w in W.elements:
            term = weyl_term_full(E23, rs, W, w)
            assert product_value(E23, term, point) == expand(E23, term).evaluate(point)

    @pytest.mark.parametrize("curve", [E23, GENUS2], ids=["E23", "genus2"])
    @pytest.mark.parametrize(
        "label,rank", [(label, rank) for label, ranks in SUPPORTED.items() for rank in ranks]
    )
    def test_net_ratios_match_the_definition(self, curve, label, rank):
        # nvars, content, num and atoms equal, atom order included: the net
        # per-root ratio atoms against both zeta factors of each ratio
        rs = build_root_system(label, rank)
        W = enumerate_weyl(rs)
        for w in W.elements:
            oracle = per_root_oracle.weyl_term_full(curve, rs, W, w)
            assert weyl_term_full(curve, rs, W, w) == oracle

    def test_six_variables_refused(self):
        # A5 is the largest root system build_root_system returns
        with pytest.raises(CapabilityError):
            build_root_system("A", 6)
        with pytest.raises(CapabilityError):
            LaurentPoly.make(6, {(0,) * 6: 1})
        with pytest.raises(CapabilityError):
            atom_product(6, {(0,) * 6: 1}, {})


class TestIndependence:
    @pytest.mark.parametrize("label,p", [("A", 1), ("A", 2), ("B", 1), ("B", 2)])
    def test_oracle_never_builds_closed_factors(self, label, p, monkeypatch):
        rs, W, pd = pair(label, 2, p)
        expected = period_gp(E23, rs, W, pd)

        def refuse(*args):
            raise AssertionError("the residue oracle used a closed-side factor")

        for name, module in list(sys.modules.items()):
            for attr in ("zeta_factors", "completed_zeta_factor"):
                if name.startswith("nazeta") and hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        table = {}
        residues = [
            iterated_residue(E23, weyl_term_full(E23, rs, W, w), pd, table)
            for w in W.elements
        ]
        assert collapse_sum(E23, residues, pd.p0) == expected
        assert residue_period(E23, rs, W, pd) == expected


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

    @pytest.mark.parametrize(
        "curve,label,rank,p",
        [(E23, "B", 3, 1), (E23, "C", 3, 2), (GENUS2, "A", 3, 2), (E23, "A", 4, 2)],
        ids=["E-B3-1", "E-C3-2", "G-A3-2", "E-A4-2"],
    )
    def test_large_certificates(self, curve, label, rank, p):
        rs, W, pd = pair(label, rank, p)
        cert = residue_route_equivalence(curve, rs, W, pd)
        assert cert.passed
        assert len(cert.checks) == len(W) + 1

    def test_a5_certificate(self):
        rs, W, pd = pair("A", 5, 3)
        cert = residue_route_equivalence(E32, rs, W, pd)
        assert all(c["ok"] for c in cert.checks)
        assert len(cert.checks) == len(W) + 1
        vanish = [
            c for c in cert.checks if c["identity"] == "non-surviving term vanishes"
        ]
        assert len(vanish) == len(W) - len(pd.weyl_subset)

    def test_mismatch_records_every_failing_check(self, monkeypatch):
        exact = nazeta.residues._weyl_factors
        monkeypatch.setattr(
            nazeta.residues,
            "_weyl_factors",
            lambda *args: exact(*args) * FactorProduct(1001, 1000),
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

    def test_residue_side_fault_names_its_element(self, monkeypatch):
        # one surviving summand, hence its iterated residue, scaled by
        # 1001/1000: its own identity and the total fail, nothing else
        rs, W, pd = pair("A", 2, 1)
        target = pd.weyl_subset[-1].perm
        exact = nazeta.residues.weyl_term_full

        def faulty(c, rs, W, w):
            term = exact(c, rs, W, w)
            if w.perm == target:
                term = records.replace(term, content=term.content * F(1001, 1000))
            return term

        monkeypatch.setattr(nazeta.residues, "weyl_term_full", faulty)
        cert = residue_route_equivalence(E23, rs, W, pd)
        assert [(c["identity"], c.get("perm")) for c in cert.failures()] == [
            ("surviving term matches closed formula", list(target)),
            ("summed residues equal the closed period", None),
        ]

    def test_certificate_takes_no_gcd(self, monkeypatch):
        calls = []
        exact = nazeta.algebra._int_gcd

        def spy(a, b):
            calls.append(1)
            return exact(a, b)

        monkeypatch.setattr(nazeta.algebra, "_int_gcd", spy)
        rs, W, pd = pair("A", 2, 1)
        assert residue_route_equivalence(E23, rs, W, pd).passed
        assert not calls
        residue_period(E23, rs, W, pd)  # the period is reduced, once
        assert calls

    def test_a2_genus2_curve(self):
        g2 = curve_from_numerator(2, 2, (Poly.of(1, 0, 2) ** 2).coeffs)
        rs, W, pd = pair("A", 2, 1)
        cert = residue_route_equivalence(g2, rs, W, pd)
        assert cert.passed

    def test_order_experiment_rank3(self):
        # the stated order and its reverse agree term by term for A_3
        rs, W, pd = pair("A", 3, 2)
        closed = period_gp(E23, rs, W, pd)
        table = {}  # one atom table serves both orders

        def collapse(term, order):
            for k in order:
                term = residue_at_one_factored(E23, term, k, table)
            return term

        fwd, rev = [], []
        for w in W.elements:
            term = weyl_term_full(E23, rs, W, w)
            fwd.append(collapse(term, (0, 2)))
            rev.append(collapse(term, (2, 0)))
            assert fwd[-1] == iterated_residue(E23, term, pd, {})
            assert collapse_sum(E23, fwd[-1:], pd.p0) == collapse_sum(E23, rev[-1:], pd.p0)
        assert collapse_sum(E23, fwd, pd.p0) == closed
        assert collapse_sum(E23, rev, pd.p0) == closed
