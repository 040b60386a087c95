"""One fault per certificate identity: every recorded check can fail.

The six certifiers record their checks by identity kind:
``verify_count_identities``, ``fe_check_group``, ``omega_D_decompose``,
``fg_involution_check``, ``residue_route_equivalence`` and
``fe_check_pure``.  ``KINDS`` lists every kind with one fault: a library
function, monkeypatched to return a plausible wrong result (a count off
by one, one Weyl term or zeta factor scaled, an element lost from the
Weyl subset).  Under its fault the certifier records exactly the listed
failures, witnesses included.  ``test_every_recorded_identity_is_listed``
runs the certifiers on the A2 and A3 pairs and fails on any identity that
is not listed, so a check that no fault can fail does not go unnoticed.
The involution identities are decided on factored forms and fall back on
the expansions when the forms differ; the last two tests reach that
fallback with a rewrite that keeps the function and with the f and g
faults.
"""

import math
import re
from fractions import Fraction as F

import pytest

import nazeta.curve
import nazeta.groupzeta
import nazeta.purezeta
import nazeta.residues
import nazeta.rootsys
import records
from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import (
    FactorProduct,
    curve_from_numerator,
    elliptic_curve,
    line_factor,
    product,
)
from nazeta.groupzeta import (
    fe_check_group,
    fg_involution_check,
    group_zeta,
    omega_D_decompose,
)
from nazeta.purezeta import PureZetaInputs, elliptic_rank2_inputs, fe_check_pure
from nazeta.residues import residue_route_equivalence
from nazeta.rootsys import build_root_system, enumerate_weyl, verify_count_identities

E23 = elliptic_curve(2, 3)
GENUS2 = curve_from_numerator(2, 2, (Poly.of(1, -1, 2) * Poly.of(1, 1, 2)).coeffs)
SCALE = FactorProduct(1001, 1000)


# -- the certifiers, each run on the library's own results ------------------


def _pair(label, rank, p):
    """The parabolic data through ``nazeta.rootsys``, where faults patch it."""
    rs = build_root_system(label, rank)
    W = enumerate_weyl(rs)
    return rs, W, nazeta.rootsys.parabolic_data(rs, W, p)


def count_certificate(c, pair):
    rs, W, pd = _pair(*pair)
    return verify_count_identities(W, pd, group_zeta(c, rs, W, pd).table)


def fe_certificate(c, pair):
    return fe_check_group(group_zeta(c, *_pair(*pair)))


def decomposition_certificate(c, pair):
    return omega_D_decompose(group_zeta(c, *_pair(*pair))).certificate


def involution_certificate(c, pair):
    rs, W, pd = _pair(*pair)
    z = group_zeta(c, rs, W, pd)
    return fg_involution_check(z, W, omega_D_decompose(z))


def residue_certificate(c, pair):
    return residue_route_equivalence(c, *_pair(*pair))


def pure_certificate(c, pair):
    inputs = (
        elliptic_rank2_inputs(c) if c.g == 1
        else PureZetaInputs.make(2, range(1, c.g + 1), c.g + 1)
    )
    res = nazeta.purezeta.pure_zeta(c, inputs)
    return fe_check_pure(res.zeta, c.g, c.q, res.r)


# -- the faults ---------------------------------------------------------------


def identity_row_counted_for_w0(monkeypatch):
    """``count_tables`` counts the identity's row for w_0, so the maximum
    M_p misses the identity."""
    exact = nazeta.rootsys.negative_preimage_counts

    def faulty(pd, w):
        W = enumerate_weyl(pd.rs)
        return exact(pd, W.longest if w == W.identity else w)

    monkeypatch.setattr(nazeta.rootsys, "negative_preimage_counts", faulty)


def max_difference_off_by_one(key):
    """M_p(k, h) one too large at ``key``."""

    def fault(monkeypatch):
        exact = nazeta.groupzeta.count_tables

        def faulty(pd):
            table = exact(pd)
            bad = dict(table.max_diff)
            bad[key] = bad.get(key, 0) + 1
            return records.replace(table, max_diff=bad)

        monkeypatch.setattr(nazeta.groupzeta, "count_tables", faulty)

    return fault


def normalization_misses_h_2(monkeypatch):
    """The normalization exponents are read for h > 2, not h >= 2."""
    exact = nazeta.rootsys.CountTable.normalization_exponents
    monkeypatch.setattr(
        nazeta.rootsys.CountTable,
        "normalization_exponents",
        lambda table: {key: m for key, m in exact(table).items() if key[1] > 2},
    )


def zeta_factor_scaled(key):
    """The completed zeta factor at ``key`` scaled by 1001/1000."""

    def fault(monkeypatch):
        exact = nazeta.groupzeta.zeta_factors

        def faulty(c, k, h):
            f = exact(c, k, h)
            return f * SCALE if (k, h) == key else f

        monkeypatch.setattr(nazeta.groupzeta, "zeta_factors", faulty)

    return fault


def _is_identity(w):
    return w.perm == tuple(range(len(w.perm)))


def period_term_scaled(monkeypatch):
    """The period's summand for the identity scaled by 1001/1000."""
    exact = nazeta.groupzeta._weyl_factors

    def faulty(c, rs, W, pd, w, ratios):
        f = exact(c, rs, W, pd, w, ratios)
        return f * SCALE if w == W.identity else f

    monkeypatch.setattr(nazeta.groupzeta, "_weyl_factors", faulty)


def rational_factors_scaled(monkeypatch):
    """f_w for the identity scaled by 1001/1000, in the period too."""
    exact = nazeta.groupzeta._rational_factors

    def faulty(c, rs, pd, w):
        f = exact(c, rs, pd, w)
        return f * SCALE if _is_identity(w) else f

    monkeypatch.setattr(nazeta.groupzeta, "_rational_factors", faulty)


def g_factors_scaled(monkeypatch):
    """g_w for the identity scaled by 1001/1000."""
    exact = nazeta.groupzeta._g_factors

    def faulty(pd, w, zetas):
        g = exact(pd, w, zetas)
        return g * SCALE if _is_identity(w) else g

    monkeypatch.setattr(nazeta.groupzeta, "_g_factors", faulty)


def g_numerator_atoms_as_lines(monkeypatch):
    """Not a fault: g_w for the identity on E(2, 3), where P(T) = 1 + 2T^2,
    with each atom P(q^j u^m) written as L(2+4j, 4m) / L(1+2j, 2m),
    L(j, m) = 1 - q^j u^m.  The function is the same, but its atoms no
    longer cancel against the partner's, so the involution identities of
    the identity and of w_0 w_p are decided on the expansions."""
    exact = nazeta.groupzeta._g_factors

    def rewritten(pd, w, zetas):
        g = exact(pd, w, zetas)
        if not _is_identity(w):
            return g
        return product([(g, 1)] + [
            pair
            for (kind, j, m), e in g.atoms if kind == "P"
            for pair in (
                (FactorProduct(1, 1, 0, (((kind, j, m), 1),)), -e),
                (line_factor(E23.q, 2 + 4 * j, 4 * m), e),
                (line_factor(E23.q, 1 + 2 * j, 2 * m), -e),
            )
        ])

    monkeypatch.setattr(nazeta.groupzeta, "_g_factors", rewritten)


def subset_loses_w0_wp(monkeypatch):
    """``parabolic_data`` drops w_0 w_p, the identity's involution
    partner, from the surviving Weyl subset."""
    exact = nazeta.rootsys.parabolic_data

    def faulty(rs, W, p):
        pd = exact(rs, W, p)
        lost = W.longest.compose(pd.levi_longest)
        subset = tuple(w for w in pd.weyl_subset if w != lost)
        return records.replace(pd, weyl_subset=subset)

    monkeypatch.setattr(nazeta.rootsys, "parabolic_data", faulty)


def residue_term_scaled(monkeypatch):
    """The identity's full-rank summand scaled by 1001/1000."""
    exact = nazeta.residues.weyl_term_full

    def faulty(c, rs, W, w):
        term = exact(c, rs, W, w)
        if w == W.identity:
            term = records.replace(term, content=term.content * F(1001, 1000))
        return term

    monkeypatch.setattr(nazeta.residues, "weyl_term_full", faulty)


class _FirstDenominator:
    """``math`` with an ``lcm`` that returns its first argument."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def lcm(first, *rest):
        return first


def closed_sum_on_first_denominator(monkeypatch):
    """The closed-side expansion brings its terms' scalars to the first
    term's denominator, not to their lcm: one term comes out right, a sum
    does not."""
    monkeypatch.setattr(nazeta.curve, "math", _FirstDenominator())


def pure_constant_off_by_one(monkeypatch):
    """The pure zeta's numerator has its constant coefficient one too
    large."""
    exact = nazeta.purezeta.pure_zeta

    def faulty(c, inputs):
        res = exact(c, inputs)
        num = res.numerator + Poly.of(1)
        den = Poly.of(1, -1) * Poly.from_list([1, -res.Q])
        zeta = RationalFunction.make(num, den, "T")
        return records.replace(res, zeta=zeta, numerator=num)

    monkeypatch.setattr(nazeta.purezeta, "pure_zeta", faulty)


# -- every identity kind, with its fault and the failures it must record ----

A2P1 = ("A", 2, 1)
IDENTITY = "a1->(1, 0), a2->(0, 1)"  # _describe's witness on A2
W0_WP = "a1->(-1, -1), a2->(1, 0)"  # w_0 w_p on A2 p=1
PURE_LINE = "p[2g-i] = Q^(g-i) * p[i]"  # fe_check_pure records one per i
COUNT = "reflection symmetry of counts"
LONGEST = "longest-element difference formula (h>=2, clamped)"
FE = "zeta(-c_p - s) = zeta(s)"
CLEARING = "clearing product: two forms agree"
ZETA_DEN = "zeta * denominator = clearing * period"
DEN_REFL = "denominator reflection"
NUM_REFL = "global numerator reflection"
STAYS = "involution stays in the Weyl subset"
F_INV = "f involution"
G_INV = "g involution"
FG_SUM = "sum of f*g equals clearing * period"
SURVIVING = "surviving term matches closed formula"
VANISHES = "non-surviving term vanishes"
SUMMED = "summed residues equal the closed period"

# certifier -> {kind: (curve, pair, fault, the certificate's failures)}
KINDS = {
    count_certificate: {
        # M_p becomes w_0's row alone: M_p(1, 1) = -1 and M_p(-1, 0) = 0,
        # each seen in a pair of reflected cells
        COUNT: (E23, ("A", 1, 1), identity_row_counted_for_w0, [
            {"identity": COUNT, "k": -1, "h": -1},
            {"identity": COUNT, "k": -1, "h": 0},
            {"identity": COUNT, "k": 1, "h": 1},
            {"identity": COUNT, "k": 1, "h": 2},
        ]),
        # with c_p = 3 the reflection identity reads M_p(1, 2) on both sides
        LONGEST: (E23, A2P1, max_difference_off_by_one((1, 2)), [
            {"identity": LONGEST, "k": 1, "h": 2},
        ]),
    },
    fe_certificate: {
        FE: (E23, A2P1, period_term_scaled, [{"identity": FE, "c_p": "3"}]),
    },
    decomposition_certificate: {
        # the negative Levi roots' factor enters the second form only
        CLEARING: (E23, A2P1, zeta_factor_scaled((0, -1)), [{"identity": CLEARING}]),
        ZETA_DEN: (E23, A2P1, normalization_misses_h_2, [{"identity": ZETA_DEN}]),
        # the zeta and the denominator trade a factor that is not reflected
        DEN_REFL: (E23, A2P1, max_difference_off_by_one((1, 3)), [
            {"identity": DEN_REFL},
        ]),
        NUM_REFL: (E23, A2P1, period_term_scaled, [{"identity": NUM_REFL}]),
    },
    involution_certificate: {
        STAYS: (E23, A2P1, subset_loses_w0_wp, [{"identity": STAYS, "w": IDENTITY}]),
        # the period reads the same f, so the sum identity holds
        F_INV: (E23, A2P1, rational_factors_scaled, [
            {"identity": F_INV, "w": IDENTITY},
            {"identity": F_INV, "w": W0_WP},
        ]),
        G_INV: (E23, A2P1, g_factors_scaled, [
            {"identity": G_INV, "w": IDENTITY},
            {"identity": G_INV, "w": W0_WP},
            {"identity": FG_SUM},
        ]),
        FG_SUM: (E23, A2P1, period_term_scaled, [{"identity": FG_SUM}]),
    },
    residue_certificate: {
        SURVIVING: (E23, A2P1, residue_term_scaled, [
            {"identity": SURVIVING, "perm": [0, 1, 2, 3, 4, 5]},
            {"identity": SUMMED},
        ]),
        VANISHES: (E23, A2P1, subset_loses_w0_wp, [
            {"identity": VANISHES, "perm": [1, 5, 3, 4, 2, 0]},  # w_0 w_p
        ]),
        SUMMED: (E23, A2P1, closed_sum_on_first_denominator, [{"identity": SUMMED}]),
    },
    pure_certificate: {
        # E(2, 3) at rank 2: 3 (1 + T + 4T^2), its constant now 4
        PURE_LINE: (E23, None, pure_constant_off_by_one, [
            {"identity": "p[2] = Q^1 * p[0]", "lhs": "12", "rhs": "16"},
            {"identity": "p[0] = Q^-1 * p[2]", "lhs": "4", "rhs": "3"},
        ]),
    },
}


def kind_of(identity):
    """An identity string's kind: fe_check_pure's lines are one kind."""
    if re.fullmatch(r"p\[\d+\] = Q\^-?\d+ \* p\[\d+\]", identity):
        return PURE_LINE
    return identity


@pytest.mark.parametrize(
    "certifier,kind,curve,pair,fault,failures",
    [
        pytest.param(certifier, kind, *case, id=kind)
        for certifier, kinds in KINDS.items()
        for kind, case in kinds.items()
    ],
)
def test_fault_fails_its_identity_at_its_witness(
    monkeypatch, certifier, kind, curve, pair, fault, failures
):
    assert certifier(curve, pair).passed
    fault(monkeypatch)
    cert = certifier(curve, pair)
    assert [
        {key: v for key, v in check.items() if key != "ok"}
        for check in cert.failures()
    ] == failures
    assert any(kind_of(check["identity"]) == kind for check in failures)


@pytest.mark.parametrize("curve", [E23, GENUS2], ids=["E23", "genus2"])
def test_every_recorded_identity_is_listed(curve):
    recorded = {}
    for certifier in KINDS:
        pairs = [None] if certifier is pure_certificate else [
            ("A", rank, p) for rank in (2, 3) for p in range(1, rank + 1)
        ]
        for pair in pairs:
            recorded.setdefault(certifier, set()).update(
                kind_of(check["identity"]) for check in certifier(curve, pair).checks
            )
        assert recorded[certifier] <= KINDS[certifier].keys(), certifier.__name__
    # only a failure records STAYS; every other listed kind is recorded
    assert set().union(*recorded.values()) == {
        kind for kinds in KINDS.values() for kind in kinds
    } - {STAYS}


def involution_fallbacks(monkeypatch, curve, pair):
    """The involution certificate, and how many of its substitution
    identities were decided on the expansions, by fe_substitution."""
    rs, W, pd = _pair(*pair)
    z = group_zeta(curve, rs, W, pd)
    decomp = omega_D_decompose(z)
    calls = []
    exact = nazeta.groupzeta.fe_substitution

    def counted(f, q, c_p):
        calls.append(f)
        return exact(f, q, c_p)

    monkeypatch.setattr(nazeta.groupzeta, "fe_substitution", counted)
    return fg_involution_check(z, W, decomp), len(calls)


def test_rewritten_atoms_pass_through_the_fallback(monkeypatch):
    assert involution_fallbacks(monkeypatch, E23, A2P1)[1] == 0
    g_numerator_atoms_as_lines(monkeypatch)
    cert, fallbacks = involution_fallbacks(monkeypatch, E23, A2P1)
    assert cert.passed
    assert fallbacks == 2  # the identity's g involution and its partner's


@pytest.mark.parametrize("kind", [F_INV, G_INV])
def test_involution_faults_fail_through_the_fallback(monkeypatch, kind):
    curve, pair, fault, failures = KINDS[involution_certificate][kind]
    fault(monkeypatch)
    cert, fallbacks = involution_fallbacks(monkeypatch, curve, pair)
    assert [
        {key: v for key, v in check.items() if key != "ok"}
        for check in cert.failures()
    ] == failures
    assert fallbacks == 2  # the scaled identity and its partner w_0 w_p
