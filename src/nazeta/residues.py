"""Iterated residues of the full-rank period, the oracle for the
closed Weyl-subset formula.

The full period lives in variables u_1..u_n, one per simple root,
through lambda = rho + sum s_j lambda_j and u_j = q^{-s_j}.  A pairing
<lambda, alpha^vee> = h + sum k_j s_j, with k the coroot coordinates of
alpha and h its coroot height, turns a completed zeta factor into
q^{(g-1)h} U^{-(g-1)} P(q^{-h} U) / ((1 - q^{-h} U)(1 - q^{1-h} U)) with
U = prod u_j^{k_j}, kept as atoms (multivar.AtomProduct) keyed by their
q-exponents and built from root data and the curve's q and P alone, never
from the closed side.  A summand takes each inversion's ratio of two such
factors net: the atom 1 - q^{-h} U and the monomial cancel in it.

Collapsing all variables but u_p with R_k[f] = -Res_{u_k=1}[f/u_k]
(log q times the s_k-residue at 0) must reproduce the closed formula
exactly, stripped special values included: each residue's 1/log q turns
the honest residue of the completed zeta at 1 into the stripped value.
R_k keeps products factored and is linear, so the period's residue is
the sum of the summands' residues, expanded to unreduced integer parts;
the certificate's identities are decided on such parts by
cross-multiplication, and only the period is reduced, once.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, RationalFunction, _same_ratio
from .certificate import Certificate
from .curve import CurveData, FactorProduct, _expand_parts
from .groupzeta import _ratio_table, _weyl_factors
from .multivar import Atom, AtomProduct, _collapse_parts, _product, residue_at_one_factored
from .rootsys import ParabolicData, RootSystem, WeylElement, WeylGroup


def weyl_term_full(
    c: CurveData, rs: RootSystem, W: WeylGroup, w: WeylElement
) -> AtomProduct:
    """One Weyl summand of the full period in u_1..u_n, factored.

    The completed zeta at h + sum k_j s_j is q^{(g-1)h} U^{-(g-1)}
    P(q^{-h} U) (1 - q^{-h} U)^{-1} (1 - q^{1-h} U)^{-1} with
    U = prod u_j^{k_j}.  In the ratio of the factors at h and h + 1 the
    atom 1 - q^{-h} U and U^{-(g-1)} cancel, so an inversion adds
    q^{-(g-1)} P(q^{-h} U) (1 - q^{-h-1} U) / ((1 - q^{1-h} U) P(q^{-h-1} U)).
    Distinct roots have distinct coordinates k, so each atom is set once.
    """
    exps: dict[Atom, int] = {}
    winv = w.inverse()
    for s_idx in rs.simple_indices():
        beta = winv.apply(s_idx)
        # <w lambda - rho, alpha^vee> = <lambda, beta^vee> - 1
        exps[("L", 1 - rs.coroot_height(beta), rs.coroot_coords[beta])] = -1
    inversions = W.inversion_set(w)
    for idx in inversions:
        ks, h = rs.coroot_coords[idx], rs.coroot_height(idx)
        exps[("P", -h, ks)] = 1
        exps[("L", 1 - h, ks)] = -1
        exps[("P", -h - 1, ks)] = -1
        exps[("L", -h - 1, ks)] = 1
    content = Fraction(c.q) ** ((1 - c.g) * len(inversions))
    return _product(rs.rank, content, {(0,) * rs.rank: 1}, exps)


def iterated_residue(
    c: CurveData, f: AtomProduct, pd: ParabolicData, table: dict
) -> AtomProduct:
    """Collapse all variables except u_p by repeated R_k, ascending k.

    The result is a factored product in u_p alone (_collapse_parts
    expands it); ``table`` is the run's atom table (see multivar).
    """
    for k in range(f.nvars):
        if k != pd.p0:
            f = residue_at_one_factored(c, f, k, table)
    return f


def residue_period(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> RationalFunction:
    """The period of (G, P) as the sum of the summands' iterated residues."""
    table: dict = {}
    residues = [
        iterated_residue(c, weyl_term_full(c, rs, W, w), pd, table)
        for w in W.elements
    ]
    parts = _collapse_parts(c, residues, pd.p0, table)
    return RationalFunction.make(*map(Poly.from_ints, parts), "u")


def residue_route_equivalence(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> Certificate:
    """Certify that iterated residues reproduce the closed formula.

    Checks, exactly: (a) each w outside the surviving subset has
    vanishing iterated residue; (b) each surviving w's iterated residue
    equals its closed-formula summand; (c) the totals agree, the residues
    collapsed together against one expansion of the closed summands'
    factored forms, each by cross-multiplication.  Every check is
    recorded, a failed one with the permutation of its w.
    """
    cert = Certificate(f"residue route {rs.type_label}{rs.rank} p={pd.p}")
    surviving = {w.perm for w in pd.weyl_subset}
    ratios = _ratio_table(c, rs, pd)
    table, powers = {}, {}  # residue side's atom table, closed side's powers
    residues, closed_terms = [], []

    def agree(res: list[AtomProduct], closed: list[FactorProduct]) -> bool:
        return _same_ratio(
            *_collapse_parts(c, res, pd.p0, table), *_expand_parts(c, closed, powers)
        )

    for w in W.elements:
        res = iterated_residue(c, weyl_term_full(c, rs, W, w), pd, table)
        if w.perm in surviving:
            closed = _weyl_factors(c, rs, W, pd, w, ratios)
            ok = agree([res], [closed])
            identity = "surviving term matches closed formula"
            residues.append(res)
            closed_terms.append(closed)
        else:
            ok = res.is_zero()
            identity = "non-surviving term vanishes"
        witness = {} if ok else {"perm": list(w.perm)}
        cert.record(identity, ok, **witness)
    cert.record(
        "summed residues equal the closed period", agree(residues, closed_terms)
    )
    return cert
