"""Iterated residues of the full-rank period, the oracle for the
closed Weyl-subset formula.

The full period lives in variables u_1..u_n, one per simple root,
through lambda = rho + sum s_j lambda_j and u_j = q^{-s_j}.  A pairing
<lambda, alpha^vee> = h + sum k_j s_j, with k the coroot coordinates of
alpha and h its coroot height, turns a completed zeta factor into
q^{(g-1)h} U^{-(g-1)} P(q^{-h} U) / ((1 - q^{-h} U)(1 - q^{1-h} U)) with
U = prod u_j^{k_j}, kept as atoms (multivar.AtomProduct) built from root
data and the curve's P alone, never from the closed side.

Collapsing all variables but u_p with R_k[f] = -Res_{u_k=1}[f/u_k]
(log q times the s_k-residue at 0) must reproduce the closed formula
exactly, stripped special values included: each residue's 1/log q turns
the honest residue of the completed zeta at 1 into the stripped value.
R_k keeps products factored and is linear, so the period's residue is
the sum of the summands' residues, expanded once at the end.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import RationalFunction
from .certificate import Certificate
from .curve import CurveData, expand_sum
from .errors import CapabilityError, DomainError
from .groupzeta import _weyl_factors
from .multivar import LINE, AtomProduct, LaurentPoly
from .multivar import collapse_sum, residue_at_one_factored
from .rootsys import ParabolicData, RootSystem, WeylElement, WeylGroup

RANK_CAP = 4


def _zeta_hat_atoms(
    c: CurveData, nvars: int, ks: tuple[int, ...], h: int, e: int = 1
) -> AtomProduct:
    """Completed zeta at h + sum k_j s_j, to the power e = +-1, in atoms.

    q^{(g-1)h} U^{-(g-1)} P(U q^{-h}) / ((1 - U q^{-h})(1 - U q^{1-h}))
    with U = prod u_j^{k_j}.
    """
    q, g = Fraction(c.q), c.g
    mono = tuple(-(g - 1) * e * k for k in ks)
    return (
        AtomProduct(LaurentPoly.make(nvars, {mono: q ** ((g - 1) * h * e)}))
        * AtomProduct.atom(nvars, c.P, q**-h, ks, e)
        * AtomProduct.atom(nvars, LINE, q**-h, ks, -e)
        * AtomProduct.atom(nvars, LINE, q ** (1 - h), ks, -e)
    )


def weyl_term_full(
    c: CurveData, rs: RootSystem, W: WeylGroup, w: WeylElement
) -> AtomProduct:
    """One Weyl summand of the full period in u_1..u_n, factored."""
    n = rs.rank
    q = Fraction(c.q)
    term = AtomProduct(LaurentPoly.const(n, 1))
    winv = w.inverse()
    for s_idx in rs.simple_indices():
        beta = winv.apply(s_idx)
        ks, h = rs.coroot_coords[beta], rs.coroot_height(beta)
        # <w lambda - rho, alpha^vee> = <lambda, beta^vee> - 1
        term = term * AtomProduct.atom(n, LINE, q ** (1 - h), ks, -1)
    for idx in W.inversion_set(w):
        ks, h = rs.coroot_coords[idx], rs.coroot_height(idx)
        term = term * _zeta_hat_atoms(c, n, ks, h) * _zeta_hat_atoms(c, n, ks, h + 1, -1)
    return term


def iterated_residue(
    f: AtomProduct,
    pd: ParabolicData,
    order: tuple[int, ...] | None = None,
) -> AtomProduct:
    """Collapse all variables except u_p by repeated R_k, ascending k.

    The result is a factored product in u_p alone (collapse_sum expands
    it).  ``order`` (0-based variable indices) overrides the default
    left-to-right order; the kept variable must not appear in it.
    """
    n = f.num.nvars
    keep = pd.p0
    if order is None:
        order = tuple(k for k in range(n) if k != keep)
    if keep in order:
        raise DomainError("residue order must skip the kept variable")
    for k in order:
        f = residue_at_one_factored(f, k)
    return f


def residue_period(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> RationalFunction:
    """The period of (G, P) as the sum of the summands' iterated residues."""
    if rs.rank > RANK_CAP:
        raise CapabilityError(f"residue engine capped at rank {RANK_CAP}")
    residues = [iterated_residue(weyl_term_full(c, rs, W, w), pd) for w in W.elements]
    return collapse_sum(residues, pd.p0)


def residue_route_equivalence(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> Certificate:
    """Certify that iterated residues reproduce the closed formula.

    Checks, exactly: (a) each w outside the surviving subset has
    vanishing iterated residue; (b) each surviving w's iterated residue
    equals its closed-formula summand; (c) the totals agree, the residues
    collapsed together against one expand_sum of the closed summands'
    factored forms.  Every check is recorded, a failed one with the
    permutation of its w.
    """
    if rs.rank > RANK_CAP:
        raise CapabilityError(f"residue engine capped at rank {RANK_CAP}")
    cert = Certificate(f"residue route {rs.type_label}{rs.rank} p={pd.p}")
    surviving = {w.perm for w in pd.weyl_subset}
    residues, closed_terms = [], []
    for w in W.elements:
        res = iterated_residue(weyl_term_full(c, rs, W, w), pd)
        if w.perm in surviving:
            closed = _weyl_factors(c, rs, W, pd, w)
            ok = collapse_sum([res], pd.p0) == closed.expand(c)
            identity = "surviving term matches closed formula"
            residues.append(res)
            closed_terms.append(closed)
        else:
            ok = res.is_zero()
            identity = "non-surviving term vanishes"
        witness = {} if ok else {"perm": list(w.perm)}
        cert.record(identity, ok, **witness)
    cert.record(
        "summed residues equal the closed period",
        collapse_sum(residues, pd.p0) == expand_sum(c, closed_terms),
    )
    return cert
