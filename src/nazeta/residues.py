"""Iterated residues of the full-rank period, the oracle for the
closed Weyl-subset formula.

The full period lives in variables u_1..u_n, one per simple root,
through the coordinates lambda = rho + sum s_j lambda_j and
u_j = q^{-s_j}.  Every pairing <lambda, alpha^vee> = h + sum k_j s_j
turns a completed zeta factor into a multivariate rational function
with q^{-(h + sum k_j s_j)} realized as q^{-h} prod u_j^{k_j}.

Collapsing all variables but u_p with the operator
R_k[f] = -Res_{u_k=1}[f/u_k] (which is log q times the s_k-residue at
0) must reproduce the closed formula exactly, including its stripped
special values: the 1/log q produced by each residue is precisely what
turns the honest residue of the completed zeta at 1 into the stripped
rational value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RationalFunction
from .certificate import Certificate
from .curve import CurveData
from .errors import CapabilityError, DomainError
from .groupzeta import weyl_term
from .multivar import LaurentPoly, MultiRationalFunction, residue_at_one
from .rootsys import ParabolicData, RootSystem, WeylElement, WeylGroup

RANK_CAP = 3


@dataclass(frozen=True)
class SymbolicWeight:
    """Pairing data of lambda = rho + sum s_j lambda_j against a coroot.

    ``monomial(k_vec, h)`` realizes q^{-(<lambda, alpha^vee>)} with
    <lambda, alpha^vee> = h + sum_j k_j s_j.
    """

    rs: RootSystem

    def pairing(self, root_idx: int) -> tuple[tuple[int, ...], int]:
        rs = self.rs
        ks = tuple(rs.weight_pairing(j, root_idx) for j in range(rs.rank))
        return ks, rs.coroot_height(root_idx)


def _zeta_hat_multi(
    c: CurveData, nvars: int, ks: tuple[int, ...], h: int
) -> MultiRationalFunction:
    """Completed zeta at h + sum k_j s_j as a function of u_1..u_n.

    Assembles q^{(g-1)h} U^{-(g-1)} P(U q^{-h}) /
    ((1 - U q^{-h})(1 - U q^{1-h})) with U = prod u_j^{k_j}.
    """
    q = Fraction(c.q)
    g = c.g
    if all(k == 0 for k in ks):
        if h in (0, 1):
            raise DomainError("pole argument in constant zeta factor")
        val = q ** ((g - 1) * h) * c.P.evaluate(q**-h)
        val /= (1 - q**-h) * (1 - q ** (1 - h))
        return MultiRationalFunction.const(nvars, val)
    zero = (0,) * nvars
    num = LaurentPoly.make(nvars, {})
    coeff = Fraction(1)
    for i, a in enumerate(c.P.coeffs):
        if a != 0:
            mono = tuple(k * i for k in ks)
            num = num + LaurentPoly.make(nvars, {mono: a * coeff})
        coeff *= q**-h
    d1 = LaurentPoly.const(nvars, 1) - LaurentPoly.make(
        nvars, {ks: q**-h}
    )
    d2 = LaurentPoly.const(nvars, 1) - LaurentPoly.make(
        nvars, {ks: q ** (1 - h)}
    )
    shift = LaurentPoly.make(
        nvars, {tuple(-(g - 1) * k for k in ks): q ** ((g - 1) * h)}
    )
    return MultiRationalFunction.make(num * shift, d1 * d2)


def weyl_term_full(
    c: CurveData, rs: RootSystem, W: WeylGroup, w: WeylElement
) -> MultiRationalFunction:
    """One Weyl summand of the full period, in u_1..u_n."""
    n = rs.rank
    sw = SymbolicWeight(rs)
    term = MultiRationalFunction.const(n, 1)
    winv = w.inverse()
    for s_idx in rs.simple_indices():
        beta = winv.apply(s_idx)
        ks, h = sw.pairing(beta)
        # <w lambda - rho, alpha^vee> = <lambda, beta^vee> - 1
        mono = LaurentPoly.make(n, {ks: Fraction(c.q) ** (1 - h)})
        denom = LaurentPoly.const(n, 1) - mono
        term = term / MultiRationalFunction.from_poly(denom)
    for idx in W.inversion_set(w):
        ks, h = sw.pairing(idx)
        term = term * _zeta_hat_multi(c, n, ks, h)
        term = term / _zeta_hat_multi(c, n, ks, h + 1)
    return term


def period_full(
    c: CurveData, rs: RootSystem, W: WeylGroup
) -> MultiRationalFunction:
    """The full period: sum over the whole Weyl group."""
    if rs.rank > RANK_CAP:
        raise CapabilityError(f"residue engine capped at rank {RANK_CAP}")
    total = MultiRationalFunction.const(rs.rank, 0)
    for w in W.elements:
        total = total + weyl_term_full(c, rs, W, w)
    return total


def iterated_residue(
    f: MultiRationalFunction,
    pd: ParabolicData,
    order: tuple[int, ...] | None = None,
) -> RationalFunction:
    """Collapse all variables except u_p by repeated R_k, ascending k.

    ``order`` (0-based variable indices) overrides the default
    left-to-right order; the kept variable must not appear in it.
    """
    n = f.nvars
    keep = pd.p0
    if order is None:
        order = tuple(k for k in range(n) if k != keep)
    if keep in order:
        raise DomainError("residue order must skip the kept variable")
    g = f
    for k in order:
        g = residue_at_one(g, k)
    return g.to_univariate(keep, "u")


def residue_route_equivalence(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> Certificate:
    """Certify that iterated residues reproduce the closed formula.

    Checks, exactly: (a) each w outside the surviving subset has
    vanishing iterated residue; (b) each surviving w's iterated residue
    equals its closed-formula summand; (c) the totals agree.  Every
    check is recorded, a failed one with the permutation of its w.
    """
    if rs.rank > RANK_CAP:
        raise CapabilityError(f"residue engine capped at rank {RANK_CAP}")
    cert = Certificate(
        f"residue route {rs.type_label}{rs.rank} p={pd.p}"
    )
    surviving = {w.perm for w in pd.weyl_subset}
    total = RationalFunction.const(0, "u")
    closed_total = RationalFunction.const(0, "u")
    for w in W.elements:
        collapsed = iterated_residue(weyl_term_full(c, rs, W, w), pd)
        if w.perm in surviving:
            closed = weyl_term(c, rs, W, pd, w)
            ok = collapsed == closed
            identity = "surviving term matches closed formula"
            total = total + collapsed
            closed_total = closed_total + closed
        else:
            ok = collapsed.is_zero()
            identity = "non-surviving term vanishes"
        witness = {} if ok else {"perm": list(w.perm)}
        cert.record(identity, ok, **witness)
    cert.record(
        "summed residues equal the closed period", total == closed_total
    )
    return cert
