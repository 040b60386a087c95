"""Per-root products of zeta factors, the oracle for the summands built
from root keys and net per-root ratios.

``groupzeta`` builds the inversion-set ratio once per distinct root key
and takes it to the key's count, reading the keys from
``ParabolicData.keys``.  These are the same summands built the plain
way: one completed zeta factor (or ratio of two) multiplied in for every
root, with the key computed from that root's inner products, which
are formed here from the Gram matrix.

``residues.weyl_term_full`` adds only the atoms each inversion's ratio
leaves after cancelling.  ``weyl_term_full`` here multiplies in both
completed zeta factors of the ratio, every atom and monomial of each,
and lets the dict updates cancel.
"""

from fractions import Fraction

from multivar_oracle import atom_product
from nazeta.curve import CurveData, FactorProduct, zeta_factors
from nazeta.groupzeta import _rational_factors, _zeta_num_factors
from nazeta.multivar import Atom, AtomProduct
from nazeta.rootsys import ParabolicData, RootSystem, WeylElement, WeylGroup


def inner(rs: RootSystem, u, v):
    """(u, v) for u, v in simple-root coordinates, from the Gram matrix."""
    n = rs.rank
    return sum(u[i] * v[j] * rs.gram[i][j] for i in range(n) for j in range(n))


def root_norm2(rs: RootSystem, idx: int) -> int:
    return inner(rs, rs.roots[idx], rs.roots[idx])


def pairing_with_coroot(rs: RootSystem, v, idx: int) -> Fraction:
    """<v, alpha^vee> = 2 (v, alpha)/(alpha, alpha) for the root alpha."""
    return Fraction(2 * inner(rs, v, rs.roots[idx]), root_norm2(rs, idx))


def coroot_vector(rs: RootSystem, idx: int) -> tuple[Fraction, ...]:
    """alpha^vee = 2 alpha/(alpha, alpha) in simple-root coordinates."""
    aa = root_norm2(rs, idx)
    return tuple(Fraction(2 * c, aa) for c in rs.roots[idx])


def root_key(rs: RootSystem, pd: ParabolicData, idx: int) -> tuple[int, int]:
    """(<lambda_p, alpha^vee>, <rho, alpha^vee>), from the inner products."""
    k = pairing_with_coroot(rs, rs.weights[pd.p0], idx)
    h = pairing_with_coroot(rs, rs.rho, idx)
    assert k.denominator == h.denominator == 1
    return int(k), int(h)


def weyl_factors(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """The single-w summand of the period, one ratio per inversion."""
    term = _rational_factors(c, rs, pd, w)
    for idx in W.inversion_set(w):
        k, h = root_key(rs, pd, idx)
        term = term * _zeta_num_factors(c, k, h) * zeta_factors(c, k, h + 1) ** -1
    return term


def g_factors(
    c: CurveData, rs: RootSystem, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """The product of stripped zeta factors, one per root of w^{-1}Phi^-."""
    winv = w.inverse()
    term = FactorProduct(Fraction(1))
    for neg in range(rs.n_positive, len(rs.roots)):
        k, h = root_key(rs, pd, winv.apply(neg))
        term = term * _zeta_num_factors(c, k, h)
    return term


def weyl_term_full(
    c: CurveData, rs: RootSystem, W: WeylGroup, w: WeylElement
) -> AtomProduct:
    """One Weyl summand of the full period in u_1..u_n, from the definition.

    The completed zeta at h + sum k_j s_j, to the power e = +-1, is
    q^{(g-1)h e} U^{-(g-1)e} P(q^{-h} U)^e (1 - q^{-h} U)^{-e}
    (1 - q^{1-h} U)^{-e} with U = prod u_j^{k_j}.
    """
    n, g = rs.rank, c.g
    exps: dict[Atom, int] = {}
    qpow, mono = 0, [0] * n

    def zeta_hat(ks: tuple[int, ...], h: int, e: int) -> None:
        nonlocal qpow
        qpow += (g - 1) * h * e
        for i, k in enumerate(ks):
            mono[i] -= (g - 1) * e * k
        for atom, a in (("P", -h, ks), e), (("L", -h, ks), -e), (("L", 1 - h, ks), -e):
            exps[atom] = exps.get(atom, 0) + a

    winv = w.inverse()
    for s_idx in rs.simple_indices():
        beta = winv.apply(s_idx)
        atom = ("L", 1 - rs.coroot_height(beta), rs.coroot_coords[beta])
        exps[atom] = exps.get(atom, 0) - 1
    for idx in W.inversion_set(w):
        ks, h = rs.coroot_coords[idx], rs.coroot_height(idx)
        zeta_hat(ks, h, 1)
        zeta_hat(ks, h + 1, -1)
    return atom_product(n, {tuple(mono): Fraction(c.q) ** qpow}, exps)
