"""Per-root products of zeta factors, the oracle for the key-count summands.

``groupzeta`` builds the inversion-set ratio once per distinct root key
and takes it to the key's count.  These are the same summands built the
plain way: one completed zeta factor (or ratio of two) multiplied in for
every root, with the key read off that root.
"""

from fractions import Fraction

from nazeta.curve import CurveData, FactorProduct, zeta_factors
from nazeta.groupzeta import _rational_factors, _root_key, _zeta_num_factors
from nazeta.rootsys import ParabolicData, RootSystem, WeylElement, WeylGroup


def weyl_factors(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """The single-w summand of the period, one ratio per inversion."""
    term = _rational_factors(c, rs, pd, w)
    for idx in W.inversion_set(w):
        k, h = _root_key(rs, pd, idx)
        term = term * _zeta_num_factors(c, k, h) * zeta_factors(c, k, h + 1) ** -1
    return term


def g_factors(
    c: CurveData, rs: RootSystem, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """The product of stripped zeta factors, one per root of w^{-1}Phi^-."""
    winv = w.inverse()
    term = FactorProduct(Fraction(1))
    for neg in range(rs.n_positive, len(rs.roots)):
        k, h = _root_key(rs, pd, winv.apply(neg))
        term = term * _zeta_num_factors(c, k, h)
    return term
