"""Test entry points to the factored residue route: a checked
``AtomProduct`` constructor from rational terms (the library builds its
products with ``multivar._product``), and the collapse of any sum of
products to one reduced fraction (the library's is inside
``residues.residue_period``)."""

import math
from fractions import Fraction

from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import CurveData
from nazeta.errors import CapabilityError, DomainError
from nazeta.multivar import MAX_VARS, AtomProduct, _collapse_parts, _product


def atom_product(nvars: int, terms, atoms) -> AtomProduct:
    """The product of a rational Laurent polynomial (monomial -> rational)
    and atom powers ((kind, j, k) -> exponent)."""
    if not 1 <= nvars <= MAX_VARS:
        raise CapabilityError(f"supported variable counts are 1..{MAX_VARS}")
    if any(len(m) != nvars for m in terms):
        raise DomainError("monomial arity mismatch")
    for kind, _, k in atoms:
        if kind not in ("L", "P") or len(k) != nvars or not any(k):
            raise DomainError(f"malformed atom {(kind, k)}")
    coeffs = [(tuple(m), Fraction(c)) for m, c in terms.items()]
    den = math.lcm(*(c.denominator for _, c in coeffs))
    ints = {m: c.numerator * (den // c.denominator) for m, c in coeffs}
    exps = {(kind, j, tuple(k)): e for (kind, j, k), e in atoms.items()}
    return _product(nvars, Fraction(1, den), ints, exps)


def collapse_sum(c: CurveData, terms, j: int) -> RationalFunction:
    """The sum of products in u_j alone, as one reduced rational function."""
    parts = _collapse_parts(c, terms, j, {})
    return RationalFunction.make(*map(Poly.from_ints, parts), "u")
