"""Fraction-arithmetic oracles for the integer kernels.

``RationalFunction.make`` and ``curve.expand_sum`` run over Z.  These are
the same reductions done the plain way, on ``Fraction`` polynomials: a
monic Euclidean gcd, exact division and a monic denominator for
``make``; and for ``expand_sum`` each factored term expanded on its own,
as a product of atom polynomials, then summed pairwise over the product
of denominators.
"""

from fractions import Fraction

from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import Atom, CurveData, FactorProduct


def _monic(p: Poly) -> Poly:
    return p.scale(1 / p.leading()) if p else p


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over Q, every remainder made
    monic to keep the coefficients small (zero if both are)."""
    while b:
        a, b = b, _monic(a.divmod(b)[1])
    return _monic(a)


def make(num: Poly, den: Poly, var: str = "u") -> RationalFunction:
    """The reduced form of num/den with a monic denominator."""
    if num.is_zero():
        return RationalFunction(Poly.zero(), Poly.one(), var)
    g = fraction_gcd(num, den)
    if g.degree > 0:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lc = den.leading()
    return RationalFunction(num.scale(1 / lc), den.scale(1 / lc), var)


def add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return make(a.num * b.den + b.num * a.den, a.den * b.den, a.var)


def atom_poly(c: CurveData, atom: Atom) -> Poly:
    """1 - q^j u^m for ("L", j, m), P(q^j u^m) for ("P", j, m)."""
    kind, j, m = atom
    x = Fraction(c.q) ** j
    if kind == "L":
        return Poly.monomial(m, -x) + Poly.one()
    # P_i x^i lands on u^(i*m); placed here, not by the library's substitute
    out = [Fraction(0)] * (m * c.P.degree + 1)
    for i, a in enumerate(c.P.coeffs):
        out[i * m] += a * x**i
    return Poly.from_list(out)


def expand(c: CurveData, t: FactorProduct) -> RationalFunction:
    num = Poly.constant(t.const) * Poly.monomial(max(t.upow, 0))
    den = Poly.monomial(max(-t.upow, 0))
    for atom, e in t.atoms:
        if e > 0:
            num = num * atom_poly(c, atom) ** e
        else:
            den = den * atom_poly(c, atom) ** -e
    return make(num, den)


def expand_sum(c: CurveData, terms: list[FactorProduct]) -> RationalFunction:
    total = make(Poly.zero(), Poly.one())
    for t in terms:
        total = add(total, expand(c, t))
    return total
