"""Fraction-arithmetic oracles for the integer kernels.

``Poly`` stores a primitive integer list under a rational content, and
``RationalFunction.make`` and ``curve.expand_sum`` run over Z.  These are
the same operations done the plain way, on lists of ``Fraction``
coefficients (index = degree, trailing zeros stripped) with arithmetic of
their own: a monic Euclidean gcd, exact division and a monic denominator
for ``make``; for ``expand_sum`` each factored term expanded on its
own, as a product of atom polynomials, then added to the running sum
over the product of denominators and reduced; and for ``curve.product``
each factor expanded on its own and taken to its exponent, and its
integer-pair constant as a product of ``Fraction`` powers.  A ``Poly``
is built only from a result, to compare it with the library's.
"""

from fractions import Fraction

from nazeta.algebra import Poly, RationalFunction
from nazeta.curve import Atom, CurveData, FactorProduct

Coeffs = list[Fraction]


def trim(a) -> Coeffs:
    """a as Fractions, trailing zeros removed."""
    out = [Fraction(c) for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return add(a, [-c for c in b])


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def power(a: Coeffs, n: int) -> Coeffs:
    out = [Fraction(1)]
    for _ in range(n):
        out = mul(out, a)
    return out


def scale(a: Coeffs, c) -> Coeffs:
    return trim([x * c for x in a])


def monomial(k: int) -> Coeffs:
    return [Fraction(0)] * k + [Fraction(1)]


def poly_divmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder by long division over Q (b nonzero)."""
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], rem
    quot = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        if c:
            for j, v in enumerate(b):
                rem[i + j] -= c * v
    return trim(quot), trim(rem)


def evaluate(a: Coeffs, x) -> Fraction:
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def shift(a: Coeffs, x) -> Coeffs:
    """a(y + x), as the sum of a_i (y + x)^i."""
    out: Coeffs = []
    for i, c in enumerate(a):
        out = add(out, scale(power([Fraction(x), Fraction(1)], i), c))
    return out


def _monic(a: Coeffs) -> Coeffs:
    return scale(a, 1 / a[-1]) if a else a


def fraction_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd by the Euclidean algorithm over Q, every remainder made
    monic to keep the coefficients small (empty if both are)."""
    while b:
        a, b = b, _monic(poly_divmod(a, b)[1])
    return _monic(a)


def reduce(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """num/den in lowest terms, with a monic denominator (0/1 for num = 0)."""
    num, den = trim(num), trim(den)
    if not num:
        return [], [Fraction(1)]
    g = fraction_gcd(num, den)
    if len(g) > 1:
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    return scale(num, 1 / den[-1]), _monic(den)


def make(num: Coeffs, den: Coeffs, var: str = "u") -> RationalFunction:
    """The reduced form of num/den, as a RationalFunction to compare."""
    num, den = reduce(num, den)
    return RationalFunction(Poly.from_list(num), Poly.from_list(den), var)


def atom_poly(c: CurveData, atom: Atom) -> Coeffs:
    """1 - q^j u^m for ("L", j, m), P(q^j u^m) for ("P", j, m)."""
    kind, j, m = atom
    x = Fraction(c.q) ** j
    if kind == "L":
        return add([Fraction(1)], scale(monomial(m), -x))
    # P_i x^i lands on u^(i*m); placed here, not by the library's substitute
    out = [Fraction(0)] * (m * c.P.degree + 1)
    for i, a in enumerate(c.P.coeffs):
        out[i * m] += a * x**i
    return trim(out)


def expand(c: CurveData, t: FactorProduct) -> tuple[Coeffs, Coeffs]:
    """The term as an unreduced pair of coefficient lists."""
    num = scale(monomial(max(t.upow, 0)), t.const)
    den = monomial(max(-t.upow, 0))
    for atom, e in t.atoms:
        if e > 0:
            num = mul(num, power(atom_poly(c, atom), e))
        else:
            den = mul(den, power(atom_poly(c, atom), -e))
    return num, den


def expand_sum(c: CurveData, terms: list[FactorProduct]) -> RationalFunction:
    num, den = [], [Fraction(1)]
    for t in terms:
        a, b = expand(c, t)
        num, den = reduce(add(mul(num, b), mul(a, den)), mul(den, b))
    return make(num, den)


def product(c: CurveData, pairs: list[tuple[FactorProduct, int]]) -> RationalFunction:
    """prod f^e over the pairs, each factor expanded and powered alone."""
    num, den = [Fraction(1)], [Fraction(1)]
    for f, e in pairs:
        a, b = expand(c, f)
        if e < 0:
            a, b = b, a
        num, den = mul(num, power(a, abs(e))), mul(den, power(b, abs(e)))
    return make(num, den)


def const_product(pairs: list[tuple[FactorProduct, int]]) -> Fraction:
    """prod const^e over the (factor, e) pairs, in Fractions."""
    out = Fraction(1)
    for f, e in pairs:
        out *= f.const**e
    return out
