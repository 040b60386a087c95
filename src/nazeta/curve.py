"""Curves over finite fields: arithmetic data and exact zeta values.

A curve enters the library only through its genus g, field size q and
Weil numerator P of degree 2g, validated against P(0) = 1 and the
coefficient symmetry a_{2g-i} = q^{g-i} a_i.  The completed zeta
q^{(g-1)s} P(q^{-s}) / ((1-q^{-s})(1-q^{1-s})) is realized exactly as a
rational function of u = q^{-s}, for any integer-linear argument
k*s + h, and its residue at s = 1 is kept in "stripped" form, multiplied
by log q, so that every special value in the system is an honest
rational number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    RationalFunction,
    parse_rational,
    poly_complex_roots,
    series_exp,
)
from .errors import DomainError, PoleError, ValidationError


@dataclass(frozen=True)
class CurveData:
    """Genus, field size and Weil numerator of a curve over F_q."""

    g: int
    q: int
    P: Poly

    def __post_init__(self):
        if self.g < 1:
            raise ValidationError("genus must be >= 1")
        if self.q < 2:
            raise ValidationError("field size q must be >= 2")
        if self.P.degree != 2 * self.g:
            raise ValidationError(
                f"numerator degree {self.P.degree} != 2g = {2 * self.g}"
            )
        if self.P[0] != 1:
            raise ValidationError("numerator must have constant term 1")
        for i in range(2 * self.g + 1):
            lhs = self.P[2 * self.g - i]
            rhs = Fraction(self.q) ** (self.g - i) * self.P[i]
            if lhs != rhs:
                raise ValidationError(
                    "coefficient symmetry a_{2g-i} = q^(g-i) a_i fails at "
                    f"i={i}: {lhs} != {rhs}"
                )

    def weil_numbers_check(self, tol: float = 1e-6) -> bool:
        """Verify all inverse roots have modulus sqrt(q).

        The Hasse-Weil bound a_i^2 <= C(2g, i)^2 q^i on every coefficient
        is checked exactly first; it holds whenever the roots are where
        they should be, and it keeps huge coefficients away from the
        float root finder.  The roots themselves are then checked
        numerically.
        """
        for i, a in enumerate(self.P.coeffs):
            if a * a > math.comb(2 * self.g, i) ** 2 * self.q**i:
                return False
        target = float(self.q) ** 0.5
        for z, _ in poly_complex_roots(self.P, tol=1e-10):
            if abs(abs(z) * target - 1.0) > tol:
                return False
        return True

    def point_counts(self, upto: int) -> list[int]:
        """#X(F_{q^m}) for m = 1..upto, from the zeta series."""
        zeta = artin_zeta(self)
        from .algebra import series_log_coefficients

        cs = series_log_coefficients(zeta, upto)
        counts = []
        for m in range(1, upto + 1):
            val = m * cs[m - 1]
            if val.denominator != 1:
                raise ValidationError("non-integer point count")
            counts.append(int(val))
        return counts


def curve_from_numerator(g: int, q: int, coeffs) -> CurveData:
    """Build a curve directly from numerator coefficients."""
    return CurveData(g, q, Poly.from_list(coeffs))


def curve_from_point_counts(g: int, q: int, counts: list[int]) -> CurveData:
    """Recover the Weil numerator from the counts N_1..N_g.

    The zeta series exp(sum N_m t^m / m) times (1-t)(1-qt) gives the
    lower half of P; the upper half follows from coefficient symmetry.
    """
    if len(counts) != g:
        raise DomainError(f"need exactly g = {g} point counts")
    if any(n < 1 for n in counts):
        raise DomainError("point counts must be positive")
    cs = [Fraction(n, m + 1) for m, n in enumerate(counts)]
    z_series = series_exp(cs, g)
    # multiply by (1 - t)(1 - q t) = 1 - (q+1) t + q t^2, truncated
    low = []
    for i in range(g + 1):
        acc = z_series[i]
        if i >= 1:
            acc -= (q + 1) * z_series[i - 1]
        if i >= 2:
            acc += q * z_series[i - 2]
        low.append(acc)
    full = list(low) + [Fraction(0)] * g
    for i in range(g):
        full[2 * g - i] = Fraction(q) ** (g - i) * low[i]
    curve = CurveData(g, q, Poly.from_list(full))
    if curve.point_counts(g) != list(counts):
        raise ValidationError("point counts do not round-trip")
    return curve


def elliptic_curve(q: int, n_points: int) -> CurveData:
    """Genus-one curve with the given number of rational points."""
    return curve_from_point_counts(1, q, [n_points])


def artin_zeta(c: CurveData) -> RationalFunction:
    """P(t) / ((1-t)(1-qt)) as a reduced rational function of t."""
    den = Poly.of(1, -1) * Poly.of(1, -c.q)
    return RationalFunction.make(c.P, den, "t")


@dataclass(frozen=True)
class ZetaFactor:
    """The completed zeta at argument k*s + h, as a function of u."""

    k: int
    h: int
    value: RationalFunction


def completed_zeta_factor(c: CurveData, k: int, h: int) -> ZetaFactor:
    """Completed zeta at k*s + h in the variable u = q^{-s}.

    Assembles u^{-k(g-1)} q^{(g-1)h} P(u^k q^{-h}) over
    (1 - u^k q^{-h})(1 - u^k q^{1-h}) and clears negative powers.  The
    argument values 0 and 1, reached only when k = 0, are poles; callers
    wanting the stripped special value at 1 use zeta_special_residue.
    """
    if k == 0 and h in (0, 1):
        raise PoleError(
            f"completed zeta has a pole at the constant argument {h}; "
            "use zeta_special_residue for the stripped value at 1"
        )
    q = Fraction(c.q)
    g = c.g
    if k == 0:
        val = q ** ((g - 1) * h) * c.P.evaluate(q**-h)
        val /= (1 - q**-h) * (1 - q ** (1 - h))
        return ZetaFactor(k, h, RationalFunction.const(val, "u"))
    # polynomial parts in u^k before clearing: k may be negative
    absk = abs(k)
    sign = 1 if k > 0 else -1
    # P(u^k q^{-h}) with u^k replaced by x^(sign): build in x = u then clear
    num = _eval_poly_at_monomial(c.P, q**-h, k)
    d1 = _one_minus_monomial(q**-h, k)
    d2 = _one_minus_monomial(q ** (1 - h), k)
    f = num / (d1 * d2)
    f = f.mul_monomial(-k * (g - 1)).scale(q ** ((g - 1) * h))
    return ZetaFactor(k, h, f)


def _eval_poly_at_monomial(p: Poly, coeff: Fraction, k: int) -> RationalFunction:
    """p(coeff * u^k) as a rational function of u, k any nonzero integer."""
    f = RationalFunction.const(0, "u")
    ci = Fraction(1)
    for i, a in enumerate(p.coeffs):
        if a != 0:
            f = f + RationalFunction.const(a * ci, "u").mul_monomial(k * i)
        ci *= coeff
    return f


def _one_minus_monomial(coeff: Fraction, k: int) -> RationalFunction:
    return RationalFunction.const(1, "u") - RationalFunction.const(
        coeff, "u"
    ).mul_monomial(k)


def zeta_special_residue(c: CurveData) -> Fraction:
    """Stripped residue of the completed zeta at s = 1: q^g P(1/q)/(q-1).

    The log q factor carried by the honest residue is multiplied away, so
    the value is rational; by coefficient symmetry it also equals
    P(1)/(q-1).
    """
    q = Fraction(c.q)
    return q**c.g * c.P.evaluate(1 / q) / (q - 1)


def completed_zeta_value(c: CurveData, h: int) -> Fraction:
    """Constant value of the completed zeta at an integer h not in {0, 1}."""
    return completed_zeta_factor(c, 0, h).value.as_fraction()


def artin_zeta_value(c: CurveData, h: int) -> Fraction:
    """Value of the uncompleted zeta at an integer argument h >= 2."""
    q = Fraction(c.q)
    if h in (0, 1):
        raise PoleError("Artin zeta has poles at 0 and 1")
    return c.P.evaluate(q**-h) / ((1 - q**-h) * (1 - q ** (1 - h)))


def curve_to_json(c: CurveData) -> dict:
    return {
        "genus": c.g,
        "q": c.q,
        "numerator_coeffs": [str(x) for x in c.P.coeffs],
    }


def curve_from_json(data: dict) -> CurveData:
    """A curve from its JSON spec: genus, q and point counts or numerator."""
    if not isinstance(data, dict) or not (
        {"point_counts", "numerator_coeffs"} & data.keys()
    ):
        raise ValidationError(
            "curve spec needs either point_counts or numerator_coeffs"
        )
    try:
        g = int(data["genus"])
        q = int(data["q"])
        if "point_counts" in data:
            counts = [int(n) for n in data["point_counts"]]
        else:
            coeffs = [parse_rational(s) for s in data["numerator_coeffs"]]
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"malformed curve spec ({type(exc).__name__}: {exc})"
        ) from exc
    if "point_counts" in data:
        return curve_from_point_counts(g, q, counts)
    return curve_from_numerator(g, q, coeffs)
