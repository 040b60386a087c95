"""The Artin zeta as a power series, the oracle for the Newton bridge.

``curve`` turns point counts into a Weil numerator and back by Newton's
identities on power sums.  These are the same maps done through the zeta
series Z(t) = exp(sum N_m t^m / m) = P(t) / ((1-t)(1-qt)): the numerator's
lower half as the truncated series of exp(...) times (1-t)(1-qt), and the
counts as m [t^m] log Z of the reduced rational function.  The power sums
themselves have a plain oracle too: Newton's recurrence on the ``Fraction``
coefficients, where ``power_sums`` runs it over Z.
"""

from fractions import Fraction

from nazeta.algebra import Poly, RationalFunction, series_exp, series_log_coefficients
from nazeta.curve import CurveData
from nazeta.errors import ValidationError


def artin_zeta(c: CurveData) -> RationalFunction:
    """P(t) / ((1-t)(1-qt)) as a reduced rational function of t."""
    den = Poly.of(1, -1) * Poly.of(1, -c.q)
    return RationalFunction.make(c.P, den, "t")


def brute_force_numerator(g, q, counts):
    """Expand exp(sum N_m t^m/m)(1-t)(1-qt) as a raw series through t^g."""
    cs = [Fraction(n, m + 1) for m, n in enumerate(counts)]
    z = series_exp(cs, g)
    out = []
    for i in range(g + 1):
        acc = z[i]
        if i >= 1:
            acc -= (q + 1) * z[i - 1]
        if i >= 2:
            acc += q * z[i - 2]
        out.append(acc)
    return out


def series_point_counts(c: CurveData, upto: int) -> list[int]:
    """N_m = m [t^m] log Z for m = 1..upto."""
    cs = series_log_coefficients(artin_zeta(c), upto)
    counts = []
    for m in range(1, upto + 1):
        val = m * cs[m - 1]
        if val.denominator != 1:
            raise ValidationError("non-integer point count")
        counts.append(int(val))
    return counts


def fraction_power_sums(p: Poly, upto: int) -> list[Fraction]:
    """s_m = -m p_m - sum_{j<m} p_j s_{m-j} on the coefficients p[j]."""
    sums: list[Fraction] = []
    for m in range(1, upto + 1):
        sums.append(-m * p[m] - sum(p[j] * sums[m - j - 1] for j in range(1, m)))
    return sums
