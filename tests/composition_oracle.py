"""Ordered compositions of an integer, listed one by one, and Zagier's
mass recurrence on ``Fraction``s.

The library's composition sums run as prefix-sum recurrences and never
list the 2^(r-1) compositions; this enumeration is the independent
small-rank oracle the tests compare those recurrences against.  At high
rank the oracle is the same recurrence as ``purezeta.zagier_beta`` with
every state a reduced ``Fraction``, where the library keeps unreduced
integer pairs.
"""

from fractions import Fraction

from nazeta.curve import CurveData, artin_zeta_value
from nazeta.errors import CapabilityError, DomainError, ValidationError

# the enumeration builds 2^(r-1) tuples in one list
COMPOSITION_RANK_CAP = 16


def compositions(r: int) -> list[tuple[int, ...]]:
    """All 2^(r-1) ordered tuples of positive integers summing to r."""
    if r < 1:
        raise DomainError("compositions need r >= 1")
    if r > COMPOSITION_RANK_CAP:
        raise CapabilityError(
            f"compositions are enumerated up to r = {COMPOSITION_RANK_CAP}"
        )
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(1, remaining + 1):
            extend(prefix + (first,), remaining - first)

    extend((), r)
    return out


def fraction_zagier_beta(c: CurveData, r: int, d: int = 0) -> Fraction:
    """Zagier's degree-d mass by the prefix-sum recurrence over the state
    (prefix sum s, last part, exponent numerator e mod r), in Fractions."""
    q, g = c.q, c.g
    zeta_prod = c.P.evaluate(1) / (q - 1)
    v = [None, zeta_prod]
    for n in range(2, r + 1):
        zeta_prod *= artin_zeta_value(c, n)
        v.append(zeta_prod * Fraction(q) ** ((n * n - 1) * (g - 1)))
    states: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(r + 1)]
    for s in range(1, r + 1):
        states[s][s, 0] = v[s]
        for (last, e), val in states[s].items():
            for n in range(1, r - s + 1):
                carry, e_new = divmod(e + (last + n) * (s * d % r), r)
                step = Fraction(q ** ((g - 1) * n * s + carry), 1 - q ** (last + n))
                key = (n, e_new)
                target = states[s + n]
                target[key] = target.get(key, 0) + val * step * v[n]
    total = Fraction(0)
    for (last, e), val in states[r].items():
        if e != 0:
            raise ValidationError(f"non-integer q-exponent {e}/{r} ending in {last}")
        total += val
    return total
