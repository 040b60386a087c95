"""Ordered compositions of an integer and the mass sums built over them.

The same alternating composition sum appears twice in the library, once
with exact rational zeta values for curves and once with floating-point
completed Riemann values for lattices; the engine below is shared and
only the scalar type changes.  A summand's weight depends only on
adjacent parts, so the engine runs a recurrence over prefix sums in
O(r^3) scalar operations instead of visiting the 2^(r-1) compositions.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import CapabilityError, DomainError

S = TypeVar("S")

# the mass recurrences are polynomial in r; at the cap the exact masses
# of small curves take under a second
MASS_RANK_CAP = 40


def check_mass_rank(r: int) -> None:
    """Refuse a mass rank outside 1..MASS_RANK_CAP."""
    if r < 1:
        raise DomainError("rank must be >= 1")
    if r > MASS_RANK_CAP:
        raise CapabilityError(f"masses are computed up to rank r = {MASS_RANK_CAP}")


def parabolic_mass_sum(
    r: int,
    zhat: Callable[[int], S],
    pair_weight: Callable[[int, int], S],
) -> S:
    """Alternating sum over compositions of r of zeta-value products.

    Each composition (n_1, ..., n_k) contributes
    (-1)^(k-1) * prod_j Z(n_j) / prod_j pair_weight(n_j, n_{j+1}),
    Z(a) = zhat(1) ... zhat(a); the weight runs over adjacent pairs, so
    the single-part composition has denominator 1.  F[s][a], the signed
    sum over compositions of s whose last part is a, satisfies

        F[a][a] = Z(a),
        F[s][a] = -Z(a) * sum_{b <= s-a} F[s-a][b] / pair_weight(b, a),

    and the result is sum_a F[r][a].  Each zhat(i) is evaluated once.
    """
    check_mass_rank(r)
    Z = [None, zhat(1)]  # Z[a] for parts a = 1..r
    for i in range(2, r + 1):
        Z.append(Z[i - 1] * zhat(i))
    W = {(b, a): pair_weight(b, a) for a in range(1, r) for b in range(1, r - a + 1)}
    F: list[dict[int, S]] = [{} for _ in range(r + 1)]
    for s in range(1, r + 1):
        for a in range(1, s):
            inner = sum(f / W[b, a] for b, f in F[s - a].items())
            F[s][a] = -Z[a] * inner
        F[s][s] = Z[s]
    return sum(F[r].values())
