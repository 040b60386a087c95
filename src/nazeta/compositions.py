"""Ordered compositions of an integer and the mass sums built over them.

The same alternating composition sum appears twice in the library, once
with exact rational zeta values for curves and once with floating-point
completed Riemann values for lattices; the engine below is shared and
only the scalar type changes.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import CapabilityError, DomainError

S = TypeVar("S")

# 2^15 compositions at the cap; rank 16 masses take tens of seconds
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


def parabolic_mass_sum(
    r: int,
    zhat: Callable[[int], S],
    pair_weight: Callable[[int, int], S],
) -> S:
    """Alternating sum over compositions of r of zeta-value products.

    Each composition (n_1, ..., n_k) contributes
    (-1)^(k-1) * prod_j prod_{i=1..n_j} zhat(i) / prod_j pair_weight(n_j, n_{j+1});
    the weight runs over adjacent pairs, so the single-part composition
    has denominator 1.
    """
    total = None
    for comp in compositions(r):
        k = len(comp)
        term = 1 if k % 2 == 1 else -1
        for n in comp:
            for i in range(1, n + 1):
                term = term * zhat(i)
        for j in range(k - 1):
            term = term / pair_weight(comp[j], comp[j + 1])
        total = term if total is None else total + term
    return total
