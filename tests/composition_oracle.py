"""Ordered compositions of an integer, listed one by one.

The library's composition sums run as prefix-sum recurrences and never
list the 2^(r-1) compositions; this enumeration is the independent
small-rank oracle the tests compare those recurrences against.
"""

from nazeta.errors import CapabilityError, DomainError

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
