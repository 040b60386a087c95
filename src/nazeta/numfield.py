"""Number-field volumes: Siegel domains and semi-stable moduli.

Everything here is floating point; the identities under test involve
pi and zeta values, so exactness is impossible and double precision
with 1e-10 test tolerances is the contract.  zhat(1..8) is a table of
doubles.  The composition-sum engine is shared verbatim with the
function-field mass formula; only the scalar type differs.
"""

from __future__ import annotations

from .compositions import parabolic_mass_sum
from .errors import DomainError
from .record import Frozen

# pi^{-n/2} Gamma(n/2) zeta(n) for n = 1..8 (the residue at n = 1), each
# the double nearest its 25-digit value
_ZHAT = (
    1.0, 0.5235987755982989, 0.19131329801558516, 0.1096622711232151,
    0.07879706062703883, 0.06562174958793612, 0.06097652145032795,
    0.06184704192635075,
)

PRECISION = "double (tested to 1e-10)"


def completed_riemann(n: int) -> float:
    """pi^{-n/2} Gamma(n/2) zeta(n) for n in 1..8, from a table.

    The simple pole at 1 is replaced by its residue,
    pi^{-1/2} Gamma(1/2) * Res_{s=1} zeta(s) = 1.
    """
    if not 1 <= n <= len(_ZHAT):
        raise DomainError("argument must be an integer in 1..8")
    return _ZHAT[n - 1]


def siegel_volume(r: int) -> float:
    """Volume of the rank-r fundamental domain: r * prod_{i<=r} zhat(i)."""
    if not 1 <= r <= 8:
        raise DomainError("rank must be in 1..8")
    out = float(r)
    for i in range(1, r + 1):
        out *= completed_riemann(i)
    return out


def moduli_volume(r: int) -> float:
    """Volume of the rank-r semi-stable moduli space.

    r times the alternating composition sum with adjacent-pair weights
    n_j + n_{j+1}; the same engine evaluates the function-field mass
    with q-power weights.
    """
    if not 1 <= r <= 8:
        raise DomainError("rank must be in 1..8")
    total = parabolic_mass_sum(
        r, completed_riemann, lambda a, b: float(a + b)
    )
    return r * total


class VolumeTable(Frozen):
    __slots__ = ("siegel", "moduli")

    def __init__(self, siegel: tuple[float, ...], moduli: tuple[float, ...]) -> None:
        self._set(siegel, moduli)

    def to_json(self) -> dict:
        return {
            "precision": PRECISION,
            "siegel": {
                str(r + 1): v for r, v in enumerate(self.siegel)
            },
            "moduli": {
                str(r + 1): v for r, v in enumerate(self.moduli)
            },
        }


def volume_table(max_rank: int) -> VolumeTable:
    return VolumeTable(
        tuple(siegel_volume(r) for r in range(1, max_rank + 1)),
        tuple(moduli_volume(r) for r in range(1, max_rank + 1)),
    )


# ---------------------------------------------------------------------------
# Parabolic-reduction identity probe
# ---------------------------------------------------------------------------

# convention -> (cut weight c * (r - c) rather than c, power of r in the
# constant): a composition's denominator chain is r^power times the
# weights of its cut points, the prefix sums c in 1..r-1
KS_CONVENTIONS = {
    "prefix": (False, 1),
    "prefix_suffix_shared": (True, 1),
    "prefix_suffix_full": (True, 2),
    "proper_prefix_suffix": (True, 0),
}


def ks_identity_probe(r: int) -> dict:
    """Compare composition sums of moduli volumes against the Siegel volume.

    The denominator chain of the identity admits several readings
    (especially for single-part compositions); each convention is
    evaluated and its absolute deviation from siegel_volume(r) reported.
    Since a chain factors over cut points, the sum over compositions is
    the O(r^2) recurrence S[s] = v(s) + sum_{0<t<s} S[t] v(s-t) / weight(t)
    over prefix sums.  Nothing is asserted; the caller reads the table.
    """
    if r < 1 or r > 5:
        raise DomainError("probe supports r in 1..5")
    target = siegel_volume(r)
    volumes = [None] + [moduli_volume(n) for n in range(1, r + 1)]
    rows = {}
    for conv, (suffix, power) in KS_CONVENTIONS.items():
        S = [None]  # S[s]: compositions of s, each weighted at its cuts
        for s in range(1, r + 1):
            acc = volumes[s]
            for t in range(1, s):
                acc += S[t] * volumes[s - t] / (t * (r - t) if suffix else t)
            S.append(acc)
        total = S[r] / r**power
        rows[conv] = {
            "value": total,
            "deviation": abs(total - target),
        }
    return {"r": r, "siegel": target, "conventions": rows}
