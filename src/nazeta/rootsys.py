"""Root systems, Weyl groups and maximal-parabolic combinatorics.

Simple roots are taken as explicit integral vectors in a Euclidean
model space (type A in the usual hyperplane of R^{n+1}, types B/C in
R^n, G2 in R^3), and everything else, Cartan matrix, coroots,
fundamental weights, reflections, is derived from their Gram matrix.
No table transcription, no floating point: integral root data, rational
weights.  Every supported type has integral simple roots, so the Gram
matrix, the Cartan matrix and the coroot coordinates are integers; only
the fundamental weights (the inverse Cartan matrix) are fractions.

Roots live as integer coordinate vectors in the simple-root basis.
A Weyl element is stored as the permutation it induces on the full
root list, which makes composition, length and the inversion sets
Phi_w cheap; its matrix action on arbitrary vectors is recovered from
the images of the simple roots when needed.  The longest elements w_0
and w_p are found by a sign test: the one element that sends every
simple root (of Delta, or of Delta_p) negative.

For a maximal parabolic, indexed by the removed simple root alpha_p,
the module derives the functional-equation offset
c_p = 2<lambda_p - rho_p, alpha_p^vee>, the surviving Weyl subset
{w : w Delta_p subset Delta union Phi^-}, the key
(k, h) = (<lambda_p, alpha^vee>, ht alpha^vee) of every root, built once
and read by every per-root product, and the occupancy tables N_{p,w},
N_p, M_p over those keys that drive the zeta normalization.  The tables
hold their entries and no bounding box; every loop over them runs on the
entries, and the count difference N_p(k, h-1) - M_p(k, h) is formed once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .certificate import Certificate
from .errors import CapabilityError, DomainError, ValidationError
from .record import Frozen

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
Perm = tuple[int, ...]  # a Weyl element as a permutation of the root indices

SUPPORTED = {
    "A": range(1, 6),
    "B": range(2, 4),
    "C": range(2, 4),
    "G2": range(2, 3),
}

WEYL_CAP = 10_000


def _simple_root_vectors(type_label: str, rank: int) -> list[IntVector]:
    if type_label == "A":
        dim = rank + 1
        return [
            tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(dim))
            for i in range(rank)
        ]
    if type_label in ("B", "C"):
        out = [
            tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(rank))
            for i in range(rank - 1)
        ]
        last = 1 if type_label == "B" else 2  # C's long root is 2 e_n
        out.append(tuple(last if j == rank - 1 else 0 for j in range(rank)))
        return out
    if type_label == "G2":
        return [(1, -1, 0), (-2, 1, 1)]
    raise CapabilityError(f"unsupported type {type_label!r}")


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reflect(cartan, coords: IntVector, i: int) -> IntVector:
    """s_i(v) in simple-root coordinates: v - <v, alpha_i^vee> alpha_i."""
    out = list(coords)
    out[i] -= sum(c * x for c, x in zip(cartan[i], coords))
    return tuple(out)


def _unit(i: int, n: int) -> IntVector:
    return tuple(1 if j == i else 0 for j in range(n))


class RootSystem(Frozen):
    """Roots, coroots and weights of a split simple group."""

    __slots__ = (
        "type_label", "rank", "cartan", "gram", "roots", "coroot_coords", "weights",
        "_idx", "_simple",  # derived from the roots, not fields
    )

    def __init__(
        self,
        type_label: str,
        rank: int,
        cartan: tuple[IntVector, ...],  # cartan[i][j] = <alpha_j, alpha_i^vee>
        gram: tuple[IntVector, ...],  # (alpha_i, alpha_j)
        roots: tuple[IntVector, ...],  # coordinates in the simple-root basis
        coroot_coords: tuple[IntVector, ...],  # alpha^vee in the coroot basis
        weights: tuple[Vector, ...],  # lambda_i in simple-root coordinates
    ) -> None:
        self._set(type_label, rank, cartan, gram, roots, coroot_coords, weights)
        index = {r: i for i, r in enumerate(roots)}
        object.__setattr__(self, "_idx", index)
        simple = tuple(index[_unit(i, rank)] for i in range(rank))
        object.__setattr__(self, "_simple", simple)

    # -- lookups ------------------------------------------------------

    @property
    def n_positive(self) -> int:
        return len(self.roots) // 2

    def root_index(self, coords: IntVector) -> int:
        return self._idx[coords]

    def is_positive(self, idx: int) -> bool:
        return idx < self.n_positive

    def simple_indices(self) -> tuple[int, ...]:
        """The root indices of alpha_1 .. alpha_n."""
        return self._simple

    # -- pairings -----------------------------------------------------

    def weight_pairing(self, p: int, root_idx: int) -> int:
        """<lambda_p, alpha^vee>, the p-th coroot coordinate."""
        return self.coroot_coords[root_idx][p]

    def coroot_height(self, root_idx: int) -> int:
        """ht alpha^vee = <rho, alpha^vee>, the coroot coordinate sum."""
        return sum(self.coroot_coords[root_idx])

    @property
    def rho(self) -> Vector:
        total = [Fraction(0)] * self.rank
        for w in self.weights:
            for i, x in enumerate(w):
                total[i] += x
        return tuple(total)


def build_root_system(type_label: str, rank: int | None = None) -> RootSystem:
    """Construct a root system by reflection closure of the simple roots."""
    if type_label == "G2" and rank is None:
        rank = 2
    if rank is None:
        raise DomainError("rank required")
    if type_label not in SUPPORTED or rank not in SUPPORTED[type_label]:
        raise CapabilityError(
            f"unsupported root system {type_label}_{rank}; supported: "
            + ", ".join(f"{t} ranks {list(r)}" for t, r in SUPPORTED.items())
        )
    simples = _simple_root_vectors(type_label, rank)
    gram = tuple(
        tuple(_dot(a, b) for b in simples) for a in simples
    )
    cartan = tuple(
        tuple(2 * gram[i][j] // gram[i][i] for j in range(rank))
        for i in range(rank)
    )
    # reflection closure on simple-root coordinates
    frontier = {_unit(i, rank) for i in range(rank)}
    roots = set(frontier) | {tuple(-x for x in r) for r in frontier}
    while frontier:
        nxt = set()
        for r in frontier:
            for i in range(rank):
                img = _reflect(cartan, r, i)
                if img not in roots:
                    roots.add(img)
                    nxt.add(img)
        frontier = nxt
    positives = sorted(
        (r for r in roots if _root_sign(r) > 0),
        key=lambda r: (sum(r), r),
    )
    ordered = tuple(positives + [tuple(-x for x in r) for r in positives])

    # coroot coordinates: alpha^vee = sum_j c_j (alpha_j,alpha_j)/(alpha,alpha) alpha_j^vee
    coroot_coords = []
    for r in ordered:
        aa = _dot(r, [_dot(row, r) for row in gram])  # (alpha, alpha)
        cc = []
        for j in range(rank):
            val, rem = divmod(r[j] * gram[j][j], aa)
            if rem:
                raise ValidationError("non-integral coroot coordinate")
            cc.append(val)
        coroot_coords.append(tuple(cc))

    # fundamental weights: columns of the inverse Cartan matrix
    inv = _invert(cartan, rank)
    weights = tuple(
        tuple(inv[j][i] for j in range(rank)) for i in range(rank)
    )
    rs = RootSystem(
        type_label,
        rank,
        cartan,
        gram,
        ordered,
        tuple(coroot_coords),
        weights,
    )
    _validate_root_system(rs)
    return rs


def _root_sign(coords: IntVector) -> int:
    for x in coords:
        if x:
            return 1 if x > 0 else -1
    return 0


def _invert(mat, n: int) -> list[list[Fraction]]:
    aug = [
        [Fraction(mat[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _validate_root_system(rs: RootSystem) -> None:
    n = rs.rank
    for i, s_idx in enumerate(rs.simple_indices()):
        for p in range(n):
            got = rs.weight_pairing(p, s_idx)
            if got != (1 if p == i else 0):
                raise ValidationError("<lambda_i, alpha_j^vee> != delta_ij")
    for i in range(n):
        for j in range(n):
            if rs.cartan[i][j] * rs.gram[i][i] != 2 * rs.gram[i][j]:
                raise ValidationError("Cartan matrix disagrees with the Gram matrix")
    # the weights over their common denominator, so the pairings below
    # stay in integers
    den = math.lcm(*(x.denominator for w in rs.weights for x in w))
    scaled = [tuple(int(x * den) for x in w) for w in rs.weights]
    for idx in range(len(rs.roots)):
        ht = rs.coroot_height(idx)
        if ht == 0:
            raise ValidationError("zero coroot height")
        if (ht > 0) != rs.is_positive(idx):
            raise ValidationError("height sign disagrees with positivity")
        # cross-check the tabulated pairing against the inner product:
        # <v, alpha^vee> = 2 (v, alpha)/(alpha, alpha) = 2 v.col/alpha.col
        root = rs.roots[idx]
        col = [_dot(row, root) for row in rs.gram]  # gram . alpha
        norm2 = _dot(root, col)
        for p in range(n):
            if 2 * _dot(scaled[p], col) != rs.weight_pairing(p, idx) * norm2 * den:
                raise ValidationError("coroot coordinate inconsistency")


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


class WeylElement(Frozen):
    """A Weyl element as the permutation it induces on the root list."""

    __slots__ = ("perm",)

    def __init__(self, perm: tuple[int, ...]) -> None:
        object.__setattr__(self, "perm", perm)

    def apply(self, idx: int) -> int:
        return self.perm[idx]

    def compose(self, other: "WeylElement") -> "WeylElement":
        # (self o other)(root) = self(other(root))
        return WeylElement(tuple(self.perm[j] for j in other.perm))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return WeylElement(tuple(inv))


class WeylGroup(Frozen):
    __slots__ = ("rs", "elements", "simple_reflections", "identity", "longest")

    def __init__(
        self,
        rs: RootSystem,
        elements: tuple[WeylElement, ...],
        simple_reflections: tuple[WeylElement, ...],
        identity: WeylElement,
        longest: WeylElement,
    ) -> None:
        self._set(rs, elements, simple_reflections, identity, longest)

    def __len__(self) -> int:
        return len(self.elements)

    def inversion_set(self, w: WeylElement) -> list[int]:
        """Phi_w = {positive roots sent negative by w}, as root indices."""
        rs = self.rs
        return [
            i
            for i in range(rs.n_positive)
            if not rs.is_positive(w.apply(i))
        ]

    def act_vector(self, w: WeylElement, v: Vector) -> Vector:
        """w v in simple-root coordinates: sum_j v_j w(alpha_j)."""
        rs = self.rs
        cols = [rs.roots[w.apply(s)] for s in rs.simple_indices()]
        return tuple(
            sum(cols[j][i] * v[j] for j in range(rs.rank)) for i in range(rs.rank)
        )


def _closure(rs: RootSystem, gens: list[Perm]) -> list[Perm]:
    """The group generated by the permutations ``gens``, by BFS from the
    identity.  An element is determined by its images of the simple
    roots, so those key the seen set; the full permutation is built only
    for a new element."""
    simple = rs.simple_indices()
    ident = tuple(range(len(rs.roots)))
    seen = {simple}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            images = [w[i] for i in simple]
            for s in gens:
                key = tuple([s[j] for j in images])
                if key not in seen:
                    if len(seen) >= WEYL_CAP:
                        raise CapabilityError(f"Weyl enumeration cap {WEYL_CAP} exceeded")
                    seen.add(key)
                    nxt.append(tuple([s[j] for j in w]))
        elements.extend(nxt)
        frontier = nxt
    return elements


def _longest(rs: RootSystem, perms: list[Perm], indices) -> Perm:
    """The element of ``perms`` that sends every root of ``indices`` negative.

    The search runs from the end: a BFS from the identity lists the
    elements by length, so the longest comes last.
    """
    n_pos = rs.n_positive
    return next(w for w in reversed(perms) if all(w[i] >= n_pos for i in indices))


def enumerate_weyl(rs: RootSystem) -> WeylGroup:
    """Close the simple reflections under composition."""
    gens = [
        tuple(rs.root_index(_reflect(rs.cartan, r, i)) for r in rs.roots)
        for i in range(rs.rank)
    ]
    perms = _closure(rs, gens)
    w0 = _longest(rs, perms, rs.simple_indices())
    W = WeylGroup(
        rs,
        tuple(WeylElement(w) for w in perms),
        tuple(WeylElement(s) for s in gens),
        WeylElement(perms[0]),
        WeylElement(w0),
    )
    if len(W.inversion_set(W.longest)) != rs.n_positive:
        raise ValidationError("longest element has wrong length")
    return W


# ---------------------------------------------------------------------------
# Maximal parabolic data
# ---------------------------------------------------------------------------


class ParabolicData(Frozen):
    """Derived data for the maximal parabolic that removes alpha_p."""

    __slots__ = ("rs", "p", "c_p", "weyl_subset", "levi_longest", "keys")

    def __init__(
        self,
        rs: RootSystem,
        p: int,  # 1-based index of the removed simple root
        c_p: int,
        weyl_subset: tuple[WeylElement, ...],  # {w : w Delta_p in Delta u Phi^-}
        levi_longest: WeylElement,  # w_p
        # (k, h) = (<lambda_p, alpha^vee>, ht alpha^vee) per root index; the
        # key (0, 1) marks exactly the roots of Delta_p
        keys: tuple[tuple[int, int], ...],
    ) -> None:
        self._set(rs, p, c_p, weyl_subset, levi_longest, keys)

    @property
    def p0(self) -> int:
        return self.p - 1


def parabolic_data(rs: RootSystem, W: WeylGroup, p: int) -> ParabolicData:
    """Assemble the parabolic combinatorics for removed root index p."""
    if not 1 <= p <= rs.rank:
        raise DomainError(f"parabolic index must be in 1..{rs.rank}")
    p0 = p - 1
    levi_pos = [i for i in range(rs.n_positive) if rs.roots[i][p0] == 0]
    # c_p = 2<lambda_p - rho_p, alpha_p^vee> = 2 - <2 rho_p, alpha_p^vee> is
    # an integer: 2 rho_p is the sum of the positive Levi roots
    c_p = 2 - sum(
        rs.cartan[p0][j] * rs.roots[i][j] for i in levi_pos for j in range(rs.rank)
    )
    simple_idx = rs.simple_indices()
    delta_p = [simple_idx[j] for j in range(rs.rank) if j != p0]
    simple_set = set(simple_idx)
    n_pos = rs.n_positive
    subset = tuple(
        w
        for w in W.elements
        if all(w.perm[d] in simple_set or w.perm[d] >= n_pos for d in delta_p)
    )
    # longest element of the Levi Weyl group, generated by s_j, j != p:
    # the one that sends every root of Delta_p negative
    levi_gens = [W.simple_reflections[j].perm for j in range(rs.rank) if j != p0]
    levi = _closure(rs, levi_gens)
    w_p = WeylElement(_longest(rs, levi, delta_p))
    keys = tuple(
        (rs.weight_pairing(p0, i), rs.coroot_height(i)) for i in range(len(rs.roots))
    )
    pd = ParabolicData(rs, p, c_p, subset, w_p, keys)
    _validate_parabolic(pd, W)
    return pd


def _validate_parabolic(pd: ParabolicData, W: WeylGroup) -> None:
    rs = pd.rs
    subset = {x.perm for x in pd.weyl_subset}
    for w in (W.identity, W.longest, pd.levi_longest):
        if w.perm not in subset:
            raise ValidationError("id, w_0 or w_p missing from the Weyl subset")
    rho = rs.rho
    w_rho = W.act_vector(pd.levi_longest, rho)
    lam = rs.weights[pd.p0]
    if tuple(pd.c_p * lam[i] - w_rho[i] for i in range(rs.rank)) != rho:
        raise ValidationError(
            "Weyl-vector reflection identity c_p*lambda_p - w_p*rho = rho fails"
        )


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------


class CountTable(Frozen):
    """Occupancy counts over (pairing k, coroot height h) pairs."""

    __slots__ = ("per_w", "global_counts", "max_diff")

    def __init__(
        self,
        per_w: tuple[dict, ...],  # N_{p,w} for each w in the Weyl subset
        global_counts: dict,  # N_p over all roots
        max_diff: dict,  # M_p
    ) -> None:
        self._set(per_w, global_counts, max_diff)

    def normalization_exponents(self) -> dict[tuple[int, int], int]:
        """The positive M_p entries with h >= 2, k >= 0."""
        return {
            (k, h): m
            for (k, h), m in self.max_diff.items()
            if h >= 2 and k >= 0 and m > 0
        }

    def difference(self) -> dict[tuple[int, int], int]:
        """F(k, h) = N_p(k, h-1) - M_p(k, h) on the cells where either
        entry exists, in sorted (k, h) order."""
        N, M = self.global_counts, self.max_diff
        cells = sorted({(k, h + 1) for k, h in N} | M.keys())
        return {(k, h): N.get((k, h - 1), 0) - M.get((k, h), 0) for k, h in cells}


def _next_to(counts) -> set[tuple[int, int]]:
    """The cells (k, h) and (k, h+1) for every key (k, h) of ``counts``:
    the only cells where ``counts(k, h-1) - counts(k, h)`` can be nonzero."""
    return {(k, h + dh) for k, h in counts for dh in (0, 1)}


def negative_preimage_counts(pd: ParabolicData, w: WeylElement) -> Counter:
    """N_{p,w}: the keys of the roots in w^{-1}Phi^-, counted."""
    n_pos = pd.rs.n_positive
    return Counter(pd.keys[i] for i, image in enumerate(w.perm) if image >= n_pos)


def count_tables(pd: ParabolicData) -> CountTable:
    """Build N_{p,w}, N_p and the max-difference table M_p."""
    per_w = [negative_preimage_counts(pd, w) for w in pd.weyl_subset]
    global_counts = Counter(pd.keys)
    if sum(global_counts.values()) != len(pd.rs.roots):
        raise ValidationError("global count table does not cover all roots")
    # every N_{p,w} lives on the keys of N_p, so M_p does next to them
    max_diff: dict[tuple[int, int], int] = {}
    for k, h in sorted(_next_to(global_counts)):
        m = max([nw.get((k, h - 1), 0) - nw.get((k, h), 0) for nw in per_w])
        if m != 0:
            max_diff[(k, h)] = m
    return CountTable(tuple(per_w), global_counts, max_diff)


def verify_count_identities(
    W: WeylGroup, pd: ParabolicData, table: CountTable
) -> Certificate:
    """Exact checks of the count-table identities used by the zeta layer.

    Checks, on the cells that read an entry (elsewhere both sides are 0):
      (b) the reflection symmetry F(k, k c_p - h + 1) = F(k, h) of
          F = ``table.difference()``, on supp F and its mirror;
      (d) for k >= 0, h >= 2, M_p(k, h) equals the longest-element
          difference N_{p,w_0}(k, h-1) - N_{p,w_0}(k, h), where M_p or
          N_{p,w_0} has an entry.
    Every check is recorded with its witness; a failed identity fails the
    certificate, it does not raise.
    """
    rs = pd.rs
    cert = Certificate(f"count identities {rs.type_label}{rs.rank} p={pd.p}")
    cp = pd.c_p
    M = table.max_diff

    F = table.difference()
    for k, h in sorted(F.keys() | {(k, k * cp - h + 1) for k, h in F}):
        lhs = F.get((k, k * cp - h + 1), 0)
        rhs = F.get((k, h), 0)
        cert.record("reflection symmetry of counts", lhs == rhs, k=k, h=h)

    # longest-element difference formula for the normalization exponents;
    # the difference needs clamping at zero (it can be negative where the
    # max over the Weyl subset is zero, e.g. A3 p=2 at (1,2))
    w0_idx = next(
        i for i, w in enumerate(pd.weyl_subset) if w.perm == W.longest.perm
    )
    nw0 = table.per_w[w0_idx]
    for k, h in sorted(M.keys() | _next_to(nw0)):
        if k < 0 or h < 2:
            continue
        lhs = M.get((k, h), 0)
        rhs = max(0, nw0.get((k, h - 1), 0) - nw0.get((k, h), 0))
        cert.record(
            "longest-element difference formula (h>=2, clamped)",
            lhs == rhs,
            k=k,
            h=h,
        )
    return cert
