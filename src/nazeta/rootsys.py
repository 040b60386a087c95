"""Root systems, Weyl groups and maximal-parabolic combinatorics.

Simple roots are taken as explicit rational vectors in a Euclidean
model space (type A in the usual hyperplane of R^{n+1}, types B/C in
R^n, G2 in R^3), and everything else, Cartan matrix, coroots,
fundamental weights, reflections, is derived from their Gram matrix.
No table transcription, no floating point.

Roots live as integer coordinate vectors in the simple-root basis.
A Weyl element is stored as the permutation it induces on the full
root list, which makes composition, length and the inversion sets
Phi_w cheap; its matrix action on arbitrary vectors is recovered from
the images of the simple roots when needed.

For a maximal parabolic, indexed by the removed simple root alpha_p,
the module derives the functional-equation offset
c_p = 2<lambda_p - rho_p, alpha_p^vee>, the surviving Weyl subset
{w : w Delta_p subset Delta union Phi^-}, and the occupancy tables
N_{p,w}, N_p, M_p over (pairing, coroot-height) pairs that drive the
zeta normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .certificate import Certificate
from .errors import CapabilityError, DomainError, ValidationError

Vector = tuple[Fraction, ...]

SUPPORTED = {
    "A": range(1, 6),
    "B": range(2, 4),
    "C": range(2, 4),
    "G2": range(2, 3),
}

WEYL_CAP = 10_000


def _simple_root_vectors(type_label: str, rank: int) -> list[Vector]:
    F = Fraction
    if type_label == "A":
        dim = rank + 1
        return [
            tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0) for j in range(dim))
            for i in range(rank)
        ]
    if type_label == "B":
        out = [
            tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0) for j in range(rank))
            for i in range(rank - 1)
        ]
        out.append(tuple(F(1) if j == rank - 1 else F(0) for j in range(rank)))
        return out
    if type_label == "C":
        out = [
            tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0) for j in range(rank))
            for i in range(rank - 1)
        ]
        out.append(tuple(F(2) if j == rank - 1 else F(0) for j in range(rank)))
        return out
    if type_label == "G2":
        return [
            (F(1), F(-1), F(0)),
            (F(-2), F(1), F(1)),
        ]
    raise CapabilityError(f"unsupported type {type_label!r}")


def _dot(u: Vector, v: Vector) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def _inner(gram, u, v) -> Fraction:
    """(u, v) for u, v in simple-root coordinates."""
    n = len(gram)
    return sum(
        u[i] * v[j] * gram[i][j] for i in range(n) for j in range(n) if u[i] and v[j]
    )


def _reflect(cartan, coords: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i(v) in simple-root coordinates: v - <v, alpha_i^vee> alpha_i."""
    out = list(coords)
    out[i] -= sum(c * x for c, x in zip(cartan[i], coords))
    return tuple(out)


@dataclass(frozen=True)
class RootSystem:
    """Roots, coroots and weights of a split simple group."""

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = <alpha_j, alpha_i^vee>
    gram: tuple[tuple[Fraction, ...], ...]  # (alpha_i, alpha_j)
    roots: tuple[tuple[int, ...], ...]  # coordinates in the simple-root basis
    coroot_coords: tuple[tuple[int, ...], ...]  # alpha^vee in the coroot basis
    weights: tuple[Vector, ...]  # lambda_i in simple-root coordinates

    # -- lookups ------------------------------------------------------

    @property
    def n_positive(self) -> int:
        return len(self.roots) // 2

    def root_index(self, coords: tuple[int, ...]) -> int:
        return self._index_map()[coords]

    def _index_map(self) -> dict[tuple[int, ...], int]:
        if not hasattr(self, "_idx"):
            object.__setattr__(
                self, "_idx", {r: i for i, r in enumerate(self.roots)}
            )
        return self._idx

    def is_positive(self, idx: int) -> bool:
        return idx < self.n_positive

    def simple_indices(self) -> list[int]:
        out = []
        for i in range(self.rank):
            coords = tuple(1 if j == i else 0 for j in range(self.rank))
            out.append(self.root_index(coords))
        return out

    # -- pairings -----------------------------------------------------

    def pairing_with_coroot(self, v: Vector, root_idx: int) -> Fraction:
        """<v, alpha^vee> for v in simple-root coordinates."""
        return 2 * self.inner(v, self.roots[root_idx]) / self.root_norm2(root_idx)

    def root_norm2(self, idx: int) -> Fraction:
        return self.inner(self.roots[idx], self.roots[idx])

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

    def inner(self, u: Vector, v: Vector) -> Fraction:
        return _inner(self.gram, u, v)

    def coroot_vector(self, idx: int) -> Vector:
        """alpha^vee = 2 alpha/(alpha,alpha) in simple-root coordinates."""
        aa = self.root_norm2(idx)
        return tuple(2 * Fraction(c) / aa for c in self.roots[idx])


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
        tuple(int(2 * gram[i][j] / gram[i][i]) for j in range(rank))
        for i in range(rank)
    )
    # reflection closure on simple-root coordinates
    frontier = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
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
        aa = _inner(gram, r, r)
        cc = []
        for j in range(rank):
            val = Fraction(r[j]) * gram[j][j] / aa
            if val.denominator != 1:
                raise ValidationError("non-integral coroot coordinate")
            cc.append(int(val))
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


def _root_sign(coords: tuple[int, ...]) -> int:
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
            if 2 * _dot(rs.weights[p], col) / norm2 != rs.weight_pairing(p, idx):
                raise ValidationError("coroot coordinate inconsistency")


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """A Weyl element as the permutation it induces on the root list."""

    perm: tuple[int, ...]

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


@dataclass(frozen=True)
class WeylGroup:
    rs: RootSystem
    elements: tuple[WeylElement, ...]
    simple_reflections: tuple[WeylElement, ...]
    identity: WeylElement
    longest: WeylElement

    def __len__(self) -> int:
        return len(self.elements)

    def length(self, w: WeylElement) -> int:
        return len(self.inversion_set(w))

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


def _closure(ident: WeylElement, gens) -> tuple[WeylElement, ...]:
    """The group generated by ``gens``, by BFS on permutations from ``ident``."""
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = s.compose(w)
                if cand.perm not in seen:
                    if len(seen) >= WEYL_CAP:
                        raise CapabilityError(f"Weyl enumeration cap {WEYL_CAP} exceeded")
                    seen[cand.perm] = cand
                    nxt.append(cand)
        frontier = nxt
    return tuple(seen.values())


def enumerate_weyl(rs: RootSystem) -> WeylGroup:
    """Close the simple reflections under composition."""
    simple_perms = tuple(
        WeylElement(tuple(rs.root_index(_reflect(rs.cartan, r, i)) for r in rs.roots))
        for i in range(rs.rank)
    )
    ident = WeylElement(tuple(range(len(rs.roots))))
    W = WeylGroup(rs, _closure(ident, simple_perms), simple_perms, ident, ident)
    longest = max(W.elements, key=W.length)
    if W.length(longest) != rs.n_positive:
        raise ValidationError("longest element has wrong length")
    return replace(W, longest=longest)


# ---------------------------------------------------------------------------
# Maximal parabolic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicData:
    """Derived data for the maximal parabolic that removes alpha_p."""

    rs: RootSystem
    p: int  # 1-based index of the removed simple root
    rho_p: Vector
    c_p: int
    weyl_subset: tuple[WeylElement, ...]  # {w : w Delta_p in Delta u Phi^-}
    levi_longest: WeylElement  # w_p

    @property
    def p0(self) -> int:
        return self.p - 1


def parabolic_data(rs: RootSystem, W: WeylGroup, p: int) -> ParabolicData:
    """Assemble the parabolic combinatorics for removed root index p."""
    if not 1 <= p <= rs.rank:
        raise DomainError(f"parabolic index must be in 1..{rs.rank}")
    p0 = p - 1
    levi_pos = [i for i in range(rs.n_positive) if rs.roots[i][p0] == 0]
    rho_p = tuple(
        sum(Fraction(rs.roots[i][j]) for i in levi_pos) / 2
        for j in range(rs.rank)
    )
    # c_p = 2<lambda_p - rho_p, alpha_p^vee> = 2 - <2 rho_p, alpha_p^vee> is
    # an integer: 2 rho_p is the sum of the positive Levi roots
    c_p = 2 - sum(
        rs.cartan[p0][j] * rs.roots[i][j] for i in levi_pos for j in range(rs.rank)
    )
    simple_idx = rs.simple_indices()
    delta_p = [simple_idx[j] for j in range(rs.rank) if j != p0]
    simple_set = set(simple_idx)

    subset = []
    for w in W.elements:
        ok = True
        for d in delta_p:
            img = w.apply(d)
            if img in simple_set or not rs.is_positive(img):
                continue
            ok = False
            break
        if ok:
            subset.append(w)

    # longest element of the Levi Weyl group: generated by s_j, j != p
    gens = [W.simple_reflections[j] for j in range(rs.rank) if j != p0]
    levi_pos_set = set(levi_pos)
    w_p = max(
        _closure(W.identity, gens),
        key=lambda w: len(levi_pos_set & set(W.inversion_set(w))),
    )
    pd = ParabolicData(rs, p, rho_p, c_p, tuple(subset), w_p)
    _validate_parabolic(pd, W)
    return pd


def _validate_parabolic(pd: ParabolicData, W: WeylGroup) -> None:
    rs = pd.rs
    for w in (W.identity, W.longest, pd.levi_longest):
        if w.perm not in {x.perm for x in pd.weyl_subset}:
            raise ValidationError("id, w_0 or w_p missing from the Weyl subset")
    # reflection identity: c_p lambda_p - w_p rho = rho
    lhs = tuple(
        pd.c_p * rs.weights[pd.p0][i] - W.act_vector(pd.levi_longest, rs.rho)[i]
        for i in range(rs.rank)
    )
    if lhs != rs.rho:
        raise ValidationError(
            "Weyl-vector reflection identity c_p*lambda_p - w_p*rho = rho fails"
        )


# ---------------------------------------------------------------------------
# Count tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Occupancy counts over (pairing k, coroot height h) pairs."""

    per_w: tuple[dict, ...]  # N_{p,w} for each w in the Weyl subset
    global_counts: dict  # N_p over all roots
    max_diff: dict  # M_p
    max_diff_clamped: dict  # same with differences clamped at zero
    k_range: tuple[int, int]
    h_range: tuple[int, int]

    def normalization_exponents(self) -> dict[tuple[int, int], int]:
        """The positive M_p entries with h >= 2, k >= 0."""
        return {
            (k, h): m
            for (k, h), m in self.max_diff.items()
            if h >= 2 and k >= 0 and m > 0
        }


def _key_counts(rs: RootSystem, p0: int, indices) -> dict:
    out: dict[tuple[int, int], int] = {}
    for i in indices:
        key = (rs.weight_pairing(p0, i), rs.coroot_height(i))
        out[key] = out.get(key, 0) + 1
    return out


def count_tables(rs: RootSystem, W: WeylGroup, pd: ParabolicData) -> CountTable:
    """Build N_{p,w}, N_p and the max-difference tables M_p, clamped M_p."""
    p0 = pd.p0
    per_w = []
    for w in pd.weyl_subset:
        winv = w.inverse()
        neg = [
            winv.apply(i)
            for i in range(rs.n_positive, len(rs.roots))
        ]
        per_w.append(_key_counts(rs, p0, neg))
    global_counts = _key_counts(rs, p0, range(len(rs.roots)))
    kmax = max(abs(k) for k, _ in global_counts)
    hmax = max(abs(h) for _, h in global_counts)
    max_diff: dict[tuple[int, int], int] = {}
    max_clamped: dict[tuple[int, int], int] = {}
    for k in range(-kmax, kmax + 1):
        for h in range(-hmax - 1, hmax + 2):
            diffs = [
                nw.get((k, h - 1), 0) - nw.get((k, h), 0) for nw in per_w
            ]
            m = max(diffs)
            mc = max(max(d, 0) for d in diffs)
            if m != 0:
                max_diff[(k, h)] = m
            if mc != 0:
                max_clamped[(k, h)] = mc
    table = CountTable(
        tuple(per_w),
        global_counts,
        max_diff,
        max_clamped,
        (-kmax, kmax),
        (-hmax, hmax),
    )
    total = sum(global_counts.values())
    if total != len(rs.roots):
        raise ValidationError("global count table does not cover all roots")
    return table


def verify_count_identities(
    rs: RootSystem, W: WeylGroup, pd: ParabolicData, table: CountTable | None = None
) -> Certificate:
    """Exact checks of the count-table identities used by the zeta layer.

    Checks, over the full support rectangle:
      (a) clamped and unclamped max-difference tables agree for h >= 1;
      (b) the reflection symmetry
          N_p(k, k c_p - h) - M_p(k, k c_p - h + 1) = N_p(k, h-1) - M_p(k, h);
      (c) the Weyl-vector identity c_p lambda_p - w_p rho = rho;
      (d) for h >= 2, M_p(k, h) equals the longest-element difference
          N_{p,w_0}(k, h-1) - N_{p,w_0}(k, h).
    Every check is recorded with its witness; a failed identity fails the
    certificate, it does not raise.
    """
    if table is None:
        table = count_tables(rs, W, pd)
    cert = Certificate(f"count identities {rs.type_label}{rs.rank} p={pd.p}")
    kmin, kmax = table.k_range
    hmin, hmax = table.h_range
    cp = pd.c_p
    M = table.max_diff
    Mc = table.max_diff_clamped
    N = table.global_counts

    for k in range(kmin, kmax + 1):
        for h in range(1, hmax + 2):
            ok = M.get((k, h), 0) == Mc.get((k, h), 0)
            cert.record(
                "clamped-max agreement (h>=1)", ok, k=k, h=h
            )

    for k in range(kmin, kmax + 1):
        for h in range(-hmax - abs(cp) * max(abs(kmin), kmax) - 2,
                       hmax + abs(cp) * max(abs(kmin), kmax) + 3):
            lhs = N.get((k, k * cp - h), 0) - M.get((k, k * cp - h + 1), 0)
            rhs = N.get((k, h - 1), 0) - M.get((k, h), 0)
            cert.record("reflection symmetry of counts", lhs == rhs, k=k, h=h)

    lhs_vec = tuple(
        cp * rs.weights[pd.p0][i]
        - W.act_vector(pd.levi_longest, rs.rho)[i]
        for i in range(rs.rank)
    )
    cert.record("Weyl-vector reflection identity", lhs_vec == rs.rho)

    # longest-element difference formula for the normalization exponents;
    # the difference needs clamping at zero (it can be negative where the
    # max over the Weyl subset is zero, e.g. A3 p=2 at (1,2))
    w0_idx = next(
        i for i, w in enumerate(pd.weyl_subset) if w.perm == W.longest.perm
    )
    nw0 = table.per_w[w0_idx]
    for k in range(0, kmax + 1):
        for h in range(2, hmax + 2):
            lhs = M.get((k, h), 0)
            rhs = max(0, nw0.get((k, h - 1), 0) - nw0.get((k, h), 0))
            cert.record(
                "longest-element difference formula (h>=2, clamped)",
                lhs == rhs,
                k=k,
                h=h,
            )
    return cert


# ---------------------------------------------------------------------------
# Subset correspondence and reduction coefficients
# ---------------------------------------------------------------------------


def parabolic_reduction_table(
    rs: RootSystem, W: WeylGroup, q: Fraction | int | None = None
) -> list[dict]:
    """Elements w with w Delta inside Delta union Phi^-, one per subset.

    For each such w the subset J = {simple alpha : w alpha simple} is
    recorded together with the reduction-coefficient denominators in
    both fields: the product of (1 - <w rho, alpha^vee>) and, when q is
    given, of (1 - q^{<w rho, alpha^vee> - 1}), over the simple roots
    outside w(J).  Vanishing denominators are flagged, not fatal.
    """
    simple_idx = rs.simple_indices()
    simple_set = set(simple_idx)
    rows = []
    seen_subsets = set()
    for w in W.elements:
        images = [w.apply(s) for s in simple_idx]
        if not all(i in simple_set or not rs.is_positive(i) for i in images):
            continue
        subset = tuple(
            j for j, img in enumerate(images) if img in simple_set
        )
        w_rho = W.act_vector(w, rs.rho)
        outside = [
            s
            for s in simple_idx
            if s not in {images[j] for j in subset}
        ]
        pairings = [rs.pairing_with_coroot(w_rho, s) for s in outside]
        if any(x.denominator != 1 for x in pairings):
            raise ValidationError("non-integer reduction pairing")
        pairings = [int(x) for x in pairings]
        nf_den = 1
        for m in pairings:
            nf_den *= 1 - m
        row = {
            "subset": [j + 1 for j in subset],
            "sign": (-1) ** len(subset),
            "pairings": pairings,
            "nf_denominator": nf_den,
            "vanishing": any(m == 1 for m in pairings),
        }
        if q is not None:
            qq = Fraction(q)
            ff = Fraction(1)
            for m in pairings:
                ff *= 1 - qq ** (m - 1)
            row["ff_denominator"] = ff
        rows.append(row)
        seen_subsets.add(subset)
    if len(rows) != 2**rs.rank or len(seen_subsets) != 2**rs.rank:
        raise ValidationError(
            f"expected one element per subset (2^{rs.rank}), got {len(rows)}"
        )
    rows.sort(key=lambda r: (len(r["subset"]), r["subset"]))
    return rows
