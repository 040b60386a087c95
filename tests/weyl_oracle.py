"""Root data and Weyl groups by the rational, length-maximising design.

An independent oracle for ``nazeta.rootsys``: the simple roots are
``Fraction`` vectors, so the Gram matrix and every pairing are rational;
W is closed by composing whole permutations, keyed by the permutation
itself; and the longest elements w_0 and w_p are found by maximising the
length over their groups, not by a sign test.  The model vectors are the
same as the library's, so roots, coroots, weights and the order of every
element list must come out identical.
"""

from __future__ import annotations

from fractions import Fraction as F


def simple_roots(type_label: str, rank: int) -> list[tuple[F, ...]]:
    def chain(dim, count):
        return [
            tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0) for j in range(dim))
            for i in range(count)
        ]

    if type_label == "A":
        return chain(rank + 1, rank)
    if type_label in ("B", "C"):
        last = F(1) if type_label == "B" else F(2)
        return chain(rank, rank - 1) + [
            tuple(last if j == rank - 1 else F(0) for j in range(rank))
        ]
    return [(F(1), F(-1), F(0)), (F(-2), F(1), F(1))]  # G2


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def root_data(type_label: str, rank: int) -> dict:
    """roots, coroot_coords and weights, in the library's root order."""
    simples = simple_roots(type_label, rank)
    gram = [[_dot(a, b) for b in simples] for a in simples]
    cartan = [[2 * gram[i][j] / gram[i][i] for j in range(rank)] for i in range(rank)]

    def inner(u, v):
        return sum(u[i] * v[j] * gram[i][j] for i in range(rank) for j in range(rank))

    def reflect(r, i):
        out = list(r)
        out[i] -= sum(c * x for c, x in zip(cartan[i], r))
        return tuple(int(x) for x in out)

    roots = set()
    frontier = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    while frontier:
        roots |= frontier
        frontier = {reflect(r, i) for r in frontier for i in range(rank)} - roots
    positives = sorted(
        (r for r in roots if next(x for x in r if x) > 0), key=lambda r: (sum(r), r)
    )
    ordered = positives + [tuple(-x for x in r) for r in positives]
    coroots = []
    for r in ordered:
        cc = [F(r[j]) * gram[j][j] / inner(r, r) for j in range(rank)]
        assert all(c.denominator == 1 for c in cc)
        coroots.append(tuple(int(c) for c in cc))
    # fundamental weights: lambda_i = sum_j x_j alpha_j with <lambda_i, alpha_k^vee>
    # = sum_j cartan[k][j] x_j = delta_ik, so x is column i of the inverse
    # Cartan matrix, found by Gauss-Jordan in rationals
    aug = [
        [F(cartan[i][j]) for j in range(rank)] + [F(int(i == k)) for k in range(rank)]
        for i in range(rank)
    ]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(rank):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[rank:] for row in aug]
    weights = tuple(tuple(inv[j][i] for j in range(rank)) for i in range(rank))
    return {
        "roots": tuple(ordered),
        "coroot_coords": tuple(coroots),
        "weights": weights,
        "reflect": reflect,
    }


def _compose(s, w):
    return tuple(s[j] for j in w)


def _closure(ident, gens):
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = _compose(s, w)
                if cand not in seen:
                    seen[cand] = None
                    nxt.append(cand)
        frontier = nxt
    return list(seen)


def weyl_data(type_label: str, rank: int) -> dict:
    """The permutations of W in BFS order, w_0, and per p the Weyl subset
    and w_p, with w_0 and w_p of maximal length."""
    data = root_data(type_label, rank)
    roots, reflect = data["roots"], data["reflect"]
    index = {r: i for i, r in enumerate(roots)}
    n_pos = len(roots) // 2
    gens = [tuple(index[reflect(r, i)] for r in roots) for i in range(rank)]
    ident = tuple(range(len(roots)))
    elements = _closure(ident, gens)

    def inversions(w):
        return {i for i in range(n_pos) if w[i] >= n_pos}

    longest = max(elements, key=lambda w: len(inversions(w)))
    simple = [index[tuple(int(j == i) for j in range(rank))] for i in range(rank)]
    parabolics = {}
    for p0 in range(rank):
        delta_p = [simple[j] for j in range(rank) if j != p0]
        subset = [
            w for w in elements
            if all(w[d] in simple or w[d] >= n_pos for d in delta_p)
        ]
        levi_pos = {i for i in range(n_pos) if roots[i][p0] == 0}
        levi = _closure(ident, [gens[j] for j in range(rank) if j != p0])
        w_p = max(levi, key=lambda w: len(levi_pos & inversions(w)))
        parabolics[p0 + 1] = {"weyl_subset": subset, "levi_longest": w_p}
    return {**data, "elements": elements, "longest": longest, "parabolics": parabolics}
