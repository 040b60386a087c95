"""Root systems, Weyl groups and the parabolic count tables."""

import random
from fractions import Fraction as F

import pytest

import nazeta.rootsys
import records
import weyl_oracle
from per_root_oracle import coroot_vector, inner, pairing_with_coroot
from nazeta.errors import CapabilityError, DomainError, ValidationError
from nazeta.rootsys import (
    SUPPORTED,
    build_root_system,
    count_tables,
    enumerate_weyl,
    parabolic_data,
    verify_count_identities,
)


def make(label, rank, p=None):
    rs = build_root_system(label, rank)
    W = enumerate_weyl(rs)
    if p is None:
        return rs, W
    return rs, W, parabolic_data(rs, W, p)


class TestRootSystems:
    def test_a1(self):
        rs, W = make("A", 1)
        assert len(rs.roots) == 2
        assert rs.weight_pairing(0, rs.simple_indices()[0]) == 1
        # rho = alpha/2 so the coroot height of alpha is 1
        assert rs.coroot_height(rs.simple_indices()[0]) == 1

    def test_a2_heights(self):
        rs, _ = make("A", 2)
        assert len(rs.roots) == 6
        heights = sorted(rs.coroot_height(i) for i in range(3))
        assert heights == [1, 1, 2]

    def test_an_root_counts(self):
        for n in (1, 2, 3, 4, 5):
            rs = build_root_system("A", n)
            assert len(rs.roots) == n * (n + 1)

    def test_g2(self):
        rs = build_root_system("G2")
        assert len(rs.roots) == 12
        assert max(rs.coroot_height(i) for i in range(12)) == 5

    def test_bc_counts(self):
        for label in ("B", "C"):
            assert len(build_root_system(label, 2).roots) == 8
            assert len(build_root_system(label, 3).roots) == 18

    def test_weight_coroot_duality(self):
        for label, rank in (("A", 3), ("B", 2), ("C", 3), ("G2", 2)):
            rs = build_root_system(label, rank)
            for i, s in enumerate(rs.simple_indices()):
                for p in range(rs.rank):
                    assert rs.weight_pairing(p, s) == (1 if p == i else 0)

    def test_highest_root_pairing(self):
        # <lambda, theta^vee> = h + sum k_j s_j for lambda = rho + sum s_j
        # lambda_j: k is the coroot coordinate vector, h the coroot height
        rs = build_root_system("A", 2)
        theta = rs.root_index((1, 1))
        assert rs.coroot_coords[theta] == (1, 1)
        assert rs.coroot_height(theta) == 2

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 2), ("G2", 2)])
    def test_tampered_coroot_coordinate_is_caught(self, label, rank):
        rs = build_root_system(label, rank)
        top = rs.n_positive - 1  # the highest root, never simple
        coords = list(rs.coroot_coords)
        coords[top] = (coords[top][0] + 1,) + coords[top][1:]
        bad = records.replace(rs, coroot_coords=tuple(coords))
        with pytest.raises(ValidationError, match="coroot coordinate inconsistency"):
            nazeta.rootsys._validate_root_system(bad)

    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 2), ("G2", 2)])
    def test_tampered_weight_is_caught(self, label, rank):
        rs = build_root_system(label, rank)
        weights = list(rs.weights)
        weights[-1] = (weights[-1][0] + F(1, 2),) + weights[-1][1:]
        bad = records.replace(rs, weights=tuple(weights))
        with pytest.raises(ValidationError, match="coroot coordinate inconsistency"):
            nazeta.rootsys._validate_root_system(bad)

    @pytest.mark.parametrize("field", ["gram", "cartan"])
    @pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 2), ("G2", 2)])
    def test_tampered_integer_matrix_is_caught(self, label, rank, field):
        rs = build_root_system(label, rank)
        rows = [list(row) for row in getattr(rs, field)]
        rows[0][1] += 1
        bad = records.replace(rs, **{field: tuple(map(tuple, rows))})
        with pytest.raises(ValidationError, match="Cartan matrix disagrees"):
            nazeta.rootsys._validate_root_system(bad)

    def test_root_data_is_integral(self):
        for label, ranks in SUPPORTED.items():
            for rank in ranks:
                rs = build_root_system(label, rank)
                for table in (rs.gram, rs.cartan, rs.roots, rs.coroot_coords):
                    assert all(type(x) is int for row in table for x in row)
                assert all(type(x) is F for w in rs.weights for x in w)

    def test_pairings_stay_exact_on_integer_vectors(self):
        rs = build_root_system("C", 2)  # roots of two lengths
        for idx in range(len(rs.roots)):
            assert all(type(pairing_with_coroot(rs, v, idx)) is F for v in rs.roots)
            assert all(type(x) is F for x in coroot_vector(rs, idx))
        short, long_ = rs.simple_indices()
        assert pairing_with_coroot(rs, rs.roots[short], long_) == F(-1)
        assert pairing_with_coroot(rs, rs.roots[long_], short) == F(-2)
        assert coroot_vector(rs, long_) == (F(0), F(1, 2))

    def test_unsupported_rejected(self):
        with pytest.raises(CapabilityError):
            build_root_system("E", 8)
        with pytest.raises(CapabilityError):
            build_root_system("A", 9)
        with pytest.raises(CapabilityError):
            build_root_system("G2", 3)


class TestWeylGroup:
    def test_orders(self):
        assert len(make("A", 1)[1]) == 2
        assert len(make("A", 2)[1]) == 6
        assert len(make("A", 3)[1]) == 24
        assert len(make("B", 3)[1]) == 48
        assert len(make("G2", 2)[1]) == 12

    def test_longest_element(self):
        rs, W = make("A", 3)
        assert len(W.inversion_set(W.longest)) == 6
        sq = W.longest.compose(W.longest)
        assert sq.perm == W.identity.perm
        # w_0 maps the positive roots onto the negative roots
        for i in range(rs.n_positive):
            assert not rs.is_positive(W.longest.apply(i))

    def test_length_is_inversion_count(self):
        rs, W = make("A", 3)
        for w in W.elements:
            inv = W.inversion_set(w)
            assert all(i < rs.n_positive for i in inv)
            # growing a reduced word one letter changes length by one;
            # here: composing with each generator changes |Phi_w| by 1
            for s in W.simple_reflections:
                delta = abs(len(W.inversion_set(s.compose(w))) - len(inv))
                assert delta == 1

    def test_action_is_orthogonal(self):
        rs, W = make("A", 3)
        rng = random.Random(7)
        vecs = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rs.rank))
            for _ in range(4)
        ]
        for w in rng.sample(W.elements, 6):
            winv = w.inverse()
            for u in vecs:
                for v in vecs:
                    lhs = inner(rs, W.act_vector(w, u), v)
                    rhs = inner(rs, u, W.act_vector(winv, v))
                    assert lhs == rhs

    def test_coroot_equivariance(self):
        rs, W = make("B", 2)
        rng = random.Random(3)
        for w in rng.sample(W.elements, 5):
            for idx in rng.sample(range(len(rs.roots)), 4):
                img = w.apply(idx)
                lhs = coroot_vector(rs, img)
                rhs = W.act_vector(w, coroot_vector(rs, idx))
                assert lhs == tuple(rhs)

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(nazeta.rootsys, "WEYL_CAP", 10)
        with pytest.raises(CapabilityError):
            enumerate_weyl(build_root_system("A", 5))


ALL_TRIPLES = [
    (label, rank, p)
    for label, ranks in SUPPORTED.items()
    for rank in ranks
    for p in range(1, rank + 1)
]


@pytest.mark.parametrize("label,rank,p", ALL_TRIPLES)
def test_matches_the_rational_length_maximising_oracle(label, rank, p):
    # integer root data, the simple-image closure key and the sign tests
    # for w_0 and w_p against the Fraction Gram, the composing closure
    # and the maximal-length search; then the count tables against counts
    # over the oracle's subset, maximised by brute force over a box one
    # wider than the library's on every side
    expect = weyl_oracle.weyl_data(label, rank)
    rs, W, pd = make(label, rank, p)
    assert rs.roots == expect["roots"]
    assert rs.coroot_coords == expect["coroot_coords"]
    assert rs.weights == expect["weights"]
    assert [w.perm for w in W.elements] == expect["elements"]
    assert W.longest.perm == expect["longest"]
    subset = expect["parabolics"][p]["weyl_subset"]
    assert [w.perm for w in pd.weyl_subset] == subset
    assert pd.levi_longest.perm == expect["parabolics"][p]["levi_longest"]

    keys = [(cc[p - 1], sum(cc)) for cc in expect["coroot_coords"]]
    n_pos = len(keys) // 2

    def tally(indices):
        counts = {}
        for i in indices:
            counts[keys[i]] = counts.get(keys[i], 0) + 1
        return counts

    per_w = [tally(i for i in range(len(keys)) if w[i] >= n_pos) for w in subset]
    kmax = max(abs(k) for k, _ in keys)
    hmax = max(abs(h) for _, h in keys)
    max_diff = {}
    for k in range(-kmax - 1, kmax + 2):
        for h in range(-hmax - 2, hmax + 3):
            m = max(nw.get((k, h - 1), 0) - nw.get((k, h), 0) for nw in per_w)
            if m:
                max_diff[(k, h)] = m
    table = count_tables(pd)
    assert table.per_w == tuple(per_w)
    assert table.global_counts == tally(range(len(keys)))
    assert table.max_diff == max_diff


class TestParabolicData:
    def test_a1_trivial_levi(self):
        _, _, pd = make("A", 1, 1)
        assert pd.c_p == 2 and type(pd.c_p) is int
        assert len(pd.weyl_subset) == 2

    def test_a2_first(self):
        rs, W, pd = make("A", 2, 1)
        assert pd.c_p == 3
        assert len(pd.weyl_subset) == 5
        # the unique excluded element sends the Levi simple root to the
        # highest root
        excluded = [
            w for w in W.elements
            if w.perm not in {x.perm for x in pd.weyl_subset}
        ]
        assert len(excluded) == 1
        levi_simple = next(
            i for i in rs.simple_indices() if rs.roots[i][pd.p0] == 0
        )
        image = rs.roots[excluded[0].apply(levi_simple)]
        assert image == (1, 1)

    @pytest.mark.parametrize("label,rank,p", ALL_TRIPLES)
    def test_key_table(self, label, rank, p):
        rs, _, pd = make(label, rank, p)
        assert pd.keys == tuple(
            (rs.weight_pairing(pd.p0, i), rs.coroot_height(i))
            for i in range(len(rs.roots))
        )
        # the key (0, 1) marks exactly the roots of Delta_p
        delta_p = {s for j, s in enumerate(rs.simple_indices()) if j != pd.p0}
        assert {i for i, key in enumerate(pd.keys) if key == (0, 1)} == delta_p

    def test_cp_is_the_defining_pairing_on_every_supported_pair(self):
        # c_p = 2<lambda_p - rho_p, alpha_p^vee>, evaluated in rationals,
        # with rho_p half the sum of the positive roots of the Levi
        count = 0
        for label, ranks in SUPPORTED.items():
            for rank in ranks:
                rs, W = make(label, rank)
                for p in range(1, rank + 1):
                    pd = parabolic_data(rs, W, p)
                    levi = [r for r in rs.roots[: rs.n_positive] if r[p - 1] == 0]
                    rho_p = tuple(F(sum(r[j] for r in levi), 2) for j in range(rank))
                    alpha_p = rs.simple_indices()[p - 1]
                    lam_p = rs.weights[p - 1]
                    pairing = pairing_with_coroot(rs, lam_p, alpha_p)
                    pairing -= pairing_with_coroot(rs, rho_p, alpha_p)
                    assert type(pd.c_p) is int and pd.c_p == 2 * pairing
                    count += 1
        assert count == 27

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_cp_equals_rank_for_last_node(self, r):
        _, _, pd = make("A", r - 1, r - 1)
        assert pd.c_p == r

    def test_index_bounds(self):
        rs, W = make("A", 2)
        with pytest.raises(DomainError):
            parabolic_data(rs, W, 3)

    def test_involution_preserves_subset(self):
        for label, rank, p in (("A", 2, 1), ("A", 3, 2), ("B", 3, 2), ("G2", 2, 1)):
            rs, W, pd = make(label, rank, p)
            perms = {w.perm for w in pd.weyl_subset}
            for w in pd.weyl_subset:
                img = W.longest.compose(w).compose(pd.levi_longest)
                assert img.perm in perms
                twice = W.longest.compose(img).compose(pd.levi_longest)
                assert twice.perm == w.perm
            # identity maps to w_0 w_p
            img = W.longest.compose(W.identity).compose(pd.levi_longest)
            assert img.perm == W.longest.compose(pd.levi_longest).perm


class TestCountTables:
    def test_a1_longest_row(self):
        rs, W, pd = make("A", 1, 1)
        table = count_tables(pd)
        w0_row = next(
            row
            for w, row in zip(pd.weyl_subset, table.per_w)
            if w.perm == W.longest.perm
        )
        assert w0_row == {(1, 1): 1}
        assert table.normalization_exponents() == {(1, 2): 1}

    def test_global_covers_all_roots(self):
        rs, W, pd = make("A", 2, 1)
        table = count_tables(pd)
        assert sum(table.global_counts.values()) == 6

    def test_per_w_covers_half(self):
        rs, W, pd = make("A", 3, 2)
        table = count_tables(pd)
        for row in table.per_w:
            assert sum(row.values()) == rs.n_positive

    def test_clamped_relation(self):
        for label, rank, p in ALL_TRIPLES:
            rs, W, pd = make(label, rank, p)
            table = count_tables(pd)
            # clamping M_p at zero changes nothing for h >= 1; no certificate
            # records this, since it holds once the identity is in the subset
            kmax = max(abs(k) for k, _ in pd.keys)
            hmax = max(h for _, h in pd.keys)
            for k in range(-kmax, kmax + 1):
                for h in range(1, hmax + 2):
                    assert table.max_diff.get((k, h), 0) >= 0
            assert table.normalization_exponents() == {
                (k, h): m
                for (k, h), m in table.max_diff.items()
                if k >= 0 and h >= 2 and m > 0
            }

    @pytest.mark.parametrize(
        "label,rank,ps",
        [
            ("A", 1, (1,)),
            ("A", 2, (1, 2)),
            ("A", 3, (1, 2, 3)),
            ("B", 3, (1, 2, 3)),
            ("C", 3, (1, 2, 3)),
            ("G2", 2, (1, 2)),
        ],
    )
    def test_identities(self, label, rank, ps):
        rs, W = make(label, rank)
        for p in ps:
            pd = parabolic_data(rs, W, p)
            cert = verify_count_identities(W, pd, count_tables(pd))
            assert cert.passed
            names = {c["identity"] for c in cert.checks}
            assert any("reflection symmetry" in n for n in names)
            assert any("longest-element" in n for n in names)

    def test_negative_max_difference_fails_the_longest_element_formula(self):
        # a negative M_p(1, 2) breaks the longest-element formula there;
        # with c_p = 3 the reflection identity at (1, 2) reads M_p(1, 2) on
        # both sides
        rs, W, pd = make("A", 2, 1)
        table = count_tables(pd)
        bad = dict(table.max_diff)
        bad[(1, 2)] = -1
        cert = verify_count_identities(W, pd, records.replace(table, max_diff=bad))
        assert not cert.passed
        assert cert.failures() == [
            {
                "identity": "longest-element difference formula (h>=2, clamped)",
                "ok": False, "k": 1, "h": 2,
            },
        ]

    def test_corrupted_global_counts_record_every_witness(self):
        # N_p(k, h0 - 1) enters the reflection identity twice: as the
        # right side at h = h0 and as the left side at h = k c_p - h0 + 1
        rs, W, pd = make("A", 3, 2)
        table = count_tables(pd)
        k, h0 = 1, 3
        bad = dict(table.global_counts)
        bad[(k, h0 - 1)] = bad.get((k, h0 - 1), 0) + 1
        cert = verify_count_identities(
            W, pd, records.replace(table, global_counts=bad)
        )
        witnesses = {(c["k"], c["h"]) for c in cert.failures()}
        assert {c["identity"] for c in cert.failures()} == {
            "reflection symmetry of counts"
        }
        assert witnesses == {(k, h0), (k, k * pd.c_p - h0 + 1)}
        assert len(witnesses) == 2

    @pytest.mark.parametrize("label,rank,p", ALL_TRIPLES)
    def test_every_check_reads_an_entry(self, label, rank, p):
        # each recorded line reads a present entry of N_p, M_p or w_0's
        # row; a line that reads none would compare 0 = 0
        rs, W, pd = make(label, rank, p)
        table = count_tables(pd)
        N, M = table.global_counts, table.max_diff
        nw0 = next(
            row
            for w, row in zip(pd.weyl_subset, table.per_w)
            if w.perm == W.longest.perm
        )
        cert = verify_count_identities(W, pd, table)
        assert cert.checks
        for line in cert.checks:
            k, h = line["k"], line["h"]
            if line["identity"] == "reflection symmetry of counts":
                mirror = k * pd.c_p - h + 1
                read = [
                    (N, (k, mirror - 1)), (M, (k, mirror)),
                    (N, (k, h - 1)), (M, (k, h)),
                ]
            else:
                read = [(M, (k, h)), (nw0, (k, h - 1)), (nw0, (k, h))]
            assert any(key in counts for counts, key in read), line

    def test_max_difference_outside_the_pairing_range_fails(self):
        # on A2 p=1 every key has |k| <= 1; M_p(2, 2) = 1 breaks the
        # reflection identity at (2, 2) and at its mirror (2, 3*2 - 2 + 1),
        # and the longest-element formula at (2, 2)
        rs, W, pd = make("A", 2, 1)
        table = count_tables(pd)
        bad = dict(table.max_diff)
        bad[(2, 2)] = 1
        cert = verify_count_identities(W, pd, records.replace(table, max_diff=bad))
        assert cert.failures() == [
            {"identity": "reflection symmetry of counts", "ok": False, "k": 2, "h": 2},
            {"identity": "reflection symmetry of counts", "ok": False, "k": 2, "h": 5},
            {
                "identity": "longest-element difference formula (h>=2, clamped)",
                "ok": False, "k": 2, "h": 2,
            },
        ]
