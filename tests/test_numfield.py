"""Number-field volume formulas and the reduction-identity probe."""

import math

import mpmath
import pytest

from nazeta.compositions import parabolic_mass_sum
from nazeta.errors import DomainError
from nazeta.numfield import (
    KS_CONVENTIONS,
    completed_riemann,
    ks_identity_probe,
    moduli_volume,
    siegel_volume,
    volume_table,
)

from composition_oracle import compositions

SERIES_TERMS = 20_000


def completed_riemann_series(n: int) -> float:
    """Independent oracle: direct Dirichlet series with tail correction.

    Sums k^{-n} for k <= K and adds the Euler-Maclaurin tail
    K^{1-n}/(n-1) - K^{-n}/2 + n K^{-n-1}/12, then multiplies by the
    Gamma factor; accurate far beyond 1e-10 for n >= 2.
    """
    zeta = sum(k ** (-float(n)) for k in range(1, SERIES_TERMS + 1))
    K = float(SERIES_TERMS)
    zeta += K ** (1 - n) / (n - 1) - K ** (-n) / 2 + n * K ** (-n - 1) / 12
    return math.pi ** (-n / 2) * math.gamma(n / 2) * zeta


class TestCompletedRiemann:
    def test_residue_value_at_one(self):
        assert completed_riemann(1) == 1.0

    def test_value_at_two(self):
        assert abs(completed_riemann(2) - math.pi / 6) < 1e-12

    def test_value_at_four(self):
        assert abs(completed_riemann(4) - math.pi**2 / 90) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_series_oracle_agrees(self, n):
        assert abs(completed_riemann(n) - completed_riemann_series(n)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_matches_25_digit_value(self, n):
        with mpmath.workdps(25):
            val = mpmath.pi ** (-mpmath.mpf(n) / 2) * mpmath.gamma(
                mpmath.mpf(n) / 2
            ) * mpmath.zeta(n)
            assert completed_riemann(n) == float(val)

    def test_domain(self):
        for n in (0, 9):
            with pytest.raises(DomainError):
                completed_riemann(n)


class TestVolumes:
    def test_siegel_values(self):
        assert siegel_volume(1) == 1.0
        assert abs(siegel_volume(2) - math.pi / 3) < 1e-10
        r3 = 3 * completed_riemann(1) * completed_riemann(2) * completed_riemann(3)
        assert abs(siegel_volume(3) - r3) < 1e-14

    def test_moduli_values(self):
        assert moduli_volume(1) == 1.0
        assert abs(moduli_volume(2) - (math.pi / 3 - 1)) < 1e-10

    def test_positive(self):
        table = volume_table(5)
        assert all(v > 0 for v in table.siegel)
        assert all(v > 0 for v in table.moduli)

    def test_shared_engine(self):
        import nazeta.numfield as nf
        import nazeta.purezeta as pz

        assert nf.parabolic_mass_sum is pz.parabolic_mass_sum
        assert nf.parabolic_mass_sum is parabolic_mass_sum

    def test_engine_reproduces_moduli(self):
        total = parabolic_mass_sum(
            3, completed_riemann, lambda a, b: float(a + b)
        )
        assert moduli_volume(3) == 3 * total

    @pytest.mark.parametrize("r", range(5, 9))
    def test_moduli_against_50_digit_sum(self, r):
        # the alternating sum cancels heavily; term by term in doubles it
        # was 2.4e-10 off at r = 8
        with mpmath.workdps(50):
            zhat = [None, mpmath.mpf(1)] + [
                mpmath.pi ** (-mpmath.mpf(n) / 2)
                * mpmath.gamma(mpmath.mpf(n) / 2)
                * mpmath.zeta(n)
                for n in range(2, r + 1)
            ]
            total = mpmath.mpf(0)
            for comp in compositions(r):
                term = mpmath.mpf(-1) ** (len(comp) - 1)
                for n in comp:
                    term *= mpmath.fprod(zhat[1 : n + 1])
                for a, b in zip(comp, comp[1:]):
                    term /= a + b
                total += term
            reference = r * total
            assert abs(moduli_volume(r) - reference) <= 1e-11 * abs(reference)


class TestReductionProbe:
    def test_rank_one_all_conventions_trivial(self):
        probe = ks_identity_probe(1)
        vals = {row["value"] for row in probe["conventions"].values()}
        assert vals == {1.0}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_probe_shape_and_runtime(self, r):
        import time

        start = time.time()
        probe = ks_identity_probe(r)
        assert time.time() - start < 1.0
        assert set(probe["conventions"]) == set(KS_CONVENTIONS)
        for row in probe["conventions"].values():
            assert row["deviation"] >= 0

    def test_literal_readings_deviate(self):
        probe = ks_identity_probe(2)
        assert probe["conventions"]["prefix"]["deviation"] > 0.1
        assert probe["conventions"]["prefix_suffix_full"]["deviation"] > 0.1

    @pytest.mark.parametrize("r", range(1, 6))
    @pytest.mark.parametrize("convention", sorted(KS_CONVENTIONS))
    def test_recurrence_matches_enumeration(self, r, convention):
        # each composition's chain read off its prefix and suffix sums
        def chain(comp):
            prefix = [sum(comp[: i + 1]) for i in range(len(comp))]
            suffix = [sum(comp[i:]) for i in range(len(comp))][::-1]
            kept = {
                "prefix": prefix,
                "prefix_suffix_shared": prefix + suffix[:-1],
                "prefix_suffix_full": prefix + suffix,
                "proper_prefix_suffix": prefix[:-1] + suffix[:-1],
            }[convention]
            return math.prod(kept)

        enumerated = sum(
            math.prod(moduli_volume(n) for n in comp) / chain(comp)
            for comp in compositions(r)
        )
        value = ks_identity_probe(r)["conventions"][convention]["value"]
        assert value == pytest.approx(enumerated, rel=1e-12)
