"""Acceptance checklist, one test per criterion, one line per sub-check.

Criterion 3 contains two sub-checks that are implemented as printed and
are expected to fail: the printed mixed-zeta numerator contradicts its
own defining sum (the t^2 coefficient must be N-2, not N-1), and the
claimed blanket RH failure does not hold at desk scale for q in
{2,3,4}.  See the README's known-red section; the checks are asserted
as stated rather than weakened.
"""

import time

import nazeta.groupzeta
import nazeta.rootsys
from nazeta import acceptance


def _run(fn, budget=None):
    start = time.time()
    result = fn()
    elapsed = time.time() - start
    print()
    print(result.render())
    print(f"  ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"
    return result


def test_criterion_1_mass_triple_agreement():
    result = _run(acceptance.criterion_1, budget=5.0)
    assert result.passed


def test_criterion_2_rank2_elliptic_pure_zeta():
    result = _run(acceptance.criterion_2)
    assert result.passed


def test_criterion_3_counterexamples():
    result = _run(acceptance.criterion_3)
    assert result.passed


def test_criterion_4_group_zeta_rank_one():
    result = _run(acceptance.criterion_4)
    assert result.passed


def test_criterion_5_symbolic_identity_suite():
    result = _run(acceptance.criterion_5, budget=60.0)
    assert result.passed


def test_criterion_5_builds_one_count_table_per_group_zeta(monkeypatch):
    # the tables depend on pd alone: group_zeta keeps the one it builds,
    # and the decomposition and the count identities read it
    calls = []
    real = nazeta.rootsys.count_tables

    def counted(pd):
        calls.append(f"{pd.rs.type_label}{pd.rs.rank} p={pd.p}")
        return real(pd)

    monkeypatch.setattr(nazeta.groupzeta, "count_tables", counted)
    monkeypatch.setattr(nazeta.rootsys, "count_tables", counted)
    assert acceptance.criterion_5().passed
    # one table per group zeta: two curves on each of the five pairs
    assert len(calls) == 10 and len(set(calls)) == 5


def test_criterion_6_residue_route_oracle():
    result = _run(acceptance.criterion_6, budget=30.0)
    assert result.passed


def test_criterion_7_number_field_volumes():
    result = _run(acceptance.criterion_7)
    assert result.passed


def test_criterion_8_uniformity_rank_two():
    result = _run(acceptance.criterion_8)
    assert result.passed


def test_criterion_9_property_suites():
    result = _run(acceptance.criterion_9)
    assert result.passed


def test_hasse_range_is_the_integer_definition():
    # {N >= 1 : (q+1-N)^2 <= 4q}, as a range so a large q costs nothing
    def admissible(q, n):
        return n >= 1 and (q + 1 - n) ** 2 <= 4 * q

    assert isinstance(acceptance.hasse_range(2), range)
    for q in range(2, 2001):  # every admissible N is at most 2q + 2
        expected = [n for n in range(2 * q + 3) if admissible(q, n)]
        assert list(acceptance.hasse_range(q)) == expected
    # 4q is a perfect square beyond double precision; an interval is
    # decided by its ends and their outer neighbours
    q = 3**40
    r = acceptance.hasse_range(q)
    assert r.step == 1 and (r[0], r[-1]) == (q + 1 - 2 * 3**20, q + 1 + 2 * 3**20)
    assert admissible(q, r[0]) and admissible(q, r[-1])
    assert not admissible(q, r[0] - 1) and not admissible(q, r[-1] + 1)
