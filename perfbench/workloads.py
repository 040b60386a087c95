"""Seeded inputs and the job list of each workload.

A job is one `nazeta` invocation (or one library call) run in its own
fresh interpreter.  The seed picks the two curves; the job templates are
fixed, so every seed runs the same operations on curves of the same cost
class (fixed q, nonzero trace, simple Weil factors).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Curve:
    """A seeded curve: genus, field size and Weil numerator P(T)."""

    label: str
    g: int
    q: int
    P: tuple[Fraction, ...]
    spec: dict  # the curve file handed to the program
    n_points: int  # #X(F_q) = q + 1 + P[1]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def elliptic(q: int, n: int) -> Curve:
    """Genus one over F_q with n points: P = 1 - (q+1-n) T + q T^2."""
    a = q + 1 - n
    P = (Fraction(1), Fraction(-a), Fraction(q))
    spec = {"genus": 1, "q": q, "point_counts": [n]}
    return Curve(f"E(q={q},N={n})", 1, q, P, spec, n)


def genus2(q: int, a: int, b: int) -> Curve:
    """Genus two over F_q with P = (1 - aT + qT^2)(1 - bT + qT^2)."""
    P = _poly_mul((1, -a, q), (1, -b, q))
    P = tuple(Fraction(c) for c in P)
    spec = {"genus": 2, "q": q, "numerator_coeffs": [str(c) for c in P]}
    return Curve(f"G(q={q},a={a},b={b})", 2, q, P, spec, q + 1 - a - b)


# Hasse-admissible candidates.  Genus one over F_3: every N with
# |q+1-N| <= 2 sqrt(q) except trace 0.  Genus two over F_2: products of two
# distinct Hasse-admissible elliptic factors (|a|, |b| <= 2) with a + b != 0
# and at least one rational point.  Trace 0 makes the numerators sparse and
# the run cheaper; repeated factors give multiple zeros.  Both are left out
# so that every seed has the same cost class.
G1_CANDIDATES = tuple(elliptic(3, n) for n in (1, 2, 3, 5, 6, 7))
G2_CANDIDATES = tuple(
    genus2(2, a, b)
    for a in range(2, -3, -1)
    for b in range(a - 1, -3, -1)
    if a + b != 0 and 3 - a - b >= 1
)


def curves_for_seed(seed: int) -> dict[str, Curve]:
    rng = random.Random(seed)
    return {"g1": rng.choice(G1_CANDIDATES), "g2": rng.choice(G2_CANDIDATES)}


@dataclass(frozen=True)
class Job:
    """One fresh-interpreter operation."""

    kind: str  # "group", "residue", "mass", "report", "engine", "beta-sym"
    curve: str | None  # curve role, None for report-all
    params: tuple = ()

    def key(self, curves: dict[str, Curve]) -> str:
        where = curves[self.curve].label if self.curve else "fixed"
        args = ",".join(str(x) for x in self.params)
        return f"{self.kind}[{args}]@{where}"


def _pairs(role, kind, items):
    return [Job(kind, role, tuple(x)) for x in items]


# (type, rank, p).  Every supported (type, rank) appears on one of the
# curves; A5 p=3 on the genus-two curve is the largest Weyl subset (106).
GROUP_SWEEP = _pairs(
    "g1",
    "group",
    [("A", 1, 1), ("A", 2, 1), ("A", 3, 2), ("A", 4, 1), ("B", 3, 2),
     ("C", 2, 2), ("G2", 2, 2)],
) + _pairs("g2", "group", [("A", 5, 3), ("B", 2, 2), ("C", 3, 3)])

RESIDUE_ORACLE = (
    _pairs("g1", "residue", [("A", 2, 1), ("A", 2, 2), ("B", 2, 1), ("C", 2, 2),
                             ("G2", 2, 2), ("A", 3, 2)])
    + _pairs("g2", "residue", [("A", 2, 2), ("B", 2, 1), ("C", 2, 2)])
    + [Job("engine", "g1", ("A", 2, 1))]
)

# (r, d) pairs for the degree-d masses; each is evaluated at d, d+r, -d, r-d.
BETA_SYM_PAIRS = ((4, 1), (5, 2), (6, 1), (7, 3))
MASS_LADDER = (
    _pairs("g1", "mass", [(r,) for r in (1, 2, 8, 12)])
    + _pairs("g2", "mass", [(r,) for r in (1, 2, 10, 13)])
    + [Job("beta-sym", role, BETA_SYM_PAIRS) for role in ("g1", "g2")]
)

REPORT_ALL = [Job("report", None)]

WORKLOADS = {
    "group-sweep": GROUP_SWEEP,
    "residue-oracle": RESIDUE_ORACLE,
    "mass-ladder": MASS_LADDER,
    "report-all": REPORT_ALL,
}


def write_curves(curves: dict[str, Curve], work: Path) -> dict[str, str]:
    paths = {}
    for role, c in curves.items():
        path = work / f"curve-{role}.json"
        path.write_text(json.dumps(c.spec, sort_keys=True) + "\n")
        paths[role] = str(path)
    return paths


def cli_argv(job: Job, curve_path: str | None, json_out: str, csv_out: str) -> list[str]:
    """The `nazeta` arguments of a CLI job (None for library jobs)."""
    if job.kind == "report":
        return ["report-all", "--json-out", json_out]
    if job.kind == "mass":
        return ["mass", "--curve", curve_path, "--r", str(job.params[0]),
                "--json-out", json_out]
    if job.kind in ("group", "residue"):
        t, rank, p = job.params
        cmd = "group" if job.kind == "group" else "residue-compare"
        argv = [cmd, "--curve", curve_path, "--type", t, "--rank", str(rank),
                "--p", str(p), "--json-out", json_out]
        if job.kind == "group":
            argv += ["--csv-out", csv_out]
        return argv
    return None
