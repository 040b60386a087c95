"""Checks of every job's output against values computed apart from nazeta.

The oracles use the benchmark's own `Fraction` code and the curve data the
benchmark generated.  From the program they take only the combinatorial
root data of `nazeta.rootsys` (roots, Weyl group, surviving Weyl subset,
pairings and coroot heights), as the closed formula needs it.

Each check function returns a list of failure messages (empty = correct).
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from math import factorial

from workloads import BETA_SYM_PAIRS, Curve

SAMPLE_POINTS = (Fraction(5, 7), Fraction(11, 13))
ROOT_RESIDUAL = 1e-6


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fracs(strings):
    return [Fraction(s) for s in strings]


# ---------------------------------------------------------------------------
# exact-field digests (information only)
# ---------------------------------------------------------------------------


def exact_fields(obj):
    """The JSON value with floats and the version header removed."""
    if isinstance(obj, dict):
        return {k: exact_fields(v) for k, v in obj.items()
                if k != "version" and not isinstance(v, float)}
    if isinstance(obj, list):
        return [exact_fields(v) for v in obj if not isinstance(v, float)]
    return obj


def digest(obj) -> str:
    text = json.dumps(exact_fields(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# curve values
# ---------------------------------------------------------------------------


def zhat(c: Curve, k: int, h: int, u: Fraction) -> Fraction:
    """Completed zeta at k*s + h: q^{(g-1)h} U^{-(g-1)} P(Uq^{-h}) over
    (1 - Uq^{-h})(1 - Uq^{1-h}), U = u^k."""
    q = Fraction(c.q)
    U = u**k
    x = U / q**h
    return q ** ((c.g - 1) * h) * U ** (1 - c.g) * horner(c.P, x) / ((1 - x) * (1 - q * x))


def stripped_value(c: Curve) -> Fraction:
    """q^g P(1/q) / (q - 1), the stripped residue at s = 1."""
    q = Fraction(c.q)
    return q**c.g * horner(c.P, 1 / q) / (q - 1)


def weyl_sum_zeta(c: Curve, rs, pd, normalization, u: Fraction) -> Fraction:
    """Scalar value at u of the normalized Weyl-subset sum."""
    q = Fraction(c.q)
    n_pos = rs.n_positive
    simple = rs.simple_indices()
    levi_simple = {s for j, s in enumerate(simple) if j != pd.p0}
    key = functools.cache(lambda i: (rs.weight_pairing(pd.p0, i), rs.coroot_height(i)))
    zh = functools.cache(lambda k, h: zhat(c, k, h, u))
    total = Fraction(0)
    for w in pd.weyl_subset:
        perm = w.perm
        inverse = [0] * len(perm)
        for i, j in enumerate(perm):
            inverse[j] = i
        term = Fraction(1)
        for s in simple:
            if inverse[s] in levi_simple:
                continue
            k, h = key(inverse[s])
            term /= 1 - u**k * q ** (1 - h)
        for a in range(n_pos):
            if perm[a] >= n_pos:  # a is an inversion of w
                k, h = key(a)
                top = stripped_value(c) if (k, h) == (0, 1) else zh(k, h)
                term *= top / zh(k, h + 1)
        total += term
    for k, h, m in normalization:
        total *= zh(k, h) ** m
    return total


# ---------------------------------------------------------------------------
# masses: a prefix-sum recursion, not the composition enumeration
# ---------------------------------------------------------------------------


def beta_dp(c: Curve, r: int, d: int) -> Fraction:
    """Rank-r degree-d semi-stable mass by a recursion over (prefix, last part,
    fractional exponent in units of 1/r).  The cross term sum_{i<j} n_i n_j
    grows by n*s when a part n follows a prefix of sum s."""
    q = Fraction(c.q)
    g = c.g
    v = [None, horner(c.P, 1) / (q - 1)]
    for n in range(2, r + 1):
        x = q**-n
        zeta_n = horner(c.P, x) / ((1 - x) * (1 - q * x))
        v.append(v[-1] * zeta_n * q ** ((2 * n - 1) * (g - 1)))
    states: dict[tuple[int, int, int], Fraction] = {(n, n, 0): v[n] for n in range(1, r + 1)}
    for s in range(1, r):
        for (s0, last, e), val in [(k, x) for k, x in states.items() if k[0] == s]:
            frac_num = (s * d) % r
            for n in range(1, r - s + 1):
                carry, e2 = divmod(e + (last + n) * frac_num, r)
                add = val * v[n] * q ** ((g - 1) * n * s + carry) / (1 - q ** (last + n))
                k2 = (s + n, n, e2)
                states[k2] = states.get(k2, Fraction(0)) + add
    leftover = [k for k in states if k[0] == r and k[2] != 0]
    if leftover:
        raise ValueError(f"non-integer exponent in the mass recursion: {leftover}")
    return sum((x for k, x in states.items() if k[0] == r), Fraction(0))


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

WEYL_ORDERS = {("A", n): factorial(n + 1) for n in range(1, 6)}
WEYL_ORDERS.update({("B", n): 2**n * factorial(n) for n in (2, 3)})
WEYL_ORDERS.update({("C", n): 2**n * factorial(n) for n in (2, 3)})
WEYL_ORDERS[("G2", 2)] = 12


class RootData:
    """Cached (rs, W, pd) from nazeta.rootsys, imported on first use."""

    def __init__(self):
        self._cache = {}

    def get(self, t, rank, p):
        if (t, rank, p) not in self._cache:
            from nazeta.rootsys import build_root_system, enumerate_weyl, parabolic_data

            rs = build_root_system(t, rank)
            W = enumerate_weyl(rs)
            self._cache[(t, rank, p)] = (rs, W, parabolic_data(rs, W, p))
        return self._cache[(t, rank, p)]


def _zeta_checks(c: Curve, rs, pd, zeta, c_p, normalization, fe: bool) -> list[str]:
    bad = []
    num, den = _fracs(zeta["num"]), _fracs(zeta["den"])
    cp = Fraction(c_p)
    if cp.denominator != 1:
        return [f"non-integer c_p {c_p}"]
    for u in SAMPLE_POINTS:
        value = horner(num, u) / horner(den, u)
        if fe:
            u_ref = Fraction(c.q) ** int(cp) / u
            if value != horner(num, u_ref) / horner(den, u_ref):
                bad.append(f"zeta(u) != zeta(q^c_p/u) at u={u}")
        if value != weyl_sum_zeta(c, rs, pd, normalization, u):
            bad.append(f"zeta != scalar Weyl-subset sum at u={u}")
    return bad


def _edge_residue_check(c: Curve, cp: Fraction, num, den, reported) -> list[str]:
    """-Res_{u=u0}[zeta/u] at u0 = q^{c_p}, from the JSON fraction."""
    u0 = Fraction(c.q) ** int(cp)
    order, rest = 0, list(den)
    while len(rest) > 1 and horner(rest, u0) == 0:
        # synthetic division by (u - u0)
        out, acc = [], Fraction(0)
        for a in reversed(rest):
            acc = acc * u0 + a
            out.append(acc)
        rest = list(reversed(out[:-1]))
        order += 1
    if order == 0:
        expected = "0"
    elif order == 1:
        expected = str(-horner(num, u0) / (u0 * horner(rest, u0)))
    else:
        ok = isinstance(reported, dict) and reported.get("order") == order
        return [] if ok else [f"edge pole of order {order}, reported {reported}"]
    return [] if reported == expected else [f"edge residue {reported} != {expected}"]


def check_group(job, c: Curve, roots: RootData, out: dict, csv_rows: int, rc: int) -> list[str]:
    t, rank, p = job.params
    rs, W, pd = roots.get(t, rank, p)
    bad = [] if rc == 0 else [f"exit code {rc}"]
    if len(W.elements) != WEYL_ORDERS[(t, rank)]:
        bad.append(f"|W| = {len(W.elements)} != {WEYL_ORDERS[(t, rank)]}")
    if out.get("fe") is not True:
        bad.append("program reports the functional equation failed")
    bad += _zeta_checks(c, rs, pd, out["zeta"], out["c_p"], out["normalization"], True)
    num, den = _fracs(out["zeta"]["num"]), _fracs(out["zeta"]["den"])
    zeros = [complex(a, b) for a, b in out["zeros"]["zeros_u"]]
    if len(zeros) != len(num) - 1:
        bad.append(f"{len(zeros)} zeros for a numerator of degree {len(num) - 1}")
    fl = [float(x) for x in num]
    for z in zeros:
        scale = sum(abs(a) * abs(z) ** i for i, a in enumerate(fl))
        if abs(horner(fl, z)) > ROOT_RESIDUAL * scale:
            bad.append(f"reported zero {z} is not a root of the numerator")
    if csv_rows != len(zeros):
        bad.append(f"zero CSV has {csv_rows} rows for {len(zeros)} zeros")
    bad += _edge_residue_check(c, Fraction(out["c_p"]), num, den, out["edge_residue"])
    if t == "A" and Fraction(out["mass_for_inspection"]) != beta_dp(c, rank + 1, 0):
        bad.append("mass_for_inspection != rank+1 mass")
    return bad


def check_residue(job, c: Curve, roots: RootData, out: dict, rc: int) -> list[str]:
    rs, W, pd = roots.get(*job.params)
    bad = [] if rc == 0 else [f"exit code {rc}"]
    checks = out["certificate"]["checks"]
    if not out["certificate"]["passed"] or not all(x["ok"] for x in checks):
        bad.append("certificate has failed checks")
    vanished = sum("vanish" in x["identity"] for x in checks)
    expected = len(W.elements) - len(pd.weyl_subset)
    if vanished != expected or len(checks) != len(W.elements) + 1:
        bad.append(f"{vanished} vanished terms in {len(checks)} checks, "
                   f"expected {expected} in {len(W.elements) + 1}")
    return bad


def check_engine(job, c: Curve, roots: RootData, out: dict) -> list[str]:
    rs, W, pd = roots.get(*job.params)
    return _zeta_checks(c, rs, pd, out["zeta"], out["c_p"], out["normalization"], False)


def check_mass(job, c: Curve, out: dict, rc: int) -> list[str]:
    (r,) = job.params
    bad = [] if rc == 0 else [f"exit code {rc}"]
    zb, mr = Fraction(out["composition_sum"]), Fraction(out["reformulation"])
    if out["agree"] is not True or zb != mr:
        bad.append("the two mass routes disagree")
    if zb != beta_dp(c, r, 0):
        bad.append(f"rank-{r} mass != prefix-sum recursion")
    q, n = c.q, c.n_points
    closed = {1: horner(c.P, 1) / Fraction(q - 1)}
    if c.g == 1:
        closed = {1: Fraction(n, q - 1), 2: Fraction(n, q - 1) * (1 + Fraction(n, q * q - 1))}
    if r in closed and zb != closed[r]:
        bad.append(f"rank-{r} mass {zb} != closed form {closed[r]}")
    return bad


def check_beta_sym(job, c: Curve, out: dict) -> list[str]:
    bad = []
    for r, d in BETA_SYM_PAIRS:
        vals = {Fraction(x) for x in out[f"{r},{d}"]}
        if len(vals) != 1:
            bad.append(f"beta_{r}(d) not invariant under d -> d+r, -d, r-d at d={d}")
        elif vals.pop() != beta_dp(c, r, d):
            bad.append(f"beta_{r}({d}) != prefix-sum recursion")
    return bad


def mixed_middle_coefficient(q: int, n: int) -> Fraction:
    """t^2 coefficient of the all-degree rank-two numerator over alpha(0),
    expanded from its defining sum a0 + b0 (q^2-1) t^2 / D + b1 (qt/(1-q^2t^2)
    - t/(1-t^2)) times D = (1-t^2)(1-q^2t^2)."""
    a0 = Fraction(n, q - 1)
    b0 = a0 * (1 + Fraction(n, q * q - 1))
    b1 = a0
    D = [1, 0, -(1 + q * q), 0, q * q]
    numer = [a0 * x for x in D]
    numer[2] += b0 * (q * q - 1)
    for i, x in enumerate([0, q, 0, -q]):  # q t (1 - t^2)
        numer[i] += b1 * x
    for i, x in enumerate([0, -1, 0, q * q]):  # - t (1 - q^2 t^2)
        numer[i] += b1 * x
    return numer[2] / numer[0]


def check_report(out: dict, rc: int) -> list[str]:
    bad = [] if rc == 1 else [f"exit code {rc}, expected 1 (criterion 3 known-red)"]
    crit = {x["criterion"]: x for x in out["criteria"]}
    if sorted(crit) != list(range(1, 10)):
        return bad + [f"criteria {sorted(crit)} reported"]
    for i in (1, 2, 4, 5, 6, 7, 8, 9):
        if not crit[i]["passed"]:
            bad.append(f"criterion {i} failed")
    oks = [x["ok"] for x in crit[3]["checks"]]
    if len(oks) < 3 or oks[0] or oks[1] or not all(oks[2:]):
        bad.append(f"criterion 3 outcomes {oks}, expected exactly the first two red")
    for q in (2, 3, 4, 5):
        middle = mixed_middle_coefficient(q, q + 1)
        if middle != (q + 1) - 2:  # N - 2, not the printed N - 1
            bad.append(f"defining sum gives middle coefficient {middle} at q={q}")
    if out.get("passed") is not False:
        bad.append("report-all claims every criterion passed")
    return bad
