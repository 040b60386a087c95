"""Group zeta functions for pairs (split group, maximal parabolic).

The period attached to such a pair is a finite sum over the surviving
Weyl subset: each w contributes rational factors 1/(1 - u^k q^{1-h})
over (w^{-1}Delta) \\ Delta_p and a ratio of completed zeta factors
over the inversion set, with (k, h) = (<lambda_p, alpha^vee>, ht
alpha^vee) per root.  Numerator entries that would sit at the pole
argument, the simple Levi roots, enter as the stripped special value
q^g P(1/q)/(q-1) instead; that convention is exactly what the iterated
residues of the full-rank period produce once each residue's 1/log q is
cancelled, and it is cross-checked by the residues module.

Every summand is kept as a curve.FactorProduct (a constant, a power of
u and powers of the atoms 1 - q^j u^m and P(q^j u^m)); the period lifts each
numerator to the common denominator of all summands and reduces the
sum once.  Single terms and the products over root keys expand their
factor multisets the same way, with one reduction each.  The involution
certificate builds each element's factored f and g once, expands each
once for the substitution identities, and reduces the sum of the f*g
products once.

Multiplying the period by the minimal normalization product, the
positive max-difference exponents over h >= 2, yields the group zeta,
which satisfies the exact functional equation s -> -c_p - s, i.e.
u -> q^{c_p}/u.  Whether its zeros lie on |u| = q^{c_p/2} is decided
exactly by ``roots_on_circle``; floats serve only the zero lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    RationalFunction,
    poly_complex_roots,
    roots_on_circle,
    substitute,
)
from .certificate import Certificate
from .curve import (
    CurveData,
    FactorProduct,
    expand_sum,
    line_factor,
    zeta_factors,
    zeta_special_residue,
)
from .errors import DomainError
from .rootsys import (
    ParabolicData,
    RootSystem,
    WeylElement,
    WeylGroup,
    count_tables,
)


@dataclass(frozen=True)
class GroupZetaResult:
    """The normalized group zeta with its assembly provenance."""

    zeta: RationalFunction  # variable u = q^{-s}
    omega: RationalFunction  # the period before normalization
    normalization: dict  # (k, h) -> exponent, h >= 2
    c_p: int
    route: str  # "formula2" or "residue-engine"
    curve: CurveData
    rs: RootSystem
    pd: ParabolicData


def _root_key(rs: RootSystem, pd: ParabolicData, idx: int) -> tuple[int, int]:
    return (rs.weight_pairing(pd.p0, idx), rs.coroot_height(idx))


def _zeta_num_factors(c: CurveData, k: int, h: int) -> FactorProduct:
    """Completed zeta factor, stripped to its special value at (0, 1)."""
    if (k, h) == (0, 1):
        return FactorProduct(zeta_special_residue(c))
    return zeta_factors(c, k, h)


def _rational_factors(
    c: CurveData, rs: RootSystem, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """prod over (w^{-1}Delta) \\ Delta_p of 1/(1 - u^k q^{1-h})."""
    winv = w.inverse()
    term = FactorProduct(Fraction(1))
    p0 = pd.p0
    for s_idx in rs.simple_indices():
        pre = winv.apply(s_idx)
        coords = rs.roots[pre]
        if coords[p0] == 0 and rs.is_positive(pre) and sum(map(abs, coords)) == 1:
            continue  # alpha in Delta_p, the only roots with key (0, 1)
        k, h = _root_key(rs, pd, pre)
        term = term * line_factor(c.q, 1 - h, k) ** -1
    return term


def _weyl_factors(
    c: CurveData,
    rs: RootSystem,
    W: WeylGroup,
    pd: ParabolicData,
    w: WeylElement,
) -> FactorProduct:
    """The single-w summand of the period, factored."""
    term = _rational_factors(c, rs, pd, w)
    for idx in W.inversion_set(w):
        k, h = _root_key(rs, pd, idx)
        term = term * _zeta_num_factors(c, k, h) * zeta_factors(c, k, h + 1) ** -1
    return term


def period_gp(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> RationalFunction:
    """The period of (G, P): the closed Weyl-subset sum, exact in u.

    Every term stays factored; the sum is reduced once.
    """
    return expand_sum(
        c, [_weyl_factors(c, rs, W, pd, w) for w in pd.weyl_subset]
    )


def _zeta_product(c: CurveData, exponents: dict) -> FactorProduct:
    """prod over (k, h) of the completed zeta at k*s + h to its exponent."""
    prod = FactorProduct(Fraction(1))
    for (k, h), e in sorted(exponents.items()):
        prod = prod * zeta_factors(c, k, h) ** e
    return prod


def group_zeta(
    c: CurveData,
    rs: RootSystem,
    W: WeylGroup,
    pd: ParabolicData,
    route: str = "formula2",
) -> GroupZetaResult:
    """Period times the minimal normalization product of zeta factors."""
    if route == "formula2":
        omega = period_gp(c, rs, W, pd)
    elif route == "residue-engine":
        from .residues import residue_period

        omega = residue_period(c, rs, W, pd)
    else:
        raise DomainError(f"unknown route {route!r}")
    exponents = count_tables(rs, W, pd).normalization_exponents()
    zeta = omega * _zeta_product(c, exponents).expand(c)
    return GroupZetaResult(zeta, omega, exponents, pd.c_p, route, c, rs, pd)


# ---------------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------------


def fe_substitution(f: RationalFunction, q: int, c_p: int) -> RationalFunction:
    """Apply u -> q^{c_p}/u."""
    return substitute(f, Fraction(q) ** c_p, -1, f.var)


def fe_check_group(z: GroupZetaResult) -> tuple[bool, Certificate]:
    """Exact check of zeta(-c_p - s) = zeta(s)."""
    cert = Certificate(
        f"group zeta functional equation {z.rs.type_label}{z.rs.rank} p={z.pd.p}"
    )
    ok = fe_substitution(z.zeta, z.curve.q, z.c_p) == z.zeta
    cert.record("zeta(-c_p - s) = zeta(s)", ok, c_p=str(z.c_p))
    return ok, cert


# ---------------------------------------------------------------------------
# Global decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    clearing: RationalFunction  # product over positive roots, shifted by 1
    omega_global: RationalFunction  # clearing * period
    denominator: RationalFunction  # the count-difference product
    certificate: Certificate


def omega_D_decompose(z: GroupZetaResult, W: WeylGroup) -> Decomposition:
    """Split the group zeta as (clearing * period) / denominator.

    The clearing factor multiplies the completed zeta at (k, h+1) over
    all positive roots; its equality with the product over negative
    roots at (k, h) (a functional-equation reindexing) is certified,
    together with both reflection identities and the exact equation
    zeta * denominator = clearing * period.
    """
    c, rs, pd = z.curve, z.rs, z.pd
    table = count_tables(rs, W, pd)
    cert = Certificate(
        f"global decomposition {rs.type_label}{rs.rank} p={pd.p}"
    )
    clearing = FactorProduct(Fraction(1))
    for idx in range(rs.n_positive):
        k, h = _root_key(rs, pd, idx)
        clearing = clearing * zeta_factors(c, k, h + 1)
    clearing = clearing.expand(c)
    alt = FactorProduct(Fraction(1))
    for idx in range(rs.n_positive, len(rs.roots)):
        k, h = _root_key(rs, pd, idx)
        alt = alt * zeta_factors(c, k, h)
    cert.record("clearing product: two forms agree", clearing == alt.expand(c))

    M = table.max_diff
    N = table.global_counts
    _, kmax = table.k_range
    _, hmax = table.h_range
    den = _zeta_product(c, {
        (k, h): N.get((k, h - 1), 0) - M.get((k, h), 0)
        for k in range(0, kmax + 1)
        for h in range(2, hmax + 2)
    }).expand(c)
    omega_global = clearing * z.omega
    cert.record(
        "zeta * denominator = clearing * period",
        z.zeta * den == omega_global,
    )
    q, cp = c.q, pd.c_p
    cert.record(
        "denominator reflection", fe_substitution(den, q, cp) == den
    )
    cert.record(
        "global numerator reflection",
        fe_substitution(omega_global, q, cp) == omega_global,
    )
    return Decomposition(clearing, omega_global, den, cert)


# ---------------------------------------------------------------------------
# Involution structure
# ---------------------------------------------------------------------------


def _g_factors(
    c: CurveData, rs: RootSystem, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """Product of (stripped) completed zeta factors over w^{-1}Phi^-.

    Levi simple roots in w^{-1}Phi^- sit at the pole argument (0, 1) and
    contribute the stripped special value, mirroring the period's
    convention; without them the sum identity below would be off by one
    stripped value per such root.
    """
    winv = w.inverse()
    term = FactorProduct(Fraction(1))
    for neg in range(rs.n_positive, len(rs.roots)):
        pre = winv.apply(neg)
        k, h = _root_key(rs, pd, pre)
        term = term * _zeta_num_factors(c, k, h)
    return term


def fg_involution_check(
    z: GroupZetaResult, W: WeylGroup, decomp: Decomposition
) -> Certificate:
    """Certify the w -> w_0 w w_p involution and the sum identity.

    For every w in the Weyl subset both substitution identities
    f_w(-c_p-s) = f_{w_0 w w_p}(s) and g_w(-c_p-s) = g_{w_0 w w_p}(s)
    must hold exactly, and sum_w f_w g_w, reduced once from the factored
    products, must equal the decomposition's clearing * period.  Each
    f_w and g_w is factored and expanded once; a partner is looked up.
    An involution partner outside the Weyl subset is a recorded
    failure, like a failed identity.
    """
    c, rs, pd = z.curve, z.rs, z.pd
    cert = Certificate(
        f"involution structure {rs.type_label}{rs.rank} p={pd.p}"
    )
    q, cp = c.q, pd.c_p
    factored = {
        w.perm: (_rational_factors(c, rs, pd, w), _g_factors(c, rs, pd, w))
        for w in pd.weyl_subset
    }
    expanded = {
        perm: (f.expand(c), g.expand(c)) for perm, (f, g) in factored.items()
    }
    for w in pd.weyl_subset:
        fw, gw = expanded[w.perm]
        where = _describe(rs, w)
        partner = W.longest.compose(w).compose(pd.levi_longest)
        if partner.perm not in expanded:
            cert.record("involution stays in the Weyl subset", False, w=where)
            continue
        fp, gp = expanded[partner.perm]
        cert.record("f involution", fe_substitution(fw, q, cp) == fp, w=where)
        cert.record("g involution", fe_substitution(gw, q, cp) == gp, w=where)
    total = expand_sum(c, [f * g for f, g in factored.values()])
    cert.record(
        "sum of f*g equals clearing * period", total == decomp.omega_global
    )
    return cert


def _describe(rs: RootSystem, w: WeylElement) -> str:
    images = []
    for i, s in enumerate(rs.simple_indices()):
        images.append(f"a{i + 1}->{rs.roots[w.apply(s)]}")
    return ", ".join(images)


# ---------------------------------------------------------------------------
# Zeros and residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupZeroReport:
    zeros_u: tuple[complex, ...]
    deviations: tuple[float, ...]
    s_coordinates: tuple[tuple[float, float], ...]
    center_modulus: float  # q^{c_p/2}
    verdict: bool

    def to_json(self) -> dict:
        return {
            "zeros_u": [[z.real, z.imag] for z in self.zeros_u],
            "deviations": list(self.deviations),
            "s_coordinates": [list(x) for x in self.s_coordinates],
            "center_modulus": self.center_modulus,
            "verdict": "pass" if self.verdict else "fail",
        }


def group_zeta_zeros(z: GroupZetaResult) -> GroupZeroReport:
    """Numerator zeros in u, with deviations from |u| = q^{c_p/2}.

    The s-coordinates are (-log_q|u|, arg(u)/log q); the symmetry line
    Re(s) = -c_p/2 corresponds to |u| = q^{c_p/2}.  The verdict is the
    exact test roots_on_circle(numerator, q^{c_p}).
    """
    q = z.curve.q
    center = float(q) ** (float(z.c_p) / 2)
    num = z.zeta.num
    zeros = poly_complex_roots(num) if num.degree >= 1 else []
    devs = [abs(abs(root) / center - 1.0) for root in zeros]
    lnq = math.log(q)
    coords = [
        (
            -math.log(abs(root)) / lnq if root != 0 else math.inf,
            math.atan2(root.imag, root.real) / lnq,
        )
        for root in zeros
    ]
    verdict = roots_on_circle(num, Fraction(q) ** z.c_p)
    return GroupZeroReport(tuple(zeros), tuple(devs), tuple(coords), center, verdict)


@dataclass(frozen=True)
class EdgeResidue:
    """Stripped residue of the zeta at its edge pole u = q^{c_p}."""

    value: Fraction | None
    order: int
    principal: tuple[Fraction, ...] = ()


def edge_residue(z: GroupZetaResult) -> EdgeResidue:
    """-Res_{u=q^{c_p}}[zeta/u], exactly; zero when the pole is absent.

    A higher-order pole is reported with its order and the principal
    Laurent coefficients (of (u-u0)^{-order} .. (u-u0)^{-1}) instead of
    a single residue.
    """
    u0 = Fraction(z.curve.q) ** z.c_p
    f = z.zeta.mul_monomial(-1)  # zeta(u)/u
    num, den = f.num, f.den
    order = 0
    root_factor = Poly.from_list([-u0, 1])
    while True:
        quot, rem = den.divmod(root_factor)
        if not rem.is_zero():
            break
        den = quot
        order += 1
    if order == 0:
        return EdgeResidue(Fraction(0), 0)
    # Laurent coefficients around u0: the series in eps = u - u0 of the
    # quotient with the pole removed, by exact Taylor shifts (the series
    # needs only a nonzero constant term of the shifted denominator)
    shifted = RationalFunction(num.shift(u0), den.shift(u0), f.var)
    coeffs = shifted.series(order - 1)
    # f = sum_j coeffs[j] eps^{j - order}; residue = coeffs[order-1]
    if order == 1:
        return EdgeResidue(-coeffs[0], 1)
    return EdgeResidue(None, order, tuple(-c for c in coeffs))


# ---------------------------------------------------------------------------
# Uniformity matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformityMatch:
    a: Fraction
    b: Fraction
    c: Fraction
    verified: bool

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "verified": self.verified,
        }


@dataclass(frozen=True)
class UniformityNotFound:
    tried: tuple[tuple[Fraction, Fraction], ...]
    skipped: tuple[tuple[Fraction, Fraction], ...]


def _pole_lines(f: RationalFunction, q: int) -> list[float]:
    """Distinct Re(s) values of the poles, from numeric denominator roots."""
    if f.den.degree < 1:
        return []
    lnq = math.log(q)
    return sorted({
        round(-math.log(abs(root)) / lnq, 6)
        for root in poly_complex_roots(f.den)
        if abs(root) >= 1e-12
    })


def _integer_root(n: int, d: int) -> int:
    """floor(n^(1/d)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)  # 2^ceil(bits/d), at least the root
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def _q_power_fraction(q: int, b: Fraction) -> Fraction | None:
    """q^{-b} as an exact rational, or None when it is irrational."""
    root = _integer_root(q, b.denominator)
    if root**b.denominator == q:
        return Fraction(root) ** -b.numerator
    return None


# The search grid of uniformity_match: slopes a = +-n/d with n, d up to
# these bounds, offsets b = j/(2d) with |b| <= OFFSET_SPAN.
SLOPE_NUM_MAX = 3
SLOPE_DEN_MAX = 3
OFFSET_SPAN = 8


def uniformity_match(
    pure_completed_u: RationalFunction, z: GroupZetaResult
) -> UniformityMatch | UniformityNotFound:
    """Search for (a, b, c) with pure(s) = c * group(a s + b), exactly.

    Candidate slopes a are signed fractions with numerator and
    denominator bounded by SLOPE_NUM_MAX and SLOPE_DEN_MAX; offsets b run
    over the half-integer grid refined by 1/denominator(a), up to
    OFFSET_SPAN.  Candidates are narrowed by matching the Re(s) pole
    lines numerically, then c is read off the leading coefficients and
    the full identity is verified exactly under the reparametrization
    t = v^{denominator(a)}.
    Candidates whose q^{-b} is irrational cannot be expressed in exact
    rationals and are recorded as skipped.
    """
    q = z.curve.q
    pure_lines = _pole_lines(pure_completed_u, q)
    group_lines = _pole_lines(z.zeta, q)
    tried: list[tuple[Fraction, Fraction]] = []
    skipped: list[tuple[Fraction, Fraction]] = []
    candidates: list[Fraction] = []
    for den in range(1, SLOPE_DEN_MAX + 1):
        for num in range(1, SLOPE_NUM_MAX + 1):
            for sign in (1, -1):
                a = Fraction(sign * num, den)
                if a not in candidates:
                    candidates.append(a)
    for a in candidates:
        d = a.denominator
        bstep = Fraction(1, 2 * d)
        for j in range(-2 * d * OFFSET_SPAN, 2 * d * OFFSET_SPAN + 1):
            b = j * bstep
            if not _lines_match(pure_lines, group_lines, a, b):
                continue
            qb = _q_power_fraction(q, b)
            if qb is None:
                skipped.append((a, b))
                continue
            tried.append((a, b))
            match = _verify_uniformity(pure_completed_u, z, a, b, qb)
            if match is not None:
                return match
    return UniformityNotFound(tuple(tried), tuple(skipped))


def _lines_match(
    pure_lines: list[float], group_lines: list[float], a: Fraction, b: Fraction
) -> bool:
    if not pure_lines or not group_lines:
        return False
    af, bf = float(a), float(b)
    mapped = sorted(af * s + bf for s in pure_lines)
    if len(mapped) != len(group_lines):
        return False
    return all(abs(x - y) < 1e-6 for x, y in zip(mapped, group_lines))


def _verify_uniformity(
    pure_u: RationalFunction,
    z: GroupZetaResult,
    a: Fraction,
    b: Fraction,
    qb: Fraction,
) -> UniformityMatch | None:
    d = a.denominator
    n = a.numerator
    # pure side in v with t = v^d; group side with u = q^{-b} v^{n}
    pure_v = substitute(pure_u, 1, d, "v")
    try:
        group_v = substitute(z.zeta, qb, n, "v")
    except DomainError:
        return None
    if pure_v.is_zero() or group_v.is_zero():
        return None
    # both sides are reduced with monic denominators, so pure_v = c * group_v
    # forces c to be the ratio of the leading numerator coefficients
    cval = pure_v.num.leading() / group_v.num.leading()
    if group_v.scale(cval) == pure_v:
        return UniformityMatch(a, b, cval, True)
    return None
