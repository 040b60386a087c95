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

A root enters a summand only through its key (k, h), read from the
parabolic's key table (rootsys.ParabolicData.keys), and a pair has few
distinct keys (A5 p=3: seven, against 941 inversions over its 106
summands), so every summand is assembled from the counts of its root
keys: the ratio of completed zeta factors is built once per distinct
key of the positive roots, and each summand takes it to the key's count
over the inversion set; the products over w^{-1}Phi^- and over all roots
are built per key the same way.  Every summand is kept as a
curve.FactorProduct (a constant, a power of u and powers of the atoms
1 - q^j u^m and P(q^j u^m)), built in one pass by curve.product; the
period lifts each numerator to the common denominator of all summands
and reduces the sum once.  Single terms and the products over root keys
expand their factor multisets the same way, with one reduction each.
An identity between two single products is decided on the factored
forms: the quotient of its sides, the reflected side mapped atom by atom
by curve.reflect_factors, reduces to 1.  Distinct atoms need not be
coprime polynomials, so a quotient that does not reduce is decided again
on the expansions.  The involution certificate builds the completed
zeta factor of each distinct key once, each element's factored f and g
once from those, and reduces the sum of the f*g products once.

Multiplying the period by the minimal normalization product, the
positive max-difference exponents over h >= 2, yields the group zeta,
which satisfies the exact functional equation s -> -c_p - s, i.e.
u -> q^{c_p}/u.  Whether its zeros lie on |u| = q^{c_p/2} is decided
exactly by ``roots_on_circle``; floats serve only the zero lists.
"""

from __future__ import annotations

import math
from collections import Counter
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
    product,
    reflect_factors,
    zeta_factors,
    zeta_special_residue,
)
from .errors import DomainError, NumericError
from .record import Frozen
from .rootsys import (
    CountTable,
    ParabolicData,
    RootSystem,
    WeylElement,
    WeylGroup,
    count_tables,
    negative_preimage_counts,
)


class GroupZetaResult(Frozen):
    """The normalized group zeta with its assembly provenance."""

    __slots__ = (
        "zeta", "omega", "normalization", "c_p", "route", "curve", "rs", "pd", "table"
    )

    def __init__(
        self,
        zeta: RationalFunction,  # variable u = q^{-s}
        omega: RationalFunction,  # the period before normalization
        normalization: dict,  # (k, h) -> exponent, h >= 2
        c_p: int,
        route: str,  # "formula2" or "residue-engine"
        curve: CurveData,
        rs: RootSystem,
        pd: ParabolicData,
        table: CountTable,  # the count tables of (rs, pd) the normalization came from
    ) -> None:
        self._set(zeta, omega, normalization, c_p, route, curve, rs, pd, table)


def _zeta_num_factors(c: CurveData, k: int, h: int) -> FactorProduct:
    """Completed zeta factor, stripped to its special value at (0, 1)."""
    if (k, h) == (0, 1):
        return FactorProduct(*zeta_special_residue(c).as_integer_ratio())
    return zeta_factors(c, k, h)


def _rational_factors(
    c: CurveData, rs: RootSystem, pd: ParabolicData, w: WeylElement
) -> FactorProduct:
    """prod over (w^{-1}Delta) \\ Delta_p of 1/(1 - u^k q^{1-h})."""
    keys = (pd.keys[w.perm.index(s)] for s in rs.simple_indices())
    # (0, 1) marks exactly the roots of Delta_p
    return product(
        (line_factor(c.q, 1 - h, k), -1) for k, h in keys if (k, h) != (0, 1)
    )


def _ratio_table(
    c: CurveData, rs: RootSystem, pd: ParabolicData
) -> dict[tuple[int, int], FactorProduct]:
    """zeta(k s + h) / zeta(k s + h + 1) per distinct key of the positive
    roots, the numerator stripped at (0, 1)."""
    return {
        (k, h): product(
            ((_zeta_num_factors(c, k, h), 1), (zeta_factors(c, k, h + 1), -1))
        )
        for k, h in set(pd.keys[: rs.n_positive])
    }


def _weyl_factors(
    c: CurveData,
    rs: RootSystem,
    W: WeylGroup,
    pd: ParabolicData,
    w: WeylElement,
    ratios: dict[tuple[int, int], FactorProduct],
) -> FactorProduct:
    """The single-w summand of the period, factored: the rational factors
    times each key's ratio (from ``_ratio_table``) to its count over the
    inversion set."""
    counts = Counter(pd.keys[idx] for idx in W.inversion_set(w))
    rational = (_rational_factors(c, rs, pd, w), 1)
    return product([rational, *((ratios[key], n) for key, n in counts.items())])


def period_gp(
    c: CurveData, rs: RootSystem, W: WeylGroup, pd: ParabolicData
) -> RationalFunction:
    """The period of (G, P): the closed Weyl-subset sum, exact in u.

    Every term stays factored; the sum is reduced once.
    """
    ratios = _ratio_table(c, rs, pd)
    return expand_sum(
        c, [_weyl_factors(c, rs, W, pd, w, ratios) for w in pd.weyl_subset]
    )


def _zeta_product(c: CurveData, exponents: dict) -> FactorProduct:
    """prod over (k, h) of the completed zeta at k*s + h to its exponent,
    stripped at (0, 1); a zero exponent builds no factor."""
    items = sorted(exponents.items())
    return product((_zeta_num_factors(c, k, h), e) for (k, h), e in items if e)


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
    table = count_tables(pd)
    exponents = table.normalization_exponents()
    zeta = omega * _zeta_product(c, exponents).expand(c)
    return GroupZetaResult(zeta, omega, exponents, pd.c_p, route, c, rs, pd, table)


# ---------------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------------


def fe_substitution(f: RationalFunction, q: int, c_p: int) -> RationalFunction:
    """Apply u -> q^{c_p}/u."""
    return substitute(f, Fraction(q) ** c_p, -1, f.var)


def _same_product(a: FactorProduct, b: FactorProduct) -> bool:
    """Whether a / b reduces to 1 atom by atom: no atom, no power of u, a
    constant of 1.  True proves a = b; False proves nothing, since
    distinct atoms need not be coprime, and callers then compare the
    expansions."""
    return product(((a, 1), (b, -1))) == FactorProduct(1, 1)


def _reflects_to(c: CurveData, a: FactorProduct, b: FactorProduct, c_p: int) -> bool:
    """Whether a(q^{c_p}/u) = b(u), on the factored forms when they agree
    and by fe_substitution of the expansions otherwise."""
    if _same_product(reflect_factors(c, a, c_p), b):
        return True
    return fe_substitution(a.expand(c), c.q, c_p) == b.expand(c)


def fe_check_group(z: GroupZetaResult) -> Certificate:
    """Exact check of zeta(-c_p - s) = zeta(s)."""
    cert = Certificate(
        f"group zeta functional equation {z.rs.type_label}{z.rs.rank} p={z.pd.p}"
    )
    ok = fe_substitution(z.zeta, z.curve.q, z.c_p) == z.zeta
    cert.record("zeta(-c_p - s) = zeta(s)", ok, c_p=str(z.c_p))
    return cert


# ---------------------------------------------------------------------------
# Global decomposition
# ---------------------------------------------------------------------------


class Decomposition(Frozen):
    __slots__ = ("clearing", "omega_global", "denominator", "certificate")

    def __init__(
        self,
        clearing: RationalFunction,  # product over positive roots, shifted by 1
        omega_global: RationalFunction,  # clearing * period
        denominator: RationalFunction,  # the count-difference product
        certificate: Certificate,
    ) -> None:
        self._set(clearing, omega_global, denominator, certificate)


def omega_D_decompose(z: GroupZetaResult) -> Decomposition:
    """Split the group zeta as (clearing * period) / denominator.

    The clearing factor multiplies the completed zeta at (k, h+1) over
    all positive roots; its equality with the product over negative
    roots at (k, h) (a functional-equation reindexing) is certified,
    together with both reflection identities and the exact equation
    zeta * denominator = clearing * period.  The clearing equality and
    the denominator's reflection compare single products, so they are
    decided on the factored forms, falling back on the expansions when
    the quotient does not reduce to 1; the two identities over sums are
    decided on the expansions.
    """
    c, rs, pd, table = z.curve, z.rs, z.pd, z.table
    cert = Certificate(
        f"global decomposition {rs.type_label}{rs.rank} p={pd.p}"
    )
    positive, negative = pd.keys[: rs.n_positive], pd.keys[rs.n_positive :]
    clearing_f = _zeta_product(c, Counter((k, h + 1) for k, h in positive))
    clearing = clearing_f.expand(c)
    alt = _zeta_product(c, Counter(negative))
    cert.record(
        "clearing product: two forms agree",
        _same_product(clearing_f, alt) or clearing == alt.expand(c),
    )

    den_f = _zeta_product(c, {
        (k, h): f for (k, h), f in table.difference().items() if k >= 0 and h >= 2
    })
    den = den_f.expand(c)
    omega_global = clearing * z.omega
    cert.record(
        "zeta * denominator = clearing * period",
        z.zeta * den == omega_global,
    )
    q, cp = c.q, pd.c_p
    cert.record(
        "denominator reflection",
        _same_product(reflect_factors(c, den_f, cp), den_f)
        or fe_substitution(den, q, cp) == den,
    )
    cert.record(
        "global numerator reflection",
        fe_substitution(omega_global, q, cp) == omega_global,
    )
    return Decomposition(clearing, omega_global, den, cert)


# ---------------------------------------------------------------------------
# Involution structure
# ---------------------------------------------------------------------------


def _zeta_table(c: CurveData, pd: ParabolicData) -> dict[tuple[int, int], FactorProduct]:
    """The (stripped) completed zeta factor per distinct key of the roots."""
    return {(k, h): _zeta_num_factors(c, k, h) for k, h in set(pd.keys)}


def _g_factors(
    pd: ParabolicData,
    w: WeylElement,
    zetas: dict[tuple[int, int], FactorProduct],
) -> FactorProduct:
    """Product of (stripped) completed zeta factors over w^{-1}Phi^-, each
    key's factor read from ``_zeta_table`` and taken to its count.

    Levi simple roots in w^{-1}Phi^- sit at the pole argument (0, 1) and
    contribute the stripped special value, mirroring the period's
    convention; without them the sum identity below would be off by one
    stripped value per such root.
    """
    items = sorted(negative_preimage_counts(pd, w).items())
    return product((zetas[key], e) for key, e in items if e)


def fg_involution_check(
    z: GroupZetaResult, W: WeylGroup, decomp: Decomposition
) -> Certificate:
    """Certify the w -> w_0 w w_p involution and the sum identity.

    For every w in the Weyl subset both substitution identities
    f_w(-c_p-s) = f_{w_0 w w_p}(s) and g_w(-c_p-s) = g_{w_0 w w_p}(s)
    must hold exactly, and sum_w f_w g_w, reduced once from the factored
    products, must equal the decomposition's clearing * period.  Each
    f_w and g_w is factored once, g_w from one table of zeta factors
    per distinct key; a partner is looked up.  The
    substitution identities are decided on the factored forms, and only
    a pair whose quotient does not reduce to 1 is expanded.  An
    involution partner outside the Weyl subset is a recorded failure,
    like a failed identity.
    """
    c, rs, pd = z.curve, z.rs, z.pd
    cert = Certificate(
        f"involution structure {rs.type_label}{rs.rank} p={pd.p}"
    )
    cp = pd.c_p
    zetas = _zeta_table(c, pd)
    factored = {
        w.perm: (_rational_factors(c, rs, pd, w), _g_factors(pd, w, zetas))
        for w in pd.weyl_subset
    }
    for w in pd.weyl_subset:
        fw, gw = factored[w.perm]
        where = _describe(rs, w)
        partner = W.longest.compose(w).compose(pd.levi_longest)
        if partner.perm not in factored:
            cert.record("involution stays in the Weyl subset", False, w=where)
            continue
        fp, gp = factored[partner.perm]
        cert.record("f involution", _reflects_to(c, fw, fp, cp), w=where)
        cert.record("g involution", _reflects_to(c, gw, gp, cp), w=where)
    total = expand_sum(c, [product(((f, 1), (g, 1))) for f, g in factored.values()])
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


class GroupZeroReport(Frozen):
    __slots__ = ("zeros_u", "deviations", "s_coordinates", "center_modulus", "verdict")

    def __init__(
        self,
        zeros_u: tuple[complex, ...],
        deviations: tuple[float, ...],
        s_coordinates: tuple[tuple[float, float], ...],
        center_modulus: float,  # q^{c_p/2}
        verdict: bool,
    ) -> None:
        self._set(zeros_u, deviations, s_coordinates, center_modulus, verdict)

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
    try:
        center = float(q) ** (float(z.c_p) / 2)
    except OverflowError:
        raise NumericError("the centre q^(c_p/2) is beyond double range") from None
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


class EdgeResidue(Frozen):
    """Stripped residue of the zeta at its edge pole u = q^{c_p}."""

    __slots__ = ("value", "order", "principal")

    def __init__(
        self, value: Fraction | None, order: int, principal: tuple[Fraction, ...] = ()
    ) -> None:
        self._set(value, order, principal)


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
    while den.evaluate(u0) == 0:
        den = den.exact_div(root_factor)
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


class UniformityMatch(Frozen):
    __slots__ = ("a", "b", "c", "verified")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, verified: bool) -> None:
        self._set(a, b, c, verified)

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "verified": self.verified,
        }


class UniformityNotFound(Frozen):
    __slots__ = ("tried", "skipped")

    def __init__(
        self,
        tried: tuple[tuple[Fraction, Fraction], ...],
        skipped: tuple[tuple[Fraction, Fraction], ...],
    ) -> None:
        self._set(tried, skipped)


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
