"""Pure non-abelian zeta functions and the semi-stable mass formulas.

The rank-r pure zeta of a curve is assembled from the alpha-table of
weighted bundle counts in degrees 0, r, ..., r(g-1) and the mass
beta(0), via the closed form

    Z = sum_m alpha(rm) (T^m + Q^{g-1-m} T^{2(g-1)-m})
        + alpha(r(g-1)) T^{g-1}
        + (Q-1) beta(0) T^g / ((1-T)(1-QT)),       T = t^r, Q = q^r.

The mass itself comes in two independently coded routes, the
composition sum with fractional-part corrections and its reformulation
through completed zeta values, which must agree exactly.  The module
also carries the two all-degree counterexample zetas whose zeros leave
the critical circle, and the Riemann-Hypothesis reports: every verdict
is decided exactly by ``roots_on_circle``, and floats serve only the
root lists and their deviations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    Poly,
    Rat,
    RationalFunction,
    _frac,
    poly_complex_roots,
    power_sums,
    roots_on_circle,
    series_log_coefficients,
    substitute,
)
from .certificate import Certificate
from .compositions import check_mass_rank, parabolic_mass_sum
from .curve import (
    CurveData,
    artin_zeta_value,
    completed_zeta_value,
    zeta_special_residue,
)
from .errors import DomainError, NumericError, ValidationError
from .record import Frozen


class PureZetaInputs(Frozen):
    """Alpha-table and mass feeding the rank-r pure zeta."""

    __slots__ = ("r", "alphas", "beta0")

    def __init__(self, r: int, alphas: tuple[Fraction, ...], beta0: Fraction) -> None:
        self._set(r, alphas, beta0)

    @staticmethod
    def make(r: int, alphas, beta0: Rat) -> "PureZetaInputs":
        if r < 1:
            raise DomainError("rank must be >= 1")
        alphas = tuple(_frac(a) for a in alphas)
        beta0 = _frac(beta0)
        if any(a < 0 for a in alphas) or beta0 < 0:
            raise DomainError("bundle counts cannot be negative")
        return PureZetaInputs(r, alphas, beta0)


class PureZetaResult(Frozen):
    """Rank-r pure zeta in T = t^r plus its completed variant in t."""

    __slots__ = ("zeta", "completed", "numerator", "Q", "r", "g")

    def __init__(
        self,
        zeta: RationalFunction,  # variable T
        completed: RationalFunction,  # variable t
        numerator: Poly,  # degree-2g numerator over (1-T)(1-QT)
        Q: Fraction,
        r: int,
        g: int,
    ) -> None:
        self._set(zeta, completed, numerator, Q, r, g)


# ---------------------------------------------------------------------------
# Mass formulas
# ---------------------------------------------------------------------------


def zagier_beta(c: CurveData, r: int, d: int = 0) -> Fraction:
    """Mass of rank-r degree-d semi-stable bundles by the composition sum.

    Sums q^{(g-1) sum_{i<j} n_i n_j} c_{n,d}(q) prod_j v_{n_j}(q) over
    ordered compositions of r, where

        v_n(q) = [P(1)/(q-1)] q^{(n^2-1)(g-1)} zeta_X(2) ... zeta_X(n),
        c_{n,d}(q) = prod_i q^{(n_i+n_{i+1}) frac((n_1+...+n_i) d / r)}
                     / (1 - q^{n_i+n_{i+1}}).

    The sum runs as a recurrence over the state (prefix sum s, last
    part, exponent numerator e mod r): appending the part n to a prefix
    s adds n*s to the cross term, divides by 1 - q^{last+n} and adds
    (last+n) * ((s*d) mod r) to e, whose whole multiples of r go into
    the value as powers of q.  The fractional-part exponents of a
    composition always sum to an integer, so every final state has
    e = 0; this is asserted rather than assumed.

    Each state holds an unreduced pair of integers (numerator, positive
    denominator): a contribution is a product of integers, adding it in
    costs one lcm of the two denominators, and the one reduction is the
    ``Fraction`` built from the final pair.  Only the O(r) zeta values
    v_n are computed as ``Fraction``s.
    """
    check_mass_rank(r)
    q, g = c.q, c.g
    zeta_prod = c.P.evaluate(1) / (q - 1)  # v_n without its q-power
    v = [None, zeta_prod.as_integer_ratio()]
    for n in range(2, r + 1):
        zeta_prod *= artin_zeta_value(c, n)
        num, den = zeta_prod.as_integer_ratio()
        v.append((num * q ** ((n * n - 1) * (g - 1)), den))
    # states[s][(last, e)]: (num, den) summed over compositions of s so far
    states: list[dict[tuple[int, int], tuple[int, int]]] = [{} for _ in range(r + 1)]
    for s in range(1, r + 1):
        states[s][s, 0] = v[s]
        for (last, e), (a, b) in states[s].items():
            for n in range(1, r - s + 1):
                carry, e_new = divmod(e + (last + n) * (s * d % r), r)
                vn, vd = v[n]
                # a/b * q^(...) / (1 - q^(last+n)) * v_n, the sign moved up
                num = -a * vn * q ** ((g - 1) * n * s + carry)
                den = b * vd * (q ** (last + n) - 1)
                key = (n, e_new)
                target = states[s + n]
                if key in target:
                    tn, td = target[key]
                    l = math.lcm(td, den)
                    target[key] = (tn * (l // td) + num * (l // den), l)
                else:
                    target[key] = (num, den)
    total_num, total_den = 0, 1
    for (last, e), (a, b) in states[r].items():
        if e != 0:
            raise ValidationError(
                f"non-integer q-exponent {e}/{r} for a composition of {r} "
                f"ending in {last}"
            )
        l = math.lcm(total_den, b)
        total_num, total_den = total_num * (l // total_den) + a * (l // b), l
    return Fraction(total_num, total_den)


def mass_reformulated(c: CurveData, r: int) -> Fraction:
    """Degree-zero mass through completed zeta special values.

    Evaluates q^{(g-1) r(r-1)/2} times the alternating composition sum
    with adjacent-pair weights q^{n_j+n_{j+1}} - 1 and the product of
    completed values (stripped residue at 1), by the prefix-sum
    recurrence of ``parabolic_mass_sum``; each completed value is built
    once.  Must equal ``zagier_beta(c, r, 0)`` exactly.
    """
    q = Fraction(c.q)

    def zhat(i: int) -> Fraction:
        if i == 1:
            return zeta_special_residue(c)
        return completed_zeta_value(c, i)

    def pair_weight(a: int, b: int) -> Fraction:
        return q ** (a + b) - 1

    sum_part = parabolic_mass_sum(r, zhat, pair_weight)
    return q ** ((c.g - 1) * r * (r - 1) // 2) * sum_part


# How far mass_digits_estimate may run over a mass's true size.  On
# masses of 500 digits or more, Weil and synthetic numerators up to
# r = 40, the ratio measured at most 1.44 (trace zero at q = 10^6, 10^9).
MASS_DIGITS_SLACK = 1.5


def mass_digits_estimate(c: CurveData, r: int) -> float:
    """Decimal digits of the rank-r mass's numerator or denominator, from above.

    A mass grows like q^{(g-1) r^2} over a denominator near q^{r^2/2};
    numerator coefficients with a common denominator delta, or with a
    sum of absolute values |P|_1 above q^g, add about r times the log of
    the excess.  On Weil and synthetic numerators up to r = 40 the
    estimate measured above the larger of the two true sizes, never
    below, and within MASS_DIGITS_SLACK of it once that size reaches 500
    digits; it is cheap, so callers can refuse a mass that is surely too
    long (estimate over MASS_DIGITS_SLACK times the limit) before
    computing it.
    """
    check_mass_rank(r)
    g, q = c.g, c.q
    delta = c.P.content.denominator  # the lcm of the coefficients' denominators
    l1 = abs(c.P.content) * sum(map(abs, c.P.prim))
    excess = max(
        0.0, math.log10(l1.numerator) - math.log10(l1.denominator) - g * math.log10(q)
    )
    return (
        math.log10(q) * ((g - 0.5) * r * r + (g + 1) * r)
        + r * (math.log10(delta) + excess)
        + 2
    )


def elliptic_beta2_closed_form(q: int, n_points: int) -> Fraction:
    """Rank-two degree-zero mass of an elliptic curve, closed form."""
    n = Fraction(n_points)
    return n / (q - 1) * (1 + n / (q * q - 1))


# ---------------------------------------------------------------------------
# Input providers
# ---------------------------------------------------------------------------


def elliptic_rank2_inputs(c: CurveData) -> PureZetaInputs:
    """Rank-two inputs for an elliptic curve: alpha(0) = N/(q-1)."""
    if c.g != 1:
        raise DomainError("rank-two provider applies to genus-one curves")
    n = c.point_counts(1)[0]
    beta0 = elliptic_beta2_closed_form(c.q, n)
    return PureZetaInputs.make(2, [Fraction(n, c.q - 1)], beta0)


def rank1_inputs(c: CurveData) -> PureZetaInputs:
    """Rank-one inputs for an elliptic curve: alpha(0) = 1, beta = N/(q-1)."""
    if c.g != 1:
        raise DomainError("rank-one provider applies to genus-one curves")
    return PureZetaInputs.make(1, [Fraction(1)], zagier_beta(c, 1, 0))


# ---------------------------------------------------------------------------
# The pure zeta
# ---------------------------------------------------------------------------


def pure_zeta(c: CurveData, inputs: PureZetaInputs) -> PureZetaResult:
    """Assemble the rank-r pure zeta of a curve from its count inputs."""
    if len(inputs.alphas) != c.g:
        raise DomainError(
            f"alpha table must have length g = {c.g}, got {len(inputs.alphas)}"
        )
    g, r = c.g, inputs.r
    Q = Fraction(c.q) ** r
    den = Poly.of(1, -1) * Poly.from_list([1, -Q])
    poly_part = Poly.zero()
    for m in range(g - 1):
        bump = Poly.monomial(m).scale(inputs.alphas[m]) + Poly.monomial(
            2 * (g - 1) - m
        ).scale(inputs.alphas[m] * Q ** (g - 1 - m))
        poly_part = poly_part + bump
    poly_part = poly_part + Poly.monomial(g - 1).scale(inputs.alphas[g - 1])
    numerator = poly_part * den + Poly.monomial(g).scale(
        (Q - 1) * inputs.beta0
    )
    zeta_T = RationalFunction.make(numerator, den, "T")
    completed = substitute(zeta_T, 1, r, "t").mul_monomial(
        -r * (g - 1)
    )
    return PureZetaResult(zeta_T, completed, numerator, Q, r, g)


def pure_numerator(z: RationalFunction, Q: Fraction) -> Poly:
    """Recover the degree-2g numerator of a pure zeta over (1-T)(1-QT).

    z is reduced, so it has that denominator iff z.den divides it.
    """
    try:
        cofactor = (Poly.of(1, -1) * Poly.from_list([1, -Q])).exact_div(z.den)
    except DomainError:
        raise DomainError("function does not have the pure-zeta denominator") from None
    return z.num * cofactor


def fe_check_pure(z: RationalFunction, g: int, q: int, r: int) -> Certificate:
    """Verify the numerator symmetry p_{2g-i} = Q^{g-i} p_i exactly.

    Each line is decided over Z on the primitive part, where the content
    cancels: the side with the smaller index is multiplied by Q^|g-i|.
    The certificate shows both sides as rationals, one ``Fraction`` each.
    """
    Q = q**r
    p = pure_numerator(z, Q)
    cn, cd = p.content.as_integer_ratio()
    a = list(p.prim) + [0] * (2 * g + 1 - len(p.prim))
    cert = Certificate("pure-zeta functional equation")
    for i in range(2 * g + 1):
        j, scale = 2 * g - i, Q ** abs(g - i)
        if i <= g:
            holds = a[j] == scale * a[i]
            rhs = Fraction(cn * scale * a[i], cd)
        else:
            holds = scale * a[j] == a[i]
            rhs = Fraction(cn * a[i], cd * scale)
        cert.record(
            f"p[{j}] = Q^{g - i} * p[{i}]",
            holds,
            lhs=str(Fraction(cn * a[j], cd)),
            rhs=str(rhs),
        )
    return cert


# ---------------------------------------------------------------------------
# Riemann Hypothesis reports
# ---------------------------------------------------------------------------


class RHReport(Frozen):
    """Zero locations of a zeta numerator against the critical circle."""

    __slots__ = ("polynomial", "Q", "roots", "deviations", "verdict")

    def __init__(
        self,
        polynomial: Poly,
        Q: Fraction,
        roots: tuple[complex, ...],
        deviations: tuple[float, ...],
        verdict: bool,
    ) -> None:
        self._set(polynomial, Q, roots, deviations, verdict)

    def max_deviation(self) -> float:
        return max(self.deviations) if self.deviations else 0.0

    def to_json(self) -> dict:
        return {
            "polynomial": [str(c) for c in self.polynomial.coeffs],
            "Q": str(self.Q),
            "roots": [[z.real, z.imag] for z in self.roots],
            "deviations": list(self.deviations),
            "verdict": "pass" if self.verdict else "fail",
        }


def rh_report(p: Poly, Q: Rat) -> RHReport:
    """Locate the T-roots of p and compare their moduli to Q^{-1/2}.

    The verdict is the exact test roots_on_circle(p, 1/Q); the numeric
    root list and the deviations | |root| * sqrt(Q) - 1 | are for display.
    Beyond double range, sqrt(Q) comes from logarithms of Q's exact parts.
    """
    if p.is_zero():
        raise DomainError("cannot report on the zero polynomial")
    Q = _frac(Q)
    try:
        sqrtq = math.sqrt(float(Q))
    except OverflowError:
        try:
            sqrtq = math.exp((math.log(Q.numerator) - math.log(Q.denominator)) / 2)
        except OverflowError:
            raise NumericError("sqrt(Q) is beyond double range") from None
    roots = poly_complex_roots(p) if p.degree >= 1 else []
    devs = [abs(abs(z) * sqrtq - 1.0) for z in roots]
    verdict = roots_on_circle(p, 1 / Q)
    return RHReport(p, Q, tuple(roots), tuple(devs), verdict)


# ---------------------------------------------------------------------------
# Counterexample zetas (all-degree and partial-degree counting)
# ---------------------------------------------------------------------------


def mixed_zeta_rank2(q: int, n_points: int) -> RationalFunction:
    """Rank-two zeta counting semi-stable bundles of all degrees.

    The even degrees contribute alpha(0) + beta(0)(q^2-1)t^2 / D and the
    odd degrees beta(1)(qt/(1-q^2t^2) - t/(1-t^2)), D = (1-t^2)(1-q^2t^2),
    with the elliptic values alpha(0) = beta(1) = N/(q-1) and the closed
    form of beta(0).  The numerator works out to
    [N/(q-1)] (1 + (q-1)t + (N-2)t^2 + (q-1)q t^3 + q^2 t^4); the middle
    coefficient is pinned by the t^2 count alpha(2) = (q^2-1) beta(0).
    """
    a0 = b1 = Fraction(n_points, q - 1)
    b0 = elliptic_beta2_closed_form(q, n_points)
    t = RationalFunction.variable("t")
    one = RationalFunction.const(1, "t")
    t2 = t * t
    even_den = (one - t2) * (one - t2.scale(q * q))
    f = RationalFunction.const(a0, "t")
    f = f + (t2.scale(b0 * (q * q - 1))) / even_den
    odd = t.scale(q) / (one - t2.scale(q * q)) - t / (one - t2)
    return f + odd.scale(b1)


def mixed_numerator(q: int, n_points: int) -> Poly:
    """Quartic numerator of the all-degree rank-two zeta, over N/(q-1)."""
    n = n_points
    return Poly.of(1, q - 1, n - 2, (q - 1) * q, q * q)


def partial_zeta_rank3_elliptic(q: int, n_points: int) -> RationalFunction:
    """Rank-three zeta over degrees 1, 2 mod 3 on an elliptic curve.

    Equals N [(qt + q^2 t^2)/(1-q^3 t^3) - (t + t^2)/(1-t^3)]; expanding
    over the common denominator factors the numerator as
    (q-1) t [1 + (q+1) t + q(q+1) t^3 + q^2 t^4].
    """
    t = RationalFunction.variable("t")
    one = RationalFunction.const(1, "t")
    t2, t3 = t * t, t * t * t
    f = (t.scale(q) + t2.scale(q * q)) / (one - t3.scale(q**3))
    f = f - (t + t2) / (one - t3)
    return f.scale(n_points)


def partial_rank3_bracket(q: int) -> Poly:
    """Bracket factor of the rank-three partial zeta numerator."""
    return Poly.of(1, q + 1, 0, q * (q + 1), q * q)


def partial_rank3_identity_check(q: int, n_points: int) -> bool:
    """Exact agreement of the two displayed forms of the partial zeta."""
    t = RationalFunction.variable("t")
    one = RationalFunction.const(1, "t")
    t3 = t * t * t
    den = (one - t3) * (one - t3.scale(q**3))
    numerator = Poly.of(0, q - 1) * partial_rank3_bracket(q)
    rhs = RationalFunction.from_poly(numerator, "t").scale(n_points) / den
    return partial_zeta_rank3_elliptic(q, n_points) == rhs


# ---------------------------------------------------------------------------
# Counting invariants from a zeta
# ---------------------------------------------------------------------------


def bundle_counts(
    z: RationalFunction, alpha0: Rat, Q: Rat, upto: int
) -> list[Fraction]:
    """Counts N(m) = m [T^m] log(Z/alpha0) for m = 1..upto.

    Cross-checked exactly against 1 + Q^m - s_m, where s_m is the m-th
    power sum of the inverse roots omega_i of the numerator
    p = 1 + p_1 T + ... = prod (1 - omega_i T), by Newton's identities
    (power_sums); any disagreement raises.
    """
    alpha0 = _frac(alpha0)
    Q = _frac(Q)
    if alpha0 == 0:
        raise DomainError("alpha(0) must be nonzero")
    normalized = z.scale(1 / alpha0)
    counts = [m * c for m, c in enumerate(series_log_coefficients(normalized, upto), 1)]
    sums = power_sums(pure_numerator(normalized, Q), upto)
    for m, (n, s_m) in enumerate(zip(counts, sums), 1):
        alt = 1 + Q**m - s_m
        if alt != n:
            raise ValidationError(
                f"count N({m}) disagrees between series ({n}) "
                f"and Newton power sums ({alt})"
            )
    return counts
