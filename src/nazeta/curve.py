"""Curves over finite fields: arithmetic data and exact zeta values.

A curve enters the library only through its genus g, field size q and
Weil numerator P of degree 2g, validated against 1 <= g <= GENUS_CAP,
P(0) = 1 and the coefficient symmetry a_{2g-i} = q^{g-i} a_i.  P and the
counts N_m = #X(F_{q^m}) determine each other by Newton's identities on
the power sums q^m + 1 - N_m of P's inverse roots.  The completed zeta
q^{(g-1)s} P(q^{-s}) / ((1-q^{-s})(1-q^{1-s})) at any integer-linear
argument k*s + h is a constant times a power of u = q^{-s} times powers
of the atoms 1 - c u^m and P(c u^m), m >= 1 (a FactorProduct), where c
is always a power q^j and an atom is keyed by the integer j.  The
constant is kept as a reduced integer pair (num, den), so building,
multiplying and reflecting factors is integer arithmetic with one gcd
per product and no Fraction; FactorProduct.const gives it as a Fraction
for the scalar callers.  Products of such factors are taken in one pass
(product) and stay factored until one expansion into a pair of integer
coefficient lists in u, which a single reduction turns into a rational
function of u; completed_zeta_factor returns that function itself.  The
reflection u -> q^c/u maps atoms to atoms, so reflect_factors applies it
to a FactorProduct without expanding.  The residue at s = 1 is kept in
"stripped" form, multiplied by log q, so that every special value in the
system is an honest rational number.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    Poly,
    RationalFunction,
    _int_mul,
    parse_rational,
    power_sums,
    roots_on_circle,
)
from .errors import CapabilityError, DomainError, PoleError, ValidationError
from .record import Frozen

# curve-validate on point_counts [3] * g (subprocess wall, 2-core Linux host):
# 0.2 s at g = 50 and 0.7 s at g = 100 for q = 2, 0.3 s and 3.9 s for q = 9
GENUS_CAP = 50

# The Weil check's cost grows as g^3 B^2, B the bit length of P's largest
# coefficient over Z (about g log2 q for point counts).  On point_counts
# [3] * g (in process, same host) it took 1.4-2.6e-11 s per unit over 20
# points with g <= 50, q <= 10^12: 0.09 s at (g, q) = (50, 9), 0.8 s at
# (50, 1009), 1.3 s at (50, 10007), 2.0 s at (50, 10^6 + 3), 0.5 s at
# (32, 10^9 + 7), 0.8 s at (32, 10^12 + 39) and 1.2 s at (40, 10^9 + 7);
# the cap keeps it near 1 s.  Unstructured numerators cost more per unit.
WEIL_SIZE_CAP = 4 * 10**10


def check_genus(g: int) -> None:
    """Refuse a genus outside 1..GENUS_CAP."""
    if g < 1:
        raise ValidationError("genus must be >= 1")
    if g > GENUS_CAP:
        raise CapabilityError(f"curves are supported up to genus g = {GENUS_CAP}")


class CurveData(Frozen):
    """Genus, field size and Weil numerator of a curve over F_q."""

    __slots__ = ("g", "q", "P")

    def __init__(self, g: int, q: int, P: Poly) -> None:
        check_genus(g)
        if q < 2:
            raise ValidationError("field size q must be >= 2")
        if P.degree != 2 * g:
            raise ValidationError(f"numerator degree {P.degree} != 2g = {2 * g}")
        (n, k), a = P.content.as_integer_ratio(), P.prim
        if n * a[0] != k:  # P = (n/k) a: the symmetry below is a's alone
            raise ValidationError("numerator must have constant term 1")
        for i in range(g):  # i and 2g - i state the same equation; i = g holds
            if a[2 * g - i] != q ** (g - i) * a[i]:
                lhs, rhs = P[2 * g - i], Fraction(q) ** (g - i) * P[i]
                raise ValidationError(
                    "coefficient symmetry a_{2g-i} = q^(g-i) a_i fails at "
                    f"i={i}: {lhs} != {rhs}"
                )
        self._set(g, q, P)

    def weil_numbers_check(self) -> bool:
        """Whether every inverse root has modulus sqrt(q), decided exactly.

        Refused with CapabilityError above WEIL_SIZE_CAP, before any
        arithmetic.
        """
        size = self.g**3 * max(abs(v) for v in self.P.prim).bit_length() ** 2
        if size > WEIL_SIZE_CAP:
            raise CapabilityError(
                f"the exact Weil check is supported up to g^3 B^2 = {WEIL_SIZE_CAP} "
                f"(B the bits of the largest numerator coefficient); this curve has {size}"
            )
        return roots_on_circle(self.P, Fraction(1, self.q))

    def point_counts(self, upto: int) -> list[int]:
        """#X(F_{q^m}) = q^m + 1 - s_m for m = 1..upto, by power_sums of P."""
        counts = [self.q**m + 1 - s for m, s in enumerate(power_sums(self.P, upto), 1)]
        if any(n.denominator != 1 for n in counts):
            raise ValidationError("non-integer point count")
        return [int(n) for n in counts]


def curve_from_numerator(g: int, q: int, coeffs) -> CurveData:
    """Build a curve directly from numerator coefficients."""
    return CurveData(g, q, Poly.from_list(coeffs))


def curve_from_point_counts(g: int, q: int, counts: list[int]) -> CurveData:
    """Recover the Weil numerator from the counts N_1..N_g.

    The power sums s_m = q^m + 1 - N_m of the inverse roots give the
    lower half of P by Newton's identities, k a_k = -sum_{i<=k} s_i a_{k-i};
    the upper half follows from coefficient symmetry.
    """
    check_genus(g)
    if len(counts) != g:
        raise DomainError(f"need exactly g = {g} point counts")
    if any(n < 1 for n in counts):
        raise DomainError("point counts must be positive")
    s = [q**m + 1 - n for m, n in enumerate(counts, 1)]
    low = [Fraction(1)]
    for k in range(1, g + 1):
        low.append(-sum(s[i - 1] * low[k - i] for i in range(1, k + 1)) / k)
    full = low + [q ** (g - i) * low[i] for i in reversed(range(g))]
    curve = CurveData(g, q, Poly.from_list(full))
    if curve.point_counts(g) != list(counts):
        raise ValidationError("point counts do not round-trip")
    return curve


def elliptic_curve(q: int, n_points: int) -> CurveData:
    """Genus-one curve with the given number of rational points."""
    return curve_from_point_counts(1, q, [n_points])


# ("L", j, m) stands for 1 - q^j u^m and ("P", j, m) for P(q^j u^m), m >= 1
Atom = tuple[str, int, int]


class FactorProduct(Frozen):
    """(num/den) * u^upow * prod atom^e over a multiset of atoms.

    Products of zeta factors stay in this form, so multiplying is adding
    exponents and only the final expansion builds polynomials.  The
    constant is a reduced integer pair: den > 0, and zero is 0/1, so
    equal products have equal fields.
    """

    __slots__ = ("num", "den", "upow", "atoms")

    def __init__(
        self, num: int, den: int, upow: int = 0, atoms: tuple[tuple[Atom, int], ...] = ()
    ) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "upow", upow)
        object.__setattr__(self, "atoms", atoms)

    @property
    def const(self) -> Fraction:
        """The constant num/den as a Fraction, for callers off the hot path."""
        return Fraction(self.num, self.den)

    def __mul__(self, other: "FactorProduct") -> "FactorProduct":
        return product(((self, 1), (other, 1)))

    def __pow__(self, n: int) -> "FactorProduct":
        return product(((self, n),))

    def expand(self, c: CurveData) -> RationalFunction:
        """The product as a reduced rational function: one reduction."""
        return expand_sum(c, [self])


def product(pairs) -> FactorProduct:
    """prod factor^e over the (factor, e) pairs, in one pass.

    Atom exponents and the power of u are summed, zero exponents dropped
    at the end; the constant is accumulated as an integer numerator and
    denominator and reduced once.
    """
    num, den, upow = 1, 1, 0
    exps: dict[Atom, int] = {}
    for f, e in pairs:
        if not e:
            continue
        a, b = f.num, f.den
        if e < 0:
            if not a:
                raise DomainError("division by the zero function")
            a, b = b, a
        num, den = num * a ** abs(e), den * b ** abs(e)
        upow += f.upow * e
        for atom, x in f.atoms:
            exps[atom] = exps.get(atom, 0) + x * e
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return FactorProduct(
        num // g, den // g, upow, tuple((a, x) for a, x in exps.items() if x)
    )


def _q_power(q: int, j: int) -> tuple[int, int]:
    """q^j as a reduced integer pair."""
    return (q**j, 1) if j >= 0 else (1, q**-j)


def _atom_ints(c: CurveData, atom: Atom) -> tuple[int, int, list[int]]:
    """The atom's polynomial in y = u^m as num/den times a primitive list."""
    kind, j, _ = atom
    q = c.q
    if kind == "L":
        if j >= 0:
            return 1, 1, [1, -(q**j)]
        return 1, q**-j, [q**-j, -1]
    (num, den), ints = c.P.content.as_integer_ratio(), c.P.prim
    n = len(ints) - 1
    if j >= 0:
        ints = [v * q ** (i * j) for i, v in enumerate(ints)]
    else:  # P(q^j y) = q^(jn) sum_i a_i q^(-j(n-i)) y^i
        ints = [v * q ** (-j * (n - i)) for i, v in enumerate(ints)]
        den *= q ** (-j * n)
    g = math.gcd(*ints)  # positive, as the lead is
    r = math.gcd(num * g, den)
    return num * g // r, den // r, [v // g for v in ints]


def line_factor(q: int, j: int, k: int) -> FactorProduct:
    """1 - q^j u^k; a negative k folds to 1 - q^-j u^-k."""
    if k > 0:
        return FactorProduct(1, 1, 0, ((("L", j, k), 1),))
    a, b = _q_power(q, j)
    if k < 0:
        # 1 - q^j u^{-m} = -q^j u^{-m} (1 - q^{-j} u^m)
        return FactorProduct(-a, b, k, ((("L", -j, -k), 1),))
    return FactorProduct(b - a, b)  # b and b - a are coprime, b > 0


def _numerator_factor(c: CurveData, j: int, k: int) -> FactorProduct:
    """P(q^j u^k); a negative k folds by the coefficient symmetry."""
    if k > 0:
        return FactorProduct(1, 1, 0, ((("P", j, k), 1),))
    if k < 0:
        # P(x) = q^g x^{2g} P(1/(q x)) at x = q^j u^{-m}
        return FactorProduct(
            *_q_power(c.q, c.g + 2 * c.g * j), 2 * c.g * k, ((("P", -1 - j, -k), 1),)
        )
    num, den, ints = _atom_ints(c, ("P", j, 1))  # P(q^j y) at y = 1
    num *= sum(ints)
    g = math.gcd(num, den)
    return FactorProduct(num // g, den // g)


def reflect_factors(c: CurveData, f: FactorProduct, c_p: int) -> FactorProduct:
    """f under u -> q^{c_p}/u, atom by atom, without expanding.

    q^j u^m goes to q^{j + c_p m} u^{-m}, so ("L", j, m) becomes the line
    1 - q^{j + c_p m} u^{-m}, ("P", j, m) the numerator factor
    P(q^{j + c_p m} u^{-m}), each folded back to m >= 1, and u^upow
    becomes q^{c_p upow} u^{-upow}.
    """
    q = c.q
    a, b = _q_power(q, c_p * f.upow)
    # the constant need not be reduced here: product reduces its result
    pairs = [(FactorProduct(f.num * a, f.den * b, -f.upow), 1)]
    for (kind, j, m), e in f.atoms:
        j, m = j + c_p * m, -m
        image = line_factor(q, j, m) if kind == "L" else _numerator_factor(c, j, m)
        pairs.append((image, e))
    return product(pairs)


def zeta_factors(c: CurveData, k: int, h: int) -> FactorProduct:
    """Completed zeta at k*s + h as a product of atoms in u = q^{-s}.

    q^{(g-1)h} U^{-(g-1)} P(U q^{-h}) / ((1 - U q^{-h})(1 - U q^{1-h}))
    with U = u^k.  The argument values 0 and 1, reached only when k = 0,
    are poles; callers wanting the stripped special value at 1 use
    zeta_special_residue.
    """
    if k == 0 and h in (0, 1):
        raise PoleError(
            f"completed zeta has a pole at the constant argument {h}; "
            "use zeta_special_residue for the stripped value at 1"
        )
    g, q = c.g, c.q
    shift = FactorProduct(*_q_power(q, (g - 1) * h), -k * (g - 1))
    return product((
        (shift, 1), (_numerator_factor(c, -h, k), 1),
        (line_factor(q, -h, k), -1), (line_factor(q, 1 - h, k), -1),
    ))


def expand_sum(c: CurveData, terms: list[FactorProduct]) -> RationalFunction:
    """The reduced sum of factored terms, with a single reduction."""
    return RationalFunction.make(*map(Poly.from_ints, _expand_parts(c, terms, {})), "u")


def _expand_parts(
    c: CurveData, terms: list[FactorProduct], powers: dict
) -> tuple[list[int], list[int]]:
    """The sum of factored terms as an unreduced pair of integer lists in u.

    The common denominator takes each atom to its highest power over the
    terms, and the lowest power of u.  Each numerator is lifted to it as
    an integer scalar pair times a product of integer lists; the scalars
    are brought to one denominator and the sum is accumulated over Z.
    Atom powers are kept in ``powers`` by (atom, exponent), built on
    first use, their contents' powers as integer pairs.
    """
    terms = [t for t in terms if t.num]
    den_exps: dict[Atom, int] = {}
    for t in terms:
        for atom, e in t.atoms:
            if e < 0 and -e > den_exps.get(atom, 0):
                den_exps[atom] = -e
    low = min((t.upow for t in terms), default=0)

    def power(atom: Atom, n: int) -> tuple[int, int, list[int]]:
        if (atom, n) not in powers:
            a, b, ints = _atom_ints(c, atom)
            p = [1]
            for _ in range(n):
                p = _int_mul(p, ints)
            m = atom[2]
            spread = [0] * (m * (len(p) - 1) + 1)
            spread[::m] = p
            powers[atom, n] = (a**n, b**n, spread)
        return powers[atom, n]

    def lift(ints: list[int], exps: dict[Atom, int]) -> tuple[int, int, list[int]]:
        num = den = 1
        for atom, n in exps.items():
            if n:
                a, b, p = power(atom, n)
                num, den = num * a, den * b
                ints = _int_mul(ints, p)
        return num, den, ints

    lifted = []
    for t in terms:
        exps = dict(den_exps)
        for atom, e in t.atoms:
            exps[atom] = exps.get(atom, 0) + e
        a, b, p = lift([0] * (t.upow - low) + [1], exps)
        lifted.append((t.num * a, t.den * b, p))
    common = math.lcm(*(den for _, den, _ in lifted))
    total = [0] * max((len(p) for _, _, p in lifted), default=0)
    for num, den, p in lifted:
        f = num * (common // den)
        for i, v in enumerate(p):
            total[i] += f * v
    # sum = total / common and the denominator is (den_num / den_den) * den
    den_num, den_den, den = lift([0] * max(-low, 0) + [1], den_exps)
    num = [0] * max(low, 0) + [v * den_den for v in total]
    return num, [v * common * den_num for v in den]


def completed_zeta_factor(c: CurveData, k: int, h: int) -> RationalFunction:
    """Completed zeta at k*s + h in the variable u = q^{-s}, reduced."""
    return zeta_factors(c, k, h).expand(c)


def zeta_special_residue(c: CurveData) -> Fraction:
    """Stripped residue of the completed zeta at s = 1: q^g P(1/q)/(q-1).

    The log q factor carried by the honest residue is multiplied away, so
    the value is rational; by coefficient symmetry it also equals
    P(1)/(q-1).
    """
    q = Fraction(c.q)
    return q**c.g * c.P.evaluate(1 / q) / (q - 1)


def completed_zeta_value(c: CurveData, h: int) -> Fraction:
    """Constant value of the completed zeta at an integer h not in {0, 1}."""
    return zeta_factors(c, 0, h).const  # at k = 0 there are no atoms


def artin_zeta_value(c: CurveData, h: int) -> Fraction:
    """Value of the uncompleted zeta at an integer argument h >= 2."""
    q = Fraction(c.q)
    if h in (0, 1):
        raise PoleError("Artin zeta has poles at 0 and 1")
    return c.P.evaluate(q**-h) / ((1 - q**-h) * (1 - q ** (1 - h)))


def curve_to_json(c: CurveData) -> dict:
    return {
        "genus": c.g,
        "q": c.q,
        "numerator_coeffs": [str(x) for x in c.P.coeffs],
    }


def _spec_int(value) -> int:
    """``int(value)``, refusing a bool and a float with a fractional part,
    which ``int`` would take as an integer."""
    n = int(value)
    if isinstance(value, bool) or isinstance(value, float) and n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


def curve_from_json(data: dict) -> CurveData:
    """A curve from its JSON spec: genus, q and point counts or numerator."""
    if not isinstance(data, dict) or not (
        {"point_counts", "numerator_coeffs"} & data.keys()
    ):
        raise ValidationError(
            "curve spec needs either point_counts or numerator_coeffs"
        )
    try:
        g = _spec_int(data["genus"])
        q = _spec_int(data["q"])
        if "point_counts" in data:
            counts = [_spec_int(n) for n in data["point_counts"]]
        else:
            coeffs = [parse_rational(s) for s in data["numerator_coeffs"]]
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"malformed curve spec ({type(exc).__name__}: {exc})"
        ) from exc
    if "point_counts" in data:
        return curve_from_point_counts(g, q, counts)
    return curve_from_numerator(g, q, coeffs)
