"""Exact univariate arithmetic: polynomials and reduced rational functions.

Scalars in the API are ``fractions.Fraction``.  A polynomial is a dense
tuple of coefficients indexed by degree, trailing zeros stripped, so the
zero polynomial is the empty tuple.  A rational function is a reduced
pair of polynomials with the denominator normalized to leading
coefficient 1; that makes equality of values a plain structural
comparison.  The reduction itself runs over Z: numerator and denominator
become a rational content times a primitive integer list, their gcd is
taken by a primitive pseudo-remainder sequence and divided out exactly,
and the Fractions of the result are built once.

Every change of variable the identities need, the functional equations'
u -> c/u as well as the reparametrizations, is the one monomial
substitution u -> c*v^d: it places coefficients and reduces once.

Everything here is immutable and side-effect free.  The only
floating-point code in the module is ``poly_complex_roots``, which serves
the root lists of the Riemann-Hypothesis reports and the pole lines the
uniformity matcher prunes its candidates with; no verdict rests on it.
Even there the structure of the roots is exact: a square-free split
(Yun's algorithm on the exact gcd) gives every multiplicity, and floats
only refine the simple roots of each factor.  RH verdicts come from the
exact ``roots_on_circle``, and every identity check stays in exact
rationals.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import BoundError, CapabilityError, DomainError, NumericError, PoleError

Rat = Union[Fraction, int]

# Hard cap on exponents produced by monomial substitutions.
_DEGREE_BOUND = 100_000


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def parse_rational(value) -> Fraction:
    """``Fraction(value)``, refusing a value too large to print exactly.

    The printable size is the interpreter's limit on integer-to-string
    conversion (``sys.get_int_max_str_digits``, 0 for none).  The
    exponent of a decimal string is read first, so "1e10000000" is
    refused before Fraction spends seconds expanding it.
    """
    limit = sys.get_int_max_str_digits()
    if limit and isinstance(value, str):
        match = _EXPONENT.search(value)
        if match and abs(int(match.group(1))) > limit:
            raise CapabilityError(f"{value[:40]!r} has more than {limit} digits")
    x = Fraction(value)
    if limit and max(abs(x.numerator), x.denominator) >= 10**limit:
        raise CapabilityError(f"a rational value has more than {limit} digits")
    return x


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over Fraction, index = degree."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: Rat) -> "Poly":
        return Poly.from_list(coeffs)

    @staticmethod
    def from_list(coeffs: Iterable[Rat]) -> "Poly":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((Fraction(1),))

    @staticmethod
    def constant(c: Rat) -> "Poly":
        return Poly.from_list([c])

    @staticmethod
    def monomial(degree: int, c: Rat = 1) -> "Poly":
        if degree < 0:
            raise DomainError("monomial degree must be >= 0")
        return Poly.from_list([0] * degree + [c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly.from_list(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_list(out)

    def scale(self, c: Rat) -> "Poly":
        c = _frac(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly.from_list(quot), Poly.from_list(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DomainError("inexact polynomial division")
        return q

    def evaluate(self, x: Rat) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def shift(self, a: Rat) -> "Poly":
        """Return p(x + a), expanded by synthetic Taylor division."""
        a = _frac(a)
        cs = list(self.coeffs)
        n = len(cs)
        out = []
        for _ in range(n):
            # repeated synthetic division by (x - (-a)) collects Taylor coeffs
            rem = Fraction(0)
            for i in range(n - 1, -1, -1):
                rem = cs[i] + a * rem
                cs[i] = rem
            out.append(cs[0])
            cs = cs[1:]
            n -= 1
        return Poly.from_list(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


# A rational polynomial enters the integer kernels as a rational content
# times a primitive integer coefficient list (FLINT's fmpq_poly layout):
# products, gcds and exact quotients then run over Z, and Fractions are
# built once, for the result.


def _int_content(ints: Sequence[int]) -> int:
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
        if g == 1:
            return 1
    return g or 1


def _to_int_poly(p: Poly) -> tuple[Fraction, list[int]]:
    """p as a rational content times a primitive integer list."""
    den = 1
    for c in p.coeffs:
        if c.denominator != 1:
            den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = _int_content(ints)
    return Fraction(g, den), [v // g for v in ints]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _int_div_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists whose quotient is known to be integral."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db] // lb
        if c:
            quot[i] = c
            for j, v in enumerate(b, i):
                a[j] -= c * v
    return quot


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists, content-stripped."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        g = math.gcd(la, lb)
        ml, mb = lb // g, la // g
        shift = len(a) - len(b)
        a = [c * ml for c in a]
        for j, v in enumerate(b):
            a[shift + j] -= mb * v
        while a and a[-1] == 0:
            a.pop()
    g = _int_content(a)
    return [v // g for v in a] if a else []


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (up to sign) of nonzero primitive integer lists.

    Computed by the primitive pseudo-remainder sequence; a constant side
    makes it 1.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    while b:
        a, b = b, _int_prem(a, b)
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, computed by a primitive remainder sequence over Z."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        g = Poly.from_list(_int_gcd(_to_int_poly(a)[1], _to_int_poly(b)[1]))
    if g.is_zero():
        return g
    return g.scale(1 / g.leading())


# ---------------------------------------------------------------------------
# Roots on a circle
# ---------------------------------------------------------------------------


def _derivative(p: Poly) -> Poly:
    return Poly.from_list([i * c for i, c in enumerate(p.coeffs)][1:])


def roots_on_circle(p: Poly, r2: Rat) -> bool:
    """Whether every complex root z of p has |z|^2 = r2, decided exactly.

    If every root lies on the circle, r2/z is the conjugate root of z, so
    z^d p(r2/z) = (p_0/p_d) p(z): the symmetry p_i r2^i p_d = p_0 p_{d-i}
    is necessary and is checked first.  When it holds with d = 2m even
    and p_0/p_d > 0, p(z)/z^m = h(z + r2/z), and the roots lie on the
    circle iff every root y of h is real with y^2 <= 4 r2 (otherwise p^2,
    with the same roots, takes its place).  The roots of
    H(w) = h(y) h(-y) are the y^2, so a Sturm count of the distinct roots
    of H in [0, 4 r2] against the degree of its square-free part decides.
    """
    r2 = _frac(r2)
    if r2 <= 0:
        raise DomainError("the squared radius must be positive")
    if p.is_zero():
        raise DomainError("the zero polynomial vanishes everywhere")
    d = p.degree
    if d == 0:
        return True
    if p[0] == 0:
        return False
    if any(p[i] * r2**i * p[d] != p[0] * p[d - i] for i in range(d + 1)):
        return False
    if d % 2 or p[0] / p[d] < 0:
        p, d = p * p, 2 * d
    m = d // 2
    # h = p_m + sum_j p_{m+j} T_j(y), with T_j(z + r2/z) = z^j + (r2/z)^j
    y = Poly.of(0, 1)
    h, t_prev, t = Poly.constant(p[m]), Poly.constant(2), y
    for j in range(1, m + 1):
        h = h + t.scale(p[m + j])
        t_prev, t = t, y * t - t_prev.scale(r2)
    h_neg = Poly(tuple(-c if i % 2 else c for i, c in enumerate(h.coeffs)))
    H = Poly.from_list((h * h_neg).coeffs[::2])
    s = H.exact_div(poly_gcd(H, _derivative(H)))  # square-free part
    chain = [s, _derivative(s)]  # Sturm chain, exact remainders
    while chain[-1].degree > 0:
        chain.append(-chain[-2].divmod(chain[-1])[1])

    def sign_changes(x: Fraction) -> int:
        signs = [v > 0 for v in (c.evaluate(x) for c in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # distinct roots in (0, 4 r2], plus the root at 0 if there is one
    inside = sign_changes(Fraction(0)) - sign_changes(4 * r2) + (s[0] == 0)
    return inside == s.degree


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

VARIABLES = ("u", "T", "t", "v")


@dataclass(frozen=True)
class RationalFunction:
    """Reduced ratio of polynomials in a single tagged variable.

    The denominator has leading coefficient 1 and shares no factor with
    the numerator, so ``==`` decides equality of the underlying
    functions.
    """

    num: Poly
    den: Poly
    var: str = "u"

    @staticmethod
    def make(num: Poly, den: Poly, var: str = "u") -> "RationalFunction":
        if var not in VARIABLES:
            raise DomainError(f"unknown variable tag {var!r}")
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            return RationalFunction(Poly.zero(), Poly.one(), var)
        # by Gauss's lemma the quotients by the primitive gcd are integral
        cn, a = _to_int_poly(num)
        cd, b = _to_int_poly(den)
        g = _int_gcd(a, b)
        if len(g) > 1:
            a, b = _int_div_exact(a, g), _int_div_exact(b, g)
        lead = b[-1]
        s = cn / (cd * lead)
        return RationalFunction(
            Poly(tuple(Fraction(s.numerator * v, s.denominator) for v in a)),
            Poly(tuple(Fraction(v, lead) for v in b)),
            var,
        )

    @staticmethod
    def from_poly(p: Poly, var: str = "u") -> "RationalFunction":
        return RationalFunction.make(p, Poly.one(), var)

    @staticmethod
    def const(c: Rat, var: str = "u") -> "RationalFunction":
        return RationalFunction.make(Poly.constant(c), Poly.one(), var)

    @staticmethod
    def variable(var: str = "u") -> "RationalFunction":
        return RationalFunction.make(Poly.monomial(1), Poly.one(), var)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("rational function is not constant")
        if self.num.is_zero():
            return Fraction(0)
        return self.num[0] / self.den[0]

    def _check(self, other: "RationalFunction") -> None:
        if self.var != other.var:
            raise DomainError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        return RationalFunction.make(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            self.var,
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, self.var)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        # cross-reduce before multiplying to keep intermediate degrees down
        a = RationalFunction.make(self.num, other.den, self.var)
        b = RationalFunction.make(other.num, self.den, self.var)
        return RationalFunction(a.num * b.num, a.den * b.den, self.var)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if other.is_zero():
            raise DomainError("division by the zero function")
        return self * RationalFunction.make(other.den, other.num, self.var)

    def scale(self, c: Rat) -> "RationalFunction":
        return RationalFunction(self.num.scale(c), self.den, self.var)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (RationalFunction.const(1, self.var) / self) ** (-n)
        result = RationalFunction.const(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_monomial(self, k: int) -> "RationalFunction":
        """Multiply by var^k, any integer k."""
        if k >= 0:
            return RationalFunction.make(
                self.num * Poly.monomial(k), self.den, self.var
            )
        return RationalFunction.make(
            self.num, self.den * Poly.monomial(-k), self.var
        )

    def evaluate(self, x: Rat) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise PoleError(f"evaluation at a pole x={x}")
        return self.num.evaluate(x) / d

    def retag(self, var: str) -> "RationalFunction":
        if var not in VARIABLES:
            raise DomainError(f"unknown variable tag {var!r}")
        return RationalFunction(self.num, self.den, var)

    def series(self, order: int) -> list[Fraction]:
        """Power-series coefficients c_0..c_order; needs den(0) != 0."""
        if self.den[0] == 0:
            raise DomainError("series expansion at a pole of the function")
        d0 = self.den[0]
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = self.num[k]
            for j in range(1, k + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        return out

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# Monomial substitution
# ---------------------------------------------------------------------------


def substitute(f: RationalFunction, c: Rat, d: int, var: str) -> RationalFunction:
    """Return f(c * v^d) as a reduced function of ``var``, for any d != 0.

    Coefficient a_i of either part goes to v^(d*i); for d < 0 both parts
    are multiplied by v^(|d|*m), m the larger of their degrees, so it goes
    to v^(|d|*(m-i)).  Composing two substitutions agrees with
    substituting their composition.
    """
    c = _frac(c)
    if c == 0:
        raise DomainError("substitution constant must be nonzero")
    if d == 0:
        raise DomainError("substitution exponent must be nonzero")
    m = max(f.num.degree, f.den.degree, 0)
    if abs(d) * m > _DEGREE_BOUND:
        raise BoundError("substitution exponent bound exceeded")

    def place(p: Poly) -> Poly:
        out = [Fraction(0)] * (abs(d) * m + 1)
        ci = Fraction(1)
        for i, a in enumerate(p.coeffs):
            out[d * i if d > 0 else -d * (m - i)] = a * ci
            ci *= c
        return Poly.from_list(out)

    return RationalFunction.make(place(f.num), place(f.den), var)


# ---------------------------------------------------------------------------
# Logarithmic series
# ---------------------------------------------------------------------------


def series_log_coefficients(f: RationalFunction, order: int) -> list[Fraction]:
    """Coefficients c_1..c_order of log f, for f with f(0) = 1.

    Computed from the series of f by the convolution recurrence
    m*a_m = sum_{j<=m} j*c_j*a_{m-j}, all in exact rationals, so
    exp(sum c_m x^m) reproduces f through the requested order.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    a = f.series(order)
    if a[0] != 1:
        raise DomainError("log series requires f(0) = 1")
    cs: list[Fraction] = []
    for m in range(1, order + 1):
        acc = a[m]
        for j in range(1, m):
            acc -= Fraction(j, m) * cs[j - 1] * a[m - j]
        cs.append(acc)
    return cs


def series_exp(cs: Sequence[Fraction], order: int) -> list[Fraction]:
    """Series of exp(sum_{m>=1} c_m x^m) through x^order."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            cj = cs[j - 1] if j - 1 < len(cs) else Fraction(0)
            acc += j * cj * out[m - j]
        out[m] = acc / m
    return out


# ---------------------------------------------------------------------------
# Complex roots
# ---------------------------------------------------------------------------


# Sweep limit of the Aberth iteration; a run that has not settled by then
# is judged by the residual bound and may hand over to the companion matrix.
ABERTH_SWEEPS = 400


def _aberth(coeffs: list[complex]):
    n = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]

    def p(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    def dp(z: complex) -> complex:
        acc = 0j
        for i in range(n, 0, -1):
            acc = acc * z + i * monic[i]
        return acc

    radius = 1.0 + max(abs(c) for c in monic[:-1]) if n else 1.0
    zs = [
        radius * cmath.exp(2j * cmath.pi * (k + 0.35) / n + 0.4j)
        for k in range(n)
    ]
    for _ in range(ABERTH_SWEEPS):
        moved = 0.0
        for i in range(n):
            pi = p(zs[i])
            di = dp(zs[i])
            if di == 0:
                zs[i] += (1e-8 + 1e-8j)
                moved = math.inf
                continue
            ratio = pi / di
            s = sum(
                1.0 / (zs[i] - zs[j]) for j in range(n) if j != i and zs[i] != zs[j]
            )
            denom = 1.0 - ratio * s
            step = ratio / denom if denom != 0 else ratio
            zs[i] -= step
            moved = max(moved, abs(step) / (1.0 + abs(zs[i])))
        if moved < 1e-15:
            break
    return zs


def _root_scale(p: Poly, z: complex) -> float:
    return sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coeffs))


# Residual bound of every root: |f(z)| <= ROOT_TOL * sum_i |f_i| |z|^i for
# the square-free factor f that z is a root of.
ROOT_TOL = 1e-10


def _squarefree_split(p: Poly) -> list[tuple[Poly, int]]:
    """The pairs (f_k, k) with p = lead * prod f_k^k, by Yun's algorithm.

    The f_k are nonconstant, square-free and pairwise coprime, so the
    multiplicity of every root is exact.  A square-free p is returned
    as [(p, 1)] itself, after one integer gcd of p and p'.
    """
    ints = _to_int_poly(p)[1]
    if len(_int_gcd(ints, [i * v for i, v in enumerate(ints)][1:])) == 1:
        return [(p, 1)]
    dp = _derivative(p)
    c = poly_gcd(p, dp)
    w, y = p.exact_div(c), dp.exact_div(c)
    out = []
    k = 1
    while w.degree > 0:
        z = y - _derivative(w)
        g = poly_gcd(w, z)
        if g.degree > 0:
            out.append((g, k))
        w, y = w.exact_div(g), z.exact_div(g)
        k += 1
    return out


def poly_complex_roots(p: Poly) -> list[complex]:
    """All complex roots, each repeated to its multiplicity.

    The multiplicities are exact: p is split into square-free factors,
    and floats only refine the simple roots of each factor, by Aberth
    iteration with a fallback to the companion-matrix eigenvalues when
    the iteration stalls.  Each root meets the ``ROOT_TOL`` residual
    bound against its factor; repeated roots are equal floats, the list
    is conjugate-symmetric and sorted by (real, imag).  Raises
    NumericError if neither method meets the residual bound.
    """
    if p.is_zero() or p.degree < 1:
        raise DomainError("root finding needs a nonzero, nonconstant polynomial")
    # split off exact roots at the origin
    low = 0
    while p.coeffs[low] == 0:
        low += 1
    roots: list[complex] = [0j] * low
    reduced = Poly(tuple(p.coeffs[low:]))
    if reduced.degree >= 1:
        for f, mult in _squarefree_split(reduced):
            roots.extend(_simple_roots(f) * mult)
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _simple_roots(p: Poly) -> list[complex]:
    zs = _aberth([complex(c) for c in p.coeffs])
    if not _residuals_ok(p, zs):
        zs = _companion_roots(p)
        if not _residuals_ok(p, zs):
            raise NumericError("root refinement did not reach the residual bound")
    # coefficients are rational, hence real: enforce conjugate symmetry
    return _symmetrize_conjugates(zs)


def _companion_roots(p: Poly) -> list[complex]:
    """Eigenvalues of the companion matrix of p, in double precision."""
    import mpmath

    n, lead = p.degree, p.leading()
    if n == 1:  # mpmath.eig ignores left=False, right=False on a 1x1 matrix
        return [complex(-p[0] / lead)]
    companion = mpmath.matrix(n, n)
    for i in range(n):
        if i:
            companion[i, i - 1] = 1
        companion[i, n - 1] = float(-p[i] / lead)
    return [complex(z) for z in mpmath.eig(companion, left=False, right=False)]


def _residuals_ok(p: Poly, zs: Iterable[complex]) -> bool:
    for z in zs:
        bound = ROOT_TOL * max(_root_scale(p, z), 1e-300)
        if abs(p.evaluate_complex(z)) > bound:
            return False
    return True


def _symmetrize_conjugates(roots: list[complex]) -> list[complex]:
    out: list[complex] = []
    pool = list(roots)
    while pool:
        z = pool.pop()
        if abs(z.imag) <= ROOT_TOL * (1.0 + abs(z)):
            out.append(complex(z.real, 0.0))
            continue
        best, dist = None, math.inf
        for i, w in enumerate(pool):
            d = abs(w - z.conjugate())
            if d < dist:
                best, dist = i, d
        if best is not None and dist <= 1e-6 * (1.0 + abs(z)):
            w = pool.pop(best)
            mean = (z + w.conjugate()) / 2
            out.extend([mean, mean.conjugate()])
        else:
            out.append(z)
    return out
