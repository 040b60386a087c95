"""Exact univariate arithmetic: polynomials and reduced rational functions.

Scalars in the API are ``fractions.Fraction``.  A polynomial is stored as
a rational ``content`` times ``prim``, a tuple of integers indexed by
degree with gcd 1 and a positive leading coefficient, (0, ()) for zero:
a canonical form (FLINT's fmpq_poly layout).  The integer kernels
(``_int_mul``, ``_int_gcd``, ``_int_div_exact``, ``_int_prem``) take
``prim`` as it is; by Gauss's lemma a product needs no gcd and an exact
quotient is primitive.  The constructors and readers around them
(``from_list``, ``from_ints``, ``make``, ``substitute``, ``mul_monomial``,
``power_sums``) work on integer numerators and denominators too, and
build each content or value as one Fraction at the end.  Only ``coeffs``,
``p[i]`` and ``leading()`` give a Fraction per coefficient, and
``evaluate`` its one value: ``str``, the JSON writers and the benchmark's
tracer read them, as do a few checks off the hot paths.  A rational
function is a reduced pair with a monic denominator, so equality of
values is a structural comparison; the reduction divides the primitive
gcd out of both lists exactly.  The circle test runs one Sturm chain over
Z, square-free input or not, once the roots at the ends of its interval
are divided out (Basu, Pollack and Roy); positive multipliers keep the
signs of its pseudo-remainders over Q.

Every change of variable the identities need, the functional equations'
u -> c/u as well as the reparametrizations, is the one monomial
substitution u -> c*v^d: a ring homomorphism, so it places coefficients
and keeps a reduced pair reduced up to a power of v, with no gcd.

Everything here is immutable and side-effect free.  The floating-point
code in the module is ``poly_complex_roots``, which serves the root lists
of the Riemann-Hypothesis reports and the pole lines the uniformity
matcher prunes its candidates with, and ``Poly.evaluate_complex``, the
residual check of those roots; no verdict rests on either.
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
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import BoundError, CapabilityError, DomainError, NumericError, PoleError
from .record import Frozen

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


class Poly(Frozen):
    """Dense univariate polynomial over Q: ``content`` times ``prim``."""

    __slots__ = ("content", "prim")

    def __init__(self, content: Fraction, prim: tuple[int, ...]) -> None:
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "prim", prim)

    @staticmethod
    def of(*coeffs: Rat) -> "Poly":
        return Poly.from_list(coeffs)

    @staticmethod
    def from_list(coeffs: Iterable[Rat]) -> "Poly":
        cs = list(coeffs)  # ints and Fractions both carry numerator/denominator
        den = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (den // c.denominator) for c in cs]
        return Poly.from_ints(ints, Fraction(1, den)) if den > 1 else Poly.from_ints(ints)

    @staticmethod
    def from_ints(ints: Sequence[int], content: Fraction = Fraction(1)) -> "Poly":
        """content * ints, for an integer list (trailing zeros allowed)."""
        ints = _trim(list(ints))
        if not ints or not content:
            return Poly.zero()
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        if g == 1:
            return Poly(content, tuple(ints))
        n, k = content.as_integer_ratio()
        return Poly(Fraction(n * g, k), tuple(v // g for v in ints))

    @staticmethod
    def zero() -> "Poly":
        return Poly(Fraction(0), ())

    @staticmethod
    def one() -> "Poly":
        return Poly(Fraction(1), (1,))

    @staticmethod
    def constant(c: Rat) -> "Poly":
        return Poly.from_list([c])

    @staticmethod
    def monomial(degree: int, c: Rat = 1) -> "Poly":
        if degree < 0:
            raise DomainError("monomial degree must be >= 0")
        return Poly.from_list([0] * degree + [c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, index = degree."""
        return tuple(self.content * v for v in self.prim)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.prim) - 1

    def is_zero(self) -> bool:
        return not self.prim

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.prim):
            return self.content * self.prim[i]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.prim:
            return Fraction(0)
        return self.content * self.prim[-1]

    def __add__(self, other: "Poly") -> "Poly":
        # over Z, with the contents brought to one denominator
        den = math.lcm(self.content.denominator, other.content.denominator)
        a, b = (
            [p.content.numerator * (den // p.content.denominator) * v for v in p.prim]
            for p in (self, other)
        )
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Poly.from_ints(a, Fraction(1, den))

    def __neg__(self) -> "Poly":
        return Poly(-self.content, self.prim)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        # by Gauss's lemma the product of primitive lists is primitive
        return Poly(self.content * other.content, tuple(_int_mul(self.prim, other.prim)))

    def scale(self, c: Rat) -> "Poly":
        if c == 0:
            return Poly.zero()
        return Poly(self.content * c, self.prim)

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

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other, refused with DomainError unless other divides it.

        By Gauss's lemma the quotient of the primitive parts is primitive
        and integral, with a positive lead, so it is ``prim`` as it is.
        """
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        return Poly(self.content / other.content, tuple(_int_div_exact(self.prim, other.prim)))

    def evaluate(self, x: Rat) -> Fraction:
        n, k = x.as_integer_ratio()  # content * k^d p(n/k) / k^d, the middle over Z
        c, d = self.content, max(self.degree, 0)
        return Fraction(c.numerator * _int_eval(self.prim, n, k), c.denominator * k**d)

    def evaluate_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def shift(self, a: Rat) -> "Poly":
        """Return p(x + a), by synthetic division over Z.

        With a = n/k, k^d p(x + n/k) = P(kx + n) for the integer list
        P_i = prim_i k^(d-i); Horner passes give the Taylor coefficients
        Q_j of P at n, so p(x + a) = content k^(-d) sum Q_j k^j x^j.
        """
        n, k = a.as_integer_ratio()
        d = self.degree
        cs = [v * k ** (d - i) for i, v in enumerate(self.prim)]
        for j in range(d):
            for i in range(d - 1, j - 1, -1):
                cs[i] += n * cs[i + 1]
        return Poly.from_ints([v * k**i for i, v in enumerate(cs)], self.content / k**d)

    def __str__(self) -> str:
        if not self.prim:
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


def _monic(prim: Sequence[int]) -> Poly:
    """prim / lead for a primitive list with a positive leading coefficient."""
    return Poly(Fraction(1, prim[-1]), tuple(prim))


# The integer kernels below take coefficient lists over Z, as a Poly's
# ``prim`` is: products, gcds and exact quotients run over Z, and only the
# content of a result is a Fraction.


def _trim(p: list[int]) -> list[int]:
    """p with its trailing zeros removed, in place."""
    while p and not p[-1]:
        p.pop()
    return p


def _same_ratio(
    a_num: list[int], a_den: list[int], b_num: list[int], b_den: list[int]
) -> bool:
    """Whether a_num/a_den = b_num/b_den, for integer lists with nonzero
    denominators: a/b = c/d exactly when a d = c b (Knuth, TAOCP Vol. 2,
    4.5.1), so neither side is reduced and no gcd runs."""
    return _trim(_int_mul(a_num, b_den)) == _trim(_int_mul(b_num, a_den))


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def _int_div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer lists, b trimmed; DomainError unless the quotient
    is an integer list.  A floored step leaves its remainder in a place
    that later steps do not touch, so one test at the end finds it."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = a[i + db] // lb
        if c:
            quot[i] = c
            for j, v in enumerate(b, i):
                a[j] -= c * v
    if any(a):
        raise DomainError("inexact polynomial division")
    return quot


def _int_eval(c: Sequence[int], n: int, k: int) -> int:
    """k^deg(c) c(n/k) = sum c_i n^i k^(deg-i), over Z by Horner's rule."""
    acc, kpow = 0, 1
    for v in reversed(c):
        acc, kpow = acc * n + v * kpow, kpow * k
    return acc


def _int_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder of integer lists (b trimmed), content-stripped.

    Each step multiplies by the positive |lead(b)| / g, so the result is
    a positive multiple of the remainder over Q, whatever b's sign: the
    signs of a Sturm chain survive (Knuth, TAOCP Vol. 2, 4.6.1).
    """
    a = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a[-1]
        g = math.gcd(la, lb)
        ml, mb = abs(lb) // g, (la if lb > 0 else -la) // g
        shift = len(a) - len(b)
        a = [c * ml for c in a]
        for j, v in enumerate(b, shift):
            a[j] -= mb * v
        _trim(a)
    g = math.gcd(*a[-2:])  # a multiple of the content, cut down by any remainder
    while g > 1:
        quot = []
        for v in a:
            c, r = divmod(v, g)
            if r:
                g = math.gcd(g, r)
                break
            quot.append(c)
        else:
            return quot
    return a


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd of nonzero primitive integer lists.

    Computed by the primitive pseudo-remainder sequence; a constant side
    makes it 1.  Its leading coefficient is made positive.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    while b:
        a, b = b, _int_prem(a, b)
    return a if a[-1] > 0 else [-v for v in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, computed by a primitive remainder sequence over Z."""
    if a.is_zero():
        g = b.prim
    elif b.is_zero():
        g = a.prim
    else:
        g = _int_gcd(a.prim, b.prim)
    return _monic(g) if g else Poly.zero()


# ---------------------------------------------------------------------------
# Roots on a circle
# ---------------------------------------------------------------------------


def roots_on_circle(p: Poly, r2: Rat) -> bool:
    """Whether every complex root z of p has |z|^2 = r2, decided exactly.

    If every root lies on the circle, r2/z is the conjugate root of z, so
    z^d p(r2/z) = (p_0/p_d) p(z): the symmetry p_i r2^i p_d = p_0 p_{d-i},
    which a root at 0 breaks, is necessary and is checked first.  When it
    holds with d = 2m even and p_0/p_d > 0, p(z)/z^m = h(z + r2/z), and
    the roots lie on the circle iff every root y of h is real with
    y^2 <= 4 r2 (otherwise p^2, with the same roots, takes its place):
    iff every root w = y^2 of H(w) = h(y) h(-y) lies in [0, 4 r2].  With
    any roots at the ends divided out, one Sturm chain of H decides,
    square-free or not: it ends in gcd(H, H'), and its sign changes
    between two non-roots count the distinct roots between them (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).  It
    all runs over Z, with r2 = n/k.
    """
    n, k = r2.as_integer_ratio()
    if n <= 0:
        raise DomainError("the squared radius must be positive")
    if p.is_zero():
        raise DomainError("the zero polynomial vanishes everywhere")
    d, ints = p.degree, p.prim  # the content cancels; ints[d] > 0 signs p_0/p_d
    if any(v * n**i * k ** (d - i) * ints[d] != ints[0] * ints[-1 - i] * k**d
           for i, v in enumerate(ints)):
        return False
    if d % 2 or ints[0] < 0:
        ints, d = _int_mul(ints, ints), 2 * d
    m = d // 2
    # k^m h = k^m p_m + sum_j k^(m-j) p_{m+j} U_j over U_j = k^j T_j, where
    # T_j(z + r2/z) = z^j + (r2/z)^j: U_{j+1} = k y U_j - n k U_{j-1}
    h, u_prev, u = [ints[m] * k**m] + [0] * m, [2], [0, k]
    for j in range(1, m + 1):
        c = ints[m + j] * k ** (m - j)
        h = [a + c * b for a, b in zip(h, u + [0] * (m - j))]
        u_prev, u = u, [k * a - n * k * b for a, b in zip([0] + u, u_prev + [0, 0])]
    H = _int_mul(h, [-v if i % 2 else v for i, v in enumerate(h)])[::2]
    ends = ((0, 1), (4 * n // math.gcd(4, k), k // math.gcd(4, k)))
    for a, b in ends:
        while len(H) > 1 and _int_eval(H, a, b) == 0:
            H = _int_div_exact(H, [-a, b])
    if len(H) == 1:
        return True
    # Sturm chain over Z: each entry a positive multiple of the exact one
    chain = [H, [i * v for i, v in enumerate(H)][1:]]
    while rem := _int_prem(chain[-2], chain[-1]):
        chain.append([-v for v in rem])
    # the sign changes at either end differ by the distinct roots between
    signs = [[v > 0 for v in (_int_eval(c, a, b) for c in chain) if v] for a, b in ends]
    low, high = (sum(s != t for s, t in zip(x, x[1:])) for x in signs)
    return low - high == len(H) - len(chain[-1])


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

VARIABLES = ("u", "T", "t", "v")


class RationalFunction(Frozen):
    """Reduced ratio of polynomials in a single tagged variable.

    The denominator has leading coefficient 1 and shares no factor with
    the numerator, so ``==`` decides equality of the underlying
    functions.
    """

    __slots__ = ("num", "den", "var")

    def __init__(self, num: Poly, den: Poly, var: str = "u") -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "var", var)

    @staticmethod
    def make(num: Poly, den: Poly, var: str = "u") -> "RationalFunction":
        """num/den reduced, with a monic denominator."""
        if var not in VARIABLES:
            raise DomainError(f"unknown variable tag {var!r}")
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            return RationalFunction(Poly.zero(), Poly.one(), var)
        # by Gauss's lemma the quotients of the primitive parts by their
        # primitive gcd are primitive and integral, with positive leads
        a, b = num.prim, den.prim
        g = _int_gcd(a, b)
        if len(g) > 1:
            a, b = _int_div_exact(a, g), _int_div_exact(b, g)
        s, t = _ratio(num, den)
        return RationalFunction(Poly(Fraction(s, t * b[-1]), tuple(a)), _monic(b), var)

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
        if c == 0:
            return RationalFunction(Poly.zero(), Poly.one(), self.var)
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
        """Multiply by var^k, any integer k.  num and den are coprime, so the
        new pair shares at most a power of var: no gcd is needed."""
        num, den = list(self.num.prim), list(self.den.prim)
        if k >= 0:
            num = [0] * k + num
        else:
            den = [0] * -k + den
        return _coprime_ratio(_ratio(self.num, self.den), num, den, self.var)

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
        a, b = self.num.prim, self.den.prim
        if b[0] == 0:
            raise DomainError("series expansion at a pole of the function")
        # the series of a/b, scaled by the ratio of the contents at the end
        out: list[Fraction] = []
        for k in range(order + 1):
            acc = Fraction(a[k] if k < len(a) else 0)
            for j in range(1, min(k, len(b) - 1) + 1):
                acc -= b[j] * out[k - j]
            out.append(acc / b[0])
        s = self.num.content / self.den.content
        return [s * x for x in out]

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# Monomial substitution
# ---------------------------------------------------------------------------


def _ratio(a: Poly, b: Poly) -> tuple[int, int]:
    """a.content / b.content as an integer pair, not reduced."""
    (n, d), (m, k) = a.content.as_integer_ratio(), b.content.as_integer_ratio()
    return n * k, d * m


def _coprime_ratio(
    scale: tuple[int, int], num: list[int], den: list[int], var: str
) -> RationalFunction:
    """s/t * num/den, (s, t) = scale, for integer lists sharing only a power of
    the variable: it is stripped and den made monic, with no gcd (0/1 for 0)."""
    if var not in VARIABLES:
        raise DomainError(f"unknown variable tag {var!r}")
    if not any(num):
        return RationalFunction(Poly.zero(), Poly.one(), var)
    low = min(next(i for i, x in enumerate(p) if x) for p in (num, den))
    den = _trim(den[low:])
    g = math.gcd(*den) if den[-1] > 0 else -math.gcd(*den)
    top = Poly.from_ints(num[low:], Fraction(scale[0], scale[1] * den[-1]))
    return RationalFunction(top, _monic([v // g for v in den]), var)


def substitute(f: RationalFunction, c: Rat, d: int, var: str) -> RationalFunction:
    """Return f(c * v^d) as a reduced function of ``var``, for any d != 0.

    Coefficient a_i of either part goes to v^(d*i); for d < 0 both parts
    are multiplied by v^(|d|*m), m the larger of their degrees, so it goes
    to v^(|d|*(m-i)).  Composing two substitutions agrees with
    substituting their composition.  No gcd is needed: u -> c v^d is
    a ring homomorphism into the Laurent polynomials in v, so a Bezout
    identity of the reduced f survives it, and the placed parts share at
    most a power of v, which is stripped.
    """
    n, k = c.as_integer_ratio()
    if n == 0:
        raise DomainError("substitution constant must be nonzero")
    if d == 0:
        raise DomainError("substitution exponent must be nonzero")
    m = max(f.num.degree, f.den.degree, 0)
    if abs(d) * m > _DEGREE_BOUND:
        raise BoundError("substitution exponent bound exceeded")
    # for c = n/k both parts are multiplied by k^m: a_i c^i -> a_i n^i k^(m-i)

    def place(p: Poly) -> list[int]:
        out = [0] * (abs(d) * m + 1)
        for i, a in enumerate(p.prim):
            out[d * i if d > 0 else -d * (m - i)] = a * n**i * k ** (m - i)
        return out

    return _coprime_ratio(_ratio(f.num, f.den), place(f.num), place(f.den), var)


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


def power_sums(p: Poly, upto: int) -> list[Fraction]:
    """s_m = sum omega_i^m for m = 1..upto, p = prod (1 - omega_i T) with
    p(0) = 1, by Newton's identities s_m = -m p_m - sum_{j<m} p_j s_{m-j}, run
    over Z on k^m s_m: p_j = n a_j / k for the content n/k and a = prim."""
    n, k = p.content.as_integer_ratio()
    a, kp = [n * v for v in p.prim] + [0] * (upto + 1), [k**i for i in range(upto + 1)]
    sums: list[int] = []
    for m in range(1, upto + 1):
        rest = sum(a[j] * kp[j - 1] * sums[m - j - 1] for j in range(1, m))
        sums.append(-m * a[m] * kp[m - 1] - rest)
    return [Fraction(s, kp[m]) for m, s in enumerate(sums, 1)]


# ---------------------------------------------------------------------------
# Complex roots
# ---------------------------------------------------------------------------


# Sweep limit of the Aberth iteration on p(rho y); a run that has not
# settled by then is judged by the residual bound and may hand over to the
# companion matrix.
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


# Residual bound of every root: |f(z)| <= ROOT_TOL * sum_i |f_i| |z|^i for
# the square-free factor f that z is a root of.
ROOT_TOL = 1e-10


def _derivative(p: Poly) -> Poly:
    return Poly.from_ints([i * v for i, v in enumerate(p.prim)][1:], p.content)


def _squarefree_split(p: Poly) -> list[tuple[Poly, int]]:
    """The pairs (f_k, k) with p = lead * prod f_k^k, by Yun's algorithm.

    The f_k are nonconstant, square-free and pairwise coprime, so the
    multiplicity of every root is exact.  A square-free p is returned
    as [(p, 1)] itself, after one integer gcd of p and p'.
    """
    dp = _derivative(p)
    g = _int_gcd(p.prim, dp.prim)
    if len(g) == 1:
        return [(p, 1)]
    c = _monic(g)
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
    and floats only refine the simple roots of each factor, by one
    Aberth run on the factor rescaled so that the product of its roots'
    moduli is 1, with a fallback to the companion-matrix eigenvalues
    when that run misses the residual bound.  Each root meets the
    ``ROOT_TOL`` residual bound against its factor; repeated roots are
    equal floats, the list is conjugate-symmetric and sorted by (real,
    imag).  Roots are judged on the scaled coefficients, so a factor
    whose coefficients exceed double range is solved when its roots do
    not.  Raises NumericError if neither method meets the residual
    bound, or if a factor or its roots leave double range.
    """
    if p.is_zero() or p.degree < 1:
        raise DomainError("root finding needs a nonzero, nonconstant polynomial")
    # split off exact roots at the origin
    low = next(i for i, v in enumerate(p.prim) if v)
    roots: list[complex] = [0j] * low
    reduced = Poly(p.content, p.prim[low:])
    if reduced.degree >= 1:
        try:
            for f, mult in _squarefree_split(reduced):
                roots.extend(_simple_roots(f) * mult)
        except OverflowError as exc:
            raise NumericError(f"root refinement left double range: {exc}") from None
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _simple_roots(p: Poly) -> list[complex]:
    scaled, rho = _scaled_coefficients(p)
    ys = _aberth(scaled)
    if not _residuals_ok(scaled, ys):
        ys = [z / rho for z in _companion_roots(p)]
        if not _residuals_ok(scaled, ys):
            raise NumericError("root refinement did not reach the residual bound")
    zs = [rho * y for y in ys]
    # y in double range does not keep rho y there: it may under- or overflow
    if not all(sys.float_info.min <= abs(z) <= sys.float_info.max for z in zs):
        raise NumericError("root refinement left double range")
    # coefficients are rational, hence real: enforce conjugate symmetry
    return _symmetrize_conjugates(zs)


def _scaled_coefficients(p: Poly) -> tuple[list[complex], float]:
    """The coefficients of p(rho y), divided by the largest modulus among
    them and by the sign of p's content, and rho.

    rho = |p_0/p_d|^(1/d) gives p(rho y) equal end coefficients in
    modulus, so the product of its roots' moduli is 1 and the one Aberth
    run of every square-free factor starts on a circle of the right
    size, even where the roots of p are far from 1 (coefficients up to
    1e108 for q near 10^6).  The coefficients are formed in logarithms,
    so none overflows a float even where those of p do; a leading one
    that underflows leaves the polynomial out of double range.  Each
    logarithm is of a reduced ratio, c_i/p_0 or p_0/p_d: the difference
    of two logarithms near 737 (coefficients near 1e320) would carry a
    relative error near 1e-13 into rho and every root.  p_0 is
    nonzero: roots at the origin are split off first.
    """

    def log_abs(x: Fraction) -> float:
        return math.log(abs(x.numerator)) - math.log(x.denominator)

    ints, d = p.prim, p.degree  # the content cancels from every ratio
    p0 = ints[0]
    log_rho = log_abs(Fraction(p0, ints[-1])) / d
    logs = [
        log_abs(Fraction(v, p0)) + i * log_rho if v else -math.inf
        for i, v in enumerate(ints)
    ]
    top = max(logs)
    scaled = [
        complex(math.exp(x - top) * (1 if v > 0 else -1))
        for x, v in zip(logs, ints)
    ]
    if scaled[-1] == 0:
        raise NumericError("root refinement left double range: p(rho y) underflows")
    return scaled, math.exp(log_rho)


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


def _residuals_ok(coeffs: Sequence[complex], zs: Iterable[complex]) -> bool:
    """Every z meets |f(z)| <= ROOT_TOL * sum_i |f_i| |z|^i.

    The bound is the same for p and for p(rho y) divided by a constant,
    so the roots of p are judged on the scaled coefficients, which fit
    in doubles even where those of p do not.
    """
    for z in zs:
        value, scale = 0j, 0.0
        for c in reversed(coeffs):
            value = value * z + c
            scale = scale * abs(z) + abs(c)
        if not abs(value) <= ROOT_TOL * max(scale, 1e-300):  # NaN fails too
            return False
    return True


def _symmetrize_conjugates(roots: list[complex]) -> list[complex]:
    out: list[complex] = []
    pool = list(roots)
    while pool:
        z = pool.pop()
        if abs(z.imag) <= ROOT_TOL * abs(z):
            out.append(complex(z.real, 0.0))
            continue
        best, dist = None, math.inf
        for i, w in enumerate(pool):
            d = abs(w - z.conjugate())
            if d < dist:
                best, dist = i, d
        if best is not None and dist <= 1e-6 * abs(z):
            w = pool.pop(best)
            mean = (z + w.conjugate()) / 2
            out.extend([mean, mean.conjugate()])
        else:
            out.append(z)
    return out
