"""Sparse multivariate Laurent polynomials, products of atoms, and the
residue operator -Res_{u_j=1}[f/u_j].

Monomials are integer exponent tuples (negative exponents allowed), one
slot per variable, at most five variables.  An AtomProduct is a rational
content times a sparse integer numerator times atoms p(q^j u^k), k an
exponent vector, keyed ("L", j, k) for p = 1 - x and ("P", j, k) for the
curve's Weil numerator P, and never expanded; q and P are read from the
curve passed in.  The residue operator maps such products to such
products with integer series kernels (one rational content per series),
so iterated residues are expanded once, to a pair of integer lists in
one variable; a table local to one run holds the atoms' integer data.

The whole-fraction path (LaurentPoly, MultiRationalFunction,
residue_at_one by trial division of x_j - 1) has no production caller:
it is the oracle the factored operator is tested against.  Without a
multivariate gcd, its ``equal`` decides equality by cross-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .algebra import (
    Poly,
    RationalFunction,
    Rat,
    _frac,
    _int_mul,
)
from .curve import CurveData
from .errors import CapabilityError, DomainError
from .record import Frozen

MAX_VARS = 5

Monomial = tuple[int, ...]


class LaurentPoly(Frozen):
    """Sparse Laurent polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: tuple[tuple[Monomial, Fraction], ...]) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def make(nvars: int, terms: Mapping[Monomial, Rat]) -> "LaurentPoly":
        if not 1 <= nvars <= MAX_VARS:
            raise CapabilityError(f"supported variable counts are 1..{MAX_VARS}")
        clean: dict[Monomial, Fraction] = {}
        for mono, c in terms.items():
            if len(mono) != nvars:
                raise DomainError("monomial arity mismatch")
            clean[tuple(mono)] = clean.get(tuple(mono), 0) + _frac(c)
        return LaurentPoly(nvars, tuple(sorted((m, c) for m, c in clean.items() if c)))

    @staticmethod
    def const(nvars: int, c: Rat) -> "LaurentPoly":
        return LaurentPoly.make(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, j: int, power: int = 1) -> "LaurentPoly":
        return LaurentPoly.make(nvars, {tuple(power * (k == j) for k in range(nvars)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms:
            out[m] = out.get(m, Fraction(0)) + c
        return LaurentPoly.make(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return LaurentPoly.make(self.nvars, out)

    def scale(self, c: Rat) -> "LaurentPoly":
        return LaurentPoly.make(self.nvars, {m: k * c for m, k in self.terms})

    def mul_monomial(self, mono: Monomial, c: Rat = 1) -> "LaurentPoly":
        shifted = {tuple(a + b for a, b in zip(m, mono)): k * c for m, k in self.terms}
        return LaurentPoly.make(self.nvars, shifted)

    def degree_in(self, j: int) -> tuple[int, int]:
        """(min, max) exponent of variable j; (0, 0) for the zero poly."""
        es = [m[j] for m, _ in self.terms] or [0]
        return min(es), max(es)

    def uses_var(self, j: int) -> bool:
        return any(m[j] != 0 for m, _ in self.terms)

    def eval_var(self, j: int, value: Rat) -> "LaurentPoly":
        """Substitute a nonzero rational for variable j."""
        value = _frac(value)
        if value == 0:
            raise DomainError("Laurent substitution needs a nonzero value")
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            rest = m[:j] + (0,) + m[j + 1 :]
            out[rest] = out.get(rest, 0) + c * value ** m[j]
        return LaurentPoly.make(self.nvars, out)

    def divide_linear_at_one(self, j: int) -> "LaurentPoly | None":
        """Exact quotient by (x_j - 1), or None when not divisible.

        p = sum_e p_e x_j^e is divisible iff sum_e p_e = 0, and then the
        quotient is sum_e p_e (x_j^e - 1)/(x_j - 1), each a geometric sum.
        """
        if not self.eval_var(j, 1).is_zero():
            return None
        quot: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            e = m[j]
            for i in range(e) if e > 0 else range(e, 0):
                mono = m[:j] + (i,) + m[j + 1 :]
                quot[mono] = quot.get(mono, 0) + (c if e > 0 else -c)
        return LaurentPoly.make(self.nvars, quot)

    def to_univariate(self, j: int) -> tuple[Poly, int]:
        """Express as x_j^shift * poly(x_j); requires support only on x_j."""
        if any(self.uses_var(k) for k in range(self.nvars) if k != j):
            raise DomainError("Laurent polynomial is not univariate")
        if not self.terms:
            return Poly.zero(), 0
        lo, hi = self.degree_in(j)
        coeffs = [Fraction(0)] * (hi - lo + 1)
        for m, c in self.terms:
            coeffs[m[j] - lo] = c
        return Poly.from_list(coeffs), lo


class MultiRationalFunction(Frozen):
    """Fraction of sparse Laurent polynomials in up to five variables."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "MultiRationalFunction":
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            return MultiRationalFunction(num, LaurentPoly.const(num.nvars, 1))
        # strip shared monomial content: align minimal exponents to zero
        shift = tuple(
            -min(num.degree_in(j)[0], den.degree_in(j)[0]) for j in range(num.nvars)
        )
        num = num.mul_monomial(shift)
        den = den.mul_monomial(shift)
        lc = den.terms[-1][1]  # the lexicographically leading coefficient
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return MultiRationalFunction(num, den)

    @staticmethod
    def const(nvars: int, c: Rat) -> "MultiRationalFunction":
        return MultiRationalFunction.from_poly(LaurentPoly.const(nvars, c))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "MultiRationalFunction":
        return MultiRationalFunction.make(p, LaurentPoly.const(p.nvars, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "MultiRationalFunction") -> "MultiRationalFunction":
        num = self.num * other.den + other.num * self.den
        return MultiRationalFunction.make(num, self.den * other.den)

    def __mul__(self, other: "MultiRationalFunction") -> "MultiRationalFunction":
        return MultiRationalFunction.make(self.num * other.num, self.den * other.den)

    def equal(self, other: "MultiRationalFunction") -> bool:
        return (self.num * other.den - other.num * self.den).is_zero()

    def eval_var(self, j: int, value: Rat) -> "MultiRationalFunction":
        den = self.den.eval_var(j, value)
        if den.is_zero():
            raise DomainError(f"substitution at a pole of variable {j}")
        return MultiRationalFunction.make(self.num.eval_var(j, value), den)

    def evaluate(self, values: Iterable[Rat]) -> Fraction:
        f = self
        for j, v in enumerate(values):
            f = f.eval_var(j, v)
        num, _ = f.num.to_univariate(0)
        den, _ = f.den.to_univariate(0)
        return num[0] / den[0]

    def to_univariate(self, j: int, var: str = "u") -> RationalFunction:
        """Collapse to a univariate rational function in variable j, reduced once."""
        num, sn = self.num.to_univariate(j)
        den, sd = self.den.to_univariate(j)
        up, down = Poly.monomial(max(sn - sd, 0)), Poly.monomial(max(sd - sn, 0))
        return RationalFunction.make(num * up, den * down, var)


def _binom(x: int, i: int) -> int:
    """The t^i coefficient of (1 + t)^x, for any integer x."""
    out = 1
    for r in range(i):
        out = out * (x - r) // (r + 1)
    return out


def residue_at_one(f: MultiRationalFunction, j: int) -> MultiRationalFunction:
    """The operator -Res_{x_j=1}[f / x_j].

    The pole order m at x_j = 1 is found by exact division of (x_j - 1)
    powers out of the denominator; the (m-1)-st Laurent coefficient is
    then extracted by a Taylor shift and an exact series quotient.
    Returns the zero function when f is regular there.
    """
    n = f.num.nvars
    den, order = f.den, 0
    while (quot := den.divide_linear_at_one(j)) is not None:
        den, order = quot, order + 1
    if order == 0:
        return MultiRationalFunction.const(n, 0)
    a = _laurent_taylor(f.num, j, order - 1, shift=-1)
    e = _laurent_taylor(den, j, order - 1)
    # t^k coefficient of a/e is C_k / e_0^(k+1), with
    # C_k = e_0^k a_k - sum_{i=1}^k e_i e_0^(i-1) C_(k-i)
    e0_pows = [LaurentPoly.const(n, 1)]
    for _ in range(order):
        e0_pows.append(e0_pows[-1] * e[0])
    C: list[LaurentPoly] = []
    for k in range(order):
        acc = e0_pows[k] * a[k]
        for i in range(1, k + 1):
            acc = acc - e[i] * e0_pows[i - 1] * C[k - i]
        C.append(acc)
    return MultiRationalFunction.make(-C[-1], e0_pows[order])


def _laurent_taylor(
    p: LaurentPoly, j: int, upto: int, shift: int = 0
) -> list[LaurentPoly]:
    """Coefficients of t^0..t^upto of x_j^shift * p at x_j = 1 + t."""
    out: list[dict] = [{} for _ in range(upto + 1)]
    for mono, c in p.terms:
        rest = mono[:j] + (0,) + mono[j + 1 :]
        for i, coeffs in enumerate(out):
            coeffs[rest] = coeffs.get(rest, 0) + c * _binom(mono[j] + shift, i)
    return [LaurentPoly.make(p.nvars, d) for d in out]


# ---------------------------------------------------------------------------
# Factored products and their residues, over Z
# ---------------------------------------------------------------------------

# ("L", j, k) stands for 1 - q^j u^k and ("P", j, k) for P(q^j u^k), k != 0,
# where q and P are those of the curve passed to the functions below
Atom = tuple[str, int, Monomial]
# a sparse integer Laurent polynomial: monomial -> nonzero coefficient
Terms = dict[Monomial, int]


class AtomProduct(Frozen):
    """content * num * prod atom^e over a multiset of atoms, never expanded.

    num is a primitive integer Laurent polynomial as (monomial,
    coefficient) pairs, with no pairs for the zero product.
    """

    __slots__ = ("nvars", "content", "num", "atoms")

    def __init__(
        self,
        nvars: int,
        content: Fraction,
        num: tuple[tuple[Monomial, int], ...],
        atoms: tuple[tuple[Atom, int], ...] = (),
    ) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "atoms", atoms)

    def is_zero(self) -> bool:
        return not self.num


def _product(nvars: int, content: Fraction, num: Terms, exps: dict) -> AtomProduct:
    """content * num * atoms, with the integer content of num moved out."""
    num = {m: v for m, v in num.items() if v}
    if not num or not content:
        return AtomProduct(nvars, Fraction(0), ())
    g = math.gcd(*num.values())
    if g > 1:
        num = {m: v // g for m, v in num.items()}
    atoms = tuple((a, e) for a, e in exps.items() if e)
    return AtomProduct(nvars, content * g, tuple(num.items()), atoms)


def _atom_ints(q: int, P: Poly, kind: str, j: int) -> tuple[Fraction, list[int]]:
    """p(q^j y) as a rational content times an integer list in y.

    P is the curve's numerator.  Kept apart from curve._atom_ints, so that
    the residue route shares no expansion code with the closed formula it
    checks.
    """
    if kind == "L":
        if j >= 0:
            return Fraction(1), [1, -(q**j)]
        return Fraction(1, q**-j), [q**-j, -1]
    content, ints = P.content, P.prim
    if j >= 0:
        return content, [v * q ** (d * j) for d, v in enumerate(ints)]
    n = len(ints) - 1  # P(q^j y) = q^(jn) sum_d a_d q^(-j(n-d)) y^d
    ints = [v * q ** (-j * (n - d)) for d, v in enumerate(ints)]
    return content / q ** (-j * n), ints


def _atom_terms(c: CurveData, atom: Atom) -> tuple[Fraction, Terms]:
    """The atom as a rational content times sparse integer terms."""
    kind, i, k = atom
    content, ints = _atom_ints(c.q, c.P, kind, i)
    return content, {tuple(d * x for x in k): v for d, v in enumerate(ints) if v}


def _atom_at_one(
    c: CurveData, table: dict, atom: Atom, j: int
) -> tuple[int, Fraction] | None:
    """For an atom in u_j alone, (v, unit): it is t^v times a unit in
    t = u_j - 1, whose value at t = 0 is unit.  None for other atoms."""
    if ("at one", atom, j) not in table:
        entry = None
        if not any(x for i, x in enumerate(atom[2]) if i != j):
            content, terms = _atom_terms(c, atom)
            # a polynomial with s terms vanishes to order < s at 1
            a = _taylor(terms, j, len(terms))
            v = next(i for i, x in enumerate(a) if x)
            entry = v, content * a[v][(0,) * len(atom[2])]
        table["at one", atom, j] = entry
    return table["at one", atom, j]


def _mul_into(acc: Terms, a: Terms, b: Terms, w: int = 1) -> None:
    """acc += w * a * b, zero coefficients left in place."""
    for m1, c1 in a.items():
        c1 *= w
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2


def _nonzero(p: Terms) -> Terms:
    return {m: v for m, v in p.items() if v}


def _taylor(p: Terms, j: int, upto: int, shift: int = 0) -> list[Terms]:
    """Coefficients of t^0..t^upto of u_j^shift * p at u_j = 1 + t."""
    out: list[Terms] = [{} for _ in range(upto + 1)]
    for mono, c in p.items():
        rest, x = mono[:j] + (0,) + mono[j + 1 :], mono[j] + shift
        for i, coeffs in enumerate(out):  # c = the coefficient times C(x, i)
            coeffs[rest] = coeffs.get(rest, 0) + c
            c = c * (x - i) // (i + 1)
            if not c:
                break
    return [_nonzero(d) for d in out]


def _mul_series(a: list[Terms], b: list[Terms]) -> list[Terms]:
    out = []
    for k in range(len(a)):
        acc: Terms = {}
        for i in range(k + 1):
            _mul_into(acc, a[i], b[k - i])
        out.append(_nonzero(acc))
    return out


def _power_series(a: list[Terms], e: int, r: int) -> list[Terms]:
    """(a_0 + S)^e / a_0^(e-r) = sum_{k<=r} C(e,k) a_0^(r-k) S^k, truncated."""
    one = {(0,) * len(next(iter(a[0]))): 1}
    s = [{}] + a[1:]
    a0_pows = [one]
    for _ in range(r):
        acc: Terms = {}
        _mul_into(acc, a0_pows[-1], a[0])
        a0_pows.append(acc)
    s_k, out = [one] + [{}] * (len(a) - 1), [{} for _ in a]
    for k in range(r + 1):
        w = _binom(e, k)
        for o, x in zip(out, s_k):
            _mul_into(o, x, a0_pows[r - k], w)
        if k < r:
            s_k = _mul_series(s_k, s)
    return [_nonzero(o) for o in out]


def residue_at_one_factored(
    c: CurveData, f: AtomProduct, j: int, table: dict
) -> AtomProduct:
    """R_j[f] = -Res_{u_j=1}[f/u_j] on a factored product, kept factored.

    In t = u_j - 1 an atom in u_j alone is t^v times a unit, and these
    atoms bound the pole order m (an overcount is harmless: the t^(m-1)
    coefficient of the regular rest is read off; m <= 0 gives zero).
    Any other atom a = a_0 + S(t) enters as a_0^(e-r) times a truncated
    binomial series, so the result is a numerator times the atoms a_0,
    which are the atoms with u_j set to 1.  Every series is a rational
    content times integer coefficients.  ``table`` is the atom table of
    one run (a certificate or a period), a dict filled on first use from
    the atoms, q and P alone: ("at one", atom, j) here, ("power", atom, n)
    in _collapse_parts.
    """
    n = f.nvars
    alone = {}  # atom in u_j alone -> (order at u_j = 1, unit there)
    for atom, _ in f.atoms:
        at_one = _atom_at_one(c, table, atom, j)
        if at_one:
            alone[atom] = at_one
    top = -1 - sum(alone[atom][0] * e for atom, e in f.atoms if atom in alone)
    if top < 0 or f.is_zero():
        return _product(n, Fraction(0), {}, {})
    content, exps = -f.content, {}
    series = _taylor(dict(f.num), j, top, shift=-1)
    for atom, e in f.atoms:
        kind, i, k = atom
        if not k[j]:
            exps[atom] = exps.get(atom, 0) + e
            continue
        r = top if e < 0 else min(top, e)
        if atom in alone:
            v, unit = alone[atom]
            if e != r:
                content *= unit ** (e - r)
        else:
            v, low = 0, (kind, i, k[:j] + (0,) + k[j + 1 :])
            exps[low] = exps.get(low, 0) + e - r
        if r:  # a pole of order > 1, which no supported pair reaches
            ca, terms = _atom_terms(c, atom)
            content *= ca**r
            a = _taylor(terms, j, v + top)[v:]
            series = _mul_series(series, _power_series(a, e, r))
    return _product(n, content, series[top], exps)


def _collapse_parts(
    c: CurveData, terms: Iterable[AtomProduct], j: int, table: dict
) -> tuple[list[int], list[int]]:
    """The sum of products in u_j alone as an unreduced integer pair.

    The common denominator takes each atom to its highest power over the
    terms.  Each term is lifted to it as a rational scalar times a power
    of u_j times an integer list (atom powers come from the atom table);
    the scalars are brought to one denominator and the sum is accumulated
    over Z.  This expansion is kept apart from curve.expand_sum, which
    the residue route is checked against.
    """
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return [], [1]
    others = [i for i in range(terms[0].nvars) if i != j]
    for t in terms:
        vectors = [m for m, _ in t.num] + [k for (_, _, k), _ in t.atoms]
        if any(v[i] for v in vectors for i in others):
            raise DomainError(f"product is not in u_{j} alone")
    den: dict[Atom, int] = {}
    for t in terms:
        for atom, e in t.atoms:
            if e < 0 and -e > den.get(atom, 0):
                den[atom] = -e

    def power(atom: Atom, n: int) -> tuple[Fraction, int, list[int]]:
        """p(q^i u_j^m)^n as content, lowest exponent, integer list."""
        key = ("power", atom, n)
        if key not in table:
            kind, i, k = atom
            content, ints = _atom_ints(c.q, c.P, kind, i)
            p = [1]
            for _ in range(n):
                p = _int_mul(p, ints)
            m = k[j]
            spread = [0] * (abs(m) * (len(p) - 1) + 1)
            spread[:: abs(m)] = p if m > 0 else p[::-1]
            table[key] = (content**n, min(m, 0) * (len(p) - 1), spread)
        return table[key]

    def lift(
        scalar: Fraction, lo: int, ints: list[int], exps: dict[Atom, int]
    ) -> tuple[Fraction, int, list[int]]:
        for atom, n in exps.items():
            if n:
                content, low, p = power(atom, n)
                scalar, lo, ints = scalar * content, lo + low, _int_mul(ints, p)
        return scalar, lo, ints

    lifted = []
    for t in terms:
        exps = dict(den)
        for atom, e in t.atoms:
            exps[atom] = exps.get(atom, 0) + e
        lo = min(m[j] for m, _ in t.num)
        ints = [0] * (max(m[j] for m, _ in t.num) - lo + 1)
        for m, v in t.num:
            ints[m[j] - lo] = v
        lifted.append(lift(t.content, lo, ints, exps))
    common = math.lcm(*(scalar.denominator for scalar, _, _ in lifted))
    low = min(lo for _, lo, _ in lifted)
    total = [0] * max(lo - low + len(p) for _, lo, p in lifted)
    for scalar, lo, p in lifted:
        f = scalar.numerator * (common // scalar.denominator)
        for i, v in enumerate(p, lo - low):
            total[i] += f * v
    # sum = u_j^low total / common over den_scalar u_j^den_lo den
    den_scalar, den_lo, den_ints = lift(Fraction(1), 0, [1], den)
    shift = low - den_lo
    num = [v * den_scalar.denominator for v in total]
    den_ints = [v * common * den_scalar.numerator for v in den_ints]
    return [0] * max(shift, 0) + num, [0] * max(-shift, 0) + den_ints
