"""Sparse multivariate Laurent polynomials, products of atoms, and the
residue operator -Res_{u_j=1}[f/u_j].

Monomials are integer exponent tuples (negative exponents allowed), one
slot per variable, at most four variables.  An AtomProduct is a sparse
numerator times atoms p(c u^k), k an exponent vector, never expanded;
the residue operator maps such products to such products, so iterated
residues are expanded once, when the sum is collapsed to one variable.

The whole-fraction path (MultiRationalFunction, residue_at_one by trial
division of x_j - 1) has no production caller: it is the oracle the
factored operator is tested against.  Without a multivariate gcd, its
``equal`` decides equality by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import Poly, RationalFunction, Rat, _frac
from .errors import CapabilityError, DomainError

MAX_VARS = 4

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial: exponent tuple -> nonzero Fraction."""

    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]

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


@dataclass(frozen=True)
class MultiRationalFunction:
    """Fraction of sparse Laurent polynomials in up to four variables."""

    num: LaurentPoly
    den: LaurentPoly

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
    a = _taylor(f.num, j, order - 1, shift=-1)
    e = _taylor(den, j, order - 1)
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


# ---------------------------------------------------------------------------
# Factored products and their residues
# ---------------------------------------------------------------------------

# (p, c, k) stands for p(c u^k) = sum_d p_d c^d u^{d k}, k != 0
Atom = tuple[Poly, Fraction, Monomial]
LINE = Poly.of(1, -1)  # the atom 1 - c u^k


@dataclass(frozen=True)
class AtomProduct:
    """num * prod atom^e over a multiset of atoms, never expanded."""

    num: LaurentPoly
    atoms: tuple[tuple[Atom, int], ...] = ()

    @staticmethod
    def atom(nvars: int, p: Poly, c: Rat, k: Monomial, e: int = 1) -> "AtomProduct":
        """p(c u^k)^e; a constant when k is zero."""
        if not any(k):
            return AtomProduct(LaurentPoly.const(nvars, p.evaluate(_frac(c)) ** e))
        return AtomProduct(LaurentPoly.const(nvars, 1), (((p, _frac(c), k), e),))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other: "AtomProduct") -> "AtomProduct":
        exps = dict(self.atoms)
        for atom, e in other.atoms:
            exps[atom] = exps.get(atom, 0) + e
        if len(other.num.terms) == 1:  # a monomial factor only shifts
            return _product(self.num.mul_monomial(*other.num.terms[0]), exps)
        return _product(self.num * other.num, exps)


def _product(num: LaurentPoly, exps: dict) -> AtomProduct:
    atoms = () if num.is_zero() else tuple((a, e) for a, e in exps.items() if e)
    return AtomProduct(num, atoms)


def _atom_poly(nvars: int, atom: Atom) -> LaurentPoly:
    p, c, k = atom
    return LaurentPoly.make(
        nvars, {tuple(d * x for x in k): a * c**d for d, a in enumerate(p.coeffs)}
    )


def _times_atoms(num: LaurentPoly, exps: dict) -> LaurentPoly:
    """num * prod atom^e for exponents e >= 0, expanded."""
    for atom, e in exps.items():
        for _ in range(e):
            num = num * _atom_poly(num.nvars, atom)
    return num


def _binom(x: int, i: int) -> int:
    """The t^i coefficient of (1 + t)^x, for any integer x."""
    out = 1
    for r in range(i):
        out = out * (x - r) // (r + 1)
    return out


def _taylor(p: LaurentPoly, j: int, upto: int, shift: int = 0) -> list[LaurentPoly]:
    """Coefficients of t^0..t^upto of u_j^shift * p at u_j = 1 + t."""
    out: list[dict] = [{} for _ in range(upto + 1)]
    for mono, c in p.terms:
        rest = mono[:j] + (0,) + mono[j + 1 :]
        for i, coeffs in enumerate(out):
            coeffs[rest] = coeffs.get(rest, 0) + c * _binom(mono[j] + shift, i)
    return [LaurentPoly.make(p.nvars, d) for d in out]


def _mul_series(a: list[LaurentPoly], b: list[LaurentPoly]) -> list[LaurentPoly]:
    zero = LaurentPoly.make(a[0].nvars, {})
    return [sum((a[i] * b[k - i] for i in range(k + 1)), zero) for k in range(len(a))]


def _power_series(a: list[LaurentPoly], e: int, r: int) -> list[LaurentPoly]:
    """(a_0 + S)^e / a_0^(e-r) = sum_{k<=r} C(e,k) a_0^(r-k) S^k, truncated."""
    one, zero = LaurentPoly.const(a[0].nvars, 1), a[0] - a[0]
    s = [zero] + a[1:]
    a0_pows = [one]
    for _ in range(r):
        a0_pows.append(a0_pows[-1] * a[0])
    s_k, out = [one] + [zero] * (len(a) - 1), [zero] * len(a)
    for k in range(r + 1):
        w = a0_pows[r - k].scale(_binom(e, k))
        out = [o + x * w for o, x in zip(out, s_k)]
        s_k = _mul_series(s_k, s)
    return out


def residue_at_one_factored(f: AtomProduct, j: int) -> AtomProduct:
    """R_j[f] = -Res_{u_j=1}[f/u_j] on a factored product, kept factored.

    In t = u_j - 1 an atom in u_j alone is t^v times a unit, and these
    atoms bound the pole order m (an overcount is harmless: the t^(m-1)
    coefficient of the regular rest is read off; m <= 0 gives zero).
    Any other atom a = a_0 + S(t) enters as a_0^(e-r) times a truncated
    binomial series, so the result is a numerator times the atoms a_0,
    which are the atoms with u_j set to 1.
    """
    n = f.num.nvars
    val = {}  # atom in u_j alone -> its order of vanishing at u_j = 1
    for atom, _ in f.atoms:
        if not any(x for i, x in enumerate(atom[2]) if i != j):
            a = _taylor(_atom_poly(n, atom), j, len(atom[0].coeffs))
            val[atom] = next(i for i, x in enumerate(a) if not x.is_zero())
    top = -1 - sum(val.get(atom, 0) * e for atom, e in f.atoms)
    if top < 0 or f.is_zero():
        return AtomProduct(LaurentPoly.make(n, {}))
    scalar, exps = Fraction(-1), {}
    series = _taylor(f.num, j, top, shift=-1)
    for atom, e in f.atoms:
        p, c, k = atom
        if not k[j]:
            exps[atom] = exps.get(atom, 0) + e
            continue
        v = val.get(atom, 0)
        a = _taylor(_atom_poly(n, atom), j, v + top)[v:]
        r = top if e < 0 else min(top, e)
        if atom in val:
            scalar *= a[0].terms[0][1] ** (e - r)
        else:
            low = (p, c, k[:j] + (0,) + k[j + 1 :])
            exps[low] = exps.get(low, 0) + e - r
        if r:
            series = _mul_series(series, _power_series(a, e, r))
    return _product(series[top].scale(scalar), exps)


def collapse_sum(
    terms: Iterable[AtomProduct], j: int, var: str = "u"
) -> RationalFunction:
    """The sum of products in u_j alone, as one reduced rational function.

    The common denominator takes each atom to its highest power over the
    terms; every numerator is lifted to it and the sum is reduced once.
    """
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RationalFunction.const(0, var)
    den: dict[Atom, int] = {}
    for t in terms:
        for atom, e in t.atoms:
            den[atom] = max(den.get(atom, 0), -e)
    total = LaurentPoly.make(terms[0].num.nvars, {})
    for t in terms:
        exps = dict(den)
        for atom, e in t.atoms:
            exps[atom] += e
        total = total + _times_atoms(t.num, exps)
    one = LaurentPoly.const(total.nvars, 1)
    return MultiRationalFunction.make(total, _times_atoms(one, den)).to_univariate(j, var)
