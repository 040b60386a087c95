"""The two-chain circle test, the oracle for ``roots_on_circle``.

The library decides |z|^2 = r2 for every root with one Sturm chain of
H(w) = h(y) h(-y) itself.  This is the same decision taken the long way:
the square-free part of H by an exact gcd with H', then the Sturm chain
of that part, the trace polynomial built in Fraction arithmetic.
"""

from nazeta.algebra import Poly, Rat, _derivative, _frac, _int_prem, poly_gcd
from nazeta.errors import DomainError


def two_chain_roots_on_circle(p: Poly, r2: Rat) -> bool:
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
    ints = p.prim  # the content cancels; ints[d] > 0 gives p_0/p_d its sign
    if ints[0] == 0:
        return False
    if any(ints[i] * r2**i * ints[d] != ints[0] * ints[d - i] for i in range(d + 1)):
        return False
    if d % 2 or ints[0] < 0:
        p, d = p * p, 2 * d
    m = d // 2
    # h = p_m + sum_j p_{m+j} T_j(y), with T_j(z + r2/z) = z^j + (r2/z)^j
    y = Poly.of(0, 1)
    h, t_prev, t = Poly.constant(p[m]), Poly.constant(2), y
    for j in range(1, m + 1):
        h = h + t.scale(p[m + j])
        t_prev, t = t, y * t - t_prev.scale(r2)
    h_neg = Poly.from_ints([-v if i % 2 else v for i, v in enumerate(h.prim)], h.content)
    hh = h * h_neg
    H = Poly.from_ints(hh.prim[::2], hh.content)
    s = H.exact_div(poly_gcd(H, _derivative(H))).prim  # square-free part
    # Sturm chain over Z: each entry a positive multiple of the exact one
    chain = [list(s), [i * v for i, v in enumerate(s)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-v for v in _int_prem(chain[-2], chain[-1])])

    def sign_changes(n: int, k: int) -> int:
        # c(n/k) has the sign of the integer k^deg(c) c(n/k)
        values = (
            sum(v * n**i * k ** (len(c) - 1 - i) for i, v in enumerate(c)) for c in chain
        )
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # distinct roots in (0, 4 r2], plus the root at 0 if there is one
    x = 4 * r2
    inside = sign_changes(0, 1) - sign_changes(x.numerator, x.denominator) + (s[0] == 0)
    return inside == len(s) - 1
