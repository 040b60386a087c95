"""The genus-two rank-two numerator expanded by hand, the oracle for
``pure_zeta``'s closed form, and its split into two Weil quadratics."""

import cmath
import math
from fractions import Fraction

from nazeta.algebra import Poly, roots_on_circle
from nazeta.errors import DomainError


def genus2_numerator(alpha0, alpha2, beta0, Q) -> Poly:
    """Expanded genus-two rank-two numerator in T."""
    alpha0, alpha2, beta0, Q = map(Fraction, (alpha0, alpha2, beta0, Q))
    return Poly.from_list(
        [
            alpha0,
            alpha2 - alpha0 * (Q + 1),
            2 * Q * alpha0 - (Q + 1) * alpha2 + beta0 * (Q - 1),
            (alpha2 - alpha0 * (Q + 1)) * Q,
            alpha0 * Q * Q,
        ]
    )


def genus2_rh_criterion(alpha0, alpha2, beta0, Q):
    """The split alpha(0)(1 - A T + Q T^2)(1 - B T + Q T^2), with
    A + B = (Q+1) - alpha'(2) and AB = (Q-1) beta'(0) - (Q+1) alpha'(2):
    A and B as numbers (complex when the split is), and the exact verdict
    of roots_on_circle on the quartic at 1/Q."""
    alpha0, alpha2, beta0, Q = map(Fraction, (alpha0, alpha2, beta0, Q))
    if alpha0 == 0:
        raise DomainError("alpha(0) must be nonzero")
    ap = alpha2 / alpha0
    bp = beta0 / alpha0
    s = (Q + 1) - ap
    prod = (Q - 1) * bp - (Q + 1) * ap
    disc = s * s - 4 * prod
    root = math.sqrt(disc) if disc >= 0 else cmath.sqrt(disc)
    verdict = roots_on_circle(genus2_numerator(alpha0, alpha2, beta0, Q), 1 / Q)
    return (s + root) / 2, (s - root) / 2, verdict
