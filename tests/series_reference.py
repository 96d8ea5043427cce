"""The power-loop -log, for differential tests.

The library computes -log by the log-derivative recurrence
(``superweyl.series.neg_log``).  This module expands the defining series
instead: -log(1 - Q) = sum Q^k / k with Q = 1 - f, one truncated product
per power.  It shares only ``Poly`` arithmetic with the library.
"""

from fractions import Fraction

from superweyl.series import Poly


def power_loop_neg_log(poly, bound, cap=None):
    """-log of ``poly`` (constant term one) to X degree ``bound``.

    Q has no constant term, so the sum stops at k = bound.  With ``cap``,
    every power is cut to the divisors of X^cap as soon as it is formed.
    That needs non-negative X exponents: a term of Q^k that does not divide
    X^cap then enters no divisor of Q^(k+1) = Q^k Q.
    """
    q = Poly.one(poly.ztrunc) - poly.truncate_x(bound)
    if cap is not None:
        q = q.dividing(cap)
    acc = Poly.zero(poly.ztrunc)
    power = Poly.one(poly.ztrunc)
    for k in range(1, bound + 1):
        power = power.mul_trunc(q, bound)
        if cap is not None:
            power = power.dividing(cap)
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, k))
    return acc
