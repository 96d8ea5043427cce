"""Reference series arithmetic, for differential tests.

The library computes -log by the log-derivative recurrence
(``superweyl.series.neg_log``).  ``power_loop_neg_log`` expands the defining
series instead: -log(1 - Q) = sum Q^k / k with Q = 1 - f, one truncated
product per power.  It shares only ``Poly`` arithmetic with the library.

The ``naive_*`` functions redo the ring arithmetic of ``ZSeries`` and
``Poly`` on plain dicts.  An element is flattened to {(X monomial, Z
monomial): Fraction}: a rational coefficient has the empty Z monomial, and a
series is a polynomial with the empty X monomial.  Products are formed in
full and only then cut, at Z degree ``trunc`` and X degree ``bound``.
"""

from fractions import Fraction

from superweyl.series import Poly, ZSeries


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


def flatten(x):
    """{(X monomial, Z monomial): coefficient} of a ``Poly``, ``ZSeries`` or rational."""
    if isinstance(x, ZSeries):
        return {((), zm): c for zm, c in x.terms.items()}
    if not isinstance(x, Poly):
        return {((), ()): Fraction(x)} if x else {}
    out = {}
    for xm, c in x.terms.items():
        for (_, zm), v in flatten(c).items():
            out[(xm, zm)] = v
    return out


def _mono_mul(a, b):
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((var, exp) for var, exp in acc.items() if exp))


def _degree(m):
    return sum(exp for _, exp in m)


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


def naive_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return _clean(out)


def naive_mul(a, b, trunc=None, bound=None):
    """Full product of flattened elements, then cut at Z degree ``trunc`` and X degree ``bound``."""
    out = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            key = (_mono_mul(x1, x2), _mono_mul(z1, z2))
            out[key] = out.get(key, 0) + c1 * c2
    return _clean(
        {
            (xm, zm): c
            for (xm, zm), c in out.items()
            if (trunc is None or _degree(zm) <= trunc)
            and (bound is None or _degree(xm) <= bound)
        }
    )
