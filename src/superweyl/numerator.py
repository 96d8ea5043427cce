"""Normalized numerators of typical highest-weight characters.

For a typical dominant weight lambda with shifted weight eta = lambda + rho,
the normalized numerator is

    U(lambda) = sum over the even Weyl group of sign(w) X^(eta+ - w eta+),

where eta+ is the dominant representative of the orbit of eta and X records
exponents in the simple-root coordinates.  U has constant term 1 and, when
the diagram splits into components, factors as the product of the analogous
sums over the component subgroups.  The exponents of the lowest-degree
monomial of each factor recover the pairings of eta against that component's
simple roots, which is what makes the factors a complete isomorphism
invariant for typical modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (NonIntegralExponent, NotDominant, NotTypical, TruncationTooSmall,
                     UnsupportedCase, invariant)
from .rootdata import Dominance, RootDatum, Weight, as_weight, vadd
from .series import Mono, Poly, mono_degree, mono_from_pairs, mono_pow, weight_monomial
from .weyl import WeylGroup, component_group, full_group, orbit_drops


def dominant_labels(datum: RootDatum, lam: Weight) -> tuple:
    """Labels <eta+, g^vee>, in gid order, of eta = lam + rho's dominant representative.

    These are the labels every orbit sum of the numerator reads: the full
    sum all of them, a component or block factor those at its generators.
    Walks toward the dominant chamber on the labels alone, reflecting at
    the first negative label until none is left; the walk is finite because
    the group is.  Such an element exists exactly when eta is regular for
    the even root system, so a zero label (a chamber wall) is rejected.
    """
    labels = datum.labels(vadd(as_weight(lam), datum.rho))
    while True:
        if any(a == 0 for a in labels):
            raise NotDominant(
                "shifted weight lies on a wall of the even Weyl chambers"
            )
        k = next((k for k, a in enumerate(labels) if a < 0), None)
        if k is None:
            return labels
        c = labels[k]
        labels = tuple(a - c * r for a, r in zip(labels, datum.generator_cartan[k]))


def _check_weight(datum: RootDatum, lam: Weight) -> Weight:
    lam = as_weight(lam)
    if not datum.is_typical(lam):
        raise NotTypical(
            "weight pairs to zero with an isotropic odd root"
        )
    if datum.is_dominant_integral(lam) is Dominance.NO:
        raise NotDominant("weight fails the even dominance test")
    return lam


def _orbit_sum(group: WeylGroup, labels: tuple, coeffs: Sequence | None = None,
               ztrunc: int | None = None) -> Poly:
    """sum of c(w) X^(eta - w eta) over ``group``, for eta with these labels.

    c(w) is sign(w), or the entry of ``coeffs`` at w's place in the group's
    element order; ``ztrunc`` is the truncation of series coefficients.
    This is the one orbit-sum loop, of the typical and atypical numerators.
    """
    if coeffs is None:
        coeffs = [w.sign for w in group.elements]
    terms: dict[Mono, object] = {}
    for drop, c in zip(orbit_drops(group, labels), coeffs):
        mono = weight_monomial(drop)
        terms[mono] = terms[mono] + c if mono in terms else c
    return Poly(terms, ztrunc)


def numerator(datum: RootDatum, lam: Weight) -> Poly:
    """Normalized numerator of the typical dominant weight ``lam``."""
    lam = _check_weight(datum, lam)
    group = full_group(datum)  # finite (or GroupTooLarge) before the walk
    poly = _orbit_sum(group, dominant_labels(datum, lam))
    invariant(poly.constant_term() == 1, "numerator does not start at 1")
    return poly


def factor_numerator(datum: RootDatum, lam: Weight) -> list[Poly]:
    """Component factors of the numerator, in diagram-component order.

    Requires every generator to be an even simple root when the diagram
    has two components; extra generators would break the product law.
    """
    total = numerator(datum, lam)
    comps = datum.components
    if len(comps) == 1:
        return [total]
    if any(g.pi_index is None for g in datum.generators):
        raise UnsupportedCase(
            "component factors need every generator to be a simple root"
        )
    labels = dominant_labels(datum, lam)
    factors = [
        _orbit_sum(component_group(datum, k), labels)
        for k in range(1, len(comps) + 1)
    ]
    product = math.prod(factors[1:], start=factors[0])
    invariant(product == total, "component factors do not multiply to the numerator")
    return factors


def x_signature(datum: RootDatum, lam: Weight) -> tuple[tuple[int, ...], ...]:
    """Pairings of lambda + rho against the even simple roots, by component."""
    labels = datum.labels(vadd(as_weight(lam), datum.rho))
    out: list[tuple[int, ...]] = []
    for comp in datum.components:
        sig: list[int] = []
        for pos in comp:
            val = labels[datum.even_positions.index(pos)]
            if val.denominator != 1:
                raise NonIntegralExponent(
                    f"pairing {val} at position {pos} is not an integer"
                )
            sig.append(int(val))
        out.append(tuple(sig))
    return tuple(out)


def x_lambda(datum: RootDatum, lam: Weight) -> Mono:
    """Monomial with exponent ``<lambda+rho, alpha>`` at each even position."""
    pairs: list[tuple[int, int]] = []
    for comp, sig in zip(datum.components, x_signature(datum, lam)):
        pairs.extend(zip(comp, sig))
    return mono_from_pairs(pairs)


def normalized_character(
    datum: RootDatum, lam: Weight, bound: int
) -> Poly:
    """Character of the typical module times X^(-lambda), up to degree ``bound``.

    Multiplies the numerator by the expanded Weyl denominator: a factor
    (1 + X^gamma) for each positive odd root and a geometric series
    1/(1 - X^alpha) for each positive even root.  All coefficients of the
    result are nonnegative integers (they count weight multiplicities).
    A negative bound raises :class:`TruncationTooSmall`.
    """
    if bound < 0:
        raise TruncationTooSmall(f"character bound must be >= 0, got {bound}")
    result = numerator(datum, lam).truncate_x(bound)
    for root in datum.positive_odd:
        mono = weight_monomial(root.coords)
        factor = Poly.one() + Poly.x_monomial(mono)
        result = result.mul_trunc(factor, bound)
    for root in datum.positive_even:
        mono = weight_monomial(root.coords)
        step = max(1, mono_degree(mono))
        terms = {
            mono_pow(mono, j): Fraction(1)
            for j in range(0, bound // step + 1)
        }
        result = result.mul_trunc(Poly(terms), bound)
    return result
