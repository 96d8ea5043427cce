"""Normalized numerators of typical highest-weight characters.

For a typical dominant weight lambda with shifted weight eta = lambda + rho,
the normalized numerator is

    U(lambda) = sum over the even Weyl group of sign(w) X^(eta+ - w eta+),

where eta+ is the dominant representative of the orbit of eta and X records
exponents in the simple-root coordinates.  U has constant term 1 and, when
the diagram splits into components, is the product of the analogous sums
over the component subgroups: distinct components are orthogonal, so drops
add and signs multiply.  :func:`factor_numerator` builds those sums alone;
the selftest and the tests compare them with :func:`numerator`.  The
exponents of the lowest-degree monomial of each factor recover the pairings
of eta against that component's simple roots, which is what makes the
factors a complete isomorphism invariant for typical modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (NonIntegralExponent, NotDominant, NotTypical, TruncationTooSmall,
                     UnsupportedCase, invariant)
from .rootdata import RootDatum, Weight, as_weight
from .series import Mono, Poly, mono_degree, mono_from_pairs, mono_pow, weight_monomial
from .weyl import WeylGroup, component_group, full_group, orbit_drops, sign


def _dominant_walk(datum: RootDatum, labels: list[int]) -> list[int]:
    """The dominant representative's label numerators, from eta's over the same denominator.

    These are the labels every orbit sum of the numerator reads: the full
    sum all of them, a component or block factor those at its generators.
    Walks toward the dominant chamber on the labels alone, reflecting at
    the first negative label until none is left; the walk is finite because
    the group is.  A reflection subtracts an integer multiple of a Cartan
    row, so the numerators stay over one denominator.  Such an element
    exists exactly when eta is regular for the even root system, so a zero
    label (a chamber wall) is rejected.
    """
    while True:
        if 0 in labels:
            raise NotDominant(
                "shifted weight lies on a wall of the even Weyl chambers"
            )
        k = next((k for k, a in enumerate(labels) if a < 0), None)
        if k is None:
            return labels
        c = labels[k]
        labels = [a - c * r for a, r in zip(labels, datum.generator_cartan[k])]


def _checked_labels(datum: RootDatum, eta: list[int], d: int) -> tuple[list[int], int]:
    """The typical and dominance checks of lam, with lam + rho = eta / d in integers.

    Returns the labels of lam + rho as (numerators, denominator).  The Weyl
    vector law (checked at construction) gives <rho, alpha^vee> = 1 at
    every even simple root alpha, so lam passes the even dominance test of
    :meth:`~superweyl.rootdata.RootDatum.is_dominant_integral` exactly when
    each shifted label there is an integer of at least 1.
    """
    if not all(datum._isotropic_pairings(eta)):
        raise NotTypical(
            "weight pairs to zero with an isotropic odd root"
        )
    shifted, den = datum._coroot_pairings(eta), d * datum._coroot_den
    if any(a % den or a < den for a in shifted[: datum.even_simple_count]):
        raise NotDominant("weight fails the even dominance test")
    return shifted, den


def _orbit_sum(group: WeylGroup, labels: Sequence[int], den: int,
               coeffs: Sequence | None = None, ztrunc: int | None = None) -> Poly:
    """sum of c(w) X^(eta - w eta) over ``group``, for eta with labels ``labels`` / ``den``.

    c(w) is the sign of w's length, or the entry of ``coeffs`` at w's index
    in the group's arrays; ``ztrunc`` is the truncation of series coefficients.
    The drops stay over ``den``, in lowest terms, until ``weight_monomial``
    checks them.  This is the one orbit-sum loop, of the typical and
    atypical numerators.
    """
    common = math.gcd(den, *labels)
    labels, den = [a // common for a in labels], den // common
    if coeffs is None:
        coeffs = [sign(length) for length in group.lengths]
    terms: dict[Mono, object] = {}
    for drop, c in zip(orbit_drops(group, labels), coeffs):
        mono = weight_monomial(drop, den)
        terms[mono] = terms[mono] + c if mono in terms else c
    return Poly(terms, ztrunc)


def numerator(datum: RootDatum, lam: Weight) -> Poly:
    """Normalized numerator of the typical dominant weight ``lam``."""
    shifted, den = _checked_labels(datum, *datum._shifted(as_weight(lam)))
    group = full_group(datum)  # finite (or GroupTooLarge) before the walk
    poly = _orbit_sum(group, _dominant_walk(datum, shifted), den)
    invariant(poly.constant_term() == 1, "numerator does not start at 1")
    return poly


def factor_numerator(datum: RootDatum, lam: Weight) -> list[Poly]:
    """Component factors of the numerator, in diagram-component order.

    With two components these are the component orbit sums alone, never the
    full group's; that needs every generator to be an even simple root.
    """
    comps = datum.components
    if len(comps) == 1:
        return [numerator(datum, lam)]
    shifted, den = _checked_labels(datum, *datum._shifted(as_weight(lam)))
    labels = _dominant_walk(datum, shifted)
    if datum.generator_blocks != datum.component_gids:
        raise UnsupportedCase(
            "component factors need every generator to be a simple root"
        )
    return [
        _orbit_sum(component_group(datum, k), labels, den)
        for k in range(1, len(comps) + 1)
    ]


def x_signature(datum: RootDatum, lam: Weight) -> tuple[tuple[int, ...], ...]:
    """Pairings of lambda + rho against the even simple roots, by component."""
    return _signature(datum, *datum._shifted_labels(as_weight(lam)))


def _signature(datum: RootDatum, shifted: list[int], den: int) -> tuple[tuple[int, ...], ...]:
    """:func:`x_signature` from the shifted label numerators over ``den``."""
    for g, pos in enumerate(datum.even_positions):  # the even simple roots are gids 0..n-1
        if shifted[g] % den:
            raise NonIntegralExponent(
                f"pairing {Fraction(shifted[g], den)} at position {pos} is not an integer"
            )
    return tuple(tuple(shifted[g] // den for g in gids) for gids in datum.component_gids)


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
