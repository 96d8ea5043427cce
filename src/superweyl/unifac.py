"""Factor matching for products of typical numerators.

A product of numerators factors across diagram components, and within one
component the lowest-degree monomial of a factor pins down its signature,
so equal products can be peeled factor by factor.  Matching the factors of
two products answers whether the corresponding tensor products are
isomorphic, and whether the factorization is unique: when the matched
factors cannot be aligned by a single permutation of the original weights
the pair of products is a cross-matched counterexample to unique
factorization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

from .errors import NoSecondComponent, invariant
from .numerator import factor_numerator, x_signature
from .rootdata import RootDatum, Weight, as_weight, vadd, zero_weight
from .series import Poly

# Steps the search raises a quadruple's tau multiplier before skipping it.
MAX_BUMP = 10


class Conclusion(Enum):
    UNIQUE_FACTORIZATION = "UniqueFactorization"
    CROSS_MATCHED = "CrossMatchedCounterexample"
    PRODUCTS_UNEQUAL = "ProductsUnequal"


@dataclass(frozen=True)
class FactorMatch:
    """One matched factor: lhs weight i and rhs weight j agree on a component."""

    component: int
    lhs_index: int
    rhs_index: int
    signature: tuple[int, ...]


@dataclass(frozen=True)
class MatchReport:
    r_equals_s: bool
    pairing: tuple[FactorMatch, ...]
    sigma_hypothesis_holds: bool
    module_level_conclusion: Conclusion


def _cached_analysis(
    datum: RootDatum, lam: Weight
) -> tuple[tuple[Poly, ...], tuple[tuple[int, ...], ...]]:
    """Factors and signature of ``lam``, memoized on the datum."""
    cache = datum._factor_cache
    if lam not in cache:
        cache[lam] = (
            tuple(factor_numerator(datum, lam)),
            x_signature(datum, lam),
        )
    return cache[lam]


def _match_factors(
    datum: RootDatum,
    lhs: Sequence[Weight],
    rhs: Sequence[Weight],
) -> MatchReport:
    """Match component factors of two numerator products by signature.

    Factors inside each component are peeled in order of increasing degree
    (the unique lowest-degree monomial of a factor is minus its signature
    power, so the smallest factor on one side must reappear on the other).
    The sigma hypothesis holds when one permutation aligns the weights
    across all components at once, which happens exactly when the full
    signature tuples agree as multisets.  The weights arrive coerced by
    :func:`verify_tensor_isomorphism`.
    """
    lhs_data = [_cached_analysis(datum, w) for w in lhs]
    rhs_data = [_cached_analysis(datum, w) for w in rhs]
    lhs_factors = [factors for factors, _ in lhs_data]
    rhs_factors = [factors for factors, _ in rhs_data]
    lhs_sigs = [sig for _, sig in lhs_data]
    rhs_sigs = [sig for _, sig in rhs_data]

    pairing: list[FactorMatch] = []
    all_matched = True
    for comp in range(1, len(datum.components) + 1):
        order = sorted(
            range(len(lhs)),
            key=lambda i: (sum(lhs_sigs[i][comp - 1]), lhs_sigs[i][comp - 1], i),
        )
        unmatched = list(range(len(rhs)))
        for i in order:
            sig = lhs_sigs[i][comp - 1]
            hit = next(
                (j for j in unmatched if rhs_sigs[j][comp - 1] == sig), None
            )
            if hit is None:
                all_matched = False
                continue
            unmatched.remove(hit)
            invariant(
                lhs_factors[i][comp - 1] == rhs_factors[hit][comp - 1],
                "same signature, other factor",
            )
            pairing.append(FactorMatch(comp, i, hit, sig))
        if unmatched:
            all_matched = False

    products_equal = all_matched and len(lhs) == len(rhs)
    sigma = sorted(lhs_sigs) == sorted(rhs_sigs)
    if not products_equal:
        conclusion = Conclusion.PRODUCTS_UNEQUAL
    elif sigma:
        conclusion = Conclusion.UNIQUE_FACTORIZATION
    else:
        conclusion = Conclusion.CROSS_MATCHED
    return MatchReport(
        r_equals_s=len(lhs) == len(rhs),
        pairing=tuple(pairing),
        sigma_hypothesis_holds=sigma,
        module_level_conclusion=conclusion,
    )


def verify_tensor_isomorphism(
    datum: RootDatum,
    lhs: Sequence[Weight],
    rhs: Sequence[Weight],
) -> MatchReport:
    """Decide whether two tensor products of typical modules agree.

    On top of the factor matching this checks that the weight sums agree,
    since the product characters carry the total weight as a prefactor.
    When the products agree, the conclusion distinguishes a genuine
    permutation of the weights from a cross-matched counterexample (the
    factors align component by component but no single permutation of the
    weights does, or the weights differ in a direction the even pairings
    cannot see).
    """
    lhs = [as_weight(w) for w in lhs]
    rhs = [as_weight(w) for w in rhs]
    report = _match_factors(datum, lhs, rhs)
    if report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL:
        return report

    dim = len(datum.rho)
    lhs_sum = zero_weight(dim)
    for w in lhs:
        lhs_sum = vadd(lhs_sum, w)
    rhs_sum = zero_weight(dim)
    for w in rhs:
        rhs_sum = vadd(rhs_sum, w)
    if lhs_sum != rhs_sum:
        return replace(
            report,
            sigma_hypothesis_holds=False,
            module_level_conclusion=Conclusion.PRODUCTS_UNEQUAL,
        )

    same_weights = sorted(lhs) == sorted(rhs)
    return replace(
        report,
        sigma_hypothesis_holds=same_weights,
        module_level_conclusion=(
            Conclusion.UNIQUE_FACTORIZATION
            if same_weights
            else Conclusion.CROSS_MATCHED
        ),
    )


@dataclass(frozen=True)
class Counterexample:
    """A verified cross-matched pair of weight tuples."""

    lhs: tuple[Weight, Weight]
    rhs: tuple[Weight, Weight]
    tau_multiplier: int
    report: MatchReport


def iter_counterexamples(
    datum: RootDatum,
    signature_bound: int,
    tau_multiplier: int,
) -> Iterator[Counterexample]:
    """Enumerate cross-matched quadruples built by swapping component parts.

    Coefficient vectors on each component run over 0..signature_bound in
    lexicographic order.  For component vectors a < a' and b < b' the
    quadruple pairs (a, b), (a', b') against (a', b), (a, b').  The tau
    multiplier is raised by at most ``MAX_BUMP`` steps until all four
    weights are typical; quadruples that stay atypical are skipped.  Each
    emitted hit has been re-verified as a cross-matched counterexample.
    """
    comps = datum.components
    if len(comps) < 2:
        raise NoSecondComponent(
            "counterexample search needs a second diagram component"
        )
    size1, size2 = len(comps[0]), len(comps[1])
    rng = range(signature_bound + 1)
    vectors1 = list(itertools.product(rng, repeat=size1))
    vectors2 = list(itertools.product(rng, repeat=size2))

    # coefficient tuples repeat across quadruples, so memoize per tuple
    memo: dict[tuple, tuple[Weight, bool]] = {}

    def leg(coeffs: tuple, mult: int) -> tuple[Weight, bool]:
        key = (coeffs, mult)
        if key not in memo:
            w = datum.coefficient_weight(coeffs, mult)
            memo[key] = (w, datum.is_typical(w))
        return memo[key]

    for a, a2 in itertools.combinations(vectors1, 2):
        for b, b2 in itertools.combinations(vectors2, 2):
            for bump in range(MAX_BUMP + 1):
                mult = tau_multiplier + bump
                legs = [
                    leg(a + b, mult),
                    leg(a2 + b2, mult),
                    leg(a2 + b, mult),
                    leg(a + b2, mult),
                ]
                if not all(typical for _, typical in legs):
                    continue
                quad = [w for w, _ in legs]
                lhs, rhs = (quad[0], quad[1]), (quad[2], quad[3])
                report = verify_tensor_isomorphism(datum, lhs, rhs)
                invariant(
                    report.module_level_conclusion is Conclusion.CROSS_MATCHED,
                    "search hit is not a cross-matched counterexample",
                )
                yield Counterexample(
                    lhs=lhs, rhs=rhs, tau_multiplier=mult, report=report
                )
                break
