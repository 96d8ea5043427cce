"""Factor matching for products of typical numerators.

A product of numerators factors across diagram components, and within one
component the lowest-degree monomial of a factor pins down its signature,
so equal products can be peeled factor by factor.  Matching the factors of
two products answers whether the corresponding tensor products are
isomorphic, and whether the factorization is unique: when the matched
factors cannot be aligned by a single permutation of the original weights
the pair of products is a cross-matched counterexample to unique
factorization.

Factors are matched by key, never by polynomial.  The even Weyl group is
the product of the subgroups of its irreducible blocks of generators
(``RootDatum.generator_blocks``), so a numerator is the product of one
orbit sum per block, fixed by the block's part of
:func:`~superweyl.numerator.dominant_labels`.  A block's key is (its part
of the signature, those labels), so equal keys mean equal factors.  With
two components the blocks are the components; G(3) and F(4) have one
component but two blocks (the extra generator is orthogonal to G_2 and
B_3), so their products can match block by block where no whole factor
does.  The signature alone is not a key: it leaves out the extra
generator, which ``tau`` and ``2*tau`` tell apart.  Nor are the labels
alone: on B(0, n) a shifted weight with a negative label at the extra
generator is reflected to another weight's dominant labels, and the two
are kept apart by their signatures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import NoSecondComponent, invariant
from .numerator import dominant_labels, factor_numerator, x_signature
from .rootdata import ZERO, RootDatum, Weight, as_weight, vadd

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


def pair_by_key(lhs_keys: Sequence, rhs_keys: Sequence) -> list[tuple[int, int]]:
    """Index pairs (i, j): each lhs i in order takes the first unpaired rhs j of equal key."""
    free = list(range(len(rhs_keys)))
    pairs = []
    for i, key in enumerate(lhs_keys):
        j = next((j for j in free if rhs_keys[j] == key), None)
        if j is not None:
            free.remove(j)
            pairs.append((i, j))
    return pairs


def _match_keys(datum: RootDatum, lam: Weight) -> tuple[tuple, tuple]:
    """The signature of ``lam`` and the key of each of its block factors.

    Memoized on the datum, and written only after :func:`factor_numerator`
    has checked the factor law for ``lam``, so that law is checked once per
    weight.  The labels are read off the label map, not off a group.
    """
    entry = datum._match_key_cache.get(lam)
    if entry is None:
        factor_numerator(datum, lam)
        shifted = datum.labels(vadd(lam, datum.rho))
        read = dominant_labels(datum, lam)
        keys = tuple(
            (
                tuple(shifted[g] for g in block if datum.generators[g].pi_index is not None),
                tuple(read[g] for g in block),
            )
            for block in datum.generator_blocks
        )
        entry = (x_signature(datum, lam), keys)
        datum._match_key_cache[lam] = entry
    return entry


def _weight_sum(weights: Sequence[Weight]) -> Weight:
    return tuple(sum(column, ZERO) for column in zip(*weights))


def verify_tensor_isomorphism(
    datum: RootDatum,
    lhs: Sequence[Weight],
    rhs: Sequence[Weight],
) -> MatchReport:
    """Decide whether two tensor products of typical modules agree.

    The numerator products agree when both sides have as many weights and
    each block has the same multiset of keys on both sides (see the module
    docstring); the character products agree when the weight sums agree
    too, as the total weight is their prefactor.  Equal weight multisets
    then conclude unique factorization; otherwise the pair is a
    cross-matched counterexample (the factors align block by block but no
    single permutation of the weights does, or the weights differ in a
    direction the even pairings cannot see).

    The pairing is reported per component: each lhs factor takes the first
    unpaired rhs factor whose blocks all have equal keys, listed in peel
    order (degree of the lowest term, signature, lhs index).

    What each call verifies: the factor law of each new weight (once per
    weight and datum, through :func:`factor_numerator`), the keys, the
    weight sums and the weight multisets.  No factor polynomial is compared.
    """
    lhs = [as_weight(w) for w in lhs]
    rhs = [as_weight(w) for w in rhs]
    lhs_entries = [_match_keys(datum, w) for w in lhs]
    rhs_entries = [_match_keys(datum, w) for w in rhs]

    block_pairs = [
        pair_by_key([keys[b] for _, keys in lhs_entries], [keys[b] for _, keys in rhs_entries])
        for b in range(len(datum.generator_blocks))
    ]
    products_equal = len(lhs) == len(rhs) and all(len(p) == len(lhs) for p in block_pairs)

    if len(datum.components) > 1:
        # every generator is a simple root (factor_numerator checks it), so
        # the blocks are the components
        comp_pairs = block_pairs
    else:
        comp_pairs = [pair_by_key([keys for _, keys in lhs_entries], [keys for _, keys in rhs_entries])]
    pairing: list[FactorMatch] = []
    for k, pairs in enumerate(comp_pairs):
        sigs = [sig[k] for sig, _ in lhs_entries]
        pairs.sort(key=lambda pair: (sum(sigs[pair[0]]), sigs[pair[0]], pair[0]))
        pairing.extend(FactorMatch(k + 1, i, j, sigs[i]) for i, j in pairs)

    if not products_equal or _weight_sum(lhs) != _weight_sum(rhs):
        conclusion = Conclusion.PRODUCTS_UNEQUAL
    elif sorted(lhs) == sorted(rhs):
        conclusion = Conclusion.UNIQUE_FACTORIZATION
    else:
        conclusion = Conclusion.CROSS_MATCHED
    return MatchReport(
        r_equals_s=len(lhs) == len(rhs),
        pairing=tuple(pairing),
        sigma_hypothesis_holds=conclusion is Conclusion.UNIQUE_FACTORIZATION,
        module_level_conclusion=conclusion,
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

    Only diagram-component parts are swapped, so a datum with one component
    raises ``NoSecondComponent``.  That does not mean no counterexample
    exists: on G(3) and F(4) the even Cartan matrix has two blocks on one
    component, and pairs that swap block parts (such as tau, omega_1 + 2 tau
    against 2 tau, omega_1 + tau) are cross-matched, but this search does not
    reach them.
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
