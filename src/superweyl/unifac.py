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
orbit sum per block, fixed by the block's part of the dominant labels
(the labels of lam + rho walked to the dominant chamber).  A block's key
is (its part of the signature, those labels), so equal keys mean equal
factors.  With two components the blocks are the components; G(3) and
F(4) have one component but two blocks (the extra generator is orthogonal
to G_2 and B_3), so their products can match block by block where no
whole factor does.  The signature alone is not a key: it leaves out the
extra generator, which ``tau`` and ``2*tau`` tell apart.  Nor are the
labels alone: on B(0, n) a shifted weight with a negative label at the
extra generator is reflected to another weight's dominant labels, and the
two are kept apart by their signatures.

Keys are computed in integers: the datum pairs the numerators of
lam + rho with its integer coroot and isotropic rows, and the dominant
labels are walked on those numerators.  The typical and dominance checks
run on every weight; the factors are built (through :func:`factor_numerator`,
from the dominant labels the key holds) once per distinct full key
(signature, block keys) and datum, and only the key is kept, in the datum's
key table.  Keys never see a drop, so on B(0, n), G(3) and F(4) that call
is where a non-integral drop is refused.  Its orbit sums, too, run on the
label numerators and their denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import NoSecondComponent, invariant
from .numerator import _checked_labels, _dominant_walk, _signature, factor_numerator
from .rootdata import RootDatum, Weight, as_weight

# Steps the search raises a quadruple's tau multiplier before skipping it.
MAX_BUMP = 10


class Conclusion(Enum):
    UNIQUE_FACTORIZATION = "UniqueFactorization"
    CROSS_MATCHED = "CrossMatchedCounterexample"
    PRODUCTS_UNEQUAL = "ProductsUnequal"


@dataclass(frozen=True, slots=True)
class FactorMatch:
    """One matched factor: lhs weight i and rhs weight j agree on a component."""

    component: int
    lhs_index: int
    rhs_index: int
    signature: tuple[int, ...]


@dataclass(frozen=True, slots=True)
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


def _factor_key(datum: RootDatum, lam: Weight, eta: list[int], d: int) -> tuple:
    """The full key (signature, block keys) of ``lam``, with lam + rho = eta / d in integers.

    The typical and dominance checks run here on every weight.  A block's
    key is its part of the signature and its part of the dominant labels in
    lowest terms, so equal keys mean equal values whatever ``d``.  The
    key's factors are built once per distinct full key and datum, which
    refuses a non-integral drop (see the module docstring).
    """
    shifted, den = _checked_labels(datum, eta, d)
    walked = _dominant_walk(datum, shifted)
    simple = datum.even_simple_count  # the even simple roots are gids 0..n-1
    blocks = []
    for block in datum.generator_blocks:
        part = [walked[g] for g in block]
        common = math.gcd(den, *part)
        blocks.append((
            tuple(shifted[g] // den for g in block if g < simple),
            tuple(a // common for a in part),
            den // common,
        ))
    key = (_signature(datum, shifted, den), tuple(blocks))
    if key not in datum._key_table:
        factor_numerator(datum, lam)
        datum._key_table.add(key)
    return key


def _report(datum: RootDatum, lhs: Sequence[tuple], rhs: Sequence[tuple],
            matches: dict) -> MatchReport:
    """The report on two sides given as (full key, eta) per weight.

    eta holds the numerators of the weight plus rho, over one denominator
    common to both sides.  With as many weights on both sides, the sums and
    the multisets of the weights agree exactly when those of the eta do.
    Each :class:`FactorMatch` is taken from ``matches`` when an equal one
    is there, so that many reports share them.
    """
    lhs_keys, lhs_vecs = [key for key, _ in lhs], [eta for _, eta in lhs]
    rhs_keys, rhs_vecs = [key for key, _ in rhs], [eta for _, eta in rhs]
    block_pairs = [
        pair_by_key([keys[b] for _, keys in lhs_keys], [keys[b] for _, keys in rhs_keys])
        for b in range(len(datum.generator_blocks))
    ]
    products_equal = len(lhs) == len(rhs) and all(len(p) == len(lhs) for p in block_pairs)

    if len(datum.components) > 1:
        # every generator is a simple root (factor_numerator checks it), so
        # the blocks are the components
        comp_pairs = block_pairs
    else:
        comp_pairs = [pair_by_key([keys for _, keys in lhs_keys], [keys for _, keys in rhs_keys])]
    pairing: list[FactorMatch] = []
    for k, pairs in enumerate(comp_pairs):
        sigs = [sig[k] for sig, _ in lhs_keys]
        pairs.sort(key=lambda pair: (sum(sigs[pair[0]]), sigs[pair[0]], pair[0]))
        for i, j in pairs:
            fields = (k + 1, i, j, sigs[i])
            if fields not in matches:
                matches[fields] = FactorMatch(*fields)
            pairing.append(matches[fields])

    if not products_equal or list(map(sum, zip(*lhs_vecs))) != list(map(sum, zip(*rhs_vecs))):
        conclusion = Conclusion.PRODUCTS_UNEQUAL
    elif sorted(lhs_vecs) == sorted(rhs_vecs):
        conclusion = Conclusion.UNIQUE_FACTORIZATION
    else:
        conclusion = Conclusion.CROSS_MATCHED
    return MatchReport(
        r_equals_s=len(lhs) == len(rhs),
        pairing=tuple(pairing),
        sigma_hypothesis_holds=conclusion is Conclusion.UNIQUE_FACTORIZATION,
        module_level_conclusion=conclusion,
    )


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

    What each call verifies: the typical and dominance checks of every
    weight, integral orbit drops (once per distinct full key and datum,
    through the key table's :func:`factor_numerator` call), the keys, the
    weight sums and the weight multisets.  No factor polynomial is
    compared.  Past parsing, every step runs on integer numerators.
    """
    keyed = []
    for lam in [as_weight(w) for w in (*lhs, *rhs)]:
        eta, d = datum._shifted(lam)
        keyed.append((_factor_key(datum, lam, eta, d), eta, d))
    common = math.lcm(*(d for _, _, d in keyed))
    entries = [(key, tuple(x * (common // d) for x in eta)) for key, eta, d in keyed]
    return _report(datum, entries[: len(lhs)], entries[len(lhs) :], {})


@dataclass(frozen=True, slots=True)
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
    emitted hit has been verified as a cross-matched counterexample as
    :func:`verify_tensor_isomorphism` would: every weight's checks and key
    are derived afresh from its integer pairings, then the keys, sums and
    multisets are compared.

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
    rng = range(signature_bound + 1)
    omegas = [datum.fundamental_weight(i) for i in range(1, datum.even_simple_count + 1)]
    # Over one denominator, the numerators of a leg plus rho are an integer
    # affine function of (coefficients, tau multiple), summed from the parts
    # of the two components; so are its isotropic pairings and labels.  A
    # search keeps per leg only whether it is typical and, once it is in a
    # hit, its weight.
    den = math.lcm(*(x.denominator for v in (*omegas, datum.tau, datum.rho) for x in v))

    def over(v: Weight) -> list[int]:
        return [x.numerator * (den // x.denominator) for x in v]

    def parts(basis: list[list[int]]) -> list[list[int]]:
        return [
            [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(datum.dim)]
            for coeffs in itertools.product(rng, repeat=len(basis))
        ]

    basis = [over(w) for w in omegas]
    size1 = len(comps[0])
    parts1, parts2 = parts(basis[:size1]), parts(basis[size1:])
    tau, rho = over(datum.tau), over(datum.rho)

    def eta(i: int, j: int, mult: int) -> list[int]:
        """The numerators of parts1[i] + parts2[j] + mult tau, plus rho."""
        return [a + b + mult * t + r for a, b, t, r in zip(parts1[i], parts2[j], tau, rho)]

    typical: dict[tuple[int, int, int], bool] = {}
    weights: dict[tuple[int, int, int], Weight] = {}

    def is_typical(leg: tuple[int, int, int]) -> bool:
        if leg not in typical:
            typical[leg] = all(datum._isotropic_pairings(eta(*leg)))
        return typical[leg]

    def keyed(leg: tuple[int, int, int]) -> tuple[tuple, tuple[int, ...]]:
        """(full key, eta) of a leg in a hit."""
        nums = eta(*leg)
        if leg not in weights:
            weights[leg] = tuple(Fraction(x - r, den) for x, r in zip(nums, rho))
        return _factor_key(datum, weights[leg], nums, den), tuple(nums)

    matches: dict[tuple, FactorMatch] = {}
    pairs2 = list(itertools.combinations(range(len(parts2)), 2))
    for a, a2 in itertools.combinations(range(len(parts1)), 2):
        for b, b2 in pairs2:
            for mult in range(tau_multiplier, tau_multiplier + MAX_BUMP + 1):
                quad = ((a, b, mult), (a2, b2, mult), (a2, b, mult), (a, b2, mult))
                if not all(map(is_typical, quad)):
                    continue
                entries = [keyed(leg) for leg in quad]
                report = _report(datum, entries[:2], entries[2:], matches)
                invariant(
                    report.module_level_conclusion is Conclusion.CROSS_MATCHED,
                    "search hit is not a cross-matched counterexample",
                )
                yield Counterexample(
                    lhs=(weights[quad[0]], weights[quad[1]]),
                    rhs=(weights[quad[2]], weights[quad[3]]),
                    tau_multiplier=mult,
                    report=report,
                )
                break
