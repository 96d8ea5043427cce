"""Normalized numerators and matching for singly atypical weights.

A dominant integral weight lambda is singly atypical of type gamma when
exactly one isotropic positive odd root gamma pairs to zero against
lambda + rho.  For sl(m+1, n+1), osp(2, 2n), G(3), and F(4) such weights
carry the normalized numerator

    U(lambda) = sum over w in the Weyl group of Pi_0 of
                sign(w) * X^(w(lambda+rho) - (lambda+rho)) / (1 + Z_{w gamma})

where Z_delta is a formal symbol for each positive odd root delta and the
denominator is expanded as a truncated geometric series.  The flagged
special weights of G(3) and F(4) replace the rational prefactor by
(2 + Z_{w gamma}) / (2 (1 + Z_{w gamma})).

The central quantity is the coefficient of the monomial
X^lambda = prod X_alpha^<lambda+rho, alpha> (alpha over Pi_0) in the
formal series -log U(lambda).  This module computes it with a brute-force
series oracle and with four closed forms.  A partition of the Pi_0 graph
enters them only through its block count k and the way its blocks group
the generators that move gamma (the movers), so each closed form is a
table {grouping: rational weight} handed to one evaluator, which returns
the weighted sum of products of block factors:

- K-ratio (one-sided sl(m+1, n+1), osp(2, 2n)): the movers as singletons,
  weight the alternating partition number K of Pi_0;
- M-form (G(3), F(4)): the simple positions as singletons, weight 1 for
  G(3) and 2 for F(4), plus weight -1 for F(4)'s orthogonal pair fused;
- A-sum (sl(m+1, n+1), interior type): the seven splits of the four
  movers, each weighing sum over k of (-1)^(|Pi_0| + k) / k * r_shape(k);
- enumeration (every type, the fallback): each grouping weighs its signed
  (k, grouping) tally, counted by the subset dynamic program of
  :func:`~superweyl.partitions.grouping_counts`; the reference route
  :func:`enumeration_coefficient` reaches the same tally by walking the
  ordered partitions themselves.

Products of the numerators are compared factor by factor to test unique
factorization of tensor products of singly atypical modules of one common
type.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    IndexOutOfRange,
    MixedAtypicalityTypes,
    NotDominant,
    NotSinglyAtypical,
    TruncationTooSmall,
    UnsupportedCase,
    WrongFamily,
    invariant,
)
from .numerator import _orbit_sum, x_lambda, x_signature
from .partitions import graph_of_datum, grouping_counts, iter_ordered_partitions
from .partitions import k_partition_counts, tree_graph_gpq
from .rootdata import (
    Dominance,
    Root,
    RootDatum,
    Weight,
    as_weight,
    vadd,
    vscale,
)
from .series import Poly, ZSeries, mono_degree, neg_log
from .unifac import Conclusion, FactorMatch, MatchReport, pair_by_key
from .weyl import pi0_group, sign

ATYPICAL_FAMILIES = ("sl", "osp", "G3", "F4")
DEFAULT_Z_TRUNCATION = 3


@dataclass(frozen=True)
class AtypicalContext:
    """A validated singly atypical weight with its series truncation.

    ``gamma_index`` is the position of the atypicality type among the
    positive odd roots (the index of its Z symbol), and ``gamma`` is that
    root.  ``special`` marks the two flagged weights of G(3) and F(4) whose
    numerator carries the modified prefactor; the flag is taken on trust and
    never inferred.  Construction is the only validation: the family, then
    the vanishing pattern (exactly one pairing, at ``gamma_index``), then
    ``special``, the truncation and the even dominance conditions.
    """

    datum: RootDatum
    lam: Weight
    gamma_index: int
    special: bool
    z_truncation: int

    def __post_init__(self):
        datum = self.datum
        if datum.family not in ATYPICAL_FAMILIES:
            raise WrongFamily(
                f"family {datum.family!r} has no singly atypical theory here; "
                f"expected one of {ATYPICAL_FAMILIES}"
            )
        vanishing = datum.atypicality(self.lam)
        if len(vanishing) != 1:
            raise NotSinglyAtypical(
                f"weight has {len(vanishing)} vanishing odd pairings; need exactly 1"
            )
        if vanishing[0] != self.gamma_index:
            raise NotSinglyAtypical(
                f"weight has atypicality type index {vanishing[0]}, "
                f"context claims {self.gamma_index}"
            )
        if self.special and datum.family not in ("G3", "F4"):
            raise WrongFamily(
                "special weights exist only for G(3) and F(4)"
            )
        if self.z_truncation < 0:
            raise TruncationTooSmall(
                f"z truncation must be >= 0, got {self.z_truncation}"
            )
        if datum.is_dominant_integral(self.lam) is Dominance.NO:
            raise NotDominant(
                "weight fails the even dominance conditions"
            )

    @property
    def gamma(self) -> Root:
        return self.datum.positive_odd[self.gamma_index]


def atypical_context(
    datum: RootDatum,
    lam: Weight,
    special: bool = False,
    z_truncation: int = DEFAULT_Z_TRUNCATION,
) -> AtypicalContext:
    """Build a context for ``lam``, reading off its atypicality type."""
    lam = as_weight(lam)
    vanishing = datum.atypicality(lam)
    # any pattern other than one vanishing pairing is rejected by the context
    gamma_index = vanishing[0] if vanishing else -1
    return AtypicalContext(datum, lam, gamma_index, special, z_truncation)


@dataclass(frozen=True)
class CoefficientValue:
    """A truncated coefficient series with its provenance.

    ``tag`` names the closed form used ("K-ratio", "M-form", "A-sum",
    "enumeration") or is ``None`` for the brute-force oracle.  ``params``
    holds what a caller reads besides the value: ``target_degree``, the
    total degree of X^lambda, for the oracle, and the per-k pattern counts
    ``r2``, ``r3``, ``r4`` (k from 2) for the A-sum; the other routes
    leave it empty.
    """

    value: ZSeries
    tag: str | None = None
    params: Mapping[str, object] = field(default_factory=dict)


def shift_to_type(datum: RootDatum, lam: Weight, odd_index: int) -> Weight:
    """Translate ``lam`` along the odd-root sum so the chosen pairing vanishes.

    The sum of positive odd roots is orthogonal to every even simple root,
    so the shift keeps the even dominance pairings intact while moving
    (lam + rho, gamma) to zero for gamma at ``odd_index``.  Whether the
    result is singly atypical still depends on the other odd pairings.
    """
    lam = as_weight(lam)
    if not 0 <= odd_index < len(datum.positive_odd):
        raise IndexOutOfRange(f"odd root index {odd_index} out of range")
    gamma = datum.positive_odd[odd_index]
    if not gamma.isotropic:
        raise NotSinglyAtypical(
            "atypicality is defined against isotropic roots only"
        )
    denom = datum.inner(datum.tau, gamma.vector)
    if denom == 0:
        raise UnsupportedCase(
            "the odd-root sum is orthogonal to this root; no shift can reach it"
        )
    t = -datum.inner(vadd(lam, datum.rho), gamma.vector) / denom
    return vadd(lam, vscale(t, datum.tau))


# -- shared machinery -------------------------------------------------------


def _transport(datum: RootDatum, idx: int, gids: Iterable[int]) -> int:
    """Index of the positive odd root s_{g_r} ... s_{g_1} delta, delta at ``idx``.

    ``gids`` = (g_1, ..., g_r) are applied in order, each a lookup in
    ``datum.odd_reflections``.  The partition sums pass the movers that
    share a block; a block is an independent set of the diagram, so those
    movers are pairwise orthogonal, their reflections commute, and the image
    is gamma + sum of the single-mover changes s_g gamma - gamma.
    """
    for g in gids:
        idx = datum.odd_reflections[g][idx]
        # The even Weyl group of Pi_0 must keep the type inside the positive
        # odd roots; leaving them would silently corrupt every Z symbol.
        invariant(idx is not None, "the type left the positive odd roots")
    return idx


def _prefactor(ctx: AtypicalContext, idx: int) -> ZSeries:
    """Expansion of the rational coefficient attached to one group element.

    This is 1 / (1 + Z_idx), or (2 + Z_idx) / (2 (1 + Z_idx)) for special weights.
    """
    t = ctx.z_truncation
    z = ZSeries.var(idx, t)
    inverse = (ZSeries.one(t) + z).inverse()
    if ctx.special:
        return (ZSeries.one(t) + z.scale(Fraction(1, 2))) * inverse
    return inverse


def _normalizer(ctx: AtypicalContext) -> ZSeries:
    """Reciprocal of the identity element's prefactor, which makes U start at 1."""
    return _prefactor(ctx, ctx.gamma_index).inverse()


def atypical_numerator(ctx: AtypicalContext) -> Poly:
    """The normalized numerator U(lambda) with truncated series coefficients.

    One term per element of the Weyl group of Pi_0: the X monomial records
    the drop of lambda + rho, the coefficient is sign(w) times the expanded
    prefactor in the Z symbol of the transported type.  The type is carried
    down the ``parents`` and ``letters`` arrays, one table lookup per
    element, and the terms are summed by the orbit sum of :mod:`superweyl.numerator`.
    """
    datum = ctx.datum
    group = pi0_group(datum)
    images = [ctx.gamma_index]
    for parent, g in zip(group.parents[1:], group.letters[1:]):
        images.append(_transport(datum, images[parent], (g,)))
    prefactors = {idx: _prefactor(ctx, idx) for idx in set(images)}
    signed = {1: prefactors, -1: {idx: -p for idx, p in prefactors.items()}}
    coeffs = [signed[sign(length)][idx] for length, idx in zip(group.lengths, images)]
    return _orbit_sum(group, *datum._shifted_labels(ctx.lam), coeffs, ctx.z_truncation)


def coefficient_oracle(ctx: AtypicalContext) -> CoefficientValue:
    """Coefficient of X^lambda in -log U(lambda), by direct expansion.

    Multiplies U by the inverse of its constant coefficient so the series
    logarithm applies, then reads off the target monomial.  No closed form,
    partition count or tally is consulted; this is the reference the closed
    forms are tested against.

    Only divisors of X^lambda are expanded.  Every X exponent of U is a
    non-negative drop of lambda + rho (``weight_monomial`` refuses a
    negative one).  The -log recurrence writes the coefficient of a
    monomial m through those of m/t, for the terms t of U below m; since
    no exponent is negative, m/t divides X^lambda whenever m does.  So the
    coefficients on the divisors of X^lambda depend only on the divisors:
    U is cut to them before it is normalized, and ``neg_log`` with a cap
    visits no other monomial.
    """
    target = x_lambda(ctx.datum, ctx.lam)
    u = atypical_numerator(ctx).dividing(target)
    series = neg_log(u.scale(_normalizer(ctx)), mono_degree(target) + 1, target)
    return CoefficientValue(
        value=series.coefficient(target),
        tag=None,
        params={"target_degree": mono_degree(target)},
    )


# -- closed forms ------------------------------------------------------------


def _movers(datum: RootDatum, idx: int) -> frozenset[int]:
    """Diagram positions of the generators that move the odd root at ``idx``; only these enter the forms."""
    pi0 = (g for g in datum.generators if g.pi_index is not None)
    return frozenset(g.pi_index for g in pi0 if datum.odd_reflections[g.gid][idx] != idx)


def _singletons(positions: Iterable[int]) -> frozenset[frozenset[int]]:
    return frozenset(frozenset({p}) for p in positions)


def _partition_sign(total: int, k: int) -> Fraction:
    """(-1)^(total + k) / k, the weight of one ordered k-partition of ``total`` vertices."""
    return Fraction((-1) ** (total + k), k)


def _weighted_blocks(ctx: AtypicalContext, weights: Mapping[frozenset, Fraction]) -> ZSeries:
    """Sum of weight * prod of block factors over the groupings in ``weights``.

    A grouping is a frozenset of groups, each the frozenset of diagram
    positions of movers that share one partition block.  That block moves
    gamma by all of their reflections; blocks holding no mover fix gamma
    and contribute exactly 1.  The block factor of each image index is
    computed once per call.  This is the only product of block factors.
    """
    datum = ctx.datum
    t = ctx.z_truncation
    normalizer = _normalizer(ctx)
    blocks: dict[int, ZSeries] = {}
    acc = ZSeries.zero(t)
    for grouping, weight in weights.items():
        term = ZSeries.constant(weight, t)
        for group in grouping:
            gids = (datum.even_positions.index(p) for p in group)
            idx = _transport(datum, ctx.gamma_index, gids)
            if idx not in blocks:
                # (1 + Z_gamma) / (1 + Z_idx), or for special weights
                # (1 + Z_gamma)(2 + Z_idx) / ((2 + Z_gamma)(1 + Z_idx))
                blocks[idx] = normalizer * _prefactor(ctx, idx)
            term = term * blocks[idx]
        acc = acc + term
    return acc


def _k_ratio(ctx: AtypicalContext) -> CoefficientValue:
    """K * (1 + Z_gamma)^d / prod (1 + Z_{s gamma}) over the d reflections moving gamma.

    K is the alternating partition number of the Pi_0 graph: the weight of
    the movers as singletons.  Valid for the one-sided special linear family
    and osp(2, 2n), where the generators moving gamma are pairwise adjacent
    in the diagram.
    """
    kval = k_partition_counts(graph_of_datum(ctx.datum)).k_value
    value = _weighted_blocks(ctx, {_singletons(_movers(ctx.datum, ctx.gamma_index)): kval})
    return CoefficientValue(value=value, tag="K-ratio")


def _m_form(ctx: AtypicalContext) -> CoefficientValue:
    """Two-term closed forms for G(3) and F(4), generic and special.

    For G(3) the two-element Pi_0 admits only 2-partitions: the simple
    positions as singletons, weight 1.  For F(4) the 3-partitions (weight 2)
    and the single 2-partition fusing the two orthogonal simple roots
    (weight -1) contribute with opposite signs.
    """
    datum = ctx.datum
    simples = datum.even_positions
    if len(simples) == 2:
        value = _weighted_blocks(ctx, {_singletons(simples): 1})
        return CoefficientValue(value=value, tag="M-form")
    if len(simples) != 3:
        raise UnsupportedCase(
            f"two-term closed form needs 2 or 3 simple even roots, found {len(simples)}"
        )
    adj = datum.adjacency()
    pairs = [(p, q) for p, q in itertools.combinations(simples, 2) if q not in adj[p]]
    if len(pairs) != 1:
        raise UnsupportedCase(
            "expected exactly one orthogonal pair among the even simple roots"
        )
    fused = frozenset({frozenset(pairs[0])}) | _singletons(set(simples) - set(pairs[0]))
    value = _weighted_blocks(ctx, {_singletons(simples): 2, fused: -1})
    return CoefficientValue(value=value, tag="M-form")


def _tally_sum(ctx: AtypicalContext, total: int, tally: Counter) -> CoefficientValue:
    """Each grouping of the movers weighs its signed (k, grouping) tally over ``total`` vertices."""
    weights: dict[frozenset, Fraction] = {}
    for (k, grouping), count in tally.items():
        weights[grouping] = weights.get(grouping, 0) + _partition_sign(total, k) * count
    return CoefficientValue(value=_weighted_blocks(ctx, weights), tag="enumeration")


def enumeration_coefficient(ctx: AtypicalContext) -> CoefficientValue:
    """Coefficient of X^lambda by walking every ordered graph partition.

    Every ordered k-partition of the Pi_0 graph contributes
    (-1)^(|Pi_0| + k) / k times the product of its block factors; blocks
    that fix gamma contribute exactly 1.  So each grouping of the movers
    weighs its signed (k, grouping) tally.  This is the reference route
    the closed forms are checked against, and the only caller in the
    library of :func:`iter_ordered_partitions`: it lists the partitions
    themselves, merges their orderings by block set and cuts each block
    set once, where :func:`~superweyl.partitions.grouping_counts` counts
    them.  Works for every covered family and type, interior or boundary.
    """
    graph = graph_of_datum(ctx.datum)
    movers = _movers(ctx.datum, ctx.gamma_index)
    tally: Counter = Counter()
    for k in range(1, len(graph) + 1):
        for blocks, count in Counter(map(frozenset, iter_ordered_partitions(graph, k))).items():
            tally[k, frozenset(map(movers.intersection, blocks)) - {frozenset()}] += count
    return _tally_sum(ctx, len(graph), tally)


def _a_sum(ctx: AtypicalContext) -> CoefficientValue:
    """Alternating sum over partition counts for the interior two-chain case.

    The four generators moving gamma split into two pairs, one pair and two
    singletons, or four singletons.  Within each shape the split patterns
    occur equally often, r_shape(k) times among the ordered k-partitions,
    and together they cover every partition with k >= 2; both are checked
    on the (k, grouping) tally of :func:`~superweyl.partitions.grouping_counts`
    against the plain partition numbers of the diagram graph.  Each pattern
    then weighs sum over k of (-1)^(|Pi_0| + k) / k * r_shape(k).
    """
    datum = ctx.datum
    graph = graph_of_datum(datum)
    total = len(graph)
    movers = _movers(datum, ctx.gamma_index)
    comp_one = set(datum.components[0])
    alphas = sorted(p for p in movers if p in comp_one)
    betas = sorted(p for p in movers if p not in comp_one)
    if len(alphas) != 2 or len(betas) != 2:
        raise UnsupportedCase(
            "interior closed form needs two moving generators on each chain"
        )

    def grouping(*groups: Iterable[int]) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(g) for g in groups)

    (a0, a1), (b0, b1) = alphas, betas
    # the seven ways the four movers can split across independent blocks
    shapes = (
        [grouping((a0, b0), (a1, b1)), grouping((a0, b1), (a1, b0))],
        [
            grouping((a, b), (other_a,), (other_b,))
            for a, other_a in ((a0, a1), (a1, a0))
            for b, other_b in ((b0, b1), (b1, b0))
        ],
        [_singletons(movers)],
    )
    ks = range(2, total + 1)
    tally = grouping_counts(graph, movers)
    covered = [0] * len(ks)
    r_counts = []
    weights: dict[frozenset, Fraction] = {}
    for patterns in shapes:
        counts = []
        for k in ks:
            seen = {tally[k, p] for p in patterns}
            # the split patterns within one shape must occur equally often
            invariant(len(seen) == 1, f"k={k}: {len(patterns)} patterns counted {seen}")
            counts.append(seen.pop())
        covered = [c + len(patterns) * n for c, n in zip(covered, counts)]
        r_counts.append(tuple(counts))
        weight = sum(_partition_sign(total, k) * n for k, n in zip(ks, counts))
        weights.update(dict.fromkeys(patterns, weight))
    plain = k_partition_counts(graph).counts[1:]
    invariant(covered == list(plain), f"shapes cover {covered}, partitions {plain}")
    r2, r3, r4 = r_counts
    return CoefficientValue(
        value=_weighted_blocks(ctx, weights),
        tag="A-sum",
        params={"r2": r2, "r3": r3, "r4": r4},
    )


def closed_form_coefficient(ctx: AtypicalContext) -> CoefficientValue:
    """Dispatch to the closed form covering this family and atypicality type.

    One-sided special linear and osp(2, 2n) take the moving-reflection
    ratio; G(3) and F(4) take the two-term form; the two-chain special
    linear family takes the interior alternating sum when all four
    neighboring generators exist, and on boundary types the partition sum
    over the (k, grouping) tally of
    :func:`~superweyl.partitions.grouping_counts`.  That boundary value
    keeps the tag "enumeration": the tag names the formula, the sum over all
    ordered partitions, not the route, which counts them without listing any.
    """
    datum = ctx.datum
    if datum.family == "osp":
        return _k_ratio(ctx)
    if datum.family in ("G3", "F4"):
        return _m_form(ctx)
    if datum.family == "sl":
        if len(datum.components) == 1:
            return _k_ratio(ctx)
        movers = _movers(datum, ctx.gamma_index)
        if len(movers) == 4:
            return _a_sum(ctx)
        graph = graph_of_datum(datum)
        return _tally_sum(ctx, len(graph), grouping_counts(graph, movers))
    raise WrongFamily(
        f"no closed form for family {datum.family!r}"
    )


def coefficient_f1(datum: RootDatum, p: int, q: int) -> Fraction:
    """Coefficient of the leading pattern in the interior alternating sum.

    Counts, for each k, the ordered k-partitions of the diagram graph that
    keep both distinguished generator pairs together, and folds them into
    the alternating sum.  The same number is the alternating partition
    value of the fused tree graph; the two routes are compared and the
    common value, always 1 for a tree, is returned.
    """
    tree = k_partition_counts(tree_graph_gpq(datum, p, q))

    graph = graph_of_datum(datum)
    total = len(graph)
    comps = datum.components
    pair_one = frozenset({comps[0][p - 2], comps[1][q - 2]})
    pair_two = frozenset({comps[0][p - 1], comps[1][q - 1]})
    tally = grouping_counts(graph, pair_one | pair_two)
    direct = Fraction(0)
    for k in range(2, total + 1):
        count = tally[k, frozenset({pair_one, pair_two})]
        expected = tree.counts[k - 1] if k <= len(tree.counts) else 0
        # the pair-preserving partitions are exactly those of the fused tree
        invariant(count == expected, f"k={k}: {count} != {expected}")
        direct += _partition_sign(total, k) * count
    invariant(direct == tree.k_value == 1, f"f1 {direct}, tree value {tree.k_value}")
    return direct


# -- product matching --------------------------------------------------------


def _flat_signature(datum: RootDatum, lam: Weight) -> tuple[int, ...]:
    return tuple(v for comp in x_signature(datum, lam) for v in comp)


def atypical_match(
    datum: RootDatum,
    lhs: Sequence[Weight],
    rhs: Sequence[Weight],
    gamma: Root | Weight,
    z_truncation: int = DEFAULT_Z_TRUNCATION,
) -> MatchReport:
    """Compare products of singly atypical numerators of one common type.

    Every weight must be singly atypical of type ``gamma``; a different
    type anywhere is rejected, because numerators of different types carry
    different Z symbols and their equality says nothing about the weights.
    Factors are paired by their even pairing signature, which determines
    the numerator and the weight.  A complete pairing of equal numerators
    makes the products equal and concludes unique factorization; only an
    incomplete one multiplies them out, to check that they differ.
    """
    gamma_vector = gamma.vector if isinstance(gamma, Root) else as_weight(gamma)
    type_index = next((i for i, r in enumerate(datum.positive_odd) if r.vector == gamma_vector), None)
    if type_index is None:
        raise IndexOutOfRange(
            "gamma is not a positive odd root of this datum"
        )
    if not datum.positive_odd[type_index].isotropic:
        raise NotSinglyAtypical(
            "atypicality types are isotropic; this root is not"
        )

    def contexts(weights: Sequence[Weight]) -> list[AtypicalContext]:
        out = []
        for w in weights:
            ctx = atypical_context(datum, w, z_truncation=z_truncation)
            if ctx.gamma_index != type_index:
                raise MixedAtypicalityTypes(
                    f"weight {datum.format_weight(ctx.lam)} has type index "
                    f"{ctx.gamma_index}, expected {type_index}"
                )
            out.append(ctx)
        return out

    lhs_ctx = contexts(lhs)
    rhs_ctx = contexts(rhs)
    lhs_factors = [atypical_numerator(c) for c in lhs_ctx]
    rhs_factors = [atypical_numerator(c) for c in rhs_ctx]
    lhs_sigs = [_flat_signature(datum, c.lam) for c in lhs_ctx]
    rhs_sigs = [_flat_signature(datum, c.lam) for c in rhs_ctx]

    pairing: list[FactorMatch] = []
    for i, j in pair_by_key(lhs_sigs, rhs_sigs):
        # same signature forces the same numerator
        invariant(lhs_factors[i] == rhs_factors[j], "same signature, other numerator")
        # whole numerators pair up at once; report them on component 1
        pairing.append(FactorMatch(1, i, j, lhs_sigs[i]))

    r_equals_s = len(lhs) == len(rhs)
    complete = r_equals_s and len(pairing) == len(lhs)
    if not complete:
        # equal products force a full matching of the factors
        one = Poly.one(z_truncation)
        products_equal = math.prod(lhs_factors, start=one) == math.prod(rhs_factors, start=one)
        invariant(not products_equal, "equal numerator products with unmatched factors")
    conclusion = Conclusion.UNIQUE_FACTORIZATION if complete else Conclusion.PRODUCTS_UNEQUAL
    return MatchReport(
        r_equals_s=r_equals_s,
        pairing=tuple(pairing),
        sigma_hypothesis_holds=complete,
        module_level_conclusion=conclusion,
    )
