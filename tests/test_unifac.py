"""Tests for factor matching, isomorphism checks, and the counterexample search."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from superweyl import build_g3, build_sl
from superweyl.errors import NoSecondComponent, NotDominant, NotTypical
from superweyl.numerator import numerator, x_signature
from superweyl.rootdata import as_weight, vadd, vscale
from superweyl.unifac import (
    Conclusion,
    FactorMatch,
    _match_factors,
    iter_counterexamples,
    verify_tensor_isomorphism,
)

from test_numerator import random_typical_weights, weight_from_coeffs


class TestCrossMatchedPair:
    def setup_method(self):
        self.d = build_sl(3, 2)
        self.lhs = [
            weight_from_coeffs(self.d, (1, 2, 3), tau_mult=1),
            weight_from_coeffs(self.d, (1, 4, 5), tau_mult=1),
        ]
        self.rhs = [
            weight_from_coeffs(self.d, (1, 4, 3), tau_mult=1),
            weight_from_coeffs(self.d, (1, 2, 5), tau_mult=1),
        ]

    def test_products_of_numerators_agree(self):
        lhs_product = numerator(self.d, self.lhs[0]) * numerator(
            self.d, self.lhs[1]
        )
        rhs_product = numerator(self.d, self.rhs[0]) * numerator(
            self.d, self.rhs[1]
        )
        assert lhs_product == rhs_product

    def test_conclusion_is_cross_matched(self):
        report = verify_tensor_isomorphism(self.d, self.lhs, self.rhs)
        assert report.r_equals_s
        assert not report.sigma_hypothesis_holds
        assert report.module_level_conclusion is Conclusion.CROSS_MATCHED

    def test_exact_pairing(self):
        report = verify_tensor_isomorphism(self.d, self.lhs, self.rhs)
        assert report.pairing == (
            FactorMatch(1, 0, 1, (2, 3)),
            FactorMatch(1, 1, 0, (2, 5)),
            FactorMatch(2, 0, 0, (4,)),
            FactorMatch(2, 1, 1, (6,)),
        )

    def test_match_factors_alone_flags_cross(self):
        report = _match_factors(self.d, self.lhs, self.rhs)
        assert report.module_level_conclusion is Conclusion.CROSS_MATCHED


class TestWeightSumCheck:
    def setup_method(self):
        self.d = build_sl(3, 2)
        self.nu = weight_from_coeffs(self.d, (1, 1, 1), tau_mult=3)

    def test_shift_invisible_to_factors_breaks_isomorphism(self):
        shifted = vadd(self.nu, vscale(5, self.d.tau))
        if not self.d.atypicality(shifted).is_typical:
            shifted = vadd(self.nu, vscale(10, self.d.tau))
        report = verify_tensor_isomorphism(self.d, [self.nu], [shifted])
        # Every factor matches, yet the weight sums differ.
        assert report.r_equals_s
        assert len(report.pairing) == 2
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL

    def test_balanced_shift_is_cross_matched(self):
        d = self.d
        nu = self.nu
        up2 = vadd(nu, vscale(10, d.tau))
        up1 = vadd(nu, vscale(5, d.tau))
        for w in (nu, up1, up2):
            assert d.atypicality(w).is_typical
        report = verify_tensor_isomorphism(d, [nu, up2], [up1, up1])
        assert report.module_level_conclusion is Conclusion.CROSS_MATCHED


def test_permutation_and_perturbation_trials():
    d = build_sl(3, 2)
    rng = random.Random(20250816)
    pool = random_typical_weights(d, 60, seed=21)

    conclusions = []
    for trial in range(80):
        r = rng.randrange(1, 5)
        lhs = [rng.choice(pool) for _ in range(r)]
        rhs = list(lhs)
        rng.shuffle(rhs)
        report = verify_tensor_isomorphism(d, lhs, rhs)
        assert report.module_level_conclusion is Conclusion.UNIQUE_FACTORIZATION
        assert report.sigma_hypothesis_holds and report.r_equals_s
        conclusions.append(report)

    for trial in range(60):
        # Cross-glue two weights with distinct parts on both components.
        while True:
            mult = rng.randrange(1, 4)
            c1 = tuple(rng.randrange(5) for _ in range(3))
            c2 = tuple(rng.randrange(5) for _ in range(3))
            if c1[:2] == c2[:2] or c1[2] == c2[2]:
                continue
            quad = [
                weight_from_coeffs(d, c1, mult),
                weight_from_coeffs(d, c2, mult),
                weight_from_coeffs(d, c2[:2] + c1[2:], mult),
                weight_from_coeffs(d, c1[:2] + c2[2:], mult),
            ]
            if all(d.atypicality(w).is_typical for w in quad):
                break
        report = verify_tensor_isomorphism(d, quad[:2], quad[2:])
        assert report.module_level_conclusion is Conclusion.CROSS_MATCHED
        assert not report.sigma_hypothesis_holds

    for trial in range(60):
        lhs = [rng.choice(pool), rng.choice(pool)]
        while True:
            bumped = tuple(
                c + (1 if i == rng.randrange(3) else 0)
                for i, c in enumerate((1, 1, 1))
            )
            other = weight_from_coeffs(d, bumped, rng.randrange(1, 4))
            if d.atypicality(other).is_typical and other not in lhs:
                break
        rhs = [lhs[0], other]
        report = verify_tensor_isomorphism(d, lhs, rhs)
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL


class TestSearch:
    def test_first_hit_at_smallest_bound(self):
        d = build_sl(3, 2)
        hits = list(islice(iter_counterexamples(d, 1, 1), 1))
        assert len(hits) == 1
        hit = hits[0]
        assert hit.report.module_level_conclusion is Conclusion.CROSS_MATCHED
        assert x_signature(d, hit.lhs[0]) == ((1, 1), (1,))
        assert x_signature(d, hit.lhs[1]) == ((1, 2), (2,))
        assert x_signature(d, hit.rhs[0]) == ((1, 2), (1,))
        assert x_signature(d, hit.rhs[1]) == ((1, 1), (2,))
        # The first left weight is a pure tau multiple.
        assert hit.lhs[0] == vscale(hit.tau_multiplier, d.tau)

    def test_limit_and_determinism(self):
        d = build_sl(3, 2)
        two = list(islice(iter_counterexamples(d, 1, 1), 2))
        all_hits = list(iter_counterexamples(d, 1, 1))
        assert len(two) == 2
        assert all_hits[:2] == two
        assert 1 <= len(all_hits) <= 6

    def test_recovers_published_quadruple(self):
        d = build_sl(3, 2)
        lhs = (
            weight_from_coeffs(d, (1, 2, 3), tau_mult=1),
            weight_from_coeffs(d, (1, 4, 5), tau_mult=1),
        )
        rhs = (
            weight_from_coeffs(d, (1, 4, 3), tau_mult=1),
            weight_from_coeffs(d, (1, 2, 5), tau_mult=1),
        )
        found = False
        for hit in iter_counterexamples(d, 5, 1):
            if hit.lhs == lhs and hit.rhs == rhs:
                found = True
                break
        assert found

    def test_single_component_family_has_no_search_space(self):
        with pytest.raises(NoSecondComponent):
            next(iter_counterexamples(build_sl(3, 1), 3, 1))
        with pytest.raises(NoSecondComponent):
            next(iter_counterexamples(build_g3(), 3, 1))


@pytest.mark.parametrize(
    "builder,rank", [(lambda: build_sl(3, 1), 2), (build_g3, 2)]
)
def test_single_component_products_factor_uniquely(builder, rank):
    # With one diagram component and a fixed tau multiple, equal products
    # force equal weight multisets; no cross-matching is possible.
    import itertools

    d = builder()
    weights = []
    for coeffs in itertools.product(range(3), repeat=rank):
        lam = weight_from_coeffs(d, coeffs, tau_mult=1)
        if d.atypicality(lam).is_typical:
            weights.append(lam)
    assert len(weights) >= 6
    pairs = list(itertools.combinations_with_replacement(weights, 2))
    for left, right in itertools.combinations(pairs, 2):
        report = verify_tensor_isomorphism(d, left, right)
        assert report.module_level_conclusion is not Conclusion.CROSS_MATCHED
        if sorted(left) == sorted(right):
            assert (
                report.module_level_conclusion
                is Conclusion.UNIQUE_FACTORIZATION
            )


class TestErrors:
    def test_atypical_weight_rejected(self):
        d = build_sl(2, 1)
        with pytest.raises(NotTypical):
            verify_tensor_isomorphism(d, [as_weight([0, 0, 0])], [d.tau])

    def test_non_dominant_rejected(self):
        d = build_sl(3, 2)
        bad = vscale(-2, d.fundamental_weight(1))
        with pytest.raises(NotDominant):
            _match_factors(d, [bad], [bad])

    def test_length_mismatch(self):
        d = build_sl(3, 2)
        lam = weight_from_coeffs(d, (1, 1, 1), tau_mult=3)
        report = verify_tensor_isomorphism(d, [lam, lam], [lam])
        assert not report.r_equals_s
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL

    def test_partial_pairing_on_mismatch(self):
        d = build_sl(3, 2)
        lhs = [weight_from_coeffs(d, (1, 2, 3), tau_mult=1)]
        rhs = [weight_from_coeffs(d, (2, 2, 3), tau_mult=1)]
        report = _match_factors(d, lhs, rhs)
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
        # The second component still matches; the first does not.
        assert [m.component for m in report.pairing] == [2]
