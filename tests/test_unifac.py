"""Tests for factor matching, isomorphism checks, and the counterexample search."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import prod

import pytest

import superweyl.unifac as unifac
from superweyl import build_b0, build_f4, build_g3, build_osp2, build_sl
from superweyl.errors import NoSecondComponent, NotDominant, NotTypical, SuperweylError
from superweyl.numerator import _dominant_walk, factor_numerator, numerator, x_signature
from superweyl.rootdata import as_weight, vadd, vscale
from superweyl.series import Poly
from superweyl.unifac import (
    Conclusion,
    FactorMatch,
    MatchReport,
    iter_counterexamples,
    verify_tensor_isomorphism,
)

from golden import SEARCH_CASES, SEARCH_GOLDEN, search_stream
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


class TestBlockCrossedPair:
    """G(3) and F(4): tau is orthogonal to G_2 and B_3, and the extra
    generator is a block of its own, so swapping tau multiples between two
    weights keeps the numerator product although no whole factor matches."""

    @pytest.fixture(params=[build_g3, build_f4], ids=["g3", "f4"])
    def case(self, request):
        d = request.param()
        tau, omega = d.tau, d.fundamental_weight(1)
        lhs = [tau, vadd(omega, vscale(2, tau))]
        rhs = [vscale(2, tau), vadd(omega, tau)]
        return d, lhs, rhs

    def test_products_of_numerators_agree(self, case):
        d, lhs, rhs = case
        assert numerator(d, lhs[0]) * numerator(d, lhs[1]) == numerator(
            d, rhs[0]
        ) * numerator(d, rhs[1])
        assert numerator(d, lhs[0]) not in (numerator(d, w) for w in rhs)

    def test_conclusion_is_cross_matched(self, case):
        report = verify_tensor_isomorphism(*case)
        assert report.module_level_conclusion is Conclusion.CROSS_MATCHED
        assert report.pairing == ()
        assert report == reference_report(*case)


def test_b0_reflected_weights_are_kept_apart_by_signature():
    # On B(0, 2) the shifted weights of delta[1] - delta[2] and
    # 2*delta[1] - delta[2] have a negative label at 2 delta_2, yet pass the
    # even dominance test (as NECESSARY_ONLY); reflected there they share
    # the numerators of delta[1] and 2*delta[1], whose signatures differ.
    # The keys carry the signature, so these factors are not paired and the
    # products are reported unequal, as the reference says.
    d = build_b0(2)
    one, two = as_weight((1, 0)), as_weight((0, 1))
    lhs = [one, vadd(vscale(2, one), vscale(-1, two))]
    rhs = [vadd(one, vscale(-1, two)), vscale(2, one)]
    assert [numerator(d, w) for w in lhs] == [numerator(d, w) for w in rhs]
    assert [x_signature(d, w) for w in lhs] != [x_signature(d, w) for w in rhs]
    report = verify_tensor_isomorphism(d, lhs, rhs)
    assert report == reference_report(d, lhs, rhs)
    assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
    assert report.pairing == ()


class TestWeightSumCheck:
    def setup_method(self):
        self.d = build_sl(3, 2)
        self.nu = weight_from_coeffs(self.d, (1, 1, 1), tau_mult=3)

    def test_shift_invisible_to_factors_breaks_isomorphism(self):
        shifted = vadd(self.nu, vscale(5, self.d.tau))
        if not self.d.is_typical(shifted):
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
            assert d.is_typical(w)
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
            if all(d.is_typical(w) for w in quad):
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
            if d.is_typical(other) and other not in lhs:
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
        if d.is_typical(lam):
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
            verify_tensor_isomorphism(d, [bad], [bad])

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
        report = verify_tensor_isomorphism(d, lhs, rhs)
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
        # The second component still matches; the first does not.
        assert [m.component for m in report.pairing] == [2]


# -- against a reference that multiplies the numerators out -----------------


def numerator_products_agree(datum, lhs, rhs):
    """Whether the products of the numerators agree, as polynomials.

    Numerators common to both sides cancel.  The rest are compared first by
    their values at a point modulo a prime, a ring map, so unequal values
    mean unequal products; only equal values are multiplied out.
    """
    left = Counter(numerator(datum, w) for w in lhs)
    right = Counter(numerator(datum, w) for w in rhs)
    left, right = list((left - right).elements()), list((right - left).elements())
    prime, point = 2**61 - 1, [3**k + 7 for k in range(len(datum.simple_roots))]

    def value(polys):
        out = 1
        for poly in polys:
            out = out * sum(
                int(c) * prod(pow(point[v], e, prime) for v, e in mono)
                for mono, c in poly.terms.items()
            ) % prime
        return out

    def product(polys):
        out = Poly.one()
        for poly in polys:
            out = out * poly
        return out

    return value(left) == value(right) and product(left) == product(right)


def reference_report(datum, lhs, rhs):
    """The report of verify_tensor_isomorphism, by polynomials.

    The products of characters agree when both sides have as many weights,
    the products of their numerators agree and the weight sums agree; equal
    weight multisets then mean unique factorization.  On B(0, n) the
    multisets of (signature, numerator) must agree too: a weight whose
    shifted weight is reflected at the extra generator shares its numerator
    with a weight of another signature, and the library keeps such factors
    apart (so it reports ``delta[1]; 2*delta[1]-delta[2]`` against
    ``delta[1]-delta[2]; 2*delta[1]`` on B(0, 2) as unequal products).

    The pairing is per component: lhs factors in peel order (lowest-term
    degree, signature, index) each take the first unpaired rhs factor of
    equal signature and equal polynomial.
    """
    lf = [factor_numerator(datum, w) for w in lhs]
    rf = [factor_numerator(datum, w) for w in rhs]
    ls = [x_signature(datum, w) for w in lhs]
    rs = [x_signature(datum, w) for w in rhs]
    pairing = []
    for k in range(len(datum.components)):
        free = list(range(len(rhs)))
        for i in sorted(range(len(lhs)), key=lambda i: (sum(ls[i][k]), ls[i][k], i)):
            j = next(
                (j for j in free if (rs[j][k], rf[j][k]) == (ls[i][k], lf[i][k])), None
            )
            if j is not None:
                free.remove(j)
                pairing.append(FactorMatch(k + 1, i, j, ls[i][k]))
    products_equal = (
        len(lhs) == len(rhs)
        and numerator_products_agree(datum, lhs, rhs)
        and (datum.family != "b0" or Counter(zip(ls, map(tuple, lf))) == Counter(zip(rs, map(tuple, rf))))
    )
    zero = tuple(Fraction(0) for _ in datum.rho)
    lhs_sum, rhs_sum = zero, zero
    for w in lhs:
        lhs_sum = vadd(lhs_sum, w)
    for w in rhs:
        rhs_sum = vadd(rhs_sum, w)
    if not products_equal or lhs_sum != rhs_sum:
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


DIFFERENTIAL_DATA = [
    ("sl32", lambda: build_sl(3, 2)),
    ("sl43", lambda: build_sl(4, 3)),
    ("sl23", lambda: build_sl(2, 3)),
    ("osp4", lambda: build_osp2(2)),
    ("g3", build_g3),
    ("f4", build_f4),
    ("b02", lambda: build_b0(2)),
    ("b03", lambda: build_b0(3)),
]


def is_valid(datum, lam):
    try:
        factor_numerator(datum, lam)
    except SuperweylError:
        return False
    return True


def weight_pool(datum, rng, size=12):
    """Distinct valid weights: the valid ones of tau, 2 tau and 3 tau, then
    fundamental-weight combinations shifted by half-integer tau multiples,
    and ambient half-integer vectors (which vary the labels at the extra
    generator of G(3), F(4) and B(0, n))."""
    pool = [w for w in (vscale(k, datum.tau) for k in (1, 2, 3)) if is_valid(datum, w)]
    while len(pool) < size:
        if rng.random() < 0.5:
            coeffs = [rng.randrange(3) for _ in range(datum.even_simple_count)]
            tau_mult = Fraction(rng.randrange(-2, 7), 2)
            lam = vadd(weight_from_coeffs(datum, coeffs), vscale(tau_mult, datum.tau))
        else:
            lam = tuple(Fraction(rng.randrange(-8, 9), 2) for _ in range(datum.dim))
        if lam not in pool and is_valid(datum, lam):
            pool.append(lam)
    return pool


def tuple_pairs(datum, pool, rng, count):
    """Seeded (lhs, rhs) tuples of 1 to 3 valid weights each."""
    n1 = len(datum.components[0])
    while count:
        r = rng.randrange(1, 4)
        lhs = [rng.choice(pool) for _ in range(r)]
        kind = rng.randrange(6)
        if kind == 0:
            rhs = rng.sample(lhs, r)
        elif kind == 1:
            rhs = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
        elif kind == 2:
            rhs = list(lhs)
            rhs[rng.randrange(r)] = rng.choice(pool)
        elif kind == 3:
            # a balanced tau shift: invisible to the signatures
            nu, k = lhs[0], Fraction(rng.randrange(1, 5), 2)
            lhs = [nu, vadd(nu, vscale(2 * k, datum.tau))]
            rhs = [vadd(nu, vscale(k, datum.tau))] * 2
        elif kind == 4:
            # swap tau multiples: on G(3) and F(4) tau is orthogonal to G_2
            # and B_3, so the products can agree block by block while no
            # whole factor matches
            coeffs = [rng.randrange(1, 3) for _ in range(datum.even_simple_count)]
            nu1 = rng.choice(pool)
            nu2 = vadd(nu1, weight_from_coeffs(datum, coeffs))
            t1, t2 = rng.sample([Fraction(t, 2) for t in range(-2, 7)], 2)
            lhs = [vadd(nu1, vscale(t1, datum.tau)), vadd(nu2, vscale(t2, datum.tau))]
            rhs = [vadd(nu1, vscale(t2, datum.tau)), vadd(nu2, vscale(t1, datum.tau))]
        else:
            # swap the component parts of two coefficient vectors
            rank = datum.even_simple_count
            c1, c2 = ([rng.randrange(4) for _ in range(rank)] for _ in range(2))
            mult = rng.randrange(1, 4)
            lhs = [weight_from_coeffs(datum, c, mult) for c in (c1, c2)]
            rhs = [
                weight_from_coeffs(datum, c, mult)
                for c in (c2[:n1] + c1[n1:], c1[:n1] + c2[n1:])
            ]
        if all(is_valid(datum, w) for w in lhs + rhs):
            count -= 1
            yield lhs, rhs


@pytest.mark.parametrize(
    "builder", [b for _, b in DIFFERENTIAL_DATA], ids=[n for n, _ in DIFFERENTIAL_DATA]
)
def test_matching_by_keys_equals_polynomial_reference(builder):
    datum = builder()
    rng = random.Random(1709)
    pool = weight_pool(datum, rng)
    seen = Counter()
    for lhs, rhs in tuple_pairs(datum, pool, rng, 40):
        report = verify_tensor_isomorphism(datum, lhs, rhs)
        assert report == reference_report(datum, lhs, rhs), (lhs, rhs)
        seen[report.module_level_conclusion] += 1
    assert seen[Conclusion.UNIQUE_FACTORIZATION] and seen[Conclusion.PRODUCTS_UNEQUAL]
    if datum.family != "b0":
        # swapped tau multiples cross-match wherever tau is orthogonal to
        # the simple roots, here on every family but B(0, n)
        assert seen[Conclusion.CROSS_MATCHED]
    if any(g.pi_index is None for g in datum.generators):
        # the pool has equal signatures with other factors, which a
        # signature-only key would pair
        assert any(
            x_signature(datum, a) == x_signature(datum, b)
            and factor_numerator(datum, a) != factor_numerator(datum, b)
            for a, b in combinations(pool, 2)
        )


# -- the search stream and the factor-key table ---------------------------------


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_stream_matches_its_recording(case):
    # every hit in order: tau multiplier, weights, pairing and conclusion
    golden = json.loads(SEARCH_GOLDEN.read_text(encoding="utf-8"))
    assert search_stream(*SEARCH_CASES[case]) == golden[case]


def full_key(datum, lam):
    """What a full factor key stands for: the signature and the dominant labels."""
    shifted, den = datum._shifted_labels(lam)
    nums = _dominant_walk(datum, shifted)
    return x_signature(datum, lam), tuple(Fraction(a, den) for a in nums)


@pytest.fixture
def factor_law_checks(monkeypatch):
    """The weights of every call of ``factor_numerator`` made through unifac.

    The key table makes one such call per distinct key and datum: it builds
    that key's factors once, which is where a non-integral drop is refused.
    """
    calls = []
    real = unifac.factor_numerator

    def counting(datum, lam):
        calls.append(lam)
        return real(datum, lam)

    monkeypatch.setattr(unifac, "factor_numerator", counting)
    return calls


def test_search_checks_the_factor_law_once_per_distinct_key(factor_law_checks):
    datum = build_sl(3, 2)
    hits = list(iter_counterexamples(datum, 3, 1))
    weights = {w for hit in hits for w in hit.lhs + hit.rhs}
    keys = {full_key(datum, w) for w in weights}
    assert len(factor_law_checks) == len(keys) < len(weights)
    assert len({full_key(datum, w) for w in factor_law_checks}) == len(keys)


@pytest.mark.parametrize(
    "builder", [b for _, b in DIFFERENTIAL_DATA], ids=[n for n, _ in DIFFERENTIAL_DATA]
)
def test_verify_checks_the_factor_law_once_per_distinct_key(builder, factor_law_checks):
    datum = builder()
    rng = random.Random(2604)
    pool = weight_pool(datum, rng)
    seen = set()
    for lhs, rhs in tuple_pairs(datum, pool, rng, 30):
        for _ in range(2):
            verify_tensor_isomorphism(datum, lhs, rhs)
        seen.update(lhs + rhs)
        assert len(factor_law_checks) == len({full_key(datum, w) for w in seen})


def test_every_hit_reports_what_verify_reports():
    datum = build_sl(3, 2)
    hits = list(iter_counterexamples(datum, 3, 1))
    assert len(hits) > 100
    for hit in hits:
        assert hit.report == verify_tensor_isomorphism(datum, hit.lhs, hit.rhs)


@pytest.mark.parametrize("builder", [build_g3, build_f4], ids=["g3", "f4"])
def test_equal_signatures_with_other_tau_multiples_stay_unequal(builder):
    # tau; 3*tau against 2*tau; 2*tau: equal signatures, sums and lengths,
    # but the extra generator's factors differ, so only the full key keeps
    # the products apart
    d = builder()
    lhs = [d.tau, vscale(3, d.tau)]
    rhs = [vscale(2, d.tau), vscale(2, d.tau)]
    assert sorted(x_signature(d, w) for w in lhs) == sorted(x_signature(d, w) for w in rhs)
    report = verify_tensor_isomorphism(d, lhs, rhs)
    assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
    assert report == reference_report(d, lhs, rhs)
