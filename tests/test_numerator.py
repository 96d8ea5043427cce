"""Tests for normalized numerators, factors, and expanded characters."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superweyl import build_b0, build_f4, build_g3, build_osp2, build_sl, datum_from_text
from superweyl.errors import (
    GroupTooLarge,
    NonIntegralExponent,
    SuperweylError,
    NotDominant,
    NotTypical,
    TruncationTooSmall,
    UnsupportedCase,
)
from superweyl.numerator import (
    factor_numerator,
    normalized_character,
    numerator,
    x_lambda,
    x_signature,
)
from superweyl.rootdata import as_weight, vadd, vscale
from superweyl.series import Poly, mono_from_pairs
from superweyl.unifac import verify_tensor_isomorphism
from superweyl.weyl import component_group, full_group

import weyl_reference as ref
from test_rootdata import A1A1B_TEXT, A3_TEXT


def weight_from_coeffs(datum, coeffs, tau_mult=0):
    """Nonnegative-integer combination of fundamental weights plus tau."""
    lam = vscale(Fraction(tau_mult), datum.tau)
    for i, c in enumerate(coeffs, start=1):
        lam = vadd(lam, vscale(Fraction(c), datum.fundamental_weight(i)))
    return lam


def text(datum, poly):
    return poly.to_text(datum.x_label)


class TestKnownFactorizations:
    def setup_method(self):
        self.datum = build_sl(3, 2)

    def factors(self, coeffs):
        lam = weight_from_coeffs(self.datum, coeffs, tau_mult=1)
        return factor_numerator(self.datum, lam)

    def test_first_weight(self):
        u1, u2 = self.factors((1, 2, 3))
        assert text(self.datum, u1) == (
            "1 - X[a1]^2 - X[a2]^3 + X[a1]^2*X[a2]^5"
            " + X[a1]^5*X[a2]^3 - X[a1]^5*X[a2]^5"
        )
        assert text(self.datum, u2) == "1 - X[a3]^4"

    def test_second_weight(self):
        u1, u2 = self.factors((1, 4, 5))
        assert text(self.datum, u1) == (
            "1 - X[a1]^2 - X[a2]^5 + X[a1]^2*X[a2]^7"
            " + X[a1]^7*X[a2]^5 - X[a1]^7*X[a2]^7"
        )
        assert text(self.datum, u2) == "1 - X[a3]^6"

    def test_cross_weights_swap_factors(self):
        # The two cross weights exchange one factor from each side.
        lhs1, lhs2 = self.factors((1, 2, 3)), self.factors((1, 4, 5))
        rhs1, rhs2 = self.factors((1, 4, 3)), self.factors((1, 2, 5))
        assert rhs1[0] == lhs2[0] and rhs1[1] == lhs1[1]
        assert rhs2[0] == lhs1[0] and rhs2[1] == lhs2[1]
        lhs_product = lhs1[0] * lhs1[1] * lhs2[0] * lhs2[1]
        rhs_product = rhs1[0] * rhs1[1] * rhs2[0] * rhs2[1]
        assert lhs_product == rhs_product

    def test_product_of_factors_is_numerator(self):
        lam = weight_from_coeffs(self.datum, (2, 0, 1), tau_mult=2)
        u = numerator(self.datum, lam)
        u1, u2 = factor_numerator(self.datum, lam)
        assert u1 * u2 == u


def signature_pattern(sig):
    """Canonical factor shape for a rank-two chain with signature (a, b)."""
    a, b = sig
    return {
        (): Fraction(1),
        ((0, a),): Fraction(-1),
        ((1, b),): Fraction(-1),
        ((0, a), (1, a + b)): Fraction(1),
        ((0, a + b), (1, b)): Fraction(1),
        ((0, a + b), (1, a + b)): Fraction(-1),
    }


class TestSignatures:
    def test_rank_two_chain_pattern(self):
        d = build_sl(3, 2)
        lam = weight_from_coeffs(d, (1, 2, 3), tau_mult=1)
        assert x_signature(d, lam) == ((2, 3), (4,))
        u1 = factor_numerator(d, lam)[0]
        assert dict(u1.terms) == signature_pattern((2, 3))

    def test_x_lambda_monomial(self):
        d = build_sl(3, 2)
        lam = weight_from_coeffs(d, (1, 2, 3), tau_mult=1)
        assert x_lambda(d, lam) == mono_from_pairs([(0, 2), (1, 3), (3, 4)])

    @pytest.mark.parametrize("p,q,top", [(3, 2, 2), (4, 3, 1)])
    def test_signature_determines_factor(self, p, q, top):
        # Vary the component's own coefficients (0..top), the other
        # component's and the tau multiple: equal signatures must give equal
        # factors, and distinct signatures distinct factors, on both
        # components.
        d = build_sl(p, q)
        rank = d.even_simple_count
        for k, comp in enumerate(d.components):
            seen, repeats = {}, 0
            for coeffs in itertools.product(range(top + 1), repeat=rank):
                for mult in (1, 2):
                    lam = weight_from_coeffs(d, coeffs, tau_mult=mult)
                    if not d.is_typical(lam):
                        continue
                    sig = x_signature(d, lam)[k]
                    factor_text = text(d, factor_numerator(d, lam)[k])
                    if sig in seen:
                        assert seen[sig] == factor_text
                        repeats += 1
                    else:
                        assert factor_text not in seen.values()
                        seen[sig] = factor_text
            assert len(seen) == (top + 1) ** len(comp)
            assert repeats > 0

    def test_non_integral_pairing_rejected(self):
        d = build_sl(3, 2)
        lam = vscale(Fraction(1, 2), d.fundamental_weight(1))
        with pytest.raises(NonIntegralExponent):
            x_signature(d, lam)


def random_typical_weights(datum, count, seed, coeff_bound=4, tau_range=3):
    rng = random.Random(seed)
    rank = datum.even_simple_count
    found = []
    while len(found) < count:
        coeffs = [rng.randrange(coeff_bound + 1) for _ in range(rank)]
        lam = weight_from_coeffs(datum, coeffs, rng.randrange(tau_range + 1))
        if datum.is_typical(lam):
            found.append(lam)
    return found


@pytest.mark.parametrize(
    "builder,seed", [(lambda: build_sl(3, 2), 11), (lambda: build_osp2(2), 12)]
)
def test_factor_product_law_random(builder, seed):
    datum = builder()
    for lam in random_typical_weights(datum, 100, seed):
        factors = factor_numerator(datum, lam)
        product = Poly.one()
        for factor in factors:
            product = product * factor
            assert factor.constant_term() == 1
        assert product == numerator(datum, lam)


LAW_DATA = {pq: build_sl(*pq) for pq in [(3, 2), (2, 3), (4, 2), (4, 3)]}


@settings(max_examples=60, deadline=None)
@given(
    pq=st.sampled_from(sorted(LAW_DATA)),
    coeffs=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    tau=st.fractions(-3, 3, max_denominator=2),
)
def test_factor_product_equals_the_full_group_numerator(pq, coeffs, tau):
    # factor_numerator builds the component sums alone; numerator() walks
    # the full group, so it is the independent route for the factor law
    datum = LAW_DATA[pq]
    lam = vadd(weight_from_coeffs(datum, coeffs[: datum.even_simple_count]),
               vscale(tau, datum.tau))
    whole = outcome(numerator, datum, lam)
    factors = outcome(factor_numerator, datum, lam)
    if not isinstance(whole, Poly):
        assert factors == whole
        return
    assert len(factors) == 2
    assert math.prod(factors[1:], start=factors[0]) == whole


@pytest.mark.parametrize("pq", [(4, 3), (5, 4)], ids=["sl43", "sl54"])
def test_factors_build_only_the_component_groups(pq):
    datum = build_sl(*pq)
    factor_numerator(datum, weight_from_coeffs(datum, (1,), tau_mult=1))
    comps = {component_group(datum, k).gids for k in (1, 2)}
    assert set(datum._group_cache) == comps
    assert tuple(range(len(datum.generators))) not in datum._group_cache


def test_the_group_cap_counts_only_the_groups_built(monkeypatch):
    # sl(4,3): components of orders 24 and 6, full group of order 144
    datum = build_sl(4, 3)
    lam = weight_from_coeffs(datum, (1,), tau_mult=1)
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "24")
    assert len(factor_numerator(datum, lam)) == 2
    with pytest.raises(GroupTooLarge, match="cap of 24"):
        numerator(datum, lam)


def test_single_variable_terms_match_signature():
    # For each even simple position, the only pure power of that variable
    # in the numerator is minus the signature exponent.
    datum = build_sl(3, 2)
    for lam in random_typical_weights(datum, 25, seed=13):
        u = numerator(datum, lam)
        sig = x_signature(datum, lam)
        flat = {
            pos: a
            for comp, sigs in zip(datum.components, sig)
            for pos, a in zip(comp, sigs)
        }
        for pos, a in flat.items():
            pure = {
                m: c
                for m, c in u.terms.items()
                if m and all(i == pos for i, _ in m)
            }
            assert pure == {mono_from_pairs([(pos, a)]): Fraction(-1)}


def test_numerator_never_uses_odd_variable():
    datum = build_sl(3, 2)
    odd_position = next(i for i, r in enumerate(datum.simple_roots) if r.odd)
    for lam in random_typical_weights(datum, 25, seed=14):
        for mono in numerator(datum, lam).terms:
            assert odd_position not in {v for v, _ in mono}


class TestGroupOrbitSums:
    @pytest.mark.parametrize(
        "builder,lam_fn",
        [
            (build_g3, lambda d: vscale(Fraction(1), d.tau)),
            (build_f4, lambda d: vscale(Fraction(1), d.tau)),
            (build_b0, None),
        ],
    )
    def test_term_count_equals_group_order(self, builder, lam_fn):
        datum = builder(2) if lam_fn is None else builder()
        lam = (
            as_weight([0] * len(datum.rho)) if lam_fn is None else lam_fn(datum)
        )
        u = numerator(datum, lam)
        assert len(u.terms) == full_group(datum).order
        assert sum(u.terms.values()) == 0
        assert u.constant_term() == 1

    def test_orbit_normalization_for_low_extra_pairing(self):
        # The shifted weight pairs negatively with the long extra generator,
        # so the dominant orbit representative takes over.
        datum = build_g3()
        delta = as_weight([0, 0, 1])
        assert datum.is_typical(delta)
        u = numerator(datum, delta)
        assert u.constant_term() == 1
        assert len(u.terms) == full_group(datum).order

    def test_wall_weight_rejected(self):
        datum = build_g3()
        lam = as_weight([0, 0, Fraction(5, 2)])
        assert datum.is_typical(lam)
        with pytest.raises(NotDominant):
            numerator(datum, lam)


class TestErrors:
    def test_atypical_weight_rejected(self):
        d = build_sl(2, 1)
        with pytest.raises(NotTypical):
            numerator(d, as_weight([0, 0, 0]))

    def test_non_dominant_rejected(self):
        d = build_sl(3, 2)
        lam = vscale(Fraction(-1), d.fundamental_weight(1))
        with pytest.raises(NotDominant):
            numerator(d, lam)

    def test_two_components_with_extra_generators_unsupported(self):
        # A custom datum whose even diagram splits but whose generator set
        # includes a non-simple root cannot be factored.
        d = datum_from_text(A1A1B_TEXT)
        assert len(d.components) == 2
        assert any(g.pi_index is None for g in d.generators)
        with pytest.raises(UnsupportedCase):
            factor_numerator(d, as_weight([0, 0, 0, 0, 0]))
        # over the box of half-integers -3/2..3/2 the dominance and wall
        # checks come before the generator check
        box = [Fraction(k, 2) for k in range(-3, 4)]
        outcomes = Counter()
        for lam in itertools.product(box, repeat=d.dim):
            with pytest.raises(SuperweylError) as info:
                factor_numerator(d, as_weight(lam))
            outcomes[type(info.value).__name__, str(info.value)] += 1
        assert outcomes == {
            ("NotDominant", "shifted weight lies on a wall of the even Weyl chambers"): 256,
            ("NotDominant", "weight fails the even dominance test"): 15015,
            ("UnsupportedCase", "component factors need every generator to be a simple root"): 1536,
        }


class TestNormalizedCharacter:
    def test_exact_small_module(self):
        # Two odd directions on a trivial even highest weight: the expanded
        # character is exactly (1 + X[a1]X[b1])(1 + X[b1]).
        d = build_sl(2, 1)
        lam = vscale(Fraction(2), d.tau)
        ch = normalized_character(d, lam, bound=6)
        expected = Poly(
            {
                (): Fraction(1),
                mono_from_pairs([(1, 1)]): Fraction(1),
                mono_from_pairs([(0, 1), (1, 1)]): Fraction(1),
                mono_from_pairs([(0, 1), (1, 2)]): Fraction(1),
            }
        )
        assert ch == expected

    def test_coefficients_are_nonnegative_integers(self):
        d = build_sl(3, 2)
        for lam in random_typical_weights(d, 10, seed=15):
            ch = normalized_character(d, lam, bound=4)
            assert ch.constant_term() == 1
            for coeff in ch.terms.values():
                assert coeff.denominator == 1
                assert coeff >= 0

    def test_atypical_rejected(self):
        d = build_sl(2, 1)
        with pytest.raises(NotTypical):
            normalized_character(d, as_weight([0, 0, 0]), bound=3)

    def test_negative_bound_rejected(self):
        d = build_sl(2, 1)
        lam = vadd(d.fundamental_weight(1), d.tau)
        assert normalized_character(d, lam, bound=0) == Poly.one()
        with pytest.raises(TruncationTooSmall):
            normalized_character(d, lam, bound=-1)


# -- against the reflection-matrix reference ---------------------------------

REFERENCE_DATA = [
    ("sl32", lambda: build_sl(3, 2)),
    ("sl41", lambda: build_sl(4, 1)),
    ("sl13", lambda: build_sl(1, 3)),
    ("sl43", lambda: build_sl(4, 3)),
    ("b02", lambda: build_b0(2)),
    ("b03", lambda: build_b0(3)),
    ("osp4", lambda: build_osp2(2)),
    ("osp6", lambda: build_osp2(3)),
    ("g3", build_g3),
    ("f4", build_f4),
    ("a3", lambda: datum_from_text(A3_TEXT)),
]

TAU_MULTIPLES = [Fraction(t) for t in ("0", "1/2", "1", "3/2", "2", "-1", "-1/2", "1/3", "5/2")]


def outcome(fn, *args):
    """The result, or the name of the library error it raised."""
    try:
        return fn(*args)
    except SuperweylError as exc:
        return type(exc).__name__


def seeded_weights(datum, count, seed):
    rng = random.Random(seed)
    return [
        vadd(
            weight_from_coeffs(datum, [rng.randrange(4) for _ in range(datum.even_simple_count)]),
            vscale(rng.choice(TAU_MULTIPLES), datum.tau),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "builder", [b for _, b in REFERENCE_DATA], ids=[n for n, _ in REFERENCE_DATA]
)
def test_numerator_and_factors_match_the_matrix_reference(builder):
    datum = builder()
    count = 6 if datum.label == "sl(4,3)" else 15
    for lam in seeded_weights(datum, count, seed=7):
        got = outcome(numerator, datum, lam)
        assert got == outcome(ref.numerator, datum, lam), lam
        if isinstance(got, Poly) and len(datum.components) > 1:
            assert factor_numerator(datum, lam) == ref.factors(datum, lam), lam


@pytest.mark.parametrize(
    "builder", [b for _, b in REFERENCE_DATA], ids=[n for n, _ in REFERENCE_DATA]
)
def test_numerator_is_the_product_of_its_block_orbit_sums(builder):
    # Factor matching compares weights block by block of generator_blocks,
    # so the numerator must be one orbit sum per block, multiplied.
    datum = builder()
    checked = 0
    for lam in seeded_weights(datum, 3 if datum.label == "sl(4,3)" else 8, seed=11):
        whole = outcome(numerator, datum, lam)
        if not isinstance(whole, Poly):
            continue
        eta_plus = ref.dominant_representative(datum, vadd(lam, datum.rho))
        product = Poly.one()
        for block in datum.generator_blocks:
            product = product * ref.orbit_sum(datum, ref.reference_group(datum, block), eta_plus)
        assert product == whole, lam
        checked += 1
    assert checked


@pytest.mark.parametrize(
    "builder, lam, error",
    [
        (build_g3, (0, 0, Fraction(5, 2)), "NotDominant"),
        (lambda: build_b0(2), (Fraction(5, 6), Fraction(-1, 6)), "NonIntegralExponent"),
        (lambda: build_b0(3), (Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3)), "NonIntegralExponent"),
        (build_g3, (5, 7, Fraction(7, 3)), "NonIntegralExponent"),
        (build_f4, (3, 1, 0, Fraction(4, 3)), "NonIntegralExponent"),
        (lambda: build_sl(3, 2), (0, 0, 0, Fraction(-1, 2), Fraction(1, 2)), "NotDominant"),
    ],
)
def test_rejections_match_the_matrix_reference(builder, lam, error):
    datum = builder()
    lam = as_weight(lam)
    assert outcome(numerator, datum, lam) == error
    assert outcome(ref.numerator, datum, lam) == error
    # the factor keys never see a drop: verify refuses a non-integral one
    # through the key table's factor_numerator call
    assert outcome(verify_tensor_isomorphism, datum, [lam], [lam]) == error
