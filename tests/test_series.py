"""Polynomial and truncated series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superweyl.errors import (
    ConstantTermNotOne,
    IndexOutOfRange,
    InternalInvariant,
    NegativeExponentAfterCollapse,
    NonIntegralExponent,
    NotInvertible,
    RingMismatch,
    TruncationTooSmall,
)
from superweyl.series import (
    EMPTY_MONO,
    Poly,
    ZSeries,
    mono_degree,
    mono_from_pairs,
    mono_key,
    mono_mul,
    neg_log,
    theta,
    weight_monomial,
)

from series_reference import flatten, naive_add, naive_mul, power_loop_neg_log

F = Fraction


def xvar(i, exp=1):
    return Poly.x_monomial(((i, exp),))


def test_mono_helpers():
    m = mono_from_pairs([(2, 1), (0, 2), (2, 1)])
    assert m == ((0, 2), (2, 2))
    assert mono_degree(m) == 4
    assert mono_mul(m, ((1, 3),)) == ((0, 2), (1, 3), (2, 2))
    assert mono_from_pairs([(0, 1), (0, -1)]) == EMPTY_MONO


def test_mono_key_orders_by_degree_then_exponents():
    a = ((0, 2), (1, 5))
    b = ((0, 5), (1, 3))
    c = ((0, 2),)
    assert mono_key(c, 2) < mono_key(a, 2)
    assert mono_key(a, 2) < mono_key(b, 2)


def test_poly_canonical_text_golden():
    p = (
        Poly.one()
        - xvar(0, 2)
        - xvar(1, 3)
        + xvar(0, 2) * xvar(1, 5)
        + xvar(0, 5) * xvar(1, 3)
        - xvar(0, 5) * xvar(1, 5)
    )
    names = {0: "a1", 1: "a2"}.__getitem__
    assert (
        p.to_text(names)
        == "1 - X[a1]^2 - X[a2]^3 + X[a1]^2*X[a2]^5 + X[a1]^5*X[a2]^3 - X[a1]^5*X[a2]^5"
    )


def test_poly_text_coefficients():
    p = Poly({EMPTY_MONO: F(-1), ((0, 1),): F(5, 2)})
    assert p.to_text() == "-1 + 5/2*X[x1]"
    assert Poly.zero().to_text() == "0"


def test_neg_log_of_one_minus_x():
    p = Poly.one() - xvar(0)
    out = neg_log(p, 3)
    expected = (
        xvar(0) + xvar(0, 2).scale(F(1, 2)) + xvar(0, 3).scale(F(1, 3))
    )
    assert out == expected


def test_neg_log_is_additive_on_products():
    p = Poly.one() - xvar(0)
    q = Poly.one() - xvar(1).scale(2) + xvar(0) * xvar(1)
    bound = 4
    lhs = neg_log((p * q).truncate_x(bound), bound)
    rhs = neg_log(p, bound) + neg_log(q, bound)
    assert lhs.truncate_x(bound) == rhs.truncate_x(bound)


def test_neg_log_requires_constant_one():
    with pytest.raises(ConstantTermNotOne):
        neg_log(xvar(0), 3)
    with pytest.raises(ConstantTermNotOne):
        neg_log(Poly.one().scale(2), 3)


def test_neg_log_refuses_a_negative_bound():
    with pytest.raises(TruncationTooSmall):
        neg_log(Poly.one() + xvar(0), -1)
    assert neg_log(Poly.one() + xvar(0), 0) == Poly.zero()


def test_neg_log_refuses_a_term_of_degree_zero_or_less():
    # such a term belongs to the degree-0 part of the series, which must be 1
    ratio = Poly({((0, 1), (1, -1)): F(1)})
    with pytest.raises(ConstantTermNotOne):
        neg_log(Poly.one() + ratio, 2)
    with pytest.raises(ConstantTermNotOne):
        neg_log(Poly.one() + xvar(0) + Poly({((1, -1),): F(3)}), 4)


def test_divisor_cap_refuses_negative_exponents():
    # m/t divides the cap whenever m does only when no exponent is negative;
    # the X term given to neg_log does not divide the cap, so only the
    # input check sees it
    p = Poly.one() + Poly({((0, -1), (1, 3)): F(1)})
    with pytest.raises(InternalInvariant):
        neg_log(p, 3, ((0, 2),))
    # uncapped, a negative exponent is fine while the X degree is positive
    assert neg_log(p, 3) == power_loop_neg_log(p, 3)


def test_capped_neg_log_keeps_only_divisors():
    p = Poly.one() - xvar(0) - xvar(1)
    cap = ((0, 2),)
    out = neg_log(p, 4, cap)
    assert out == xvar(0) + xvar(0, 2).scale(F(1, 2))
    assert out == power_loop_neg_log(p, 4).dividing(cap)
    assert out == power_loop_neg_log(p, 4, cap)


def test_zseries_inverse():
    one_plus = ZSeries.one(3) + ZSeries.var(0, 3)
    inv = one_plus.inverse()
    expected = ZSeries(
        3,
        {
            EMPTY_MONO: F(1),
            ((0, 1),): F(-1),
            ((0, 2),): F(1),
            ((0, 3),): F(-1),
        },
    )
    assert inv == expected
    assert one_plus * inv == ZSeries.one(3)


def test_zseries_truncation():
    t2 = (ZSeries.one(2) + ZSeries.var(0, 2)) * (
        ZSeries.one(2) - ZSeries.var(0, 2) + ZSeries.var(0, 2) * ZSeries.var(0, 2)
    )
    assert t2 == ZSeries.one(2)


def test_zseries_inverse_needs_unit():
    with pytest.raises(NotInvertible):
        ZSeries.var(0, 2).inverse()


def test_zseries_rejects_negative_truncation():
    with pytest.raises(TruncationTooSmall):
        ZSeries(-1)


def test_zseries_text():
    s = ZSeries.one(2) - ZSeries.var(0, 2) + ZSeries.var(0, 2) * ZSeries.var(0, 2)
    assert s.to_text() == "1 - Z[g1] + Z[g1]^2"


def test_ring_mismatch():
    z2, p2, p = ZSeries.one(2), Poly.one(2), Poly.one()
    mixed = [
        lambda: z2 + ZSeries.one(3),
        lambda: p2 + p,
        lambda: p + 1,
        lambda: z2 + p2,
        lambda: z2 - p2,
        lambda: p2 - Poly.one(3),
        lambda: z2 * 2,
        lambda: z2 * ZSeries.one(3),
        lambda: p2 * z2,
        lambda: p * Poly.one(1),
        lambda: p2.mul_trunc(Poly.one(3), 4),
        lambda: p.mul_trunc(z2, 1),
        lambda: p.scale(z2),
        lambda: p2.scale(ZSeries.one(3)),
        lambda: z2.scale(z2),
        lambda: p.scale(p),
        lambda: Poly({EMPTY_MONO: z2}),
        lambda: Poly({EMPTY_MONO: z2}, 3),
        lambda: ZSeries(2, {EMPTY_MONO: "0"}),
        lambda: ZSeries(2, {EMPTY_MONO: 0.5}),
        lambda: p2.to_text(),
    ]
    for combine in mixed:
        with pytest.raises(RingMismatch):
            combine()
    # a ring element is never equal to an element of another ring
    assert (p == 1) is False
    assert (z2 == p2) is False
    # a rational scalar multiplies from the left
    assert 2 * z2 == ZSeries.constant(2, 2) == z2.scale(2)


def test_text_reads_the_variable_count_from_the_terms():
    assert Poly({((5, 1),): F(1)}).to_text() == "X[x6]"
    assert (Poly.one() + xvar(3) + xvar(0, 2)).to_text() == "1 + X[x4] + X[x1]^2"
    with pytest.raises(IndexOutOfRange):
        ZSeries.var(-1, 2)


def test_theta_keeps_exact_support():
    p = xvar(0, 2) * xvar(1) + xvar(0, 3) + xvar(2)
    assert theta(p, {0, 1}) == xvar(0, 2) * xvar(1)
    assert theta(p, {0}) == xvar(0, 3)


def test_theta_on_empty_support_is_constant_term():
    p = Poly.one() + Poly.one() + xvar(0)
    assert theta(p, set()) == Poly.one() + Poly.one()
    assert theta(xvar(1), set()) == Poly({})


def test_weight_monomial():
    assert weight_monomial([F(2), F(0), F(1)]) == ((0, 2), (2, 1))
    with pytest.raises(NonIntegralExponent):
        weight_monomial([F(1, 2)])
    with pytest.raises(NegativeExponentAfterCollapse):
        weight_monomial([F(-1)])
    # numerators over den, as the orbit drops come; errors print the value
    assert weight_monomial([4, 0, 2], 2) == ((0, 2), (2, 1))
    assert all(type(e) is int for _, e in weight_monomial([4, 0, 2], 2))
    with pytest.raises(NonIntegralExponent, match="^exponent 2/3 on variable 1 is not"):
        weight_monomial([0, 4], 6)
    with pytest.raises(NegativeExponentAfterCollapse, match="^exponent -1 on variable 0 is"):
        weight_monomial([-2], 2)


def test_poly_structure_queries():
    p = xvar(0, 2) * xvar(1) + xvar(2)
    assert max(mono_degree(m) for m in p.terms) == 3
    assert {v for m in p.terms for v, _ in m} == {0, 1, 2}
    assert p.truncate_x(1) == xvar(2)
    assert p.coefficient(((2, 1),)) == 1


coeffs = st.integers(min_value=-3, max_value=3)


def small_polys():
    mono = st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=0, max_size=2
    ).map(mono_from_pairs)
    return st.dictionaries(mono, coeffs, max_size=4).map(
        lambda d: Poly({m: F(c) for m, c in d.items()})
    )


@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + Poly.zero() == a
    assert a * Poly.one() == a


@given(small_polys())
def test_neg_log_round_trip_leading_terms(p):
    """-log(1 + q) starts with -q modulo degree-2 terms."""
    q = p.truncate_x(3)
    poly = Poly.one() + Poly(
        {m: c for m, c in q.terms.items() if m != EMPTY_MONO}
    )
    out = neg_log(poly, 1)
    assert out.truncate_x(1) == -poly.truncate_x(1) + Poly.one()


def zmonos():
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=0, max_size=2
    ).map(mono_from_pairs)


@given(st.dictionaries(zmonos(), coeffs, max_size=4))
def test_zseries_inverse_round_trip(d):
    s = ZSeries(3, {m: F(c) for m, c in d.items()}) + ZSeries.one(3)
    if s.constant_term() == 0:
        return
    assert s * s.inverse() == ZSeries.one(3)


def xmonos(max_exp=2):
    return st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, max_exp)), min_size=0, max_size=3
    ).map(mono_from_pairs)


def unit_polys(coefficient, ztrunc=None):
    """Small polynomials with constant term one and the given coefficients."""
    return st.dictionaries(xmonos(), coefficient, max_size=5).map(
        lambda d: Poly.one(ztrunc)
        + Poly({m: c for m, c in d.items() if m != EMPTY_MONO}, ztrunc)
    )


zcoeffs = st.dictionaries(zmonos(), coeffs, max_size=3).map(
    lambda d: ZSeries(2, {m: F(c) for m, c in d.items()})
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(unit_polys(coeffs.map(F)), unit_polys(zcoeffs, 2)),
    xmonos(3),
    st.integers(0, 6),
)
def test_capped_neg_log_is_the_uncapped_one_on_divisors(poly, cap, bound):
    reference = power_loop_neg_log(poly, bound)
    assert neg_log(poly, bound) == reference
    assert neg_log(poly, bound, cap) == reference.dividing(cap)
    assert neg_log(poly, bound, cap) == power_loop_neg_log(poly, bound, cap)


def ring_element(draw, kind, trunc):
    """A rational ``Poly``, a ``Poly`` over series truncated at ``trunc``, or such a series."""

    def series():
        terms = draw(st.dictionaries(zmonos(), coeffs, max_size=3))
        return ZSeries(trunc, {m: F(c) for m, c in terms.items()})

    if kind == "series":
        return series()
    monos = draw(st.lists(xmonos(), max_size=4))
    if kind == "rational":
        return Poly({m: F(draw(coeffs)) for m in monos})
    return Poly({m: series() for m in monos}, trunc)


def assert_no_zero_coefficient(x):
    for c in x.terms.values():
        assert c
        if isinstance(c, ZSeries):
            assert_no_zero_coefficient(c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_the_naive_reference(data):
    kind = data.draw(st.sampled_from(["rational", "series-coefficient", "series"]))
    trunc = data.draw(st.integers(0, 3))
    a, b = (ring_element(data.draw, kind, trunc) for _ in range(2))
    cut = None if kind == "rational" else trunc
    fa, fb = flatten(a), flatten(b)
    results = {
        "+": (a + b, naive_add(fa, fb)),
        "-": (a - b, naive_add(fa, fb, -1)),
        "neg": (-a, naive_add({}, fa, -1)),
        "*": (a * b, naive_mul(fa, fb, cut)),
    }
    scalars = [F(data.draw(coeffs), data.draw(st.integers(1, 3)))]
    if kind == "series-coefficient":
        scalars.append(ring_element(data.draw, "series", trunc))
    for i, c in enumerate(scalars):
        results[f"scale {i}"] = (a.scale(c), naive_mul(fa, flatten(c), cut))
    if kind != "series":
        bound = data.draw(st.integers(0, 4))
        results["mul_trunc"] = (a.mul_trunc(b, bound), naive_mul(fa, fb, cut, bound))
    for op, (got, want) in results.items():
        assert flatten(got) == want, op
        assert_no_zero_coefficient(got)
    assert (a == b) == (fa == fb)
    assert a + b - b == a
    assert hash(a + b - b) == hash(a)
