"""Polynomial and truncated series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superweyl.errors import (
    ConstantTermNotOne,
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

from series_reference import power_loop_neg_log

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
        p.to_text(2, names)
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
    with pytest.raises(RingMismatch):
        ZSeries.one(2) + ZSeries.one(3)
    with pytest.raises(RingMismatch):
        Poly.one(2) + Poly.one()
    with pytest.raises(RingMismatch):
        Poly.one(2).to_text()


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
