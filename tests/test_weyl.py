"""Weyl group generation, orders, actions, and invariants."""

import pytest

from superweyl.errors import GroupTooLarge, IndexOutOfRange
from superweyl.rootdata import (
    build_b0,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
    datum_from_text,
    vneg,
    vsub,
)
from superweyl.weyl import (
    component_group,
    full_group,
    generate,
    pi0_group,
)

from test_rootdata import A3_TEXT


@pytest.mark.parametrize(
    "datum, full, pi0",
    [
        (build_sl(3, 2), 12, 12),
        (build_sl(2, 1), 2, 2),
        (build_sl(4, 1), 24, 24),
        (build_osp2(1), 2, 2),
        (build_osp2(2), 8, 8),
        (build_b0(2), 8, 2),
        (build_b0(3), 48, 6),
        (build_g3(), 24, 12),
        (build_f4(), 96, 48),
    ],
)
def test_group_orders(datum, full, pi0):
    assert full_group(datum).order == full
    assert pi0_group(datum).order == pi0


def test_component_group_sl32():
    d = build_sl(3, 2)
    assert component_group(d, 1).order == 6
    assert component_group(d, 2).order == 2
    with pytest.raises(IndexOutOfRange):
        component_group(d, 3)
    d31 = build_sl(3, 1)
    assert component_group(d31, 1).order == 6
    with pytest.raises(IndexOutOfRange):
        component_group(d31, 2)


def test_cached_group_respects_a_smaller_cap(monkeypatch):
    d = build_sl(3, 2)
    group = full_group(d)
    assert group.order == 12
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "10")
    with pytest.raises(GroupTooLarge, match="cap of 10"):
        full_group(d)
    with pytest.raises(GroupTooLarge, match="cap of 11"):
        generate(d, max_elements=11)
    assert generate(d, max_elements=12) is group
    monkeypatch.delenv("SUPERWEYL_MAX_GROUP")
    assert full_group(d) is group


def test_identity_and_signs():
    g = full_group(build_sl(3, 2))
    e = g.identity
    assert e.word == () and e.length == 0 and e.sign == 1
    for a in list(g)[:6]:
        for b in list(g)[:6]:
            assert g.mul(a, b).sign == a.sign * b.sign


def test_reflection_action():
    d = build_sl(3, 2)
    g = full_group(d)
    for gen in d.generators:
        s = g.reflection(gen.gid)
        assert s.length == 1
        assert s.act(gen.vector) == vneg(gen.vector)
        assert s.act(s.act(d.rho)) == d.rho


def test_element_words_are_shortest_and_sorted():
    g = full_group(build_sl(3, 2))
    lengths = [e.length for e in g]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[-1] == 4
    words = {e.word for e in g}
    assert len(words) == 12


def test_pi0_group_permutes_positive_odd_roots():
    for d in (build_sl(3, 2), build_osp2(2), build_b0(2), build_g3(), build_f4()):
        odd = {r.vector for r in d.positive_odd}
        for w in pi0_group(d):
            assert {w.act(v) for v in odd} == odd, d.label


def test_full_group_can_move_odd_roots_out():
    d = build_g3()
    odd = {r.vector for r in d.positive_odd}
    moved = [
        w for w in full_group(d) if any(w.act(v) not in odd for v in odd)
    ]
    assert moved


def test_pi0_group_fixes_tau():
    for d in (build_sl(3, 2), build_osp2(2), build_b0(2), build_g3(), build_f4()):
        for w in pi0_group(d):
            assert w.act(d.tau) == d.tau, d.label


def test_rho_drop_is_nonnegative_integral():
    for d in (build_sl(3, 2), build_osp2(2)):
        for w in pi0_group(d):
            coeffs = d.expand_simple(vsub(d.rho, w.act(d.rho)))
            assert all(c.denominator == 1 and c >= 0 for c in coeffs), d.label


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        generate(build_f4(), max_elements=10)


def test_group_cap_env(monkeypatch):
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "10")
    with pytest.raises(GroupTooLarge):
        full_group(build_f4())
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "junk")
    with pytest.raises(GroupTooLarge):
        full_group(build_g3())


def test_group_cache():
    d = build_osp2(2)
    assert full_group(d) is full_group(d)
    assert pi0_group(d) is full_group(d)


def test_custom_a3_group():
    d = datum_from_text(A3_TEXT)
    g = full_group(d)
    assert g.order == 24
    s1 = g.reflection(0)
    s2 = g.reflection(1)
    s3 = g.reflection(2)
    w = g.mul(g.mul(s1, s3), s2)
    assert w.length == 3
