"""Weyl group generation, orders, words, and orbit walks.

The library builds groups as integer label trees, held as parallel arrays
of parents, last letters and lengths; ``weyl_reference`` keeps the
reflection-matrix construction, and the tests below hold the words the
arrays spell against it on groups of at most ``MAX_ORDER`` elements.
"""

import itertools
from fractions import Fraction

import pytest

from superweyl.errors import GroupTooLarge, IndexOutOfRange
from superweyl.numerator import _dominant_walk
from superweyl.rootdata import (
    build_b0,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
    datum_from_text,
    vadd,
    vscale,
    vsub,
)
from superweyl.weyl import (
    component_group,
    full_group,
    generate,
    orbit_drops,
    pi0_group,
    sign,
)

import weyl_reference as ref
from test_numerator import random_typical_weights
from test_rootdata import A3_TEXT

DIFFERENTIAL_DATA = [
    ("sl32", lambda: build_sl(3, 2)),
    ("sl21", lambda: build_sl(2, 1)),
    ("sl41", lambda: build_sl(4, 1)),
    ("sl13", lambda: build_sl(1, 3)),
    ("sl43", lambda: build_sl(4, 3)),
    ("b02", lambda: build_b0(2)),
    ("b03", lambda: build_b0(3)),
    ("osp2", lambda: build_osp2(1)),
    ("osp4", lambda: build_osp2(2)),
    ("osp6", lambda: build_osp2(3)),
    ("g3", build_g3),
    ("f4", build_f4),
    ("a3", lambda: datum_from_text(A3_TEXT)),
]


def generator_sets(d):
    """Every non-empty set of generator ids of the datum, in size then lexicographic order."""
    n = len(d.generators)
    return [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]


def group_words(group):
    """The word of every element, in the group's element order."""
    return [group.word(i) for i in range(len(group))]


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
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "11")
    with pytest.raises(GroupTooLarge, match="cap of 11"):
        generate(d)
    monkeypatch.setenv("SUPERWEYL_MAX_GROUP", "12")
    assert generate(d) is group
    monkeypatch.delenv("SUPERWEYL_MAX_GROUP")
    assert full_group(d) is group


def test_identity_and_signs():
    d = build_sl(3, 2)
    g = full_group(d)
    assert g.word(0) == () and g.lengths[0] == 0 and sign(g.lengths[0]) == 1
    assert g.parents[0] == -1
    by_matrix = {m: word for word, m in ref.reference_group(d)}
    first = ref.reference_group(d)[:6]
    for wa, ma in first:
        for wb, mb in first:
            assert ref.sign(by_matrix[ref.mat_mul(ma, mb)]) == ref.sign(wa) * ref.sign(wb)


def test_reflection_action():
    d = build_sl(3, 2)
    g = full_group(d)
    lengths = {g.word(i): length for i, length in enumerate(g.lengths)}
    for gen in d.generators:
        assert lengths[(gen.gid,)] == 1
        s = ref.reflection_matrix(d, gen.vector)
        assert ref.act(s, gen.vector) == vscale(-1, gen.vector)
        assert ref.act(s, ref.act(s, d.rho)) == d.rho


def test_element_words_are_shortest_and_sorted():
    g = full_group(build_sl(3, 2))
    assert g.lengths == sorted(g.lengths)
    assert g.lengths[0] == 0 and g.lengths[-1] == 4
    assert len(set(group_words(g))) == 12


def test_parents_drop_the_last_letter():
    """The three arrays agree with the words they spell, on every differential
    datum and generator set."""
    for name, builder in DIFFERENTIAL_DATA:
        d = builder()
        for gids in generator_sets(d):
            g = generate(d, gids)
            assert (g.parents[0], g.letters[0], g.lengths[0]) == (-1, -1, 0), (name, gids)
            for i in range(1, len(g)):
                parent = g.parents[i]
                assert 0 <= parent < i, (name, gids, i)
                assert g.word(i) == g.word(parent) + (g.letters[i],), (name, gids, i)
                assert g.lengths[i] == len(g.word(i)), (name, gids, i)


def test_pi0_group_permutes_positive_odd_roots():
    for d in (build_sl(3, 2), build_osp2(2), build_b0(2), build_g3(), build_f4()):
        odd = {r.vector for r in d.positive_odd}
        pi0 = [g.gid for g in d.generators if g.pi_index is not None]
        for _, m in ref.reference_group(d, pi0):
            assert {ref.act(m, v) for v in odd} == odd, d.label


def test_full_group_can_move_odd_roots_out():
    d = build_g3()
    odd = {r.vector for r in d.positive_odd}
    moved = [
        m for _, m in ref.reference_group(d) if any(ref.act(m, v) not in odd for v in odd)
    ]
    assert moved


def test_pi0_group_fixes_tau():
    for d in (build_sl(3, 2), build_osp2(2), build_b0(2), build_g3(), build_f4()):
        pi0 = [g.gid for g in d.generators if g.pi_index is not None]
        for _, m in ref.reference_group(d, pi0):
            assert ref.act(m, d.tau) == d.tau, d.label


def test_rho_drop_is_nonnegative_integral():
    # Drops come back as numerators over the labels' denominator D; D = 2 for
    # rho on B(0, n), G(3) and F(4).  rho on the Pi_0 groups, the dominant
    # labels of one typical weight on every other generator set.
    for _, builder in DIFFERENTIAL_DATA:
        d = builder()
        pi0 = tuple(g.gid for g in d.generators if g.pi_index is not None)
        lam, = random_typical_weights(d, 1, seed=3)
        eta_plus = ref.dominant_representative(d, vadd(lam, d.rho))
        shifted, den_plus = d._shifted_labels(lam)
        walked = _dominant_walk(d, shifted), den_plus
        for gids in generator_sets(d):
            eta, (labels, den) = (d.rho, d._labels(d.rho)) if gids == pi0 else (eta_plus, walked)
            expected = sorted(
                tuple(d.expand_simple(vsub(eta, ref.act(m, eta))))
                for _, m in ref.reference_group(d, gids)
            )
            drops = orbit_drops(generate(d, gids), labels)
            assert all(type(c) is int and c >= 0 for drop in drops for c in drop), (d.label, gids)
            got = sorted(tuple(Fraction(c, den) for c in drop) for drop in drops)
            assert got == expected, (d.label, gids)


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
    s1, s2, s3 = (ref.reflection_matrix(d, gen.vector) for gen in d.generators)
    product = ref.mat_mul(ref.mat_mul(s1, s3), s2)
    words = {m: word for word, m in ref.reference_group(d)}
    assert words[product] == (0, 2, 1)
    i = group_words(g).index((0, 2, 1))
    assert g.lengths[i] == 3 and g.describe(i) == "s1*s3*s2"
    assert g.describe(0) == "e"


@pytest.mark.parametrize(
    "builder", [b for _, b in DIFFERENTIAL_DATA], ids=[n for n, _ in DIFFERENTIAL_DATA]
)
def test_words_match_the_matrix_reference(builder):
    """Same words in the same order for every generator set of the datum."""
    d = builder()
    for gids in generator_sets(d):
        group = generate(d, gids)
        if group.order > ref.MAX_ORDER:
            continue
        assert group_words(group) == [w for w, _ in ref.reference_group(d, gids)], gids
    for k in range(1, len(d.components) + 1):
        group = component_group(d, k)
        assert group_words(group) == [w for w, _ in ref.reference_group(d, group.gids)]

