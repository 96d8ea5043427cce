"""Coefficient extraction and matching for singly atypical numerators."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superweyl.atypical as atypical
import superweyl.series as series
from superweyl.atypical import (
    AtypicalContext,
    atypical_context,
    atypical_match,
    atypical_numerator,
    closed_form_coefficient,
    coefficient_f1,
    coefficient_oracle,
    enumeration_coefficient,
    shift_to_type,
    _movers,
    _normalizer,
    _transport,
    _weighted_blocks,
)
from superweyl.errors import (
    IndexNotInterior,
    IndexOutOfRange,
    InternalInvariant,
    MixedAtypicalityTypes,
    NotDominant,
    NotSinglyAtypical,
    TruncationTooSmall,
    UnsupportedCase,
    WrongFamily,
)
from superweyl.partitions import (
    SimpleGraph,
    graph_of_datum,
    grouping_counts,
    iter_ordered_partitions,
    k_partition_counts,
    tree_graph_gpq,
)
from superweyl.rootdata import build_b0, build_f4, build_g3, build_osp2, build_sl, vadd, vscale, vsub
from superweyl.numerator import x_lambda
from superweyl.series import EMPTY_MONO, Poly, ZSeries, mono_degree, neg_log
from superweyl.unifac import Conclusion
from superweyl.weyl import pi0_group

import partition_reference
import series_reference
import weyl_reference as ref
from test_numerator import weight_from_coeffs

F = Fraction


def atypical_weight(datum, idx, coeff_bound=3):
    """Smallest dominant weight that is singly atypical at odd index idx.

    Scans fundamental-weight combinations in order of total size and
    translates each along the odd-root sum; the translation kills the
    target pairing while leaving the even pairings alone, so the first
    candidate whose other odd pairings stay nonzero wins.
    """
    rank = datum.even_simple_count
    candidates = sorted(
        itertools.product(range(coeff_bound + 1), repeat=rank),
        key=lambda c: (sum(c), c),
    )
    for coeffs in candidates:
        lam = shift_to_type(datum, weight_from_coeffs(datum, coeffs), idx)
        marks = datum.atypicality(lam)
        if marks == (idx,):
            return lam
    raise AssertionError(f"no singly atypical weight of type {idx} found")


class TestContextValidation:
    def test_rejects_family_without_theory(self):
        datum = build_b0(2)
        with pytest.raises(WrongFamily):
            atypical_context(datum, (0,) * datum.dim)

    def test_rejects_special_outside_exceptional(self):
        datum = build_sl(2, 1)
        with pytest.raises(WrongFamily):
            atypical_context(datum, (0, 0, 0), special=True)

    def test_rejects_negative_truncation(self):
        datum = build_sl(2, 1)
        with pytest.raises(TruncationTooSmall):
            atypical_context(datum, (0, 0, 0), z_truncation=-1)

    def test_rejects_typical_weight(self):
        datum = build_sl(3, 2)
        lam = weight_from_coeffs(datum, (1, 1, 1), tau_mult=1)
        assert datum.is_typical(lam)
        with pytest.raises(NotSinglyAtypical):
            atypical_context(datum, lam)

    def test_rejects_multiply_atypical_weight(self):
        # two odd pairings vanish at zero for this datum
        datum = build_sl(3, 2)
        assert len(datum.atypicality((0,) * datum.dim)) == 2
        with pytest.raises(NotSinglyAtypical):
            atypical_context(datum, (0,) * datum.dim)

    def test_rejects_non_dominant_weight(self):
        # singly atypical of type 0, so only the dominance check can fail
        datum = build_sl(2, 1)
        lam = shift_to_type(datum, vscale(F(-2), datum.fundamental_weight(1)), 0)
        assert datum.atypicality(lam) == (0,)
        with pytest.raises(NotDominant):
            AtypicalContext(
                datum=datum,
                lam=lam,
                gamma_index=0,
                special=False,
                z_truncation=3,
            )

    def test_rejects_mismatched_type_index(self):
        datum = build_sl(2, 1)
        good = atypical_context(datum, (0, 0, 0))
        with pytest.raises(NotSinglyAtypical):
            AtypicalContext(
                datum=datum,
                lam=good.lam,
                gamma_index=1 - good.gamma_index,
                special=False,
                z_truncation=3,
            )


class TestShiftToType:
    @pytest.mark.parametrize("idx", [0, 1, 2, 3, 4, 5])
    def test_lands_on_requested_type(self, idx):
        datum = build_sl(3, 2)
        lam = shift_to_type(datum, weight_from_coeffs(datum, (1, 2, 1)), idx)
        assert idx in datum.atypicality(lam)

    def test_preserves_even_signature(self):
        datum = build_osp2(3)
        base = weight_from_coeffs(datum, (2, 0, 1))
        lam = shift_to_type(datum, base, 4)
        from superweyl.numerator import x_signature

        assert x_signature(datum, lam) == x_signature(datum, base)

    def test_orthogonal_sum_is_unsupported(self):
        # equal-size blocks make the odd-root sum vanish as a functional
        datum = build_sl(3, 3)
        with pytest.raises(UnsupportedCase):
            shift_to_type(datum, (0,) * datum.dim, 0)

    def test_bad_index(self):
        datum = build_sl(2, 1)
        with pytest.raises(IndexOutOfRange):
            shift_to_type(datum, (0, 0, 0), 9)

    def test_non_isotropic_target(self):
        datum = build_g3()
        bad = next(
            i for i, r in enumerate(datum.positive_odd) if not r.isotropic
        )
        with pytest.raises(NotSinglyAtypical):
            shift_to_type(datum, (0, 0, 0), bad)


class TestNumeratorShape:
    def test_two_term_numerator_is_exact(self):
        # rank one even part: identity and the single reflection
        datum = build_sl(2, 1)
        ctx = atypical_context(datum, (0, 0, 0), z_truncation=2)
        assert ctx.gamma_index == 1
        one = ZSeries.one(2)
        z0 = ZSeries.var(0, 2)
        z1 = ZSeries.var(1, 2)
        expected = Poly(
            {
                EMPTY_MONO: one - z1 + z1 * z1,
                ((0, 1),): (one - z0 + z0 * z0).scale(-1),
            },
            2,
        )
        assert atypical_numerator(ctx) == expected

    @pytest.mark.parametrize(
        "builder", [lambda: build_sl(3, 2), lambda: build_osp2(2), build_g3]
    )
    def test_term_count_bounded_by_group_order(self, builder):
        datum = builder()
        lam = atypical_weight(datum, 0)
        ctx = atypical_context(datum, lam, z_truncation=1)
        assert len(atypical_numerator(ctx).terms) <= pi0_group(datum).order

    def test_special_constant_coefficient(self):
        # (2 + Z) / (2 (1 + Z)) expanded at the identity term
        datum = build_g3()
        ctx = atypical_context(datum, (0, 0, 0), special=True, z_truncation=3)
        assert ctx.gamma_index == 0
        half = F(1, 2)
        expected = ZSeries(
            3,
            {
                EMPTY_MONO: F(1),
                ((0, 1),): -half,
                ((0, 2),): half,
                ((0, 3),): -half,
            },
        )
        got = atypical_numerator(ctx).coefficient(EMPTY_MONO)
        assert got == expected


@pytest.fixture(scope="module")
def sl65():
    """One sl(6,5) datum for the module, so its 86400-element group is generated once."""
    return build_sl(6, 5)


ORACLE_CASES = [
    ("sl21-t0", lambda: build_sl(2, 1), 0, False, "K-ratio"),
    ("sl21-t1", lambda: build_sl(2, 1), 1, False, "K-ratio"),
    ("sl31-t0", lambda: build_sl(3, 1), 0, False, "K-ratio"),
    ("sl31-t1", lambda: build_sl(3, 1), 1, False, "K-ratio"),
    ("sl31-t2", lambda: build_sl(3, 1), 2, False, "K-ratio"),
    ("sl41-t0", lambda: build_sl(4, 1), 0, False, "K-ratio"),
    ("sl41-t1", lambda: build_sl(4, 1), 1, False, "K-ratio"),
    ("sl41-t2", lambda: build_sl(4, 1), 2, False, "K-ratio"),
    ("sl41-t3", lambda: build_sl(4, 1), 3, False, "K-ratio"),
    ("sl13-t1", lambda: build_sl(1, 3), 1, False, "K-ratio"),
    ("osp4-t0", lambda: build_osp2(2), 0, False, "K-ratio"),
    ("osp4-t1", lambda: build_osp2(2), 1, False, "K-ratio"),
    ("osp4-t2", lambda: build_osp2(2), 2, False, "K-ratio"),
    ("osp4-t3", lambda: build_osp2(2), 3, False, "K-ratio"),
    ("osp6-t1", lambda: build_osp2(3), 1, False, "K-ratio"),
    ("osp6-t2", lambda: build_osp2(3), 2, False, "K-ratio"),
    ("osp6-t3", lambda: build_osp2(3), 3, False, "K-ratio"),
    ("osp6-t5", lambda: build_osp2(3), 5, False, "K-ratio"),
    ("g3-generic", build_g3, 0, False, "M-form"),
    ("g3-special", build_g3, 0, True, "M-form"),
    ("g3-moved", build_g3, 4, False, "M-form"),
    ("f4-generic", build_f4, None, False, "M-form"),
    ("f4-special", build_f4, None, True, "M-form"),
    ("sl43-interior22", lambda: build_sl(4, 3), 4, False, "A-sum"),
    ("sl43-interior32", lambda: build_sl(4, 3), 7, False, "A-sum"),
    ("sl43-boundary11", lambda: build_sl(4, 3), 0, False, "enumeration"),
    ("sl43-boundary13", lambda: build_sl(4, 3), 2, False, "enumeration"),
    ("sl32-t2", lambda: build_sl(3, 2), 2, False, "enumeration"),
]


def oracle_case_context(builder, idx, special, z_truncation=3):
    datum = builder()
    if idx is None:
        # the zero weight is singly atypical here; read its type off
        idx = datum.atypicality((0,) * datum.dim)[0]
    lam = atypical_weight(datum, idx)
    return atypical_context(datum, lam, special=special, z_truncation=z_truncation)


@pytest.mark.parametrize(
    "builder,idx,special",
    [case[1:4] for case in ORACLE_CASES],
    ids=[case[0] for case in ORACLE_CASES],
)
def test_numerator_matches_the_matrix_reference(builder, idx, special):
    ctx = oracle_case_context(builder, idx, special, z_truncation=2)
    assert atypical_numerator(ctx) == ref.atypical_numerator(ctx)


class TestCoefficientAgreement:
    @pytest.mark.parametrize(
        "builder,idx,special,tag",
        [case[1:] for case in ORACLE_CASES],
        ids=[case[0] for case in ORACLE_CASES],
    )
    def test_oracle_matches_closed_form_and_enumeration(
        self, builder, idx, special, tag
    ):
        ctx = oracle_case_context(builder, idx, special)
        oracle = coefficient_oracle(ctx)
        closed = closed_form_coefficient(ctx)
        direct = enumeration_coefficient(ctx)
        assert closed.tag == tag
        assert oracle.value == closed.value
        assert oracle.value == direct.value
        # the coefficient never vanishes, so it can separate numerators
        assert not oracle.value.is_zero()

    @pytest.mark.parametrize(
        "builder,idx,special",
        [
            (lambda: build_sl(3, 1), 1, False),
            (lambda: build_osp2(2), 0, False),
            (lambda: build_sl(4, 3), 4, False),
            (build_g3, 0, True),
        ],
    )
    def test_zero_truncation_collapses_to_partition_value(
        self, builder, idx, special
    ):
        ctx = oracle_case_context(builder, idx, special, z_truncation=0)
        kval = k_partition_counts(graph_of_datum(ctx.datum)).k_value
        expected = ZSeries.constant(kval, 0)
        assert coefficient_oracle(ctx).value == expected
        assert closed_form_coefficient(ctx).value == expected

    @pytest.mark.parametrize(
        "builder,idx,special",
        [case[1:4] for case in ORACLE_CASES],
        ids=[case[0] for case in ORACLE_CASES],
    )
    def test_oracle_matches_the_unpruned_expansion(self, builder, idx, special):
        ctx = oracle_case_context(builder, idx, special)
        target = x_lambda(ctx.datum, ctx.lam)
        u = atypical_numerator(ctx).scale(_normalizer(ctx))
        bound = mono_degree(target) + 1
        unpruned = series_reference.power_loop_neg_log(u, bound)
        assert coefficient_oracle(ctx).value == unpruned.coefficient(target)
        assert neg_log(u, bound) == unpruned

    @pytest.mark.parametrize("idx", range(15))
    def test_sl53_capped_neg_log_matches_the_power_loop(self, idx):
        # every isotropic type; one Z degree keeps the power loop cheap
        ctx = oracle_case_context(lambda: build_sl(5, 3), idx, False, z_truncation=1)
        target = x_lambda(ctx.datum, ctx.lam)
        u = atypical_numerator(ctx).scale(_normalizer(ctx))
        bound = mono_degree(target) + 1
        assert neg_log(u, bound, target) == series_reference.power_loop_neg_log(
            u, bound, target
        )

    @pytest.mark.parametrize(
        "idx,movers,tag",
        [(0, 2, "enumeration"), (1, 3, "enumeration"), (4, 4, "A-sum")],
        ids=["corner", "edge", "interior"],
    )
    def test_sl53_oracle_matches_closed_form_and_enumeration(self, idx, movers, tag):
        ctx = oracle_case_context(lambda: build_sl(5, 3), idx, False)
        assert len(_movers(ctx.datum, ctx.gamma_index)) == movers
        oracle = coefficient_oracle(ctx)
        closed = closed_form_coefficient(ctx)
        assert closed.tag == tag
        assert oracle.value == closed.value
        assert oracle.value == enumeration_coefficient(ctx).value

    @pytest.mark.parametrize(
        "idx,movers,tag",
        [(0, 2, "enumeration"), (1, 3, "enumeration"), (6, 4, "A-sum")],
        ids=["corner", "edge", "interior"],
    )
    def test_sl65_oracle_matches_closed_form(self, sl65, idx, movers, tag):
        ctx = oracle_case_context(lambda: sl65, idx, False)
        assert len(_movers(ctx.datum, ctx.gamma_index)) == movers
        closed = closed_form_coefficient(ctx)
        assert closed.tag == tag
        assert coefficient_oracle(ctx).value == closed.value

    def test_rank_one_sign_is_positive(self):
        # single even reflection: the coefficient is the plain ratio with
        # leading term +1, for both the oracle and the closed form
        datum = build_sl(2, 1)
        ctx = atypical_context(datum, (0, 0, 0), z_truncation=3)
        assert ctx.gamma_index == 1
        expected = (ZSeries.one(3) + ZSeries.var(1, 3)) * (
            ZSeries.one(3) + ZSeries.var(0, 3)
        ).inverse()
        assert coefficient_oracle(ctx).value == expected
        assert closed_form_coefficient(ctx).value == expected
        assert expected.constant_term() == 1


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.tuples(*(st.integers(0, 3) for _ in range(3))),
    idx=st.integers(0, 5),
)
def test_oracle_matches_enumeration_on_random_weights(coeffs, idx):
    datum = build_sl(3, 2)
    lam = shift_to_type(datum, weight_from_coeffs(datum, coeffs), idx)
    marks = datum.atypicality(lam)
    if marks != (idx,):
        return
    ctx = atypical_context(datum, lam, z_truncation=2)
    assert coefficient_oracle(ctx).value == enumeration_coefficient(ctx).value


def fraction_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestInteriorSum:
    def setup_method(self):
        self.datum = build_sl(4, 3)
        self.ctx = atypical_context(
            self.datum, atypical_weight(self.datum, 4), z_truncation=3
        )

    def test_partition_counts_decompose(self):
        value = closed_form_coefficient(self.ctx)
        assert value.tag == "A-sum"
        r2, r3, r4 = value.params["r2"], value.params["r3"], value.params["r4"]
        plain = k_partition_counts(graph_of_datum(self.datum)).counts
        for j, c_k in enumerate(plain[1:]):
            assert 2 * r2[j] + 4 * r3[j] + r4[j] == c_k

    def test_pair_counts_match_fused_tree(self):
        value = closed_form_coefficient(self.ctx)
        tree = tree_graph_gpq(self.datum, 2, 2)
        tree_counts = k_partition_counts(tree).counts
        r2 = value.params["r2"]
        for j, count in enumerate(r2):
            k = j + 2
            expected = tree_counts[k - 1] if k <= len(tree_counts) else 0
            assert count == expected

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_leading_pattern_coefficient_is_one(self, p, q):
        assert coefficient_f1(self.datum, p, q) == 1

    def test_leading_pattern_coefficient_is_one_on_sl65(self):
        datum = build_sl(6, 5)
        m, n = (len(c) for c in datum.components)
        interior = [(p, q) for p in range(2, m + 1) for q in range(2, n + 1)]
        assert len(interior) == 12
        assert all(coefficient_f1(datum, p, q) == 1 for p, q in interior)

    def test_interior_indices_are_validated(self):
        with pytest.raises(IndexNotInterior):
            coefficient_f1(build_sl(3, 2), 2, 2)
        with pytest.raises(WrongFamily):
            coefficient_f1(build_osp2(2), 2, 2)

    def test_pattern_series_are_independent(self):
        # the seven block-pattern series span a 7-dimensional space, so
        # the decomposition into counted families is the unique one
        ctx = self.ctx
        datum = self.datum
        movers = _movers(ctx.datum, ctx.gamma_index)
        comp_one = set(datum.components[0])
        alphas = sorted(p for p in movers if p in comp_one)
        betas = sorted(p for p in movers if p not in comp_one)
        patterns = [
            ((alphas[0], betas[0]), (alphas[1], betas[1])),
            ((alphas[0], betas[1]), (alphas[1], betas[0])),
            ((alphas[0], betas[0]), (alphas[1],), (betas[1],)),
            ((alphas[0], betas[1]), (alphas[1],), (betas[0],)),
            ((alphas[1], betas[0]), (alphas[0],), (betas[1],)),
            ((alphas[1], betas[1]), (alphas[0],), (betas[0],)),
            tuple((p,) for p in sorted(movers)),
        ]
        series = [
            _weighted_blocks(ctx, {frozenset(map(frozenset, pattern)): 1}) for pattern in patterns
        ]
        monos = sorted({m for s in series for m in s.terms})
        rows = [[s.terms.get(m, F(0)) for m in monos] for s in series]
        assert fraction_rank(rows) == 7


def grouping(part, members):
    """Nonempty cuts of a partition's blocks by ``members``."""
    return frozenset(frozenset(b) & members for b in part) - {frozenset()}


def reference_enumeration(ctx):
    """The partition sum with one series product per ordered partition."""
    graph = graph_of_datum(ctx.datum)
    total = len(graph)
    movers = _movers(ctx.datum, ctx.gamma_index)
    t = ctx.z_truncation
    acc = ZSeries.zero(t)
    for k in range(1, total + 1):
        for part in iter_ordered_partitions(graph, k):
            weight = Fraction((-1) ** (total + k), k)
            acc = acc + _weighted_blocks(ctx, {grouping(part, movers): weight})
    return acc


def reference_r_counts(ctx):
    """A-sum counts r2, r3, r4 from one pattern of each shape, per partition."""
    datum = ctx.datum
    graph = graph_of_datum(datum)
    movers = _movers(ctx.datum, ctx.gamma_index)
    a = sorted(p for p in movers if p in datum.components[0])
    b = sorted(p for p in movers if p not in datum.components[0])
    patterns = [
        {frozenset({a[0], b[0]}), frozenset({a[1], b[1]})},
        {frozenset({a[0], b[0]}), frozenset({a[1]}), frozenset({b[1]})},
        {frozenset({p}) for p in movers},
    ]
    r = ([], [], [])
    for k in range(2, len(graph) + 1):
        seen = Counter(grouping(part, movers) for part in iter_ordered_partitions(graph, k))
        for counts, pattern in zip(r, patterns):
            counts.append(seen[frozenset(pattern)])
    return tuple(tuple(c) for c in r)


TALLY_CASES = [(3, 2, idx) for idx in range(6)] + [(4, 3, idx) for idx in (0, 1, 4)]


@pytest.mark.parametrize("m,n,idx", TALLY_CASES, ids=[f"sl{m}{n}-t{i}" for m, n, i in TALLY_CASES])
def test_tally_sums_match_the_per_partition_reference(m, n, idx):
    datum = build_sl(m, n)
    ctx = atypical_context(datum, atypical_weight(datum, idx), z_truncation=3)
    expected = reference_enumeration(ctx)
    assert enumeration_coefficient(ctx).value == expected
    closed = closed_form_coefficient(ctx)
    assert closed.value == expected
    if closed.tag == "A-sum":
        assert (closed.params["r2"], closed.params["r3"], closed.params["r4"]) == reference_r_counts(ctx)


ROUTE_CASES = [
    ("sl(3,1)", lambda: build_sl(3, 1), False, "K-ratio"),
    ("sl(1,3)", lambda: build_sl(1, 3), False, "K-ratio"),
    ("osp(2,4)", lambda: build_osp2(2), False, "K-ratio"),
    ("osp(2,6)", lambda: build_osp2(3), False, "K-ratio"),
    ("G(3)", build_g3, False, "M-form"),
    ("G(3)-special", build_g3, True, "M-form"),
    ("F(4)", build_f4, False, "M-form"),
    ("F(4)-special", build_f4, True, "M-form"),
]


@pytest.mark.parametrize(
    "builder,special,tag", [c[1:] for c in ROUTE_CASES], ids=[c[0] for c in ROUTE_CASES]
)
def test_k_ratio_and_m_form_match_the_per_partition_reference(builder, special, tag):
    datum = builder()
    types = [i for i, r in enumerate(datum.positive_odd) if r.isotropic]
    assert types
    for idx in types:
        lam = atypical_weight(datum, idx)
        ctx = atypical_context(datum, lam, special=special, z_truncation=3)
        closed = closed_form_coefficient(ctx)
        assert closed.tag == tag
        assert closed.value == enumeration_coefficient(ctx).value == reference_enumeration(ctx)


@st.composite
def graphs_with_members(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    members = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    return n, edges, members


@settings(max_examples=40, deadline=None)
@given(case=graphs_with_members())
def test_grouping_counts_match_brute_force(case):
    n, edges, members = case
    graph = SimpleGraph(range(n), edges)
    tally = grouping_counts(graph, members)
    brute = Counter(
        (k, grouping(part, members))
        for k in range(1, n + 1)
        for part in partition_reference.ordered_partitions(range(n), edges, k)
    )
    assert tally == dict(brute)
    # the counts against the brute-force tally, not against the shared table
    per_k = [0] * n
    for (k, _), count in brute.items():
        per_k[k - 1] += count
    assert tuple(per_k) == k_partition_counts(graph).counts


def walked_grouping_counts(graph, members):
    """The (k, grouping) tally by the walk: orderings merged by block set, each set cut once."""
    tally = Counter()
    for k in range(1, len(graph) + 1):
        for blocks, count in Counter(map(frozenset, iter_ordered_partitions(graph, k))).items():
            tally[k, frozenset(map(members.intersection, blocks)) - {frozenset()}] += count
    return tally


@pytest.mark.parametrize("m,n", [(5, 4), (6, 4)])
def test_grouping_counts_equal_the_walked_tally(m, n):
    datum = build_sl(m, n)
    graph = graph_of_datum(datum)
    interior = next(
        i for i, r in enumerate(datum.positive_odd)
        if r.isotropic and len(_movers(datum, i)) == 4
    )
    # the two generator pairs that coefficient_f1 keeps together at (3, 2)
    alphas, betas = datum.components
    pairs = frozenset({alphas[1], betas[0], alphas[2], betas[1]})
    for members in (_movers(datum, interior), pairs):
        assert grouping_counts(graph, members) == walked_grouping_counts(graph, members)


def test_closed_forms_and_f1_do_not_walk_partitions(monkeypatch):
    def walk(graph, k):
        raise AssertionError("ordered partitions were walked")

    datum = build_sl(4, 3)
    contexts = [atypical_context(datum, atypical_weight(datum, idx)) for idx in (0, 1, 4)]
    monkeypatch.setattr(atypical, "iter_ordered_partitions", walk)
    tags = [closed_form_coefficient(ctx).tag for ctx in contexts]
    assert tags == ["enumeration", "enumeration", "A-sum"]
    assert coefficient_f1(datum, 2, 2) == 1
    # the reference route still walks, so the stand-in is the one called
    with pytest.raises(AssertionError, match="walked"):
        enumeration_coefficient(contexts[0])


class TestMatching:
    def setup_method(self):
        self.datum = build_sl(3, 2)
        self.gamma = self.datum.positive_odd[0]
        found = []
        for coeffs in sorted(
            itertools.product(range(4), repeat=3), key=lambda c: (sum(c), c)
        ):
            lam = shift_to_type(self.datum, weight_from_coeffs(self.datum, coeffs), 0)
            marks = self.datum.atypicality(lam)
            if marks == (0,) and lam not in found:
                found.append(lam)
            if len(found) == 3:
                break
        assert len(found) == 3
        self.w1, self.w2, self.w3 = found

    def test_identity_products_match(self):
        report = atypical_match(
            self.datum, [self.w1, self.w2], [self.w1, self.w2], self.gamma
        )
        assert report.module_level_conclusion is Conclusion.UNIQUE_FACTORIZATION
        assert report.r_equals_s and report.sigma_hypothesis_holds
        assert {(m.lhs_index, m.rhs_index) for m in report.pairing} == {(0, 0), (1, 1)}

    def test_permutation_is_recovered(self):
        report = atypical_match(
            self.datum,
            [self.w1, self.w2, self.w3],
            [self.w3, self.w1, self.w2],
            self.gamma,
        )
        assert report.module_level_conclusion is Conclusion.UNIQUE_FACTORIZATION
        assert {(m.lhs_index, m.rhs_index) for m in report.pairing} == {
            (0, 1),
            (1, 2),
            (2, 0),
        }

    def test_repeated_factors_match(self):
        report = atypical_match(
            self.datum,
            [self.w1, self.w1, self.w2],
            [self.w1, self.w2, self.w1],
            self.gamma,
        )
        assert report.module_level_conclusion is Conclusion.UNIQUE_FACTORIZATION
        assert len(report.pairing) == 3

    def test_distinct_weights_have_distinct_numerators(self):
        datum = build_sl(3, 1)
        gamma = datum.positive_odd[1]
        nu = atypical_weight(datum, 1)
        mu = next(
            w
            for c in sorted(
                itertools.product(range(4), repeat=datum.even_simple_count),
                key=lambda c: (sum(c), c),
            )
            for w in [shift_to_type(datum, weight_from_coeffs(datum, c), 1)]
            if datum.atypicality(w) == (1,) and w != nu
        )
        report = atypical_match(datum, [nu], [mu], gamma)
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
        assert report.pairing == ()

    def test_unbalanced_products_are_unequal(self):
        report = atypical_match(
            self.datum, [self.w1, self.w1], [self.w1, self.w2], self.gamma
        )
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
        assert not report.sigma_hypothesis_holds

    @staticmethod
    def product_calls(monkeypatch):
        """The class of each ``_product`` call from here on, in call order."""
        calls = []
        product = series._Terms._product

        def spy(terms, other, bound):
            calls.append(type(terms))
            return product(terms, other, bound)

        monkeypatch.setattr(series._Terms, "_product", spy)
        return calls

    def test_complete_pairing_multiplies_no_numerators(self, monkeypatch):
        calls = self.product_calls(monkeypatch)
        report = atypical_match(self.datum, [self.w1, self.w2], [self.w2, self.w1], self.gamma)
        assert report.module_level_conclusion is Conclusion.UNIQUE_FACTORIZATION
        assert Poly not in calls

    def test_incomplete_pairing_still_multiplies(self, monkeypatch):
        calls = self.product_calls(monkeypatch)
        report = atypical_match(self.datum, [self.w1, self.w1], [self.w1, self.w2], self.gamma)
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL
        assert Poly in calls

    def test_equal_products_with_unmatched_factors_are_internal_errors(self, monkeypatch):
        # signatures that never pair leave equal products unmatched, which
        # the multiplication of an incomplete pairing still catches
        fresh = itertools.count()
        monkeypatch.setattr(atypical, "_flat_signature", lambda datum, lam: (next(fresh),))
        with pytest.raises(InternalInvariant, match="equal numerator products with unmatched"):
            atypical_match(self.datum, [self.w1], [self.w1], self.gamma)

    def test_length_mismatch(self):
        report = atypical_match(self.datum, [self.w1], [self.w1, self.w2], self.gamma)
        assert not report.r_equals_s
        assert report.module_level_conclusion is Conclusion.PRODUCTS_UNEQUAL

    def test_mixed_types_are_rejected(self):
        other = shift_to_type(
            self.datum, weight_from_coeffs(self.datum, (1, 2, 1)), 4
        )
        marks = self.datum.atypicality(other)
        assert marks == (4,)
        with pytest.raises(MixedAtypicalityTypes):
            atypical_match(self.datum, [self.w1], [other], self.gamma)

    def test_unknown_gamma_is_rejected(self):
        with pytest.raises(IndexOutOfRange):
            atypical_match(self.datum, [], [], (F(9),) * self.datum.dim)

    def test_non_isotropic_gamma_is_rejected(self):
        datum = build_g3()
        bad = next(r for r in datum.positive_odd if not r.isotropic)
        with pytest.raises(NotSinglyAtypical):
            atypical_match(datum, [], [], bad)

    def test_typical_weight_in_list_is_rejected(self):
        typical = weight_from_coeffs(self.datum, (1, 1, 1), tau_mult=1)
        with pytest.raises(NotSinglyAtypical):
            atypical_match(self.datum, [typical], [typical], self.gamma)


ATYPICAL_BUILDERS = [
    lambda: build_sl(2, 1),
    lambda: build_sl(3, 2),
    lambda: build_sl(4, 3),
    lambda: build_sl(5, 1),
    lambda: build_osp2(3),
    build_g3,
    build_f4,
]


@pytest.mark.parametrize(
    "builder",
    ATYPICAL_BUILDERS,
    ids=["sl(2,1)", "sl(3,2)", "sl(4,3)", "sl(5,1)", "osp(2,6)", "G(3)", "F(4)"],
)
def test_transport_is_the_vector_reflection(builder):
    datum = builder()
    pi0 = [g for g in datum.generators if g.pi_index is not None]

    def reflect(g, v):
        return vsub(v, vscale(ref.pairing(datum, v, g.vector), g.vector))

    for idx, delta in enumerate(datum.positive_odd):
        for g in pi0:
            image = reflect(g, delta.vector)
            assert datum.positive_odd[_transport(datum, idx, (g.gid,))].vector == image
        # movers sharing a partition block are orthogonal: their reflections
        # commute and add their single changes to the root
        for g, h in itertools.combinations(pi0, 2):
            if datum.inner(g.vector, h.vector) != 0:
                continue
            summed = vsub(vadd(reflect(g, delta.vector), reflect(h, delta.vector)), delta.vector)
            for order in ((g.gid, h.gid), (h.gid, g.gid)):
                assert datum.positive_odd[_transport(datum, idx, order)].vector == summed


@pytest.mark.parametrize("builder", [build_g3, build_f4], ids=["G(3)", "F(4)"])
def test_transport_refuses_to_leave_the_positive_odd_roots(builder):
    datum = builder()
    extra = next(g.gid for g in datum.generators if g.pi_index is None)
    with pytest.raises(InternalInvariant):
        _transport(datum, 0, (extra,))
