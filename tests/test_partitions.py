"""Tests for independent-set partition counting and diagram partitions."""

import itertools
import random
from fractions import Fraction

import pytest

from superweyl import (
    build_b0,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
)
from superweyl.errors import (
    GraphTooLarge,
    IndexNotInterior,
    InvalidGraph,
    WrongFamily,
)
from superweyl.partitions import (
    DEFAULT_MAX_VERTICES,
    PartitionReport,
    SimpleGraph,
    graph_of_datum,
    iter_ordered_partitions,
    k_partition_counts,
    tree_graph_gpq,
)

import partition_reference as ref


def path_graph(n):
    return SimpleGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def empty_graph(n):
    return SimpleGraph(range(n))


def independent(graph, block):
    return not any(b in graph.neighbors(a) for a, b in itertools.combinations(block, 2))


class TestSimpleGraph:
    def test_rejects_duplicate_vertices(self):
        with pytest.raises(InvalidGraph):
            SimpleGraph([1, 1])

    def test_rejects_loops(self):
        with pytest.raises(InvalidGraph):
            SimpleGraph([1, 2], [(1, 1)])

    def test_rejects_unknown_endpoints(self):
        with pytest.raises(InvalidGraph):
            SimpleGraph([1, 2], [(1, 3)])

    def test_adjacency_is_symmetric(self):
        g = SimpleGraph("abc", [("a", "b")])
        assert "b" in g.neighbors("a") and "a" in g.neighbors("b")
        assert "c" not in g.neighbors("a")

    def test_edges_are_deterministic(self):
        g = SimpleGraph([3, 1, 2], [(2, 3), (3, 1)])
        assert g.edges() == ((3, 1), (3, 2))

    def test_induced_subgraph(self):
        g = path_graph(4)
        h = g.induced([0, 1, 3])
        assert h.vertices == (0, 1, 3)
        assert h.edges() == ((0, 1),)
        with pytest.raises(InvalidGraph):
            g.induced([0, 9])

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert not empty_graph(2).is_connected()
        assert empty_graph(1).is_connected()
        assert SimpleGraph([]).is_connected()


class TestDiagramGraphs:
    def test_two_chain_diagram(self):
        d = build_sl(3, 2)
        g = graph_of_datum(d)
        assert g.vertices == (0, 1, 3)
        assert g.edges() == ((0, 1),)

    def test_single_chain_diagram(self):
        d = build_osp2(2)
        g = graph_of_datum(d)
        assert g.vertices == (0, 1)
        assert g.edges() == ((0, 1),)

    def test_three_vertex_chain(self):
        d = build_f4()
        g = graph_of_datum(d)
        assert g.vertices == (0, 1, 2)
        assert g.edges() == ((0, 1), (1, 2))


class TestPartitionCounts:
    def test_single_vertex(self):
        report = k_partition_counts(SimpleGraph([7]))
        assert report == PartitionReport(counts=(1,), k_value=Fraction(1))

    def test_two_path(self):
        report = k_partition_counts(path_graph(2))
        assert report.counts == (0, 2)
        assert report.k_value == 1

    def test_three_path(self):
        report = k_partition_counts(path_graph(3))
        assert report.counts == (0, 2, 6)
        assert report.k_value == 1

    def test_two_isolated_vertices(self):
        report = k_partition_counts(empty_graph(2))
        assert report.counts == (1, 2)
        assert report.k_value == 0

    def test_four_cycle(self):
        # Connected but not a tree: the alternating sum exceeds 1.
        g = SimpleGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        report = k_partition_counts(g)
        assert report.counts == (0, 2, 12, 24)
        assert report.k_value == 3

    def test_counts_are_ordered_block_counts(self):
        g = empty_graph(3)
        report = k_partition_counts(g)
        # 1 unordered 1-partition, 3 unordered 2-partitions, 1 unordered
        # 3-partition, times k! each.
        assert report.counts == (1, 6, 6)

    def test_empty_graph(self):
        report = k_partition_counts(SimpleGraph([]))
        assert report.counts == ()
        assert report.k_value == 0

    def test_default_cap(self):
        with pytest.raises(GraphTooLarge):
            k_partition_counts(empty_graph(DEFAULT_MAX_VERTICES + 1))


FAMILY_BUILDERS = [
    lambda: build_sl(3, 2),
    lambda: build_sl(4, 3),
    lambda: build_sl(2, 1),
    lambda: build_osp2(2),
    lambda: build_osp2(3),
    lambda: build_b0(2),
    lambda: build_b0(3),
    build_g3,
    build_f4,
]


@pytest.mark.parametrize("builder", FAMILY_BUILDERS)
def test_alternating_sum_detects_connectivity(builder):
    # On every induced subgraph of a diagram (always a forest) the
    # alternating sum is 1 exactly for connected subgraphs, else 0.
    graph = graph_of_datum(builder())
    verts = graph.vertices
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            sub = graph.induced(subset)
            expected = Fraction(1 if sub.is_connected() else 0)
            assert k_partition_counts(sub).k_value == expected


@pytest.mark.parametrize("builder", FAMILY_BUILDERS)
def test_enumeration_matches_counts(builder):
    graph = graph_of_datum(builder())
    report = k_partition_counts(graph)
    for k in range(1, len(graph) + 1):
        listed = list(iter_ordered_partitions(graph, k))
        assert len(listed) == report.counts[k - 1]
        assert len(set(listed)) == len(listed)
        for parts in listed:
            assert len(parts) == k
            union = [v for part in parts for v in part]
            assert sorted(union) == sorted(graph.vertices)
            for part in parts:
                assert part and independent(graph, part)


class TestIterOrderedPartitions:
    def test_two_path_orderings(self):
        listed = list(iter_ordered_partitions(path_graph(2), 2))
        assert listed == [((0,), (1,)), ((1,), (0,))]

    def test_out_of_range_k(self):
        assert list(iter_ordered_partitions(path_graph(2), 0)) == []
        assert list(iter_ordered_partitions(path_graph(2), 3)) == []

    def test_adjacent_vertices_never_share_a_block(self):
        for parts in iter_ordered_partitions(path_graph(4), 3):
            for part in parts:
                assert independent(path_graph(4), part)

    def test_vertex_cap_is_checked_on_the_call(self):
        graph = empty_graph(DEFAULT_MAX_VERTICES + 1)
        with pytest.raises(GraphTooLarge):
            list(iter_ordered_partitions(graph, 1))
        with pytest.raises(GraphTooLarge):
            iter_ordered_partitions(graph, 1)


def random_edges(seed, max_vertices=6):
    """A seeded graph on range(seed % (max_vertices + 1)) with a random edge density."""
    rng = random.Random(seed)
    density = rng.random()
    n = seed % (max_vertices + 1)
    pairs = itertools.combinations(range(n), 2)
    return tuple(range(n)), [p for p in pairs if rng.random() < density]


REFERENCE_CASES = [
    (graph.vertices, list(graph.edges()))
    for graph in (graph_of_datum(builder()) for builder in FAMILY_BUILDERS)
] + [random_edges(seed) for seed in range(40)]


@pytest.mark.parametrize("vertices,edges", REFERENCE_CASES)
def test_enumeration_matches_the_brute_force_reference(vertices, edges):
    assert len(vertices) <= 6
    graph = SimpleGraph(vertices, edges)
    for k in range(len(vertices) + 2):
        expected = ref.ordered_partitions(vertices, edges, k) if k else set()
        assert set(iter_ordered_partitions(graph, k)) == expected
    assert k_partition_counts(graph).counts == tuple(
        len(ref.ordered_partitions(vertices, edges, k)) for k in range(1, len(vertices) + 1)
    )


def test_brute_force_reference_on_small_cases():
    assert ref.ordered_partitions(range(3), [(0, 1), (1, 2)], 2) == {((0, 2), (1,)), ((1,), (0, 2))}
    assert ref.ordered_partitions(range(3), [(0, 1), (1, 2)], 1) == set()
    # ordered set partitions of 4 points into k blocks: 1, 14, 36, 24
    assert [len(ref.ordered_partitions(range(4), [], k)) for k in range(1, 5)] == [1, 14, 36, 24]


@pytest.mark.parametrize(
    "vertices,edges,expected",
    [
        (range(3), [(0, 1), (1, 2), (0, 2)], 2),
        (range(4), [(0, 1), (1, 2), (2, 3)], 1),
        (range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], 3),
        (range(4), list(itertools.combinations(range(4), 2)), 6),
        (range(4), [(0, 1), (2, 3)], 0),
    ],
    ids=["triangle", "P4", "C4", "K4", "two-edges"],
)
def test_k_value_on_small_graphs(vertices, edges, expected):
    assert ref.k_value(vertices, edges) == expected
    assert k_partition_counts(SimpleGraph(vertices, edges)).k_value == expected


@pytest.mark.parametrize("seed", range(60))
def test_k_value_matches_the_chromatic_polynomial(seed):
    vertices, edges = random_edges(seed, max_vertices=8)
    expected = ref.k_value(vertices, edges)
    assert k_partition_counts(SimpleGraph(vertices, edges)).k_value == expected


class TestTreeGraph:
    def test_interior_vertices_of_four_three(self):
        d = build_sl(4, 3)
        g = tree_graph_gpq(d, 2, 2)
        assert set(g.vertices) == {"a3", "nu1", "nu2"}
        assert set(g.edges()) == {("a3", "nu2"), ("nu1", "nu2")}
        assert k_partition_counts(g).k_value == 1

    def test_other_interior_index(self):
        d = build_sl(4, 3)
        g = tree_graph_gpq(d, 3, 2)
        assert set(g.vertices) == {"a1", "nu1", "nu2"}
        assert set(g.edges()) == {("a1", "nu1"), ("nu1", "nu2")}
        assert k_partition_counts(g).k_value == 1

    def test_larger_chain_sizes(self):
        d = build_sl(5, 4)
        for p in (2, 3, 4):
            for q in (2, 3):
                g = tree_graph_gpq(d, p, q)
                assert len(g) == 4 + 3 - 2
                assert g.is_connected()
                assert len(g.edges()) == len(g) - 1
                assert k_partition_counts(g).k_value == 1

    def test_rejects_boundary_indices(self):
        d = build_sl(4, 3)
        for p, q in [(1, 2), (4, 2), (2, 1), (2, 3)]:
            with pytest.raises(IndexNotInterior):
                tree_graph_gpq(d, p, q)

    def test_rejects_single_chain(self):
        with pytest.raises(IndexNotInterior):
            tree_graph_gpq(build_sl(3, 1), 2, 2)
        with pytest.raises(IndexNotInterior):
            tree_graph_gpq(build_sl(3, 2), 2, 2)

    def test_rejects_wrong_family(self):
        with pytest.raises(WrongFamily):
            tree_graph_gpq(build_osp2(2), 2, 2)
