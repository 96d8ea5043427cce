"""Independent-set partitions of small graphs.

A *k-partition* of a graph splits the vertex set into an ordered tuple of
k nonempty, pairwise disjoint, totally disconnected blocks whose union is
the whole vertex set.  Writing c_k for the number of k-partitions, the
alternating sum

    k(G) = (-1)^{|V|} * sum_k (-1)^k c_k / k

is (-1)^{|V|+1} times the linear coefficient of the chromatic polynomial
of G (Greene and Zaslavsky): 1 on a tree, 0 on a disconnected graph, 2 on
a triangle and 6 on K4.  Diagrams are forests, so there it is 1 exactly
when G is connected.  This module computes the counts c_k exactly,
enumerates the partitions themselves, and builds the fused "pair graph"
used by the closed-form coefficient formulas for two-block atypicality
patterns.

Counting and enumeration rest on one step over vertex bit masks: strip
the independent block that holds the lowest remaining vertex.  One subset
dynamic program over that step, :func:`_partition_table`, runs both for
the counts here and for the (k, grouping) tallies of the atypical
partition sums (:func:`grouping_counts`); the enumeration recurses with
the step to list each unordered partition once, then emits its k!
orderings.  The diagram's edges, here and in the fused graph, come from
:meth:`RootDatum.adjacency`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator

from .errors import (
    GraphTooLarge,
    IndexNotInterior,
    InvalidGraph,
    WrongFamily,
    invariant,
)
from .rootdata import RootDatum

# Partition counting is exponential in the vertex count; diagrams in
# practice have at most a handful of vertices.
DEFAULT_MAX_VERTICES = 12

Vertex = Hashable


class SimpleGraph:
    """Undirected graph without loops on an ordered tuple of vertices."""

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidGraph("duplicate vertices")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for a, b in edges:
            if a not in self._index or b not in self._index:
                raise InvalidGraph(f"edge endpoint not a vertex: ({a!r}, {b!r})")
            if a == b:
                raise InvalidGraph(f"loop at vertex {a!r}")
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(adj[v]) for v in self.vertices}

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, v: Vertex) -> int:
        if v not in self._index:
            raise InvalidGraph(f"unknown vertex {v!r}")
        return self._index[v]

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        return self._adj[self.vertices[self.index(v)]]

    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Edges as pairs ordered by vertex position, deterministic."""
        vs = self.vertices
        return tuple((a, b) for i, a in enumerate(vs) for b in vs[i + 1 :] if b in self._adj[a])

    def induced(self, subset: Iterable[Vertex]) -> "SimpleGraph":
        """Subgraph on ``subset``, keeping the ambient vertex order."""
        keep = set(subset)
        unknown = keep - set(self.vertices)
        if unknown:
            raise InvalidGraph(f"unknown vertices {sorted(map(repr, unknown))}")
        verts = [v for v in self.vertices if v in keep]
        edges = [(a, b) for a, b in self.edges() if a in keep and b in keep]
        return SimpleGraph(verts, edges)

    def is_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)


def graph_of_datum(datum: RootDatum) -> SimpleGraph:
    """Diagram on the even simple positions, edges where the form is nonzero."""
    adj = datum.adjacency()
    verts = sorted(adj)
    edges = [(i, j) for i in verts for j in sorted(adj[i]) if i < j]
    return SimpleGraph(verts, edges)


def _check_size(graph: SimpleGraph) -> None:
    if len(graph) > DEFAULT_MAX_VERTICES:
        raise GraphTooLarge(
            f"graph has {len(graph)} vertices, cap is {DEFAULT_MAX_VERTICES}"
        )


@dataclass(frozen=True)
class PartitionReport:
    """Counts c_1..c_|V| of ordered k-partitions and the alternating sum."""

    counts: tuple[int, ...]
    k_value: Fraction


def _neighbour_masks(graph: SimpleGraph) -> list[int]:
    """Bit mask of each vertex's neighbours, by vertex position."""
    return [sum(1 << graph._index[w] for w in graph._adj[v]) for v in graph.vertices]


def _independent_blocks(nbr: list[int], mask: int, v: int) -> Iterator[int]:
    """Independent subsets of ``mask`` that contain its lowest vertex ``v``."""
    rest = mask & ~((1 << (v + 1)) - 1) & ~nbr[v]
    stack = [(1 << v, rest)]
    while stack:
        block, avail = stack.pop()
        yield block
        while avail:
            low = avail & -avail
            avail &= avail - 1
            w = low.bit_length() - 1
            stack.append((block | low, avail & ~nbr[w]))


def _partition_table(graph: SimpleGraph, member_bits: int = 0) -> dict[frozenset[int], list[int]]:
    """Unordered partitions of ``graph`` by their cut set, then by block count.

    A partition's cut set is the frozenset of its nonempty block cuts by
    the vertices in ``member_bits``, as bit masks; with no members the
    empty cut set is the only key.  Each row maps a cut set to the count
    of partitions with k blocks at index k.  ``rows(mask)`` holds the rows
    of ``mask``; each step strips the independent block that holds the
    lowest vertex, and only the masks that stripping reaches from the whole
    graph are tabulated.  This is the one subset dynamic program.
    """
    _check_size(graph)
    n = len(graph)
    nbr = _neighbour_masks(graph)

    @functools.cache
    def rows(mask: int) -> dict[frozenset[int], list[int]]:
        if not mask:
            return {frozenset(): [1] + [0] * n}
        # the rows of each stripped rest, summed by the cut set they reach
        acc: dict[frozenset[int], list[int]] = {}
        for block in _independent_blocks(nbr, mask, (mask & -mask).bit_length() - 1):
            cut = block & member_bits
            for cuts, sub in rows(mask ^ block).items():
                key = cuts | {cut} if cut else cuts
                acc[key] = list(map(operator.add, acc[key], sub)) if key in acc else sub
        # one more block each
        return {cuts: [0, *row[:-1]] for cuts, row in acc.items()}

    return rows((1 << n) - 1)


def k_partition_counts(graph: SimpleGraph) -> PartitionReport:
    """Count ordered partitions into k independent blocks for each k.

    c_k equals k! times the number of unordered partitions of the vertex
    set into exactly k nonempty independent blocks, read from the one row
    of :func:`_partition_table` without members.
    """
    unordered = _partition_table(graph)[frozenset()]
    n = len(graph)
    counts = tuple(unordered[k] * math.factorial(k) for k in range(1, n + 1))

    total = sum(Fraction((-1) ** k * counts[k - 1], k) for k in range(1, n + 1))
    k_value = Fraction((-1) ** n) * total
    return PartitionReport(counts=counts, k_value=k_value)


def grouping_counts(graph: SimpleGraph, members: frozenset) -> Counter:
    """Ordered k-partitions of ``graph`` tallied by (k, grouping).

    A partition's grouping is the frozenset of its nonempty block cuts by
    ``members``, each a frozenset of vertices; the atypical partition sums
    see a partition only through k and its grouping.  The counts are the
    rows of :func:`_partition_table`, each unordered k-partition taken k!
    times for its orderings.
    """
    verts = graph.vertices
    member_bits = sum(1 << i for i, v in enumerate(verts) if v in members)

    def group(cut: int) -> frozenset:
        return frozenset(v for i, v in enumerate(verts) if cut >> i & 1)

    return Counter({
        (k, frozenset(map(group, cuts))): row[k] * math.factorial(k)
        for cuts, row in _partition_table(graph, member_bits).items()
        for k in range(1, len(verts) + 1)
        if row[k]
    })


def iter_ordered_partitions(graph: SimpleGraph, k: int) -> Iterator[tuple[tuple[Vertex, ...], ...]]:
    """Iterate over every ordered k-partition into independent blocks.

    Blocks are tuples in ambient vertex order.  The unordered partitions
    come from the same block recursion as :func:`k_partition_counts`, with
    blocks sorted by their lowest vertex; every arrangement of each one is
    emitted in turn, so the stream is deterministic.  This returns an
    iterator rather than being a generator, so the vertex cap is checked
    (and :class:`GraphTooLarge` raised) on the call itself.
    """
    _check_size(graph)
    n = len(graph)
    if not 0 < k <= n:
        return iter(())
    verts, nbr = graph.vertices, _neighbour_masks(graph)

    def block(mask: int) -> tuple[Vertex, ...]:
        return tuple(verts[i] for i in range(n) if mask >> i & 1)

    def split(mask: int, left: int) -> Iterator[tuple[tuple[Vertex, ...], ...]]:
        # unordered partitions of ``mask`` into ``left`` blocks, lowest vertex first
        if not left or mask.bit_count() < left:
            if not (left or mask):
                yield ()
            return
        v = (mask & -mask).bit_length() - 1
        for head in _independent_blocks(nbr, mask, v):
            for rest in split(mask ^ head, left - 1):
                yield (block(head), *rest)

    unordered = split((1 << n) - 1, k)
    return itertools.chain.from_iterable(map(itertools.permutations, unordered))


def tree_graph_gpq(datum: RootDatum, p: int, q: int) -> SimpleGraph:
    """Fused diagram tracking the two-pair blocks at interior (p, q).

    For the family with diagram A_m + A_n (two chains ``a1..am`` and
    ``b1..bn``) and interior indices 2 <= p <= m, 2 <= q <= n, the graph
    keeps the chain vertices other than a_{p-1}, a_p, b_{q-1}, b_q and
    adds fused vertices nu1 = {a_{p-1}, b_{q-1}} and nu2 = {a_p, b_q}.
    A chain vertex meets a fused vertex when the form pairs it with
    either member; the two fused vertices are always joined.  The result
    is a tree on m + n - 2 vertices.
    """
    if datum.family != "sl":
        raise WrongFamily(
            f"pair graph needs the two-chain family, got {datum.family!r}"
        )
    comps = datum.components
    if len(comps) != 2:
        raise IndexNotInterior(
            "pair graph needs two diagram components"
        )
    alphas, betas = comps
    m, n = len(alphas), len(betas)
    if not (2 <= p <= m) or not (2 <= q <= n):
        raise IndexNotInterior(
            f"(p, q) = ({p}, {q}) is not interior for chains of sizes"
            f" ({m}, {n})"
        )

    adj = datum.adjacency()
    fused = {
        "nu1": (alphas[p - 2], betas[q - 2]),
        "nu2": (alphas[p - 1], betas[q - 1]),
    }
    survivors = [
        (f"a{i}", pos) for i, pos in enumerate(alphas, 1) if i not in (p - 1, p)
    ] + [(f"b{j}", pos) for j, pos in enumerate(betas, 1) if j not in (q - 1, q)]

    verts = [name for name, _ in survivors] + ["nu1", "nu2"]
    edges = [
        (na, nb)
        for (na, pa), (nb, pb) in itertools.combinations(survivors, 2)
        if pb in adj[pa]
    ]
    edges += [
        (name, nu)
        for name, pos in survivors
        for nu, members in fused.items()
        if adj[pos].intersection(members)
    ]
    edges.append(("nu1", "nu2"))

    graph = SimpleGraph(verts, edges)
    invariant(len(graph) == m + n - 2, "fused graph has the wrong vertex count")
    invariant(graph.is_connected(), "fused graph is not connected")
    invariant(len(graph.edges()) == len(graph) - 1, "fused graph is not a tree")
    return graph
