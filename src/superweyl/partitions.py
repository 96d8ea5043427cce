"""Independent-set partitions of small graphs.

A *k-partition* of a graph splits the vertex set into an ordered tuple of
k nonempty, pairwise disjoint, totally disconnected blocks whose union is
the whole vertex set.  Writing c_k for the number of k-partitions, the
alternating sum

    k(G) = (-1)^{|V|} * sum_k (-1)^k c_k / k

is 1 when G is connected and 0 otherwise.  This module computes the
counts c_k exactly, enumerates the partitions themselves, and builds the
fused "pair graph" used by the closed-form coefficient formulas for
two-block atypicality patterns.
"""

from __future__ import annotations

import itertools
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
from .rootdata import RootDatum, Weight

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

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def index(self, v: Vertex) -> int:
        if v not in self._index:
            raise InvalidGraph(f"unknown vertex {v!r}")
        return self._index[v]

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        return self._adj[self.vertices[self.index(v)]]

    def adjacent(self, a: Vertex, b: Vertex) -> bool:
        return b in self.neighbors(a)

    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Edges as pairs ordered by vertex position, deterministic."""
        out = []
        for i, a in enumerate(self.vertices):
            for b in self.vertices[i + 1 :]:
                if self.adjacent(a, b):
                    out.append((a, b))
        return tuple(out)

    def is_independent(self, subset: Iterable[Vertex]) -> bool:
        """True when no two members of ``subset`` are adjacent."""
        members = list(subset)
        for a, b in itertools.combinations(members, 2):
            if self.adjacent(a, b):
                return False
        return True

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


def k_partition_counts(graph: SimpleGraph) -> PartitionReport:
    """Count ordered partitions into k independent blocks for each k.

    c_k equals k! times the number of unordered partitions of the vertex
    set into exactly k nonempty independent blocks.  The unordered counts
    come from a subset dynamic program: strip the independent block that
    contains the lowest-numbered remaining vertex.
    """
    _check_size(graph)
    n = len(graph)
    if n == 0:
        return PartitionReport(counts=(), k_value=Fraction(0))

    nbr_mask = [0] * n
    for a, b in graph.edges():
        i, j = graph.index(a), graph.index(b)
        nbr_mask[i] |= 1 << j
        nbr_mask[j] |= 1 << i

    def independent_blocks(mask: int, v: int) -> Iterator[int]:
        # Independent subsets of ``mask`` containing vertex ``v``.
        rest = mask & ~((1 << (v + 1)) - 1) & ~nbr_mask[v]
        stack = [(1 << v, rest)]
        while stack:
            block, avail = stack.pop()
            yield block
            while avail:
                low = avail & -avail
                avail &= avail - 1
                w = low.bit_length() - 1
                stack.append((block | low, avail & ~nbr_mask[w]))

    full = (1 << n) - 1
    table: dict[int, list[int]] = {0: [1] + [0] * n}
    for mask in range(1, full + 1):
        v = (mask & -mask).bit_length() - 1
        row = [0] * (n + 1)
        for block in independent_blocks(mask, v):
            sub = table[mask ^ block]
            for k in range(n):
                if sub[k]:
                    row[k + 1] += sub[k]
        table[mask] = row

    unordered = table[full]
    factorial = [1] * (n + 1)
    for k in range(1, n + 1):
        factorial[k] = factorial[k - 1] * k
    counts = tuple(unordered[k] * factorial[k] for k in range(1, n + 1))

    total = sum(
        Fraction((-1) ** k * counts[k - 1], k) for k in range(1, n + 1)
    )
    k_value = Fraction((-1) ** n) * total
    return PartitionReport(counts=counts, k_value=k_value)


def iter_ordered_partitions(graph: SimpleGraph, k: int) -> Iterator[tuple[tuple[Vertex, ...], ...]]:
    """Yield every ordered k-partition into independent blocks.

    Blocks are tuples in ambient vertex order.  Unordered partitions are
    generated with blocks sorted by their lowest vertex, then every
    arrangement of the blocks is emitted, so the stream is deterministic.
    """
    _check_size(graph)
    n = len(graph)
    if k <= 0 or k > n:
        return

    nbr = {v: graph.neighbors(v) for v in graph.vertices}

    def split(remaining: list[Vertex], blocks: list[tuple[Vertex, ...]]):
        if not remaining:
            if len(blocks) == k:
                yield from itertools.permutations(blocks)
            return
        if len(blocks) == k:
            return
        head, rest = remaining[0], remaining[1:]
        others = [u for u in rest if u not in nbr[head]]
        # All independent subsets of ``others`` join ``head`` in its block.
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                if not graph.is_independent(extra):
                    continue
                block = (head, *extra)
                used = set(extra)
                blocks.append(block)
                yield from split([u for u in rest if u not in used], blocks)
                blocks.pop()

    yield from split(list(graph.vertices), [])


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

    def avec(i: int) -> Weight:
        return datum.simple_roots[alphas[i - 1]].vector

    def bvec(j: int) -> Weight:
        return datum.simple_roots[betas[j - 1]].vector

    fused = {
        "nu1": (avec(p - 1), bvec(q - 1)),
        "nu2": (avec(p), bvec(q)),
    }
    survivors: list[tuple[str, Weight]] = []
    for i in range(1, m + 1):
        if i not in (p - 1, p):
            survivors.append((f"a{i}", avec(i)))
    for j in range(1, n + 1):
        if j not in (q - 1, q):
            survivors.append((f"b{j}", bvec(j)))

    verts = [name for name, _ in survivors] + ["nu1", "nu2"]
    edges: list[tuple[str, str]] = []
    for (na, va), (nb, vb) in itertools.combinations(survivors, 2):
        if datum.inner(va, vb) != 0:
            edges.append((na, nb))
    for name, vec in survivors:
        for nu, members in fused.items():
            if any(datum.inner(vec, w) != 0 for w in members):
                edges.append((name, nu))
    edges.append(("nu1", "nu2"))

    graph = SimpleGraph(verts, edges)
    invariant(len(graph) == m + n - 2, "fused graph has the wrong vertex count")
    invariant(graph.is_connected(), "fused graph is not connected")
    invariant(len(graph.edges()) == len(graph) - 1, "fused graph is not a tree")
    return graph
