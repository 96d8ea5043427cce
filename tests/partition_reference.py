"""Ordered independent partitions by brute force, and k(G) by the
chromatic polynomial, for differential tests.

The library lists partitions with a bit-mask block recursion
(``superweyl.partitions``).  This module shares no code with it: it lists
every set partition of the vertices by restricted-growth strings, keeps
those whose blocks hold no edge, and takes every ordering of the blocks.
It is exponential in the vertex count; the tests run it on graphs of at
most 7 vertices.

k(G) has a second route through the chromatic polynomial P(G, x):
k(G) = (-1)^(n+1) [x] P(G, x) on n vertices (Greene and Zaslavsky, 1983).
P comes from deletion and contraction, memoized on the graph.
"""

import functools
import itertools


def restricted_growth_strings(n):
    """Strings a with a[0] = 0 and a[i] <= 1 + max(a[:i]); one per set partition of range(n)."""
    if n == 0:
        yield ()
        return

    def extend(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from extend(prefix + [b], max(top, b))

    yield from extend([0], 0)


def ordered_partitions(vertices, edges, k):
    """Set of ordered k-partitions of ``vertices`` into blocks holding no edge.

    Blocks are tuples in the order of ``vertices``; ``edges`` are vertex pairs.
    """
    vertices = tuple(vertices)
    joined = {frozenset(e) for e in edges}
    out = set()
    for labels in restricted_growth_strings(len(vertices)):
        if len(set(labels)) != k:
            continue
        blocks = [tuple(v for v, b in zip(vertices, labels) if b == i) for i in range(k)]
        if any(
            frozenset(pair) in joined
            for block in blocks
            for pair in itertools.combinations(block, 2)
        ):
            continue
        out.update(itertools.permutations(blocks))
    return out


def chromatic_polynomial(vertices, edges):
    """Coefficients of P(G, x), lowest degree first.

    P(G) = P(G - e) - P(G / e) for an edge e; a graph with no edge on n
    vertices has P = x^n.
    """
    return _chromatic(frozenset(vertices), frozenset(frozenset(e) for e in edges))


@functools.lru_cache(maxsize=None)
def _chromatic(vertices, edges):
    if not edges:
        return (0,) * len(vertices) + (1,)
    edge = min(edges, key=sorted)
    a, b = sorted(edge)
    deleted = _chromatic(vertices, edges - {edge})
    # contract b into a; parallel edges merge in the frozenset
    merged = frozenset(
        frozenset(a if v == b else v for v in e) for e in edges if e != edge
    )
    contracted = _chromatic(vertices - {b}, merged)
    return tuple(
        d - (contracted[i] if i < len(contracted) else 0)
        for i, d in enumerate(deleted)
    )


def k_value(vertices, edges):
    """k(G) = (-1)^(n+1) times the linear coefficient of P(G, x)."""
    n = len(tuple(vertices))
    poly = chromatic_polynomial(vertices, edges)
    return (-1) ** (n + 1) * (poly[1] if len(poly) > 1 else 0)
