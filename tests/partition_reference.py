"""Ordered independent partitions by brute force, for differential tests.

The library lists partitions with a bit-mask block recursion
(``superweyl.partitions``).  This module shares no code with it: it lists
every set partition of the vertices by restricted-growth strings, keeps
those whose blocks hold no edge, and takes every ordering of the blocks.
It is exponential in the vertex count; the tests run it on graphs of at
most 7 vertices.
"""

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
