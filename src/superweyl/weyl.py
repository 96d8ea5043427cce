"""Even Weyl groups of root data, as trees over integer generator labels.

The group attached to a :class:`~superweyl.rootdata.RootDatum` is generated
by the reflections in the even reflection generators (the simple system of
the even root system).  No matrices are formed: s_k acts on the labels
a_i = <v, g_i^vee> of a vector v by a <- a - a_k * A[k], with the integer
Cartan rows A[k][i] = <g_k, g_i^vee> of ``datum.generator_cartan``.

Enumeration is breadth first from the regular point whose labels are all
1, reflecting only at a positive label (which lengthens the word) and
deduplicating by label tuple.  A group is three parallel int lists:
``parents`` (the element one letter shorter), ``letters`` (the gid of that
last letter) and ``lengths``.  The parents spell each element's least
reduced word, a word is built only to print the ``group`` table, and
elements are ordered by (length, word).  Orbit sums are one pass down this
tree (:func:`orbit_drops`), which takes the weight's label numerators over
one denominator, in place of the weight itself, and keeps that denominator.

Three generating sets matter downstream: all generators (the full even Weyl
group), the generators that are themselves simple roots (the subgroup used
by the atypical machinery), and the generators of one component of the even
simple diagram (the factors of the numerator factorization).
"""

from __future__ import annotations

import os
from typing import Sequence

from .errors import GroupTooLarge, IndexOutOfRange, MalformedDatumFile
from .rootdata import RootDatum

DEFAULT_MAX_GROUP = 1_000_000
MAX_GROUP_ENV = "SUPERWEYL_MAX_GROUP"


def max_group_cap() -> int:
    """Element cap for group generation, from the environment."""
    raw = os.environ.get(MAX_GROUP_ENV)
    if raw is None:
        return DEFAULT_MAX_GROUP
    try:
        cap = int(raw)
    except ValueError:
        raise GroupTooLarge(f"{MAX_GROUP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise GroupTooLarge(f"{MAX_GROUP_ENV} must be positive, got {cap}")
    return cap


def sign(length: int) -> int:
    """Determinant sign of a group element of this length."""
    return -1 if length % 2 else 1


class WeylGroup:
    """A finite reflection group; element 0 is the identity, with parent and letter -1."""

    def __init__(self, datum: RootDatum, gids: tuple[int, ...], parents: list[int],
                 letters: list[int], lengths: list[int]):
        self.datum = datum
        self.gids = gids
        self.parents = parents
        self.letters = letters
        self.lengths = lengths

    @property
    def order(self) -> int:
        return len(self.parents)

    def __len__(self) -> int:
        return len(self.parents)

    def word(self, i: int) -> tuple[int, ...]:
        """Generator ids of element i's least reduced word, read off its parents."""
        word = []
        while i > 0:
            word.append(self.letters[i])
            i = self.parents[i]
        return tuple(reversed(word))

    def describe(self, i: int) -> str:
        """Element i's word in generator labels joined by '*', or 'e'."""
        return "*".join(self.datum.generators[g].label for g in self.word(i)) or "e"

    def __repr__(self) -> str:
        return f"WeylGroup({self.datum.label}, gens={self.gids}, order={self.order})"


def _too_large(datum: RootDatum, chosen: tuple[int, ...], cap: int) -> GroupTooLarge:
    return GroupTooLarge(
        f"group on generators {chosen} of {datum.label} exceeds the cap of {cap} elements"
    )


def _cartan_rows(datum: RootDatum, gids: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Rows A[k][i] = <g_k, g_i^vee> restricted to the chosen generators."""
    return [tuple(datum.generator_cartan[k][i] for i in gids) for k in gids]


def generate(datum: RootDatum, gids: Sequence[int] | None = None) -> WeylGroup:
    """Generate the group for a set of generator ids (all of them by default).

    Enumeration is breadth first and aborts with :class:`GroupTooLarge` once
    more elements appear than the cap (the ``SUPERWEYL_MAX_GROUP``
    environment variable, else one million), and with :class:`MalformedDatumFile`
    once a reduced word outgrows the positive even roots (the group is infinite).
    Results are cached on the datum per generator set; the cap is read on
    every call, so a cached group larger than the current cap raises
    :class:`GroupTooLarge` too.
    """
    if gids is None:
        chosen = tuple(g.gid for g in datum.generators)
    else:
        chosen = tuple(sorted(set(gids)))
        for g in chosen:
            if not 0 <= g < len(datum.generators):
                raise IndexOutOfRange(f"generator id {g} out of range")
    cap = max_group_cap()
    cached = datum._group_cache.get(chosen)
    if cached is not None:
        if cached.order > cap:
            raise _too_large(datum, chosen, cap)
        return cached

    rows = _cartan_rows(datum, chosen)
    bound = len(datum.positive_even)  # a reduced word crosses each positive root at most once
    start = (1,) * len(chosen)
    labels = [start]
    seen = {start}
    parents, letters, lengths = [-1], [-1], [0]
    # A FIFO queue visits each level in discovery order, which is word order,
    # so the first word to reach an element is its least reduced word.
    head = 0
    while head < len(labels):
        a, length = labels[head], lengths[head] + 1
        for p, g in enumerate(chosen):
            c = a[p]
            if c <= 0:
                continue
            b = tuple(x - c * y for x, y in zip(a, rows[p]))
            if b in seen:
                continue
            if len(labels) >= cap:
                raise _too_large(datum, chosen, cap)
            if length > bound:
                raise MalformedDatumFile(f"group on generators {chosen} of {datum.label} is infinite")
            seen.add(b)
            labels.append(b)
            parents.append(head)
            letters.append(g)
            lengths.append(length)
        head += 1
    group = WeylGroup(datum, chosen, parents, letters, lengths)
    datum._group_cache[chosen] = group
    return group


def orbit_drops(group: WeylGroup, labels: Sequence[int]) -> list[tuple[int, ...]]:
    """Simple-root coordinates of eta - w^-1 eta, element by element, times D.

    ``labels`` are the numerators over one denominator D of the labels
    <eta, g^vee> of eta for every generator of the datum, in gid order; the
    group reads the ones of its own generators.  One pass down the
    ``parents`` and ``letters`` arrays: a child with last letter k gets
    drop(child) = drop(parent) + a_k(parent) * g_k.coords (g_k over the
    simple roots), where a(parent) are the labels of the parent's image of
    eta.  Drops are linear in the labels, so they are integer numerators
    over D too, which :func:`~superweyl.series.weight_monomial` checks.
    As w runs over the group so does w^-1, with the same sign, so the list,
    indexed like the group's arrays, gives an orbit sum; that sum is
    :func:`superweyl.numerator._orbit_sum`, typical and atypical alike.
    """
    datum = group.datum
    rows = _cartan_rows(datum, group.gids)
    coords = [datum.generators[g].coords for g in group.gids]
    position = {g: p for p, g in enumerate(group.gids)}
    state = [(tuple(labels[g] for g in group.gids), (0,) * len(datum.simple_roots))]
    for parent, g in zip(group.parents[1:], group.letters[1:]):
        a, d = state[parent]
        p = position[g]
        c = a[p]
        state.append((
            tuple(x - c * y for x, y in zip(a, rows[p])),
            tuple(x + c * y for x, y in zip(d, coords[p])),
        ))
    return [d for _, d in state]


def full_group(datum: RootDatum) -> WeylGroup:
    """The full even Weyl group."""
    return generate(datum)


def pi0_group(datum: RootDatum) -> WeylGroup:
    """The subgroup generated by the even members of the simple system.

    This is the full group for the sl and osp(2, 2n) families and a proper
    subgroup for B(0, n), G(3), and F(4), where the even root system has a
    simple root that the distinguished system does not contain.
    """
    return generate(datum, sum(datum.component_gids, ()))


def component_group(datum: RootDatum, k: int) -> WeylGroup:
    """The subgroup for the k-th component of the even simple diagram, 1-based."""
    if not 1 <= k <= len(datum.components):
        raise IndexOutOfRange(
            f"component {k} out of range 1..{len(datum.components)}"
        )
    return generate(datum, datum.component_gids[k - 1])
