"""Even Weyl groups of root data, as exact reflection matrices.

The group attached to a :class:`~superweyl.rootdata.RootDatum` is generated
by the reflections in the even reflection generators (the simple system of
the even root system).  Elements are enumerated breadth first, so each one
carries a shortest word over the chosen generators; words and the element
order are deterministic.

Three generating sets matter downstream: all generators (the full even Weyl
group), the generators that are themselves simple roots (the subgroup used
by the atypical machinery), and the generators of one component of the even
simple diagram (the factors of the numerator factorization).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import GroupTooLarge, IndexOutOfRange
from .rootdata import RootDatum, Weight

DEFAULT_MAX_GROUP = 1_000_000
MAX_GROUP_ENV = "SUPERWEYL_MAX_GROUP"

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _identity_matrix(dim: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim)
    )


def _reflection_matrix(datum: RootDatum, alpha: Weight) -> Matrix:
    """Matrix (by rows) of the reflection in a non-isotropic root."""
    dim = datum.dim
    rows = []
    images = []
    for j in range(dim):
        e = tuple(_ONE if k == j else _ZERO for k in range(dim))
        c = datum.pairing(e, alpha)
        images.append(tuple(e[i] - c * alpha[i] for i in range(dim)))
    for i in range(dim):
        rows.append(tuple(images[j][i] for j in range(dim)))
    return tuple(rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


@dataclass(frozen=True)
class WeylElement:
    """One group element: a shortest generator word and its matrix (rows)."""

    word: tuple[int, ...]
    matrix: Matrix

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sign(self) -> int:
        """Determinant sign; generator words have the right parity."""
        return -1 if self.length % 2 else 1

    def act(self, v: Weight) -> Weight:
        """Image of an ambient vector under this element."""
        return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in self.matrix)

    def describe(self, datum: RootDatum) -> str:
        if not self.word:
            return "e"
        return "*".join(datum.generators[g].label for g in self.word)


class WeylGroup:
    """A finite reflection group with deterministic element order."""

    def __init__(self, datum: RootDatum, gids: tuple[int, ...], elements: tuple[WeylElement, ...]):
        self.datum = datum
        self.gids = gids
        self.elements = elements
        self._by_matrix = {e.matrix: e for e in elements}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[WeylElement]:
        return iter(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def element(self, matrix: Matrix) -> WeylElement:
        """The element with the given matrix; it must lie in this group."""
        try:
            return self._by_matrix[matrix]
        except KeyError:
            raise IndexOutOfRange("matrix does not belong to this group")

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self.element(_mat_mul(a.matrix, b.matrix))

    def reflection(self, gid: int) -> WeylElement:
        if gid not in self.gids:
            raise IndexOutOfRange(f"generator {gid} is not in this group")
        return self.element(_reflection_matrix(self.datum, self.datum.generators[gid].vector))

    def __repr__(self) -> str:
        return f"WeylGroup({self.datum.label}, gens={self.gids}, order={self.order})"


def _too_large(datum: RootDatum, chosen: tuple[int, ...], cap: int) -> GroupTooLarge:
    return GroupTooLarge(
        f"group on generators {chosen} of {datum.label} exceeds the cap of {cap} elements"
    )


def generate(
    datum: RootDatum,
    gids: Sequence[int] | None = None,
    max_elements: int | None = None,
) -> WeylGroup:
    """Generate the group for a set of generator ids (all of them by default).

    Enumeration is breadth first and aborts with :class:`GroupTooLarge` once
    more than ``max_elements`` elements appear (default: the
    ``SUPERWEYL_MAX_GROUP`` environment variable, else one million).
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
    cap = max_elements if max_elements is not None else max_group_cap()
    cached = datum._group_cache.get(chosen)
    if cached is not None:
        if cached.order > cap:
            raise _too_large(datum, chosen, cap)
        return cached

    refl = {g: _reflection_matrix(datum, datum.generators[g].vector) for g in chosen}
    identity = WeylElement((), _identity_matrix(datum.dim))
    seen: dict[Matrix, WeylElement] = {identity.matrix: identity}
    frontier = [identity]
    while frontier:
        new: list[WeylElement] = []
        for w in frontier:
            for g in chosen:
                m = _mat_mul(w.matrix, refl[g])
                if m not in seen:
                    if len(seen) >= cap:
                        raise _too_large(datum, chosen, cap)
                    e = WeylElement(w.word + (g,), m)
                    seen[m] = e
                    new.append(e)
        frontier = new
    elements = tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
    group = WeylGroup(datum, chosen, elements)
    datum._group_cache[chosen] = group
    return group


def full_group(datum: RootDatum, max_elements: int | None = None) -> WeylGroup:
    """The full even Weyl group."""
    return generate(datum, None, max_elements)


def pi0_group(datum: RootDatum, max_elements: int | None = None) -> WeylGroup:
    """The subgroup generated by the even members of the simple system.

    This is the full group for the sl and osp(2, 2n) families and a proper
    subgroup for B(0, n), G(3), and F(4), where the even root system has a
    simple root that the distinguished system does not contain.
    """
    gids = tuple(g.gid for g in datum.generators if g.pi_index is not None)
    return generate(datum, gids, max_elements)


def component_group(datum: RootDatum, k: int, max_elements: int | None = None) -> WeylGroup:
    """The subgroup for the k-th component of the even simple diagram, 1-based."""
    if not 1 <= k <= len(datum.components):
        raise IndexOutOfRange(
            f"component {k} out of range 1..{len(datum.components)}"
        )
    comp = set(datum.components[k - 1])
    gids = tuple(g.gid for g in datum.generators if g.pi_index in comp)
    return generate(datum, gids, max_elements)
