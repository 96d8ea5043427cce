"""Exact root data for basic classical Lie superalgebras.

A :class:`RootDatum` packages an ambient rational vector space with an
invariant bilinear form, the distinguished simple system, and the positive
even and odd roots of one algebra.  Everything downstream (Weyl groups,
numerators, atypical coefficients) reads off this object, so construction
validates the structural invariants once and the rest of the package can
assume them.

Built-in families:

* ``sl(p, q)``   with ``p, q >= 1`` and ``(p, q)`` not ``(1, 1)`` or ``(2, 2)``
* ``B(0, n)``    i.e. ``osp(1, 2n)`` with ``n >= 2``
* ``osp(2, 2n)`` with ``n >= 1``
* ``G(3)`` and ``F(4)``

Other data (``B(m, n)``, ``D(m, n)``, ...) can be supplied through datum
files; see :func:`datum_from_text`.

Builders and datum files hand the datum plain vectors: a root's parity is
the list it is in (simple roots carry a declared parity, checked against
those lists) and its isotropy is read off the form.

Vectors, the form and every derived weight are exact
:class:`fractions.Fraction` tuples (``as_weight`` refuses floats, and so
does construction, in the Gram matrix and the root vectors).  Every
pairing with a root is a dot product with rows built once at construction:

* the Gram rows, as (column, entry) pairs of their non-zero entries,
  through which ``inner`` sums over the non-zero entries of its first
  vector (the Gram matrix need not be diagonal, as on G(3));
* one dense integer coroot row per reflection generator, all over the one
  denominator ``_coroot_den``, the only generator pairing: ``labels(v)``
  gives the <v, g^vee> in gid order;
* one dense integer form row per isotropic positive odd root gamma, over
  the one denominator ``_form_den``: ``atypicality`` keeps the gamma with
  (lam + rho, gamma) = 0.

A weight meets those rows as its numerators over the lcm of its
denominators (lam + rho over the lcm with rho's), so each pairing is an
integer dot product over a known denominator.  ``labels``,
``atypicality``, ``is_typical``, ``is_dominant_integral``,
the dominant walk of :mod:`superweyl.numerator`,
:func:`~superweyl.numerator.x_signature` and the factor keys of
:mod:`superweyl.unifac` all work this way; all but ``labels`` keep the
numerators and their denominator, down to the orbit sums' drops.

Construction itself runs in integers.  The root vectors are scaled once by
the common denominator of their entries (F(4) needs 2), and the Gram matrix
by that of its entries, so every pairing made while building is an integer
sum, a fixed positive multiple of the true pairing: zero tests, signs and
ratios read the same.  One fraction-free solver (Bareiss elimination,
``_Solver``) over the scaled simple roots serves every linear solve: root
coordinates, the independence of the even generators, ``expand_simple`` and
the Cartan solve of ``fundamental_weight``.  The coroot and isotropic rows
are those integers over their denominators; the Gram rows and the public
vectors (``Root.vector``, ``rho``, ``tau``, ``Generator.vector``) are exact
``Fraction`` weights rebuilt from them.

The integer data are plain ints, each computed once at construction:

* ``Root.coords``, a root's coordinates over the simple roots: integer dot
  products with the solver's rows and one exact division, checked to be
  non-negative integers there;
* ``Generator.coords``, the same for each even reflection generator (the
  generators are even roots, so they carry their roots' coordinates);
* ``generator_cartan``, the rows <g_k, g_i^vee>, checked integral;
* the diagram, read off that Cartan matrix: for non-isotropic a and b,
  (a, b) != 0 exactly when <a, b^vee> != 0, so ``adjacency()`` and
  ``components`` (the even simple roots) and ``generator_blocks`` (all
  generators) are its non-zero pattern and its connected components;
* ``odd_reflections``, per generator g the index in ``positive_odd`` of each
  s_g(gamma), None where that is no positive odd root: how the even Weyl
  group moves the atypicality types of :mod:`superweyl.atypical`.

The structure of a datum is fixed at construction, the even fundamental
weights included, but two private caches on it fill lazily:
``_group_cache`` (Weyl groups per generator set, see
:func:`superweyl.weyl.generate`) and ``_key_table`` (the full factor keys,
signature and block keys, whose factors have been built once, one entry per
distinct key rather than per weight; no factor polynomial is kept, see
:mod:`superweyl.unifac`).  Nothing guards them against concurrent writers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedDatumFile,
    UnsupportedFamily,
    WeightParseError,
)

Weight = tuple[Fraction, ...]
_Row = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)


def _exact(entry: object) -> Fraction:
    """One weight entry as an exact rational: ints and rational strings convert."""
    if isinstance(entry, float):
        raise WeightParseError(f"weight entry {entry!r} is a float; weights are exact")
    try:
        return Fraction(entry)
    except (TypeError, ValueError, ZeroDivisionError):
        raise WeightParseError(f"weight entry {entry!r} is not a rational number") from None


def as_weight(entries: Iterable[Fraction | int | str]) -> Weight:
    """Coerce a sequence of rationals to a weight tuple.

    ``Fraction`` entries are kept as they are.  A float, or an entry that
    ``Fraction`` refuses, raises :class:`WeightParseError`.
    """
    try:
        entries = tuple(entries)
    except TypeError:
        raise WeightParseError(f"weight {entries!r} is not a sequence of rationals") from None
    return tuple(e if isinstance(e, Fraction) else _exact(e) for e in entries)


def _exact_vector(v: Sequence) -> Sequence:
    """v itself when its entries are ints and Fractions, else ``as_weight(v)``."""
    return v if all(type(x) in (int, Fraction) for x in v) else as_weight(v)


def zero_weight(dim: int) -> Weight:
    return (ZERO,) * dim


def vadd(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise DimensionMismatch(f"cannot add vectors of length {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise DimensionMismatch(f"cannot subtract vectors of length {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction | int, v: Weight) -> Weight:
    c = Fraction(c)
    return tuple(c * a for a in v)


def _over_lcm(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(numerators, d) with v = numerators / d, d the lcm of the denominators of v.

    Entries must be ints or Fractions; a float or a string raises
    :class:`WeightParseError`, as in :func:`as_weight`.
    """
    try:
        d = math.lcm(*[x.denominator for x in v])
    except (AttributeError, TypeError):
        raise WeightParseError(f"weight {v!r} has an entry that is not an exact rational") from None
    return [x.numerator * (d // x.denominator) for x in v], d


def _sparse(entries: Iterable[Fraction]) -> _Row:
    """The (index, entry) pairs of the non-zero entries."""
    return tuple((j, x) for j, x in enumerate(entries) if x)


def _dot(row: _Row, v: Sequence[Fraction | int]) -> Fraction | int:
    """A sparse row dotted with a vector: an int when both are integers."""
    return sum(x * v[j] for j, x in row)


def _combine(coeffs: Sequence[Fraction | int], rows: Sequence[_Row], dim: int) -> list:
    """sum_j coeffs[j] * rows[j] over sparse rows, as a dense list of length dim."""
    acc = [0] * dim
    for a, row in zip(coeffs, rows):
        if a:
            for j, x in row:
                acc[j] += a * x
    return acc


def _linked_classes(nodes: Iterable[int], linked) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph ``linked(u, v)`` on ``nodes``, by smallest node."""
    classes: list[tuple[int, ...]] = []
    for v in nodes:
        joined = [c for c in classes if any(linked(u, v) for u in c)]
        classes = [c for c in classes if c not in joined] + [tuple(sorted(sum(joined, (v,))))]
    return tuple(sorted(classes))


@dataclass(frozen=True)
class Root:
    """One root of a :class:`RootDatum`: its ambient vector, parity, isotropy, and
    coordinates over the distinguished simple system.

    Only the datum builds roots, reading the isotropy off its own form and
    solving the coordinates once (non-negative integers).
    """

    vector: Weight
    odd: bool
    isotropic: bool
    coords: tuple[int, ...]


@dataclass(frozen=True)
class Generator:
    """A reflection generator of the even Weyl group.

    ``pi_index`` is the position in the distinguished simple system when the
    generator is itself a simple root, and ``None`` for the extra even-part
    simple roots that occur in B(0, n), G(3), and F(4).  ``coords`` are the
    simple-root coordinates of the even root it reflects in.
    """

    gid: int
    vector: Weight
    pi_index: int | None
    label: str
    coords: tuple[int, ...]


class Dominance(Enum):
    """Tri-state verdict of the dominance check.

    ``NECESSARY_ONLY`` means the even-simple pairing conditions hold but the
    family has extra finite-dimensionality conditions this package does not
    encode, so dominance is necessary-but-unconfirmed.
    """

    NO = "no"
    YES = "yes"
    NECESSARY_ONLY = "necessary-only"


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _common_denominator(entries: Iterable[Fraction | int]) -> int:
    return math.lcm(*{x.denominator for x in entries})


def _scaled(v: Iterable[Fraction | int], scale: int) -> tuple[int, ...]:
    """scale * v as integers; scale must be a multiple of every denominator of v."""
    return tuple(x.numerator * (scale // x.denominator) for x in v)


class _Solver:
    """Exact coordinates over a fixed list of linearly independent integer columns.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [M | I] keeps every
    entry an integer: each step replaces a row by (p a - f b) / p_prev, an
    exact division by the previous pivot.  It ends with an integer E and the
    last pivot d such that E M = [d I; 0].  For any v, the first ``rank``
    entries of E v are d times the coefficients c with M c = v, and v lies in
    the span exactly when the remaining entries vanish.  E is stored as
    sparse columns, so E v costs one pass over the non-zero entries of v.
    """

    def __init__(self, columns: Sequence[Sequence[int]], name: str):
        self.name = name
        dim = len(columns[0]) if columns else 0
        self.rank = len(columns)
        aug = [
            [col[r] for col in columns] + [int(i == r) for i in range(dim)] for r in range(dim)
        ]
        prev = 1
        for k in range(self.rank):
            pivot = next((r for r in range(k, dim) if aug[r][k]), None)
            if pivot is None:
                raise MalformedDatumFile(f"{name} are linearly dependent")
            aug[k], aug[pivot] = aug[pivot], aug[k]
            top = aug[k]
            p = top[k]
            for r in range(dim):
                if r != k:
                    f = aug[r][k]
                    aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], top)]
            prev = p
        self.det = prev
        self._dim = dim
        self._columns = [_sparse(col) for col in zip(*(row[self.rank :] for row in aug))]

    def numerators(self, v: Sequence[Fraction | int]) -> list:
        """d times the coefficients of v over the columns; off the span it raises."""
        ev = _combine(v, self._columns, self._dim)
        if any(ev[self.rank :]):
            raise MalformedDatumFile(f"vector does not lie in the span of the {self.name}")
        return ev[: self.rank]

    def integer_coefficients(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """The coefficients of v over the columns, or None unless all are integers."""
        out = []
        for n in self.numerators(v):
            q, r = divmod(n, self.det)
            if r:
                return None
            out.append(q)
        return tuple(out)


# ---------------------------------------------------------------------------
# the datum


class RootDatum:
    """Root datum of one basic classical Lie superalgebra.

    Parameters mirror the datum file format: a Gram matrix for the invariant
    form on the ambient space, the distinguished simple system as
    ``(vector, odd)`` pairs, and the positive even and odd roots as vectors.
    The datum builds every :class:`Root` itself: a positive root's parity is
    the list it is in, and each root is isotropic exactly when the form
    vanishes on it.  Each declared simple parity is checked against the
    positive lists.  The Weyl vector, the sum of positive odd roots, the
    even-part reflection generators, and the components of the even simple
    diagram are derived and validated here.

    Construction works in integers.  The roots are scaled once by the common
    denominator of their entries, and the Gram matrix by that of its entries,
    so every pairing below is an integer sum, a fixed positive multiple of
    the true one, and zero tests and ratios read the same.  One
    fraction-free solver over the scaled simple roots gives each root's
    coordinates as integer dot products and one exact division.  The public
    vectors (``Root.vector``, ``rho``, ``tau``, ``Generator.vector``) are
    exact ``Fraction`` weights rebuilt from those integers; the coroot and
    isotropic rows stay integers, each set over one denominator.
    """

    def __init__(
        self,
        family: str,
        label: str,
        gram: Sequence[Sequence[Fraction | int | str]],
        simple_roots: Sequence[tuple[Weight, bool]],
        positive_even: Sequence[Weight],
        positive_odd: Sequence[Weight],
        basis_labels: Sequence[str] | None = None,
    ):
        self.family = family
        self.label = label
        gram = [_exact_vector(row) for row in gram]
        # one Fraction per distinct entry
        exact = {x: Fraction(x) for x in set(itertools.chain(*gram))}.__getitem__
        self.gram = tuple(tuple(map(exact, row)) for row in gram)
        self._gram_rows = tuple(map(_sparse, self.gram))
        self.dim = len(self.gram)
        if basis_labels is None:
            basis_labels = tuple(f"x{i + 1}" for i in range(self.dim))
        self.basis_labels = tuple(basis_labels)

        vectors = ([v for v, _ in simple_roots], positive_even, positive_odd)
        lists = [list(map(_exact_vector, vs)) for vs in vectors]
        self._validate_shapes(*lists)
        scale = self._scale = _common_denominator(itertools.chain(*itertools.chain(*lists)))
        gram_scale = _common_denominator(itertools.chain(*self.gram))
        self._int_gram = tuple(_sparse(_scaled(row, gram_scale)) for row in self.gram)
        simple_iv, even_iv, odd_iv = ([_scaled(v, scale) for v in vs] for vs in lists)
        self._simple_solver = _Solver(simple_iv, "simple roots")

        # one Fraction per distinct scaled entry, shared by every root vector
        entries = set(itertools.chain(*simple_iv, *even_iv, *odd_iv))
        unscale = {x: Fraction(x, scale) for x in entries}.__getitem__

        def root(iv: tuple[int, ...], odd: bool) -> Root:
            return self._root(tuple(map(unscale, iv)), iv, odd)

        self.simple_roots = tuple(root(iv, odd) for iv, (_, odd) in zip(simple_iv, simple_roots))
        self.positive_even = tuple(root(iv, False) for iv in even_iv)
        self.positive_odd = tuple(root(iv, True) for iv in odd_iv)
        self._validate_root_lists(even_iv, odd_iv)

        # rho is half the sum of the positive even roots minus the odd ones
        tau = [sum(v[j] for v in odd_iv) for j in range(self.dim)]
        two_rho = [sum(v[j] for v in even_iv) - t for j, t in enumerate(tau)]
        self.tau: Weight = tuple(Fraction(x, scale) for x in tau)
        self.rho: Weight = tuple(Fraction(x, 2 * scale) for x in two_rho)

        self.even_positions: tuple[int, ...] = tuple(
            i for i, r in enumerate(self.simple_roots) if not r.odd
        )

        self.generators: tuple[Generator, ...] = self._build_generators()
        # The generators are the indecomposable positive even roots, so by
        # induction on height every positive even root is a non-negative
        # integer sum of them; only their independence needs a check, made
        # on their simple-root coordinates.
        _Solver([g.coords for g in self.generators], "even generators")

        self._group_cache: dict[object, object] = {}
        self._key_table: set[tuple] = set()

        gen_iv = [_scaled(g.vector, scale) for g in self.generators]
        self._validate(simple_iv, gen_iv, two_rho)

        # <v, g^vee> = 2 (v, g) / (g, g) is a dot product of v with the
        # coroot row of g: the integer form row Gram g times 2 scale over its
        # pairing, all rows brought over one denominator.
        gen_rows = [self._int_form_row(iv) for iv in gen_iv]
        gen_norms = [_dot(row, iv) for row, iv in zip(gen_rows, gen_iv)]
        coroots = [[Fraction(2 * scale * x, norm) for x in _combine(iv, self._int_gram, self.dim)]
                   for iv, norm in zip(gen_iv, gen_norms)]
        self._coroot_den = _common_denominator(itertools.chain(*coroots))
        self._coroot_rows = tuple(_scaled(row, self._coroot_den) for row in coroots)
        # (v, gamma) of each isotropic positive odd root gamma: its integer
        # form row over gram_scale * scale.
        self._form_den = gram_scale * scale
        self._isotropic_rows = tuple(
            (i, tuple(_combine(iv, self._int_gram, self.dim)))
            for i, (r, iv) in enumerate(zip(self.positive_odd, odd_iv)) if r.isotropic
        )
        self._rho_over = _over_lcm(self.rho)
        # Integer Cartan rows <g_k, g_i^vee> for the label walks of superweyl.weyl.
        self.generator_cartan: tuple[tuple[int, ...], ...] = self._generator_cartan(
            gen_iv, gen_rows, gen_norms
        )
        self.odd_reflections = self._odd_reflections(odd_iv, gen_rows, gen_norms)
        # Connected components of the Cartan matrix, as gids: the even Weyl
        # group is the direct product of their subgroups, so the numerator
        # is the product of one orbit sum per block.  G(3) and F(4) have two
        # blocks on one diagram component (2 delta and delta are orthogonal
        # to G_2 and B_3).
        self.generator_blocks: tuple[tuple[int, ...], ...] = _linked_classes(
            range(len(self.generators)), lambda u, v: self.generator_cartan[u][v] != 0
        )
        adj = self.adjacency()
        self.components: tuple[tuple[int, ...], ...] = _linked_classes(
            self.even_positions, lambda u, v: v in adj[u]
        )
        if len(self.components) not in (1, 2):
            raise MalformedDatumFile(
                f"even simple diagram has {len(self.components)} components; expected 1 or 2"
            )
        self._fundamental_weights = self._solve_fundamental_weights()

    # -- construction helpers ------------------------------------------------

    def _root(self, v: Weight, iv: tuple[int, ...], odd: bool) -> Root:
        """The root on v (scaled: iv), isotropic when the form vanishes on it."""
        coords = self._simple_solver.integer_coefficients(iv)
        if coords is None or any(c < 0 for c in coords):
            raise MalformedDatumFile(
                f"positive root {self.format_weight(v)} is not a non-negative integer "
                "combination of the simple roots"
            )
        return Root(v, odd, self._int_pairing(iv, iv) == 0, coords)

    def _int_form_row(self, iv: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Gram iv over the scaled Gram matrix, as (column, entry) pairs."""
        return _sparse(_combine(iv, self._int_gram, self.dim))

    def _int_pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """The form on scaled vectors: a fixed positive multiple of (u, v)."""
        return sum(a * _dot(row, v) for a, row in zip(u, self._int_gram) if a)

    def _validate_shapes(self, *vector_lists: Sequence[Weight]) -> None:
        if any(len(row) != self.dim for row in self.gram):
            raise MalformedDatumFile("gram matrix is not square")
        if self.gram != tuple(zip(*self.gram)):
            raise MalformedDatumFile("gram matrix is not symmetric")
        for v in itertools.chain(*vector_lists):
            if len(v) != self.dim:
                raise DimensionMismatch(
                    f"root {self.format_weight(v)} has length {len(v)}, "
                    f"ambient dimension is {self.dim}"
                )
        if len(self.basis_labels) != self.dim:
            raise MalformedDatumFile("basis label count does not match ambient dimension")

    def _validate_root_lists(self, *scaled_lists: Sequence[tuple[int, ...]]) -> None:
        """No zero and no repeated positive root; checked before generators are derived."""
        seen: set[tuple[int, ...]] = set()
        roots = itertools.chain(self.positive_even, self.positive_odd)
        for r, iv in zip(roots, itertools.chain(*scaled_lists)):
            if not any(iv):
                raise MalformedDatumFile("zero vector listed as a root")
            if iv in seen:
                raise MalformedDatumFile(f"duplicate positive root {self.format_weight(r.vector)}")
            seen.add(iv)

    def _build_generators(self) -> tuple[Generator, ...]:
        """Simple system of the even root system.

        The even members of the distinguished system are always part of it;
        for B(0, n), G(3), and F(4) one extra indecomposable positive even
        root appears (2 delta_n, 2 delta, and delta respectively).  A root
        decomposes when its coordinates minus another root's are a root's.
        """
        coords = {r.coords for r in self.positive_even}

        def decomposable(r: Root) -> bool:
            return any(
                tuple(a - b for a, b in zip(r.coords, s.coords)) in coords
                for s in self.positive_even
                if s.coords != r.coords
            )

        simple_even = [self.simple_roots[i] for i in self.even_positions]
        simple_coords = {r.coords for r in simple_even}
        extras = sorted(
            (r for r in self.positive_even
             if r.coords not in simple_coords and not decomposable(r)),
            key=lambda r: r.vector,
        )
        pi_indices = self.even_positions + (None,) * len(extras)
        return tuple(
            Generator(gid, r.vector, pi, f"s{gid + 1}", r.coords)
            for gid, (r, pi) in enumerate(zip(simple_even + extras, pi_indices))
        )

    def _generator_cartan(self, gen_iv, gen_rows, gen_norms) -> tuple[tuple[int, ...], ...]:
        """<g_k, g_i^vee> = 2 (g_k, g_i) / (g_i, g_i) from the scaled pairings, checked integral."""
        rows = []
        for g, iv in zip(self.generators, gen_iv):
            row = []
            for h, h_row, norm in zip(self.generators, gen_rows, gen_norms):
                c, r = divmod(2 * _dot(h_row, iv), norm)
                if r:
                    raise MalformedDatumFile(
                        f"Cartan entry <{g.label}, {h.label}^vee> = "
                        f"{Fraction(2 * _dot(h_row, iv), norm)} is not an integer"
                    )
                row.append(c)
            rows.append(tuple(row))
        return tuple(rows)

    def _odd_reflections(self, odd_iv, gen_rows, gen_norms) -> tuple[tuple[int | None, ...], ...]:
        """Row g: per gamma, s_g(gamma) = gamma - <gamma, g^vee> g looked up by coordinates."""
        index = {r.coords: i for i, r in enumerate(self.positive_odd)}
        table = []
        for g, row, norm in zip(self.generators, gen_rows, gen_norms):
            images = []
            for i, (r, iv) in enumerate(zip(self.positive_odd, odd_iv)):
                c, rem = divmod(2 * _dot(row, iv), norm)
                if rem:
                    i = None
                elif c:
                    i = index.get(tuple(a - c * b for a, b in zip(r.coords, g.coords)))
                images.append(i)
            table.append(tuple(images))
        return tuple(table)

    def _validate(self, simple_iv, gen_iv, two_rho) -> None:
        even_set = {r.coords for r in self.positive_even}
        odd_set = {r.coords for r in self.positive_odd}
        for i, r in enumerate(self.simple_roots):
            target = odd_set if r.odd else even_set
            if r.coords not in target:
                raise MalformedDatumFile(
                    f"simple root #{i + 1} is missing from the matching positive list"
                )
        iso_simples = [r for r in self.simple_roots if r.isotropic]
        if len(iso_simples) > 1:
            raise MalformedDatumFile("more than one isotropic simple root")
        odd_simples = [r for r in self.simple_roots if r.odd]
        if len(odd_simples) > 1:
            raise MalformedDatumFile("more than one odd simple root")
        if not self.even_positions:
            raise MalformedDatumFile("no even simple roots; datum is degenerate")

        for g, iv in zip(self.generators, gen_iv):
            if self._int_pairing(iv, iv) == 0:
                raise MalformedDatumFile(f"reflection generator {g.label} is isotropic")

        # (rho, b) = (b, b)/2 reads (2 rho, b) = (b, b) on the scaled vectors
        for i, (r, iv) in enumerate(zip(self.simple_roots, simple_iv)):
            if self._int_pairing(two_rho, iv) != self._int_pairing(iv, iv):
                raise MalformedDatumFile(
                    f"Weyl vector law fails on simple root #{i + 1}: "
                    f"(rho, b) = {self.inner(self.rho, r.vector)}, "
                    f"(b, b)/2 = {Fraction(1, 2) * self.inner(r.vector, r.vector)}"
                )

    # -- the form --------------------------------------------------------

    def inner(self, u: Weight, v: Weight) -> Fraction:
        """The invariant bilinear form: the sum over non-zero u_i of u_i (Gram row i . v)."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got {len(u)} and {len(v)}"
            )
        return sum((a * _dot(row, v) for a, row in zip(u, self._gram_rows) if a), ZERO)

    def labels(self, v: Weight) -> tuple[Fraction, ...]:
        """The labels <v, g^vee> = 2 (v, g) / (g, g) of v, one per generator in gid order."""
        nums, den = self._labels(v)
        return tuple(Fraction(a, den) for a in nums)

    def _labels(self, v: Weight) -> tuple[list[int], int]:
        """(nums, den): the labels of v are nums[k] / den."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector has length {len(v)}, expected {self.dim}")
        nums, d = _over_lcm(v)
        return self._coroot_pairings(nums), d * self._coroot_den

    def _coroot_pairings(self, nums: Sequence[int]) -> list[int]:
        """The labels of v = nums / d, as numerators over d * ``_coroot_den``."""
        return [sum(map(operator.mul, row, nums)) for row in self._coroot_rows]

    def _isotropic_pairings(self, nums: Sequence[int]) -> list[int]:
        """(v, gamma) per isotropic row for v = nums / d, as numerators over d * ``_form_den``."""
        return [sum(map(operator.mul, row, nums)) for _, row in self._isotropic_rows]

    def _shifted(self, lam: Weight) -> tuple[list[int], int]:
        """(eta, d) with lam + rho = eta / d, d the lcm of the denominators of lam and rho."""
        if len(lam) != self.dim:
            raise DimensionMismatch(f"weight has length {len(lam)}, expected {self.dim}")
        nums, d = _over_lcm(lam)
        rho, r = self._rho_over
        both = math.lcm(d, r)
        a, b = both // d, both // r
        return [a * x + b * y for x, y in zip(nums, rho)], both

    def _shifted_labels(self, lam: Weight) -> tuple[list[int], int]:
        """(nums, den): the labels <lam + rho, g^vee> are nums[k] / den."""
        eta, d = self._shifted(lam)
        return self._coroot_pairings(eta), d * self._coroot_den

    # -- derived structure ------------------------------------------------

    def expand_simple(self, v: Weight) -> tuple[Fraction, ...]:
        """Coordinates of v over the distinguished simple system."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector has length {len(v)}, expected {self.dim}")
        # the solver's columns are the simple roots times the datum's scale
        solver = self._simple_solver
        return tuple(Fraction(n * self._scale, solver.det) for n in solver.numerators(v))

    @property
    def even_simple_count(self) -> int:
        return len(self.even_positions)

    def adjacency(self) -> dict[int, set[int]]:
        """Non-orthogonality graph on the even simple positions, the only source of edges.

        The even simple roots are the generators 0..n-1 in position order, and
        non-isotropic roots a, b are orthogonal exactly when <a, b^vee> = 0.
        """
        pos = self.even_positions
        return {
            p: {q for q, c in zip(pos, self.generator_cartan[k]) if c and q != p}
            for k, p in enumerate(pos)
        }

    # -- weights ----------------------------------------------------------

    def _solve_fundamental_weights(self) -> tuple[Weight, ...]:
        """The even fundamental weights, by one integer solve of the even simple Cartan block."""
        scale = self._scale
        basis = [_scaled(self.simple_roots[p].vector, scale) for p in self.even_positions]
        n = len(basis)
        # the even simple roots are the generators with gids 0..n-1
        cartan = _Solver([row[:n] for row in self.generator_cartan[:n]], "even simple roots")
        den = cartan.det * scale
        columns = (cartan.numerators([int(k == col) for k in range(n)]) for col in range(n))
        return tuple(
            tuple(Fraction(sum(c * b[j] for c, b in zip(coeffs, basis)), den) for j in range(self.dim))
            for coeffs in columns
        )

    def fundamental_weight(self, i: int) -> Weight:
        """Even fundamental weight for the i-th even simple root, 1-based.

        The weight lies in the rational span of the even simple roots, which
        fixes the natural representative (zero against every direction the
        even simple coroots do not see).  All of them are solved at construction.
        """
        if not 1 <= i <= len(self.even_positions):
            raise IndexOutOfRange(
                f"fundamental weight index {i} out of range 1..{len(self.even_positions)}"
            )
        return self._fundamental_weights[i - 1]

    def coefficient_weight(self, coeffs: Sequence[int], tau_multiple: int = 0) -> Weight:
        """The weight sum_i coeffs[i-1] * omega_i + tau_multiple * tau."""
        parts = [vscale(c, self.fundamental_weight(i)) for i, c in enumerate(coeffs, 1) if c]
        return functools.reduce(vadd, parts, vscale(tau_multiple, self.tau))

    def atypicality(self, lam: Weight) -> tuple[int, ...]:
        """Indices into ``positive_odd`` of the isotropic gamma with (lam + rho, gamma) = 0.

        Each isotropic gamma keeps its integer form row from construction,
        so the test is one integer dot product per root with the numerators
        of lam + rho.
        """
        eta, _ = self._shifted(lam)
        pairings = self._isotropic_pairings(eta)
        return tuple(i for (i, _), p in zip(self._isotropic_rows, pairings) if not p)

    def is_typical(self, lam: Weight) -> bool:
        """True when (lam + rho, gamma) != 0 for every isotropic gamma > 0."""
        return not self.atypicality(lam)

    def is_dominant_integral(self, lam: Weight) -> Dominance:
        """Dominance check against the even simple roots.

        Families whose finite-dimensionality conditions are exactly the even
        ones (sl and osp(2, 2n) here) get a definite ``YES``; other families
        get ``NECESSARY_ONLY`` when the even conditions hold.
        """
        nums, den = self._labels(lam)
        for a in nums[: len(self.even_positions)]:
            if a % den or a < 0:
                return Dominance.NO
        return Dominance.YES if self.family in ("sl", "osp") else Dominance.NECESSARY_ONLY

    # -- printing -----------------------------------------------------------

    def x_label(self, pi_index: int) -> str:
        """Variable name for the simple root at a distinguished-system index."""
        if self.simple_roots[pi_index].odd:
            return "b1"
        return f"a{self.even_positions.index(pi_index) + 1}"

    def z_label(self, odd_index: int) -> str:
        """Symbol name for a positive odd root index."""
        if not 0 <= odd_index < len(self.positive_odd):
            raise IndexOutOfRange(f"odd root index {odd_index} out of range")
        return f"g{odd_index + 1}"

    def format_weight(self, v: Weight) -> str:
        return "(" + ", ".join(str(c) for c in v) + ")"

    def __repr__(self) -> str:
        return f"RootDatum({self.label})"


# ---------------------------------------------------------------------------
# family builders

# The form on the sl ambient space is the supertrace form scaled by -5.  Any
# nonzero multiple of the supertrace form is invariant, isotropy and all
# normalized pairings are unchanged by the scaling, and this normalization
# gives (tau, eps_i - delta_j) = 5 (p - q) with positive sign for p > q.
_SL_EPS_NORM = -5
_SL_DELTA_NORM = 5

# The builders hand RootDatum integer vectors (and F(4) its half-integers);
# the datum turns them into Fraction weights.
_IntVector = tuple[int, ...]


def _units(dim: int) -> list[_IntVector]:
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def _diag_gram(diag: Sequence[int]) -> list[list[int]]:
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _double(v: _IntVector) -> _IntVector:
    return tuple(2 * a for a in v)


def _chain(units: Sequence[_IntVector]) -> list[_IntVector]:
    """v_i - v_{i+1} along the list: the simple roots of type A."""
    return [vsub(u, v) for u, v in zip(units, units[1:])]


def _differences(units: Sequence[_IntVector]) -> list[_IntVector]:
    """v_i - v_j for i < j: the positive roots of type A."""
    return [vsub(u, v) for u, v in itertools.combinations(units, 2)]


def _sums(units: Sequence[_IntVector]) -> list[_IntVector]:
    """v_i + v_j for i < j."""
    return [vadd(u, v) for u, v in itertools.combinations(units, 2)]


def _c_type(units: Sequence[_IntVector]) -> list[_IntVector]:
    """v_i - v_j, then v_i + v_j (i < j), then 2 v_i: the positive roots of type C."""
    return _differences(units) + _sums(units) + [_double(u) for u in units]


def _even(vectors: Iterable[_IntVector]) -> list[tuple[_IntVector, bool]]:
    """The vectors as even simple roots, in the ``(vector, odd)`` form of RootDatum."""
    return [(v, False) for v in vectors]


def build_sl(p: int, q: int) -> RootDatum:
    """The special linear superalgebra sl(p, q).

    Ambient coordinates are eps_1..eps_p, delta_1..delta_q.  The distinguished
    simple system is the eps chain, the odd root eps_p - delta_1, then the
    delta chain.  sl(1, 1) is degenerate and sl(2, 2) is excluded because its
    root data do not determine the algebra the way this package assumes.
    """
    if p < 1 or q < 1:
        raise UnsupportedFamily(f"sl({p},{q}): sizes must be at least 1")
    if (p, q) == (1, 1):
        raise UnsupportedFamily("sl(1,1) is degenerate (no even simple roots)")
    if (p, q) == (2, 2):
        raise UnsupportedFamily("sl(2,2) is excluded from the supported families")
    units = _units(p + q)
    eps, delta = units[:p], units[p:]
    labels = [f"eps{i}" for i in range(1, p + 1)] + [f"delta{j}" for j in range(1, q + 1)]
    return RootDatum(
        family="sl",
        label=f"sl({p},{q})",
        gram=_diag_gram([_SL_EPS_NORM] * p + [_SL_DELTA_NORM] * q),
        simple_roots=(
            _even(_chain(eps)) + [(vsub(eps[-1], delta[0]), True)] + _even(_chain(delta))
        ),
        positive_even=_differences(eps) + _differences(delta),
        positive_odd=[vsub(e, d) for e in eps for d in delta],
        basis_labels=labels,
    )


def build_b0(n: int) -> RootDatum:
    """The orthosymplectic superalgebra osp(1, 2n), family B(0, n), n >= 2.

    Ambient coordinates delta_1..delta_n with (delta_i, delta_j) = -d_ij.
    There are no isotropic roots, so every weight is typical.  The odd simple
    root delta_n is non-isotropic; the even Weyl group needs the extra
    generator 2 delta_n.
    """
    if n < 2:
        raise UnsupportedFamily(
            f"B(0,{n}): need n >= 2 so the even simple diagram is nonempty"
        )
    delta = _units(n)
    return RootDatum(
        family="b0",
        label=f"B(0,{n})",
        gram=_diag_gram([-1] * n),
        simple_roots=_even(_chain(delta)) + [(delta[-1], True)],
        positive_even=_c_type(delta),
        positive_odd=delta,
        basis_labels=[f"delta{j}" for j in range(1, n + 1)],
    )


def build_osp2(n: int) -> RootDatum:
    """The orthosymplectic superalgebra osp(2, 2n), n >= 1.

    Ambient coordinates eps_1, delta_1..delta_n with (eps_1, eps_1) = 1 and
    (delta_i, delta_j) = -d_ij, so the odd roots eps_1 +- delta_j are
    isotropic.  The distinguished simple system lists the even chain
    delta_1 - delta_2, ..., 2 delta_n first and the odd root eps_1 - delta_1
    last.
    """
    if n < 1:
        raise UnsupportedFamily(f"osp(2,{2 * n}): need n >= 1")
    eps1, *delta = _units(n + 1)
    return RootDatum(
        family="osp",
        label=f"osp(2,{2 * n})",
        gram=_diag_gram([1] + [-1] * n),
        simple_roots=(
            _even(_chain(delta) + [_double(delta[-1])]) + [(vsub(eps1, delta[0]), True)]
        ),
        positive_even=_c_type(delta),
        positive_odd=[vsub(eps1, d) for d in delta] + [vadd(eps1, d) for d in delta],
        basis_labels=["eps1"] + [f"delta{j}" for j in range(1, n + 1)],
    )


def build_g3() -> RootDatum:
    """The exceptional superalgebra G(3).

    Ambient coordinates (eps_1, eps_2, delta) with eps_3 = -eps_1 - eps_2
    eliminated; the form has (eps_i, eps_i) = 2, (eps_1, eps_2) = -1, and
    (delta, delta) = -2.  The even part is of type G_2 x A_1, so the even
    Weyl group needs the extra generator 2 delta.
    """
    e1, e2, d = _units(3)
    e3 = (-1, -1, 0)
    return RootDatum(
        family="G3",
        label="G(3)",
        gram=[[2, -1, 0], [-1, 2, 0], [0, 0, -2]],
        simple_roots=[(e1, False), (vsub(e2, e1), False), (vadd(e3, d), True)],
        positive_even=[
            e1,
            e2,
            vadd(e1, e2),
            vsub(e2, e1),
            vadd(_double(e1), e2),
            vadd(e1, _double(e2)),
            _double(d),
        ],
        positive_odd=[
            vadd(e3, d),
            vsub(d, e2),
            vsub(d, e1),
            d,
            vadd(e1, d),
            vadd(e2, d),
            vadd(vadd(e1, e2), d),
        ],
        basis_labels=("eps1", "eps2", "delta1"),
    )


def build_f4() -> RootDatum:
    """The exceptional superalgebra F(4).

    Ambient coordinates (eps_1, eps_2, eps_3, delta) with the Euclidean form
    on the eps block and (delta, delta) = -3.  The even part is of type
    B_3 x A_1; the extra even generator is delta.  The odd roots are
    (+-eps_1 +- eps_2 +- eps_3 + delta) / 2, and the odd simple root is the
    one with all three signs negative.
    """
    *eps, d = _units(4)
    odd = [
        tuple(Fraction(s, 2) for s in signs + (1,))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    return RootDatum(
        family="F4",
        label="F(4)",
        gram=_diag_gram([1, 1, 1, -3]),
        simple_roots=_even(_chain(eps) + [eps[-1]]) + [(odd[-1], True)],
        positive_even=_differences(eps) + _sums(eps) + eps + [d],
        positive_odd=odd,
        basis_labels=("eps1", "eps2", "eps3", "delta1"),
    )


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which algebra to build: a family tag plus its integer parameters.

    ``family`` is one of ``sl``, ``b0``, ``osp``, ``G3``, ``F4``.  For ``sl``
    the parameters are the matrix sizes (``sl(m, n)``); for ``osp`` the
    parameter n selects osp(2, 2n); for ``b0`` it selects B(0, n).
    """

    family: str
    m: int | None = None
    n: int | None = None


def build_datum(desc: AlgebraDescriptor) -> RootDatum:
    """Construct the root datum described by ``desc``."""
    fam = desc.family
    if fam == "sl":
        if desc.m is None or desc.n is None:
            raise UnsupportedFamily("sl needs both m and n")
        return build_sl(desc.m, desc.n)
    if fam == "b0":
        if desc.n is None:
            raise UnsupportedFamily("B(0,n) needs n")
        return build_b0(desc.n)
    if fam == "osp":
        if desc.n is None:
            raise UnsupportedFamily("osp(2,2n) needs n")
        return build_osp2(desc.n)
    if fam == "G3":
        return build_g3()
    if fam == "F4":
        return build_f4()
    raise UnsupportedFamily(f"unknown family tag {fam!r}")


# ---------------------------------------------------------------------------
# datum files


_SECTION_KEYS = ("gram", "simple", "positive_even", "positive_odd")


def datum_from_text(text: str) -> RootDatum:
    """Parse a datum file.

    The format is line oriented: ``family:`` and ``ambient_dim:`` take inline
    values; ``gram:``, ``simple:``, ``positive_even:``, and ``positive_odd:``
    are followed by one row per line.  Entries are rationals like ``-1`` or
    ``3/2``; rows of ``simple`` start with ``even`` or ``odd``.  Lines
    beginning with ``#`` and blank lines are skipped.  Errors carry the
    offending line number.
    """
    family: str | None = None
    ambient: int | None = None
    sections: dict[str, list[tuple[int, str]]] = {k: [] for k in _SECTION_KEYS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith(":") and line[:-1] in _SECTION_KEYS:
            current = line[:-1]
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if key == "family":
                family = value
                current = None
                continue
            if key == "ambient_dim":
                try:
                    ambient = int(value)
                except ValueError:
                    raise MalformedDatumFile("ambient_dim must be an integer", lineno)
                current = None
                continue
            if key in _SECTION_KEYS:
                current = key
                if value:
                    sections[key].append((lineno, value))
                continue
            raise MalformedDatumFile(f"unknown key {key!r}", lineno)
        if current is None:
            raise MalformedDatumFile(f"unexpected data line {line!r}", lineno)
        sections[current].append((lineno, line))

    if family is None:
        raise MalformedDatumFile("missing 'family' field")
    if ambient is None:
        raise MalformedDatumFile("missing 'ambient_dim' field")
    if ambient < 1:
        raise MalformedDatumFile("ambient_dim must be positive")

    def parse_row(lineno: int, line: str, expect: int) -> Weight:
        parts = line.split()
        if len(parts) != expect:
            raise MalformedDatumFile(
                f"expected {expect} entries, found {len(parts)}", lineno
            )
        try:
            return tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise MalformedDatumFile(f"bad rational in row {line!r}", lineno)

    if not sections["gram"]:
        raise MalformedDatumFile("missing 'gram' section")
    if len(sections["gram"]) != ambient:
        first = sections["gram"][0][0]
        raise MalformedDatumFile(
            f"gram has {len(sections['gram'])} rows, expected {ambient}", first
        )
    gram = [parse_row(ln, row, ambient) for ln, row in sections["gram"]]

    simple: list[tuple[Weight, bool]] = []
    if not sections["simple"]:
        raise MalformedDatumFile("missing 'simple' section")
    for ln, row in sections["simple"]:
        parts = row.split()
        if not parts or parts[0] not in ("even", "odd"):
            raise MalformedDatumFile(
                "simple root rows must start with 'even' or 'odd'", ln
            )
        simple.append((parse_row(ln, " ".join(parts[1:]), ambient), parts[0] == "odd"))

    return RootDatum(
        family="custom",
        label=family,
        gram=gram,
        simple_roots=simple,
        positive_even=[parse_row(ln, row, ambient) for ln, row in sections["positive_even"]],
        positive_odd=[parse_row(ln, row, ambient) for ln, row in sections["positive_odd"]],
    )


def datum_from_file(path: str) -> RootDatum:
    """Read a datum file from disk; see :func:`datum_from_text`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedDatumFile(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise MalformedDatumFile(f"cannot read {path}: not UTF-8 text") from None
    return datum_from_text(text)
