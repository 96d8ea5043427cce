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

Vectors, the form and every derived weight are exact
:class:`fractions.Fraction` tuples.  Every pairing with a reflection
generator goes through one label map: sparse coroot rows, built once after
validation, make ``labels(v)`` (the <v, g^vee> in gid order) dot products.
The integer data of the Weyl group walks (``generator_cartan``, the labels
of the generators themselves, and ``generator_coords``) are plain ints,
checked integral at construction; ``generator_blocks`` splits the
generators into the irreducible blocks of that Cartan matrix.  The
structure of a datum is fixed at construction, but three private caches on
it fill lazily: ``_fundamental_cache`` (even fundamental weights),
``_group_cache`` (Weyl groups per generator set, see
:func:`superweyl.weyl.generate`) and ``_match_key_cache`` (per weight, its
signature and the factor-matching key of each block, written once the
weight's factor law has been checked; no factor polynomial is kept, see
:mod:`superweyl.unifac`).  Nothing guards them against concurrent writers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedDatumFile,
    UnsupportedFamily,
)

Weight = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_weight(entries: Iterable[Fraction | int | str]) -> Weight:
    """Coerce a sequence of rationals to a weight tuple."""
    return tuple(Fraction(e) for e in entries)


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


def vneg(v: Weight) -> Weight:
    return tuple(-a for a in v)


def vscale(c: Fraction | int, v: Weight) -> Weight:
    c = Fraction(c)
    return tuple(c * a for a in v)


def _linked_classes(nodes: Iterable[int], linked) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph ``linked(u, v)`` on ``nodes``, by smallest node."""
    classes: list[tuple[int, ...]] = []
    for v in nodes:
        joined = [c for c in classes if any(linked(u, v) for u in c)]
        classes = [c for c in classes if c not in joined] + [tuple(sorted(sum(joined, (v,))))]
    return tuple(sorted(classes))


def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


@dataclass(frozen=True)
class Root:
    """One root: its ambient coordinate vector, parity, and isotropy flag."""

    vector: Weight
    odd: bool
    isotropic: bool

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.vector) + ")"


@dataclass(frozen=True)
class Generator:
    """A reflection generator of the even Weyl group.

    ``pi_index`` is the position in the distinguished simple system when the
    generator is itself a simple root, and ``None`` for the extra even-part
    simple roots that occur in B(0, n), G(3), and F(4).
    """

    gid: int
    vector: Weight
    pi_index: int | None
    label: str


class Dominance(Enum):
    """Tri-state verdict of the dominance check.

    ``NECESSARY_ONLY`` means the even-simple pairing conditions hold but the
    family has extra finite-dimensionality conditions this package does not
    encode, so dominance is necessary-but-unconfirmed.
    """

    NO = "no"
    YES = "yes"
    NECESSARY_ONLY = "necessary-only"


@dataclass(frozen=True)
class Atypicality:
    """Vanishing pattern of (lambda + rho, gamma) over isotropic gamma > 0.

    ``vanishing`` lists indices into ``datum.positive_odd`` of the isotropic
    positive odd roots whose pairing with lambda + rho is zero.
    """

    vanishing: tuple[int, ...]

    @property
    def is_typical(self) -> bool:
        return not self.vanishing


# ---------------------------------------------------------------------------
# exact linear algebra helpers


class _SpanSolver:
    """Exact coordinates over a fixed list of linearly independent columns.

    The column matrix M is row-reduced once next to the identity, giving an
    invertible E with E M = [I; 0].  For any v, the first ``rank`` entries
    of E v are the coefficients c, and M c = v holds exactly when the
    remaining entries vanish.  E is stored as sparse rows.
    """

    def __init__(self, columns: Sequence[Weight], name: str):
        self.dim = len(columns[0]) if columns else 0
        self.rank = len(columns)
        aug = [
            [col[r] for col in columns] + [ONE if i == r else ZERO for i in range(self.dim)]
            for r in range(self.dim)
        ]
        for col in range(self.rank):
            pivot = next((r for r in range(col, self.dim) if aug[r][col] != 0), None)
            if pivot is None:
                raise MalformedDatumFile(f"{name} are linearly dependent")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = ONE / aug[col][col]
            aug[col] = [x * inv_p for x in aug[col]]
            for r in range(self.dim):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        self._reducer = [
            tuple((j, x) for j, x in enumerate(row[self.rank :]) if x != 0) for row in aug
        ]

    def solve(self, v: Weight) -> tuple[Fraction, ...] | None:
        """Coefficients c with sum(c_j * column_j) = v, or None if v is off-span."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector has length {len(v)}, expected {self.dim}")
        ev = [sum((x * v[j] for j, x in row), ZERO) for row in self._reducer]
        if any(ev[self.rank :]):
            return None
        return tuple(ev[: self.rank])


# ---------------------------------------------------------------------------
# the datum


class RootDatum:
    """Root datum of one basic classical Lie superalgebra.

    Parameters mirror the datum file format: a Gram matrix for the invariant
    form on the ambient space, the distinguished simple system (with
    parities), and the positive even and odd roots.  The Weyl vector, the sum
    of positive odd roots, the even-part reflection generators, and the
    components of the even simple diagram are derived and validated here.
    """

    def __init__(
        self,
        family: str,
        label: str,
        gram: Sequence[Sequence[Fraction | int | str]],
        simple_roots: Sequence[Root],
        positive_even: Sequence[Root],
        positive_odd: Sequence[Root],
        basis_labels: Sequence[str] | None = None,
        type_one: bool = False,
        expected_components: int | None = None,
    ):
        self.family = family
        self.label = label
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.dim = len(self.gram)
        self.simple_roots = tuple(simple_roots)
        self.positive_even = tuple(positive_even)
        self.positive_odd = tuple(positive_odd)
        self.type_one = type_one
        if basis_labels is None:
            basis_labels = tuple(f"x{i + 1}" for i in range(self.dim))
        self.basis_labels = tuple(basis_labels)

        self._validate_shapes()

        self.rho: Weight = self._half_sum()
        self.tau: Weight = self._sum_positive_odd()

        self.even_positions: tuple[int, ...] = tuple(
            i for i, r in enumerate(self.simple_roots) if not r.odd
        )
        odd_positions = [i for i, r in enumerate(self.simple_roots) if r.odd]
        self.odd_position: int | None = odd_positions[0] if odd_positions else None

        self._simple_solver = _SpanSolver([r.vector for r in self.simple_roots], "simple roots")
        self.generators: tuple[Generator, ...] = self._build_generators()
        self._generator_solver = _SpanSolver(
            [g.vector for g in self.generators], "even generators"
        )
        self.components: tuple[tuple[int, ...], ...] = self._split_components()

        self._odd_index: dict[Weight, int] = {
            r.vector: i for i, r in enumerate(self.positive_odd)
        }
        self._fundamental_cache: dict[int, Weight] = {}
        self._group_cache: dict[object, object] = {}
        self._match_key_cache: dict[Weight, tuple] = {}

        self._validate(expected_components)

        # <v, g^vee> is a sparse dot product of v with the coroot row of g.
        self._coroot_rows = tuple(self._coroot_row(g.vector) for g in self.generators)
        # Integer data for the label walks of superweyl.weyl: the Cartan
        # rows <g_k, g_i^vee> and each generator over the simple roots.
        self.generator_cartan: tuple[tuple[int, ...], ...] = self._generator_cartan()
        self.generator_coords: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(c) for c in self.expand_simple(g.vector)) for g in self.generators
        )
        # Connected components of the Cartan matrix, as gids: the even Weyl
        # group is the direct product of their subgroups, so the numerator
        # is the product of one orbit sum per block.  G(3) and F(4) have two
        # blocks on one diagram component (2 delta and delta are orthogonal
        # to G_2 and B_3).
        self.generator_blocks: tuple[tuple[int, ...], ...] = _linked_classes(
            range(len(self.generators)), lambda u, v: self.generator_cartan[u][v] != 0
        )

    # -- construction helpers ------------------------------------------------

    def _validate_shapes(self) -> None:
        if any(len(row) != self.dim for row in self.gram):
            raise MalformedDatumFile("gram matrix is not square")
        for i in range(self.dim):
            for j in range(self.dim):
                if self.gram[i][j] != self.gram[j][i]:
                    raise MalformedDatumFile("gram matrix is not symmetric")
        for r in itertools.chain(self.simple_roots, self.positive_even, self.positive_odd):
            if len(r.vector) != self.dim:
                raise DimensionMismatch(
                    f"root {r} has length {len(r.vector)}, ambient dimension is {self.dim}"
                )
        if len(self.basis_labels) != self.dim:
            raise MalformedDatumFile("basis label count does not match ambient dimension")

    def _half_sum(self) -> Weight:
        half = Fraction(1, 2)
        rho = zero_weight(self.dim)
        for r in self.positive_even:
            rho = vadd(rho, vscale(half, r.vector))
        for r in self.positive_odd:
            rho = vsub(rho, vscale(half, r.vector))
        return rho

    def _sum_positive_odd(self) -> Weight:
        tau = zero_weight(self.dim)
        for r in self.positive_odd:
            tau = vadd(tau, r.vector)
        return tau

    def _build_generators(self) -> tuple[Generator, ...]:
        """Simple system of the even root system.

        The even members of the distinguished system are always part of it;
        for B(0, n), G(3), and F(4) one extra indecomposable positive even
        root appears (2 delta_n, 2 delta, and delta respectively).
        """
        vectors = [r.vector for r in self.positive_even]
        vector_set = set(vectors)
        indecomposable = []
        for v in vectors:
            if not any(vsub(v, w) in vector_set for w in vectors if w != v):
                indecomposable.append(v)
        simple_even = [self.simple_roots[i].vector for i in self.even_positions]
        extras = sorted(
            (v for v in indecomposable if v not in simple_even),
            key=lambda v: tuple(v),
        )
        gens: list[Generator] = []
        for k, pi in enumerate(self.even_positions):
            gens.append(Generator(k, self.simple_roots[pi].vector, pi, f"s{k + 1}"))
        for j, v in enumerate(extras):
            gid = len(self.even_positions) + j
            gens.append(Generator(gid, v, None, f"s{gid + 1}"))
        return tuple(gens)

    def _split_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the even simple diagram, by smallest index."""
        adj = self.adjacency()
        return _linked_classes(self.even_positions, lambda u, v: v in adj[u])

    def _coroot_row(self, alpha: Weight) -> tuple[tuple[int, Fraction], ...]:
        """alpha^vee = 2 alpha / (alpha, alpha) through the form, as (column, entry) pairs."""
        nn = self.inner(alpha, alpha)
        row = (
            2 * sum((a * self.gram[i][j] for i, a in enumerate(alpha)), ZERO) / nn
            for j in range(self.dim)
        )
        return tuple((j, x) for j, x in enumerate(row) if x != 0)

    def _generator_cartan(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for g in self.generators:
            row = self.labels(g.vector)
            for h, c in zip(self.generators, row):
                if c.denominator != 1:
                    raise MalformedDatumFile(
                        f"Cartan entry <{g.label}, {h.label}^vee> = {c} is not an integer"
                    )
            rows.append(tuple(map(int, row)))
        return tuple(rows)

    def _validate(self, expected_components: int | None) -> None:
        seen_vectors: set[Weight] = set()
        for r in itertools.chain(self.positive_even, self.positive_odd):
            if all(c == 0 for c in r.vector):
                raise MalformedDatumFile("zero vector listed as a root")
            if r.vector in seen_vectors:
                raise MalformedDatumFile(f"duplicate positive root {r}")
            seen_vectors.add(r.vector)
        for r in itertools.chain(self.simple_roots, self.positive_even, self.positive_odd):
            iso = self.inner(r.vector, r.vector) == 0
            if iso != r.isotropic:
                raise MalformedDatumFile(
                    f"isotropy flag of root {r} disagrees with the form"
                )
        even_set = {r.vector for r in self.positive_even}
        odd_set = {r.vector for r in self.positive_odd}
        for i, r in enumerate(self.simple_roots):
            target = odd_set if r.odd else even_set
            if r.vector not in target:
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

        for r in itertools.chain(self.positive_even, self.positive_odd):
            coeffs = self.expand_simple(r.vector)
            if not all(_is_nonneg_int(c) for c in coeffs):
                raise MalformedDatumFile(
                    f"positive root {r} is not a non-negative integer combination "
                    "of the simple roots"
                )
        for r in self.positive_even:
            coeffs = self._generator_solver.solve(r.vector)
            if coeffs is None or not all(_is_nonneg_int(c) for c in coeffs):
                raise MalformedDatumFile(
                    f"positive even root {r} does not lie in the non-negative "
                    "integer span of the even reflection generators"
                )
        for g in self.generators:
            if self.inner(g.vector, g.vector) == 0:
                raise MalformedDatumFile(f"reflection generator {g.label} is isotropic")

        half = Fraction(1, 2)
        for i, r in enumerate(self.simple_roots):
            lhs = self.inner(self.rho, r.vector)
            rhs = half * self.inner(r.vector, r.vector)
            if lhs != rhs:
                raise MalformedDatumFile(
                    f"Weyl vector law fails on simple root #{i + 1}: "
                    f"(rho, b) = {lhs}, (b, b)/2 = {rhs}"
                )

        ncomp = len(self.components)
        if ncomp not in (1, 2):
            raise MalformedDatumFile(
                f"even simple diagram has {ncomp} components; expected 1 or 2"
            )
        if expected_components is not None and ncomp != expected_components:
            raise MalformedDatumFile(
                f"even simple diagram has {ncomp} components; "
                f"family table expects {expected_components}"
            )

    # -- the form --------------------------------------------------------

    def inner(self, u: Weight, v: Weight) -> Fraction:
        """The invariant bilinear form evaluated on two ambient vectors."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got {len(u)} and {len(v)}"
            )
        total = ZERO
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.gram[i]
            total += a * sum(row[j] * b for j, b in enumerate(v) if b != 0)
        return total

    def labels(self, v: Weight) -> tuple[Fraction, ...]:
        """The labels <v, g^vee> = 2 (v, g) / (g, g) of v, one per generator in gid order."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector has length {len(v)}, expected {self.dim}")
        return tuple(sum((x * v[j] for j, x in row), ZERO) for row in self._coroot_rows)

    # -- derived structure ------------------------------------------------

    def expand_simple(self, v: Weight) -> tuple[Fraction, ...]:
        """Coordinates of v over the distinguished simple system."""
        coeffs = self._simple_solver.solve(v)
        if coeffs is None:
            raise MalformedDatumFile(
                "vector does not lie in the span of the simple roots"
            )
        return coeffs

    @property
    def even_simple_count(self) -> int:
        return len(self.even_positions)

    def adjacency(self) -> dict[int, set[int]]:
        """Non-orthogonality graph on the even simple positions, the only source of edges."""
        adj: dict[int, set[int]] = {i: set() for i in self.even_positions}
        for i, j in itertools.combinations(self.even_positions, 2):
            if self.inner(self.simple_roots[i].vector, self.simple_roots[j].vector) != 0:
                adj[i].add(j)
                adj[j].add(i)
        return adj

    # -- weights ----------------------------------------------------------

    def fundamental_weight(self, i: int) -> Weight:
        """Even fundamental weight for the i-th even simple root, 1-based.

        The weight lies in the rational span of the even simple roots, which
        fixes the natural representative (zero against every direction the
        even simple coroots do not see).
        """
        if not 1 <= i <= len(self.even_positions):
            raise IndexOutOfRange(
                f"fundamental weight index {i} out of range 1..{len(self.even_positions)}"
            )
        if i not in self._fundamental_cache:
            basis = [self.simple_roots[p].vector for p in self.even_positions]
            n = len(basis)
            # the even simple roots are the generators with gids 0..n-1
            cartan = _SpanSolver(
                [row[:n] for row in self.generator_cartan[:n]], "even simple roots"
            )
            for col in range(n):
                coeffs = cartan.solve(_unit(n, col))
                w = zero_weight(self.dim)
                for k in range(n):
                    w = vadd(w, vscale(coeffs[k], basis[k]))
                self._fundamental_cache[col + 1] = w
        return self._fundamental_cache[i]

    def coefficient_weight(self, coeffs: Sequence[int], tau_multiple: int = 0) -> Weight:
        """The weight sum_i coeffs[i-1] * omega_i + tau_multiple * tau."""
        lam = vscale(tau_multiple, self.tau)
        for i, c in enumerate(coeffs, start=1):
            if c:
                lam = vadd(lam, vscale(c, self.fundamental_weight(i)))
        return lam

    def atypicality(self, lam: Weight) -> Atypicality:
        """Vanishing pattern of (lam + rho, gamma) over isotropic gamma > 0."""
        eta = vadd(lam, self.rho)
        vanishing = tuple(
            idx
            for idx, r in enumerate(self.positive_odd)
            if r.isotropic and self.inner(eta, r.vector) == 0
        )
        return Atypicality(vanishing)

    def is_typical(self, lam: Weight) -> bool:
        """True when (lam + rho, gamma) != 0 for every isotropic gamma > 0."""
        return self.atypicality(lam).is_typical

    def is_dominant_integral(self, lam: Weight) -> Dominance:
        """Dominance check against the even simple roots.

        Families whose finite-dimensionality conditions are exactly the even
        ones (sl and osp(2, 2n) here) get a definite ``YES``; other families
        get ``NECESSARY_ONLY`` when the even conditions hold.
        """
        for val in self.labels(lam)[: len(self.even_positions)]:
            if val.denominator != 1 or val < 0:
                return Dominance.NO
        return Dominance.YES if self.type_one else Dominance.NECESSARY_ONLY

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
_SL_EPS_NORM = Fraction(-5)
_SL_DELTA_NORM = Fraction(5)


def _unit(dim: int, i: int, value: Fraction | int = 1) -> Weight:
    v = [ZERO] * dim
    v[i] = Fraction(value)
    return tuple(v)


def _diag_gram(diag: Sequence[Fraction | int]) -> list[list[Fraction]]:
    n = len(diag)
    return [[Fraction(diag[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def _root(datum_gram: Sequence[Sequence[Fraction]], vector: Weight, odd: bool) -> Root:
    norm = ZERO
    for i, a in enumerate(vector):
        if a == 0:
            continue
        norm += a * sum(datum_gram[i][j] * b for j, b in enumerate(vector) if b != 0)
    return Root(vector, odd, norm == 0)


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
    dim = p + q
    gram = _diag_gram([_SL_EPS_NORM] * p + [_SL_DELTA_NORM] * q)

    def eps(i: int) -> Weight:
        return _unit(dim, i - 1)

    def delta(j: int) -> Weight:
        return _unit(dim, p + j - 1)

    simple: list[Root] = []
    for i in range(1, p):
        simple.append(_root(gram, vsub(eps(i), eps(i + 1)), odd=False))
    simple.append(_root(gram, vsub(eps(p), delta(1)), odd=True))
    for j in range(1, q):
        simple.append(_root(gram, vsub(delta(j), delta(j + 1)), odd=False))

    pos_even = [
        _root(gram, vsub(eps(i), eps(j)), odd=False)
        for i in range(1, p + 1)
        for j in range(i + 1, p + 1)
    ] + [
        _root(gram, vsub(delta(i), delta(j)), odd=False)
        for i in range(1, q + 1)
        for j in range(i + 1, q + 1)
    ]
    pos_odd = [
        _root(gram, vsub(eps(i), delta(j)), odd=True)
        for i in range(1, p + 1)
        for j in range(1, q + 1)
    ]
    labels = [f"eps{i}" for i in range(1, p + 1)] + [f"delta{j}" for j in range(1, q + 1)]
    expected = 2 if (p >= 2 and q >= 2) else 1
    return RootDatum(
        family="sl",
        label=f"sl({p},{q})",
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        basis_labels=labels,
        type_one=True,
        expected_components=expected,
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
    dim = n
    gram = _diag_gram([Fraction(-1)] * n)

    def delta(j: int) -> Weight:
        return _unit(dim, j - 1)

    simple = [
        _root(gram, vsub(delta(j), delta(j + 1)), odd=False) for j in range(1, n)
    ] + [_root(gram, delta(n), odd=True)]
    pos_even = (
        [
            _root(gram, vsub(delta(i), delta(j)), odd=False)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        + [
            _root(gram, vadd(delta(i), delta(j)), odd=False)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        + [_root(gram, vscale(2, delta(i)), odd=False) for i in range(1, n + 1)]
    )
    pos_odd = [_root(gram, delta(j), odd=True) for j in range(1, n + 1)]
    labels = [f"delta{j}" for j in range(1, n + 1)]
    return RootDatum(
        family="b0",
        label=f"B(0,{n})",
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        basis_labels=labels,
        type_one=False,
        expected_components=1,
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
    dim = n + 1
    gram = _diag_gram([Fraction(1)] + [Fraction(-1)] * n)
    eps1 = _unit(dim, 0)

    def delta(j: int) -> Weight:
        return _unit(dim, j)

    simple = [
        _root(gram, vsub(delta(j), delta(j + 1)), odd=False) for j in range(1, n)
    ] + [
        _root(gram, vscale(2, delta(n)), odd=False),
        _root(gram, vsub(eps1, delta(1)), odd=True),
    ]
    pos_even = (
        [
            _root(gram, vsub(delta(i), delta(j)), odd=False)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        + [
            _root(gram, vadd(delta(i), delta(j)), odd=False)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        + [_root(gram, vscale(2, delta(i)), odd=False) for i in range(1, n + 1)]
    )
    pos_odd = [_root(gram, vsub(eps1, delta(j)), odd=True) for j in range(1, n + 1)] + [
        _root(gram, vadd(eps1, delta(j)), odd=True) for j in range(1, n + 1)
    ]
    labels = ["eps1"] + [f"delta{j}" for j in range(1, n + 1)]
    return RootDatum(
        family="osp",
        label=f"osp(2,{2 * n})",
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        basis_labels=labels,
        type_one=True,
        expected_components=1,
    )


def build_g3() -> RootDatum:
    """The exceptional superalgebra G(3).

    Ambient coordinates (eps_1, eps_2, delta) with eps_3 = -eps_1 - eps_2
    eliminated; the form has (eps_i, eps_i) = 2, (eps_1, eps_2) = -1, and
    (delta, delta) = -2.  The even part is of type G_2 x A_1, so the even
    Weyl group needs the extra generator 2 delta.
    """
    gram = [
        [Fraction(2), Fraction(-1), ZERO],
        [Fraction(-1), Fraction(2), ZERO],
        [ZERO, ZERO, Fraction(-2)],
    ]
    e1 = as_weight((1, 0, 0))
    e2 = as_weight((0, 1, 0))
    e3 = as_weight((-1, -1, 0))
    d = as_weight((0, 0, 1))
    simple = [
        _root(gram, e1, odd=False),
        _root(gram, vsub(e2, e1), odd=False),
        _root(gram, vadd(e3, d), odd=True),
    ]
    pos_even = [
        _root(gram, v, odd=False)
        for v in (
            e1,
            e2,
            vadd(e1, e2),
            vsub(e2, e1),
            vadd(vscale(2, e1), e2),
            vadd(e1, vscale(2, e2)),
            vscale(2, d),
        )
    ]
    pos_odd = [
        _root(gram, v, odd=True)
        for v in (
            vadd(e3, d),
            vsub(d, e2),
            vsub(d, e1),
            d,
            vadd(e1, d),
            vadd(e2, d),
            vadd(vadd(e1, e2), d),
        )
    ]
    return RootDatum(
        family="G3",
        label="G(3)",
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        basis_labels=("eps1", "eps2", "delta1"),
        type_one=False,
        expected_components=1,
    )


def build_f4() -> RootDatum:
    """The exceptional superalgebra F(4).

    Ambient coordinates (eps_1, eps_2, eps_3, delta) with the Euclidean form
    on the eps block and (delta, delta) = -3.  The even part is of type
    B_3 x A_1; the extra even generator is delta.
    """
    gram = _diag_gram([1, 1, 1, -3])
    half = Fraction(1, 2)

    def eps(i: int) -> Weight:
        return _unit(4, i - 1)

    d = _unit(4, 3)
    simple = [
        _root(gram, vsub(eps(1), eps(2)), odd=False),
        _root(gram, vsub(eps(2), eps(3)), odd=False),
        _root(gram, eps(3), odd=False),
        _root(
            gram,
            vscale(half, vadd(vneg(vadd(vadd(eps(1), eps(2)), eps(3))), d)),
            odd=True,
        ),
    ]
    pos_even = (
        [
            _root(gram, vsub(eps(i), eps(j)), odd=False)
            for i in range(1, 4)
            for j in range(i + 1, 4)
        ]
        + [
            _root(gram, vadd(eps(i), eps(j)), odd=False)
            for i in range(1, 4)
            for j in range(i + 1, 4)
        ]
        + [_root(gram, eps(i), odd=False) for i in range(1, 4)]
        + [_root(gram, d, odd=False)]
    )
    pos_odd = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                v = vscale(
                    half,
                    vadd(
                        vadd(vscale(s1, eps(1)), vscale(s2, eps(2))),
                        vadd(vscale(s3, eps(3)), d),
                    ),
                )
                pos_odd.append(_root(gram, v, odd=True))
    return RootDatum(
        family="F4",
        label="F(4)",
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        basis_labels=("eps1", "eps2", "eps3", "delta1"),
        type_one=False,
        expected_components=1,
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

    simple: list[Root] = []
    if not sections["simple"]:
        raise MalformedDatumFile("missing 'simple' section")
    for ln, row in sections["simple"]:
        parts = row.split()
        if not parts or parts[0] not in ("even", "odd"):
            raise MalformedDatumFile(
                "simple root rows must start with 'even' or 'odd'", ln
            )
        vector = parse_row(ln, " ".join(parts[1:]), ambient)
        simple.append(_root(gram, vector, odd=(parts[0] == "odd")))

    def parse_roots(key: str, odd: bool) -> list[Root]:
        return [
            _root(gram, parse_row(ln, row, ambient), odd=odd)
            for ln, row in sections[key]
        ]

    pos_even = parse_roots("positive_even", odd=False)
    pos_odd = parse_roots("positive_odd", odd=True)

    return RootDatum(
        family="custom",
        label=family,
        gram=gram,
        simple_roots=simple,
        positive_even=pos_even,
        positive_odd=pos_odd,
        type_one=False,
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
