"""Sparse exact polynomials and truncated power series.

Two rings support the numerator machinery:

* ``ZSeries``: a power series in commuting symbols Z_1, ..., Z_m (one per
  positive odd root), truncated at a fixed total degree, with rational
  coefficients.  Geometric inverses of units are available, so expressions
  like 1 / (1 + Z) make sense after truncation.

* ``Poly``: a polynomial in the variables X_1, ..., X_r (one per simple
  root) whose coefficients are either rationals or ``ZSeries`` over a common
  truncation.  Monomials use non-negative integer exponents.

Both hold a dict {monomial: nonzero coefficient}, and one kernel, ``_Terms``,
does their arithmetic: sum, difference, negation, scaling, the
degree-bounded product, the zero test, equality, hash and the ring check.
A ring is the class with its truncation (``trunc``, or ``ztrunc`` with None
for rational coefficients); combining two rings raises ``RingMismatch``.
The kernel asks a coefficient for ``+``, ``-`` and ``*`` within its ring, a
rational scalar on the left and truthiness for zero; ``Fraction`` and
``ZSeries`` both qualify.

Monomials are sorted tuples of (variable index, exponent) pairs; the zero
polynomial has no terms.  All operations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    ConstantTermNotOne,
    IndexOutOfRange,
    NegativeExponentAfterCollapse,
    NonIntegralExponent,
    NotInvertible,
    RingMismatch,
    TruncationTooSmall,
    invariant,
)

Mono = tuple[tuple[int, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)

EMPTY_MONO: Mono = ()


def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Mono:
    """Normalize (variable, exponent) pairs: merge, sort, drop zeros."""
    acc: dict[int, int] = {}
    for var, exp in pairs:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    return mono_from_pairs(a + b)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_pow(m: Mono, k: int) -> Mono:
    if k == 0:
        return EMPTY_MONO
    return tuple((v, e * k) for v, e in m)


def mono_support(m: Mono) -> frozenset[int]:
    return frozenset(v for v, _ in m)


def mono_key(m: Mono, nvars: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: total degree, then the dense exponent tuple."""
    dense = [0] * nvars
    for v, e in m:
        dense[v] = e
    return (mono_degree(m), tuple(dense))


class _Terms:
    """Sparse {monomial: coefficient} arithmetic over one ring.

    ``_ring`` is the truncation that, with the class, names the ring.
    Results are built by ``_new``, which only drops zero coefficients: their
    terms come from operands already in the ring.
    """

    __slots__ = ("_ring", "terms")

    def _new(self, terms: dict) -> _Terms:
        out = object.__new__(type(self))
        out._ring = self._ring
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    def _check(self, other: object) -> None:
        if type(other) is not type(self) or other._ring != self._ring:
            raise RingMismatch(
                f"cannot combine {type(self).__name__} over {self._ring} with "
                f"{type(other).__name__} over {getattr(other, '_ring', None)}"
            )

    def __add__(self, other: _Terms) -> _Terms:
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            cur = terms.get(m)
            terms[m] = c if cur is None else cur + c
        return self._new(terms)

    def __sub__(self, other: _Terms) -> _Terms:
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            cur = terms.get(m)
            terms[m] = -c if cur is None else cur - c
        return self._new(terms)

    def __neg__(self) -> _Terms:
        return self._new({m: -c for m, c in self.terms.items()})

    def _scaled(self, c: Fraction | ZSeries) -> _Terms:
        """Every coefficient times ``c``, a scalar already checked for this ring."""
        return self._new({m: c * v for m, v in self.terms.items()})

    def _product(self, other: _Terms, bound: int | None) -> _Terms:
        """Product keeping the monomials of total degree at most ``bound`` (None: all)."""
        self._check(other)
        right = [(m, c, mono_degree(m)) for m, c in other.terms.items()]
        if bound is None:
            bound = max(map(mono_degree, self.terms), default=0) + max(
                (d for _, _, d in right), default=0
            )
        out: dict = {}
        for m1, c1 in self.terms.items():
            room = bound - mono_degree(m1)
            for m2, c2, d2 in right:
                if d2 <= room:
                    m = mono_mul(m1, m2)
                    cur = out.get(m)
                    out[m] = c1 * c2 if cur is None else cur + c1 * c2
        return self._new(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._ring == other._ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._ring, frozenset(self.terms.items())))


def _scalar(c: object, ztrunc: int | None) -> Fraction | ZSeries:
    """``c`` checked as a scalar over ``ztrunc``: a rational, or a series truncated there."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if not isinstance(c, ZSeries) or c.trunc != ztrunc:
        raise RingMismatch(f"{type(c).__name__} is no scalar over ztrunc={ztrunc}")
    return c


class ZSeries(_Terms):
    """Truncated multivariate power series with rational coefficients.

    Instances are immutable; arithmetic keeps only terms of total degree at
    most ``trunc``.  Two series must share a truncation to combine.
    """

    __slots__ = ()

    def __init__(self, trunc: int, terms: Mapping[Mono, Fraction] | None = None):
        if trunc < 0:
            raise TruncationTooSmall("truncation must be non-negative")
        self._ring = trunc
        self.terms = {}
        for m, c in (terms or {}).items():
            c = _scalar(c, None)
            if c and mono_degree(m) <= trunc:
                self.terms[m] = c

    @property
    def trunc(self) -> int:
        return self._ring

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "ZSeries":
        return ZSeries(trunc)

    @staticmethod
    def one(trunc: int) -> "ZSeries":
        return ZSeries(trunc, {EMPTY_MONO: ONE})

    @staticmethod
    def constant(c: Fraction | int, trunc: int) -> "ZSeries":
        return ZSeries(trunc, {EMPTY_MONO: c})

    @staticmethod
    def var(index: int, trunc: int) -> "ZSeries":
        if index < 0:
            raise IndexOutOfRange(f"Z variable index {index} is negative")
        return ZSeries(trunc, {((index, 1),): ONE})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        return self._product(other, self._ring)

    def __rmul__(self, c: Fraction | int) -> "ZSeries":
        return self.scale(c)

    def scale(self, c: Fraction | int) -> "ZSeries":
        return self._scaled(_scalar(c, None))

    def inverse(self) -> "ZSeries":
        """Geometric inverse; the constant term must be nonzero."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible("series has no invertible constant term")
        n = self._new({m: c for m, c in self.terms.items() if m}).scale(-1 / c0)
        acc = power = ZSeries.one(self._ring)
        for _ in range(self._ring):
            power = power * n
            if power.is_zero():
                break
            acc = acc + power
        return acc.scale(1 / c0)

    # -- queries ------------------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get(EMPTY_MONO, ZERO)

    def __repr__(self) -> str:
        return f"ZSeries(trunc={self._ring}, {self.to_text()})"

    def to_text(self, names: Callable[[int], str] | None = None) -> str:
        """Canonical rendering: by total degree, then exponent order."""
        if names is None:
            names = lambda i: f"g{i + 1}"
        return _render_terms(self.terms, lambda i: f"Z[{names(i)}]")


def _render_terms(terms: Mapping[Mono, Fraction], name: Callable[[int], str]) -> str:
    """Canonical text of rational terms: by total degree, then exponent order."""
    nvars = 1 + max((v for m in terms for v, _ in m), default=0)
    chunks: list[str] = []
    for m, c in sorted(terms.items(), key=lambda kv: mono_key(kv[0], nvars)):
        body = "*".join(name(v) if e == 1 else f"{name(v)}^{e}" for v, e in m)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if chunks:
            chunks.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            chunks.append(f"-{body}" if c < 0 else body)
    return "".join(chunks) or "0"


class Poly(_Terms):
    """Sparse polynomial in the X variables.

    ``ztrunc`` is ``None`` for rational coefficients and the common series
    truncation when coefficients are ``ZSeries``.
    """

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[Mono, Fraction | ZSeries] | None = None,
        ztrunc: int | None = None,
    ):
        self._ring = ztrunc
        self.terms = {}
        for m, c in (terms or {}).items():
            c = _scalar(c, ztrunc)
            if ztrunc is not None and not isinstance(c, ZSeries):
                c = ZSeries.constant(c, ztrunc)
            if c:
                self.terms[m] = c

    @property
    def ztrunc(self) -> int | None:
        return self._ring

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ztrunc: int | None = None) -> "Poly":
        return Poly({}, ztrunc)

    @staticmethod
    def one(ztrunc: int | None = None) -> "Poly":
        return Poly({EMPTY_MONO: ONE}, ztrunc)

    @staticmethod
    def x_monomial(mono: Mono) -> "Poly":
        return Poly({mono: ONE})

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul_trunc(other, None)

    def mul_trunc(self, other: "Poly", bound: int | None) -> "Poly":
        """Product, optionally dropping X monomials of degree above bound."""
        return self._product(other, bound)

    def scale(self, c: Fraction | int | ZSeries) -> "Poly":
        return self._scaled(_scalar(c, self._ring))

    # -- queries --------------------------------------------------------------

    def constant_term(self) -> Fraction | ZSeries:
        return self.coefficient(EMPTY_MONO)

    def coefficient(self, mono: Mono) -> Fraction | ZSeries:
        c = self.terms.get(mono)
        if c is None:
            return ZERO if self._ring is None else ZSeries.zero(self._ring)
        return c

    def __repr__(self) -> str:
        if self._ring is None:
            return f"Poly({self.to_text()})"
        return f"Poly(ztrunc={self._ring}, terms={len(self.terms)})"

    # -- structure ---------------------------------------------------------

    def truncate_x(self, bound: int) -> "Poly":
        """Drop X monomials of total degree above bound."""
        return self._new({m: c for m, c in self.terms.items() if mono_degree(m) <= bound})

    def dividing(self, cap: Mono) -> "Poly":
        """Keep the terms whose X monomial divides X^cap."""
        room = dict(cap)
        return self._new({m: c for m, c in self.terms.items() if _divides(m, room)})

    def to_text(self, names: Callable[[int], str] | None = None) -> str:
        """Canonical text: terms by total degree, then exponent order.

        Only rational-coefficient polynomials render; series coefficients
        have no canonical inline form here.
        """
        if self._ring is not None:
            raise RingMismatch("canonical text requires rational coefficients")
        if names is None:
            names = lambda i: f"x{i + 1}"
        return _render_terms(self.terms, lambda i: f"X[{names(i)}]")


def _divides(m: Mono, room: Mapping[int, int]) -> bool:
    """Whether X^m divides the monomial whose exponents ``room`` maps."""
    return all(e <= room.get(v, 0) for v, e in m)


def theta(poly: Poly, support: Iterable[int]) -> Poly:
    """Projection onto the terms whose variable support is exactly ``support``.

    theta(p, {}) is the constant term of p as a polynomial.
    """
    want = frozenset(support)
    return poly._new({m: c for m, c in poly.terms.items() if mono_support(m) == want})


def neg_log(poly: Poly, bound: int, cap: Mono | None = None) -> Poly:
    """Formal -log of a polynomial f with constant term one, to X degree ``bound``.

    With the Euler operator D (multiply the coefficient of m by deg m),
    L = log f satisfies D(L) f = D(f).  So for each monomial m, in degree
    order,

        deg(m) L_m = deg(m) f_m - sum_t deg(m/t) L_{m/t} f_t

    over the non-constant terms t of f with deg t < deg m (Brent and Kung,
    J. ACM 1978).  Only products of f's non-constant terms are visited.
    Those terms must have positive X degree, or the division by deg(m)
    fails; a term of degree <= 0 belongs to the degree-0 part of f.

    With ``cap``, only the monomials that divide X^cap are kept, and the
    rest are never computed.  Every X exponent of ``poly`` must then be
    non-negative, so that m/t divides X^cap whenever m does.
    """
    if bound < 0:
        raise TruncationTooSmall(f"-log bound must be >= 0, got {bound}")
    if poly.constant_term() != Poly.one(poly.ztrunc).constant_term():
        raise ConstantTermNotOne(
            "formal -log needs a polynomial with constant term 1"
        )
    terms = [(t, c, mono_degree(t)) for t, c in poly.terms.items() if t]
    if any(d <= 0 for _, _, d in terms):
        raise ConstantTermNotOne(
            "formal -log needs every non-constant term of positive X degree"
        )
    room = None
    if cap is not None:
        invariant(
            all(e >= 0 for t, _, _ in terms for _, e in t),
            "a divisor cap needs non-negative X exponents",
        )
        room = dict(cap)
        terms = [tm for tm in terms if _divides(tm[0], room)]
    terms = sorted((tm for tm in terms if tm[2] <= bound), key=lambda tm: tm[2])
    # levels[d] accumulates D(L)_m for the monomials m of degree d; it is
    # complete once every lower level has been walked
    levels: list[dict[Mono, Fraction | ZSeries]] = [{} for _ in range(bound + 1)]
    for t, c, d in terms:
        levels[d][t] = d * c
    out: dict[Mono, Fraction | ZSeries] = {}
    for d in range(1, bound + 1):
        for m, dl in levels[d].items():
            if not dl:
                continue
            out[m] = Fraction(-1, d) * dl
            for t, c, dt in terms:
                if d + dt > bound:
                    break
                n = mono_mul(m, t)
                if room is not None and not _divides(n, room):
                    continue
                level = levels[d + dt]
                cur = level.get(n)
                level[n] = -(dl * c) if cur is None else cur - dl * c
    return poly._new(out)


def weight_monomial(coeffs: Iterable[int], den: int = 1) -> Mono:
    """X monomial from simple-root coordinates, as integer numerators over ``den``.

    Coordinates must be non-negative integers (the one check of a drop):
    these monomials track drops from a highest weight, which live in the
    positive root cone.  The pairs come out sorted, one per variable, zeros
    skipped: already normal.
    """
    pairs = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if c % den:
            raise NonIntegralExponent(
                f"exponent {Fraction(c, den)} on variable {i} is not an integer"
            )
        c //= den
        if c < 0:
            raise NegativeExponentAfterCollapse(
                f"exponent {c} on variable {i} is negative"
            )
        pairs.append((i, c))
    return tuple(pairs)
