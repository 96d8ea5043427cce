"""Sparse exact polynomials and truncated power series.

Two layers of arithmetic support the numerator machinery:

* ``ZSeries``: a power series in commuting symbols Z_1, ..., Z_m (one per
  positive odd root), truncated at a fixed total degree, with rational
  coefficients.  Geometric inverses of units are available, so expressions
  like 1 / (1 + Z) make sense after truncation.

* ``Poly``: a polynomial in the variables X_1, ..., X_r (one per simple
  root) whose coefficients are either rationals or ``ZSeries`` over a common
  truncation.  Monomials use non-negative integer exponents.

Monomials are sorted tuples of (variable index, exponent) pairs; the zero
polynomial has no terms.  All operations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    ConstantTermNotOne,
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


class ZSeries:
    """Truncated multivariate power series with rational coefficients.

    Instances are immutable; arithmetic keeps only terms of total degree at
    most ``trunc``.  Two series must share a truncation to combine.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms: Mapping[Mono, Fraction] | None = None):
        if trunc < 0:
            raise TruncationTooSmall("truncation must be non-negative")
        self.trunc = trunc
        clean: dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0 and mono_degree(m) <= trunc:
                    clean[m] = Fraction(c)
        self.terms = clean

    @classmethod
    def _exact(cls, trunc: int, terms: dict[Mono, Fraction]) -> "ZSeries":
        """Series from ``Fraction`` terms already within ``trunc``; drops zeros only.

        The ring operations build their results here: their terms come from
        validated series, so only cancellation can leave anything to clean.
        """
        out = object.__new__(cls)
        out.trunc = trunc
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "ZSeries":
        return ZSeries(trunc)

    @staticmethod
    def one(trunc: int) -> "ZSeries":
        return ZSeries(trunc, {EMPTY_MONO: ONE})

    @staticmethod
    def constant(c: Fraction | int, trunc: int) -> "ZSeries":
        return ZSeries(trunc, {EMPTY_MONO: Fraction(c)})

    @staticmethod
    def var(index: int, trunc: int) -> "ZSeries":
        return ZSeries(trunc, {((index, 1),): ONE})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "ZSeries") -> None:
        if self.trunc != other.trunc:
            raise RingMismatch(
                f"series truncations differ: {self.trunc} vs {other.trunc}"
            )

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return ZSeries._exact(self.trunc, terms)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) - c
        return ZSeries._exact(self.trunc, terms)

    def __neg__(self) -> "ZSeries":
        return ZSeries._exact(self.trunc, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        right = [(m2, c2, mono_degree(m2)) for m2, c2 in other.terms.items()]
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            room = self.trunc - mono_degree(m1)
            for m2, c2, d2 in right:
                if d2 <= room:
                    m = mono_mul(m1, m2)
                    cur = out.get(m)
                    out[m] = c1 * c2 if cur is None else cur + c1 * c2
        return ZSeries._exact(self.trunc, out)

    def scale(self, c: Fraction | int) -> "ZSeries":
        c = Fraction(c)
        return ZSeries._exact(self.trunc, {m: c * v for m, v in self.terms.items()})

    def inverse(self) -> "ZSeries":
        """Geometric inverse; the constant term must be nonzero."""
        c0 = self.terms.get(EMPTY_MONO, ZERO)
        if c0 == 0:
            raise NotInvertible("series has no invertible constant term")
        tail = ZSeries(self.trunc, {m: c for m, c in self.terms.items() if m})
        n = tail.scale(-1 / c0)
        acc = ZSeries.one(self.trunc)
        power = ZSeries.one(self.trunc)
        for _ in range(self.trunc):
            power = power * n
            if power.is_zero():
                break
            acc = acc + power
        return acc.scale(1 / c0)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(EMPTY_MONO, ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.trunc, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"ZSeries(trunc={self.trunc}, {self.to_text()})"

    def to_text(self, names: Callable[[int], str] | None = None) -> str:
        """Canonical rendering: by total degree, then exponent order."""
        if names is None:
            names = lambda i: f"g{i + 1}"
        nvars = 1 + max((v for m in self.terms for v, _ in m), default=0)
        return _render_terms(
            sorted(self.terms.items(), key=lambda kv: mono_key(kv[0], nvars)),
            lambda i: f"Z[{names(i)}]",
        )


def _render_coeff_mono(c: Fraction, factors: str) -> tuple[str, str]:
    """Split one term into (sign, body) for joining."""
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = factors
    else:
        body = f"{mag}*{factors}"
    return sign, body


def _mono_text(m: Mono, name: Callable[[int], str]) -> str:
    parts = []
    for v, e in m:
        parts.append(name(v) if e == 1 else f"{name(v)}^{e}")
    return "*".join(parts)


def _render_terms(
    items: list[tuple[Mono, Fraction]], name: Callable[[int], str]
) -> str:
    if not items:
        return "0"
    chunks: list[str] = []
    for i, (m, c) in enumerate(items):
        sign, body = _render_coeff_mono(c, _mono_text(m, name))
        if i == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


class Poly:
    """Sparse polynomial in the X variables.

    ``ztrunc`` is ``None`` for rational coefficients and the common series
    truncation when coefficients are ``ZSeries``.
    """

    __slots__ = ("ztrunc", "terms")

    def __init__(
        self,
        terms: Mapping[Mono, Fraction | ZSeries] | None = None,
        ztrunc: int | None = None,
    ):
        self.ztrunc = ztrunc
        clean: dict[Mono, Fraction | ZSeries] = {}
        if terms:
            for m, c in terms.items():
                if isinstance(c, ZSeries):
                    if ztrunc is None or c.trunc != ztrunc:
                        raise RingMismatch(
                            "series coefficient does not match the polynomial ring"
                        )
                    if not c.is_zero():
                        clean[m] = c
                else:
                    if ztrunc is not None:
                        c = ZSeries.constant(c, ztrunc)
                        if not c.is_zero():
                            clean[m] = c
                    else:
                        c = Fraction(c)
                        if c != 0:
                            clean[m] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ztrunc: int | None = None) -> "Poly":
        return Poly({}, ztrunc)

    @staticmethod
    def one(ztrunc: int | None = None) -> "Poly":
        return Poly({EMPTY_MONO: ONE}, ztrunc)

    @staticmethod
    def x_monomial(
        mono: Mono, coeff: Fraction | ZSeries = ONE, ztrunc: int | None = None
    ) -> "Poly":
        if isinstance(coeff, ZSeries):
            ztrunc = coeff.trunc
        return Poly({mono: coeff}, ztrunc)

    # -- ring helpers --------------------------------------------------------

    def _coerce(self, other: "Poly") -> None:
        if self.ztrunc != other.ztrunc:
            raise RingMismatch(
                f"polynomial rings differ: ztrunc {self.ztrunc} vs {other.ztrunc}"
            )

    def _zero_coeff(self) -> Fraction | ZSeries:
        return ZERO if self.ztrunc is None else ZSeries.zero(self.ztrunc)

    def _one_coeff(self) -> Fraction | ZSeries:
        return ONE if self.ztrunc is None else ZSeries.one(self.ztrunc)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            cur = terms.get(m)
            terms[m] = c if cur is None else cur + c
        return Poly(terms, self.ztrunc)

    def __sub__(self, other: "Poly") -> "Poly":
        self._coerce(other)
        terms: dict[Mono, Fraction | ZSeries] = dict(self.terms)
        for m, c in other.terms.items():
            cur = terms.get(m)
            terms[m] = (-c) if cur is None else cur - c
        return Poly(terms, self.ztrunc)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self.ztrunc)

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul_trunc(other, None)

    def mul_trunc(self, other: "Poly", bound: int | None) -> "Poly":
        """Product, optionally dropping X monomials of degree above bound."""
        self._coerce(other)
        out: dict[Mono, Fraction | ZSeries] = {}
        for m1, c1 in self.terms.items():
            d1 = mono_degree(m1)
            for m2, c2 in other.terms.items():
                if bound is not None and d1 + mono_degree(m2) > bound:
                    continue
                m = mono_mul(m1, m2)
                prod = c1 * c2
                cur = out.get(m)
                out[m] = prod if cur is None else cur + prod
        return Poly(out, self.ztrunc)

    def scale(self, c: Fraction | int | ZSeries) -> "Poly":
        if isinstance(c, ZSeries):
            if c.trunc != self.ztrunc:
                raise RingMismatch("scalar series does not match the polynomial ring")
            return Poly({m: v * c for m, v in self.terms.items()}, self.ztrunc)
        c = Fraction(c)
        return Poly(
            {
                m: (v.scale(c) if isinstance(v, ZSeries) else v * c)
                for m, v in self.terms.items()
            },
            self.ztrunc,
        )

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction | ZSeries:
        return self.terms.get(EMPTY_MONO, self._zero_coeff())

    def coefficient(self, mono: Mono) -> Fraction | ZSeries:
        return self.terms.get(mono, self._zero_coeff())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ztrunc == other.ztrunc and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ztrunc, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.ztrunc is None:
            return f"Poly({self.to_text()})"
        return f"Poly(ztrunc={self.ztrunc}, terms={len(self.terms)})"

    # -- structure ---------------------------------------------------------

    def truncate_x(self, bound: int) -> "Poly":
        """Drop X monomials of total degree above bound."""
        return Poly(
            {m: c for m, c in self.terms.items() if mono_degree(m) <= bound},
            self.ztrunc,
        )

    def dividing(self, cap: Mono) -> "Poly":
        """Keep the terms whose X monomial divides X^cap."""
        room = dict(cap)
        return Poly(
            {m: c for m, c in self.terms.items() if _divides(m, room)},
            self.ztrunc,
        )

    def sorted_terms(self, nvars: int) -> list[tuple[Mono, Fraction | ZSeries]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0], nvars))

    def to_text(
        self,
        nvars: int | None = None,
        names: Callable[[int], str] | None = None,
    ) -> str:
        """Canonical text: terms by total degree, then exponent order.

        Only rational-coefficient polynomials render; series coefficients
        have no canonical inline form here.
        """
        if self.ztrunc is not None:
            raise RingMismatch("canonical text requires rational coefficients")
        if nvars is None:
            nvars = 1 + max((v for m in self.terms for v, _ in m), default=0)
        if names is None:
            names = lambda i: f"x{i + 1}"
        items = self.sorted_terms(nvars)
        return _render_terms(items, lambda i: f"X[{names(i)}]")


def _divides(m: Mono, room: Mapping[int, int]) -> bool:
    """Whether X^m divides the monomial whose exponents ``room`` maps."""
    return all(e <= room.get(v, 0) for v, e in m)


def theta(poly: Poly, support: Iterable[int]) -> Poly:
    """Projection onto the terms whose variable support is exactly ``support``.

    theta(p, {}) is the constant term of p as a polynomial.
    """
    want = frozenset(support)
    return Poly(
        {m: c for m, c in poly.terms.items() if mono_support(m) == want},
        poly.ztrunc,
    )


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
    if poly.constant_term() != poly._one_coeff():
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
    zero = poly._zero_coeff()
    scale = (lambda c, k: c * k) if poly.ztrunc is None else (lambda c, k: c.scale(k))
    # levels[d] accumulates D(L)_m for the monomials m of degree d; it is
    # complete once every lower level has been walked
    levels: list[dict[Mono, Fraction | ZSeries]] = [{} for _ in range(bound + 1)]
    for t, c, d in terms:
        levels[d][t] = scale(c, d)
    out: dict[Mono, Fraction | ZSeries] = {}
    for d in range(1, bound + 1):
        for m, dl in levels[d].items():
            if dl == zero:
                continue
            out[m] = scale(dl, Fraction(-1, d))
            for t, c, dt in terms:
                if d + dt > bound:
                    break
                n = mono_mul(m, t)
                if room is not None and not _divides(n, room):
                    continue
                level = levels[d + dt]
                cur = level.get(n)
                level[n] = -(dl * c) if cur is None else cur - dl * c
    return Poly(out, poly.ztrunc)


def weight_monomial(coeffs: Iterable[Fraction]) -> Mono:
    """X monomial from simple-root coordinates.

    Coordinates must be non-negative integers: these monomials track drops
    from a highest weight, which live in the positive root cone.
    """
    pairs = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if c.denominator != 1:
            raise NonIntegralExponent(
                f"exponent {c} on variable {i} is not an integer"
            )
        if c < 0:
            raise NegativeExponentAfterCollapse(
                f"exponent {c} on variable {i} is negative"
            )
        pairs.append((i, int(c)))
    return mono_from_pairs(pairs)
