"""Exception taxonomy for the superweyl package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map precondition violations to a distinct exit code.  All
classes derive from :class:`SuperweylError`; anything else escaping the
library is a bug.
"""

from __future__ import annotations


class SuperweylError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFamily(SuperweylError):
    """Requested algebra family or parameter range is not supported."""


class MalformedDatumFile(SuperweylError):
    """A datum file failed to parse or violated a structural invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(SuperweylError):
    """Vectors of incompatible ambient dimension were combined."""


class IndexOutOfRange(SuperweylError):
    """A simple-root, odd-root, or component index is out of range."""


class NoSecondComponent(SuperweylError):
    """A two-component operation was applied to a connected even diagram."""


class GroupTooLarge(SuperweylError):
    """Weyl group enumeration exceeded the configured element cap."""


class GraphTooLarge(SuperweylError):
    """Partition enumeration was requested for a graph above the vertex cap."""


class InvalidGraph(SuperweylError):
    """A graph has repeated vertices, a loop or an unknown vertex."""


class RingMismatch(SuperweylError):
    """Polynomials over different coefficient rings were combined."""


class ConstantTermNotOne(SuperweylError):
    """A logarithm was requested of a series whose degree-0 part is not 1.

    The constant term must be 1, and every other term must have positive
    X degree.
    """


class NotInvertible(SuperweylError):
    """A series without a nonzero constant term was inverted."""


class NegativeExponentAfterCollapse(SuperweylError):
    """``series.weight_monomial`` was given a negative exponent."""


class NonIntegralExponent(SuperweylError):
    """A monomial exponent that must be a positive integer is not."""


class NotDominant(SuperweylError):
    """Weight fails the dominance conditions required by the operation."""


class NotTypical(SuperweylError):
    """Weight is atypical where a typical weight is required."""


class NotSinglyAtypical(SuperweylError):
    """Weight is not singly atypical (zero or several vanishing pairings)."""


class MixedAtypicalityTypes(SuperweylError):
    """Weights in one comparison have different atypicality types."""


class WrongFamily(SuperweylError):
    """Operation is defined only for specific algebra families."""


class IndexNotInterior(SuperweylError):
    """Odd-root index pair (p, q) is not interior to the simple-root chains."""


class TruncationTooSmall(SuperweylError):
    """A ``ZSeries``, ``AtypicalContext``, ``neg_log`` or character bound was negative."""


class UnsupportedCase(SuperweylError):
    """No closed form is available for this configuration."""


class InternalInvariant(SuperweylError):
    """An internal consistency check failed: a bug, not a caller error."""


class WeightParseError(SuperweylError):
    """A weight expression failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"at position {position}: {message}"
        super().__init__(message)


class UnknownSymbol(WeightParseError):
    """A weight expression referenced an unknown symbol or bad index."""


def invariant(holds: bool, message: str) -> None:
    """Raise :class:`InternalInvariant` unless ``holds``; unlike ``assert``, kept under ``-O``."""
    if not holds:
        raise InternalInvariant(message)
