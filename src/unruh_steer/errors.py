"""Error taxonomy shared across the package.

Every exception raised on a validated contract derives from
:class:`UnruhSteerError`, so callers (and the sweep engine, which converts
per-point failures into row diagnostics) can catch one base type.
"""


class UnruhSteerError(Exception):
    """Base class for all package-specific errors."""


class NonHermitian(UnruhSteerError):
    """Matrix input fails the Hermiticity check."""


class NotPositive(UnruhSteerError):
    """Operator expected to be positive semidefinite is not."""


class DomainError(UnruhSteerError):
    """Scalar parameter outside its validated range."""


class UnphysicalDrift(UnruhSteerError):
    """Integrated trajectory left the physical set beyond tolerance."""


class DegenerateLimit(UnruhSteerError):
    """Closed-form denominator underflowed; the formula degenerates."""


class DenominatorZero(UnruhSteerError):
    """A printed-ratio denominator is numerically zero."""


class ConsistencyError(UnruhSteerError):
    """A closed-form identity the computation relies on failed numerically."""
