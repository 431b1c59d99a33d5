"""Exception types raised across the package.

Everything derives from :class:`BilliardError` (itself a ``ValueError``) so
callers can catch broadly or by specific failure mode.
"""


class BilliardError(ValueError):
    """Base class for all package-specific errors."""


class DomainError(BilliardError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidTableError(BilliardError):
    """Table parameters violate an admissibility constraint."""


class NoCollisionError(BilliardError):
    """A ray misses the wall the map assumed it would hit."""


class GrazingError(BilliardError):
    """A bounce is too close to tangential for the linearization to be meaningful."""


class ClassificationError(BilliardError):
    """An operation requires an elliptic (or otherwise specific) stability class."""


class ResonanceError(BilliardError):
    """Eigenvalues sit on a low-order resonance where the twist formula fails."""


class NonEllipticNormalizationError(BilliardError):
    """Taylor data violates the sign condition needed for the twist normalization."""


class PrecisionError(BilliardError):
    """Two independent numerical methods disagree beyond the allowed tolerance."""


class TangencyWarning(UserWarning):
    """A ray grazed a wall tangentially; the intersection was skipped."""

