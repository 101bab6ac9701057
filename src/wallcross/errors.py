"""Exception types shared across the package."""


class WallcrossError(Exception):
    """Base class for all package-specific errors."""


class ZeroDenominator(WallcrossError):
    """A rational function was constructed with denominator zero."""


class BadConstantTerm(WallcrossError):
    """exp needs constant term 0, log (plain or plethystic) needs 1."""


class NonPositive(WallcrossError):
    """Argument must be a positive integer."""


class DomainError(WallcrossError):
    """Parameters outside the domain of a closed formula."""


class IndexGap(WallcrossError):
    """Degree-indexed input must cover 1..N without gaps."""


class NonPrimitiveInput(WallcrossError):
    """Incoming ray directions must be primitive lattice vectors."""


class OrderOverflow(WallcrossError):
    """Requested truncation order is invalid or beyond the supported cap."""


class InsufficientOrder(WallcrossError):
    """Diagram not completed far enough for the requested extraction."""


class TruncationMismatch(WallcrossError):
    """Operands of a quantum-torus operation have incompatible truncation."""


class BasisResidue(WallcrossError):
    """Polynomial not expressible in the (q^(1/2)-q^(-1/2))^(2g) basis."""


class FixturesMissing(WallcrossError):
    """Golden fixtures file could not be located."""
