"""Exception types shared across the package."""


class UctError(Exception):
    """Base class for package-specific errors."""


class NotPrime(UctError):
    """Field characteristic is not a prime number."""


class FieldTooLarge(UctError):
    """Requested field order exceeds the configured cap."""


class ZeroInverse(UctError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(UctError):
    """Matrix operands disagree in dimension or base field."""


class RingTooLarge(UctError):
    """Ring order exceeds the configured vertex cap."""


class GraphTooLarge(UctError):
    """Requested graph exceeds the configured vertex cap."""


class DisconnectedGraph(UctError):
    """Operation only defined for connected graphs."""


class GraphTooLargeForOracle(UctError):
    """Generic isomorphism search is capped at small graphs."""


class WrongField(UctError):
    """Check requested for a field size it does not apply to."""
