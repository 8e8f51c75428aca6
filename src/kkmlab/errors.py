"""Exception types shared across the package.

Each class corresponds to one failure mode of the public API; callers can
catch ``KKMLabError`` to handle any of them uniformly.
"""


class KKMLabError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(KKMLabError):
    """Input points or Gram entries hold NaN or infinity, or the kernel overflows."""


class NormalizationViolated(KKMLabError):
    """A kernel with the unit-norm flag saw a point with feature norm > 1."""


class SpectralFailure(KKMLabError):
    """Eigenvalue decomposition did not converge."""


class InvalidDecayParams(KKMLabError):
    """Eigenvalue-decay parameters outside their domain (needs alpha > 1, c > 0)."""


class EmptyCluster(KKMLabError):
    """An operation that needs every cluster populated found an empty one."""


class InstanceTooLarge(KKMLabError):
    """Exhaustive enumeration refused: instance exceeds the hard size guard."""


class KTooLarge(KKMLabError):
    """Requested more clusters than available points."""


class KTooSmall(KKMLabError, ValueError):
    """Requested fewer than one cluster."""


class MTooLarge(KKMLabError):
    """Requested more landmarks than available points."""


class InvalidDelta(KKMLabError):
    """Failure probability delta must lie strictly inside (0, 1)."""


class MissingXi(KKMLabError):
    """Landmark-size mode needs an effective-dimension value but none was given."""


class NormViolation(KKMLabError):
    """Feature vectors must lie in the unit ball for complexity estimation."""


class NotDivisible(KKMLabError):
    """The lower-bound construction needs the sample size divisible by k."""


class EnumerationTooLarge(KKMLabError):
    """Exact sign-pattern enumeration refused: too many patterns or classes."""


class InvalidLogArgument(KKMLabError):
    """Bound formula needs n > max coordinate complexity > 0."""


class NonPositiveRisk(KKMLabError):
    """Too few cells with positive excess risk remain for a log-log fit."""


class CoefficientDimensionMismatch(KKMLabError):
    """Center coefficient vectors do not match the atom count."""


class InvariantViolated(KKMLabError):
    """An internal invariant of an algorithm failed; this is a bug, not bad input."""


class ConfigError(KKMLabError):
    """Experiment configuration is missing, malformed, or inconsistent."""


class SingularLandmarkBlockWarning(UserWarning):
    """Landmark Gram block lost rank below the pseudo-inverse cutoff."""
