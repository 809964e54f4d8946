"""Exception types shared across the package."""


class C0OpsError(Exception):
    """Base class for all package errors."""


class NotADivisor(C0OpsError):
    """Quotient or projection requested for a non-divisor."""


class OutsideDisc(C0OpsError):
    """Evaluation point lies on or outside the unit circle."""


class SingularResolvent(C0OpsError):
    """Resolvent (I - conj(a) A) failed to invert; internal error."""


class AmbientMismatch(C0OpsError):
    """Two subspace frames live in different ambient spaces."""


class NotInvariant(C0OpsError):
    """Subspace failed the invariance residual gate."""


class IllConditioned(C0OpsError):
    """A rank decision or supplied similarity lacks a usable singular gap."""


class ModelTooLong(C0OpsError):
    """Truncation level too small for the supplied Jordan models."""


class HypothesisViolated(C0OpsError):
    """Divisibility hypotheses of a construction are not met."""


class NotInSubspace(C0OpsError):
    """Right-hand side vector lies outside the required subspace."""


class DivisibilityFailure(C0OpsError):
    """Termwise divisibility of compression models fails."""


class TruncationTooSmall(C0OpsError):
    """Requested construction needs a larger truncation level."""


class PreconditionViolated(C0OpsError):
    """Generic precondition failure for an operator construction."""
