"""Exception types shared across the package.

A refusal's kind is its exit code: one type per code, and the message
says which condition failed.
"""


class C0OpsError(Exception):
    """Base class for all package errors."""


class NotInvariant(C0OpsError):
    """Subspace failed the invariance residual gate."""


class HypothesisViolated(C0OpsError):
    """A hypothesis of a construction is not met: a divisibility, a point
    outside the disc, frames in different ambients, a truncation too small
    for its models or construction, a vector outside its subspace, or an
    operator that is not the intertwiner it must be."""


class IllConditioned(C0OpsError):
    """A rank decision or supplied similarity lacks a usable singular gap,
    or a resolvent failed to invert."""
