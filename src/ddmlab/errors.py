"""Shared exception types for the laboratory.

Each class names the kind of failure it is, which the command line reports
and turns into its exit code: ``input`` (the default), ``resource`` for a
cap, ``infeasible`` for an empty budgeted class and ``internal`` for a
result that failed its own re-check.
"""


class LabError(Exception):
    """Base class for every error raised by this package."""
    kind = "input"


class RejectedInputError(LabError, ValueError):
    """Input violates a structural precondition (bad window, bad config, ...)."""


class BitsetCapError(RejectedInputError):
    """A window holds more word cells than the bitset cap: a resource limit,
    not a malformed input."""
    kind = "resource"


class NegativeCoordinateError(LabError, ValueError):
    """Set depends on a coordinate below 0, outside the base algebra."""


class GradingViolationError(LabError, ValueError):
    """Set depends on a coordinate below the grade it is used at."""


class NotStochasticError(LabError, ValueError):
    """Matrix row does not sum to one."""


class NotIrreducibleError(LabError, ValueError):
    """Transition matrix is not irreducible."""


class BudgetExceededError(LabError, RuntimeError):
    """Optimizer state grew beyond the configured cap; result would not be exact."""
    kind = "resource"


class TooLargeError(LabError, RuntimeError):
    """Instance too large for exhaustive enumeration."""
    kind = "resource"


class InfeasibleError(LabError, RuntimeError):
    """No cover within the truncated class meets every budget constraint.

    This signals that the slack is too small for this truncation, not that
    the untruncated constrained class is empty.
    """
    kind = "infeasible"


class CertificateError(LabError):
    """A computed optimum failed its independent re-check: the witness does
    not cover the query or does not re-price to the reported costs.  This is
    an internal fault, never a property of the input."""
    kind = "internal"


class DimensionCapError(LabError, ValueError):
    """Chain length beyond the configured cap."""
    kind = "resource"


class GridNotMonotoneError(RejectedInputError):
    """Approximation family is not setwise decreasing in its index."""
