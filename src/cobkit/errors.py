"""Error types shared across the package.

Precondition violations raise DomainError with a message quoting the
violated condition.  Internal invariant failures are plain AssertionError,
which the command line driver reports separately from bad input.
"""


class DomainError(ValueError):
    """Input violates a documented precondition."""


class ResourceLimitError(DomainError):
    """A computation exceeded an explicit size cap."""
