"""Shared exception types."""


class NotCoveredError(Exception):
    """Raised when a (group, target) combination is outside the supported scope.

    The CLI maps this to exit code 3.
    """


class InvariantError(RuntimeError):
    """Raised when an internal consistency check fails: a defect, not bad input.

    These checks are explicit raises rather than asserts, so they still run
    under ``python -O``.  The CLI maps this to exit code 4.
    """
