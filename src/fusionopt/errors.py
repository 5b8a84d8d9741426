"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: domain errors (bad data, bad
configuration, infeasible weights) exit with 1, usage errors and I/O
failures exit with 2.
"""


class FusionOptError(Exception):
    """Base class for all domain errors raised by this package."""


class DataError(FusionOptError):
    """Malformed or inconsistent score files, labels, or datasets.

    A check on one row of a table sets ``row`` (0-based) and ``reason`` (the
    message without its location), so a file loader can restate the error
    as ``path:line: reason``.
    """

    def __init__(self, message: str, *, row: int | None = None, reason: str | None = None):
        super().__init__(message)
        self.row = row
        self.reason = reason


class ConfigError(FusionOptError):
    """Invalid optimizer configuration or experiment manifest."""


class UsageError(FusionOptError):
    """User invoked a command in a way that can never work (exit code 2)."""


class InvalidWeightsError(FusionOptError):
    """Weight vector violates its invariants (negative, all-zero, wrong length)."""


class AugmentationError(FusionOptError):
    """A translation backend failed while augmenting a sample."""
