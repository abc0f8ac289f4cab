"""Exception hierarchy shared by all modules.

Input is rejected once, at ``ExperimentConfig``; the layers below assume its ranges.
"""


class PfasstLfaError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(PfasstLfaError):
    """A result is not finite: the run overflows double precision (the CLI's exit 3)."""


class FactorizationError(PfasstLfaError):
    """A matrix factorization failed (singular or near-singular input)."""


class ConfigurationError(PfasstLfaError):
    """``ExperimentConfig`` refuses a field, named in the message (the CLI's usage error, exit 2)."""
