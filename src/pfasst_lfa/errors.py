"""Exception hierarchy shared by all modules.

Input is rejected once, at ``ExperimentConfig``; the layers below assume its ranges.
"""


class PfasstLfaError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(PfasstLfaError):
    """A configured value lies outside its supported range, or a run overflows double precision."""


class FactorizationError(PfasstLfaError):
    """A matrix factorization failed (singular or near-singular input)."""


class ConsistencyError(PfasstLfaError):
    """A structural self-check failed beyond its tolerance."""


class ConfigurationError(PfasstLfaError):
    """Components were combined in an unsupported way."""
