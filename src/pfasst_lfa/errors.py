"""Exception hierarchy shared by all modules."""


class PfasstLfaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PfasstLfaError):
    """Operands have incompatible or invalid dimensions."""


class RangeError(PfasstLfaError):
    """A scalar argument lies outside its supported range."""


class SizeError(PfasstLfaError):
    """A transfer stencil is wider than the coarse grid it acts on."""


class DegeneracyError(PfasstLfaError):
    """Input data is degenerate (e.g. duplicate quadrature nodes)."""


class FactorizationError(PfasstLfaError):
    """A matrix factorization failed (singular or near-singular input)."""


class ConsistencyError(PfasstLfaError):
    """A structural self-check failed beyond its tolerance."""


class ConfigurationError(PfasstLfaError):
    """Components were combined in an unsupported way."""
