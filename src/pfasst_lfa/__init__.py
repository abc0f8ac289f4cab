"""Block Fourier analysis of two-level PFASST for linear model problems.

The package assembles the PFASST iteration in explicit matrix form,
block-diagonalizes its iteration matrix through spatial (and optionally
temporal) Fourier transforms, and predicts convergence for linear diffusion
and advection problems with four estimation strategies.
"""

__version__ = "1.0.0"

from .errors import (
    ConfigurationError,
    FactorizationError,
    PfasstLfaError,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "FactorizationError",
    "PfasstLfaError",
]
