"""Spectra and the unitary Fourier matrix shared by the other modules.

Matrices are plain ``numpy.ndarray`` objects (2-d, complex or real).  The
helpers here fix the eigenvalue ordering and the Fourier convention the
rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset of a square matrix.

    ``eigenvalues`` are sorted by (real, imag) descending so that reports and
    multiset comparisons are deterministic.
    """

    eigenvalues: np.ndarray
    source_dim: int

    def __post_init__(self):
        if len(self.eigenvalues) != self.source_dim:
            raise DimensionError(
                f"{len(self.eigenvalues)} eigenvalues for dimension {self.source_dim}"
            )

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.source_dim else 0.0


def sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Order eigenvalues by (real, imag) descending."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix whose columns are the circulant eigenvectors.

    Column k is psi_k with entries exp(i*2*pi*k*j/n)/sqrt(n), j = 0..n-1.
    """
    if n < 1:
        raise DimensionError(f"dft_matrix needs n >= 1, got {n}")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
