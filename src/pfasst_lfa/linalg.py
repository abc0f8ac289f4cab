"""Eigenvalue ordering and the unitary Fourier matrix shared by the other modules.

Matrices are plain ``numpy.ndarray`` objects (2-d, complex or real).  The
helpers here fix the eigenvalue ordering and the Fourier convention the
rest of the package relies on.
"""

from __future__ import annotations

import numpy as np


def sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Order eigenvalues by (real, imag) descending along the last axis of a stack."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix whose columns are the circulant eigenvectors.

    Column k is psi_k with entries exp(i*2*pi*k*j/n)/sqrt(n), j = 0..n-1.
    """
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
