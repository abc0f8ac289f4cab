"""Eigenvalue ordering, the scaled vector norm and the unitary Fourier matrix shared by the other modules.

Matrices are plain ``numpy.ndarray`` objects (2-d, complex or real).  The
helpers here fix the eigenvalue ordering, the vector 2-norm and the Fourier
convention the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np


def sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Order eigenvalues by (real, imag) descending along the last axis of a stack."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def norm2(x: np.ndarray) -> float:
    """||x||_2 (Frobenius for a matrix) as 2^e ||x/2^e||, e the ``np.frexp`` exponent of max|x|: no square underflow."""
    x = np.ravel(x, order="K")  # contiguous, with the entries in the order np.linalg.norm sums them
    _, e = np.frexp(np.max(np.abs(x)))  # a power of two is exact; np.ldexp on the float view divides nothing
    return float(np.ldexp(np.linalg.norm(np.ldexp(x.view(float), -e).view(x.dtype)), e))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix whose columns are the circulant eigenvectors.

    Column k is psi_k with entries exp(i*2*pi*k*j/n)/sqrt(n), j = 0..n-1.
    """
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
