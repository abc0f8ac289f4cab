"""Eigenvalue ordering, the power-of-two scaling, block Toeplitz assembly and the unitary Fourier matrix.

Matrices are plain ``numpy.ndarray`` objects (2-d, complex or real).  The
helpers here fix the eigenvalue ordering, the scaling of every 2-norm and the
Fourier convention the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np


def sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Order eigenvalues by (real, imag) descending along the last axis of a stack."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def scaled(stack: np.ndarray):
    """(s, X/s) of each matrix X of a stack: s = 2^e, e the ``np.frexp`` exponent of max|X|, so |X/s| < 1."""
    e = np.minimum(np.frexp(np.max(np.abs(stack), axis=(-2, -1)))[1], 1023)  # s finite: |X/s| < 2 from 2^1023 on
    # ldexp on the float view, no division: a complex division by a subnormal max|X| (B^k, B nilpotent) overflows
    return np.ldexp(1.0, e), np.ldexp(stack.view(float), -e[..., None, None]).view(stack.dtype)


def norm2(x: np.ndarray) -> float:
    """||x||_2 (Frobenius for a matrix) as s ||x/s||, (s, x/s) the ``scaled`` x: no square under- or overflows."""
    s, y = scaled(np.ravel(x, order="K")[None])  # contiguous, with the entries in the order np.linalg.norm sums them
    return float(s * np.linalg.norm(y))


def block_toeplitz(column: np.ndarray, width: int) -> np.ndarray:
    """The block lower triangular Toeplitz matrix whose first block column, ``width`` wide, is ``column``."""
    out = np.zeros((len(column), len(column)), dtype=column.dtype)
    for j in range(0, len(column), width):
        out[j:, j : j + width] = column[: len(column) - j]
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix whose columns are the circulant eigenvectors.

    Column k is psi_k with entries exp(i*2*pi*k*j/n)/sqrt(n), j = 0..n-1.
    """
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
