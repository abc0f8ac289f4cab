"""Eigenvalue ordering, the power-of-two scaling, the block Toeplitz product and the unitary Fourier matrix.

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


def convolved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A b, shaped like b, for A block lower Toeplitz with first block column ``a`` (L*w x w) and b of L*w rows.

    Block i sums A's block i - j times b's block j over j = 0..i, in that order, one stacked product per block of
    A.  b is any block column: B's first gives A B's (the powers of T), a vector A b (M u, T e, Lanczos).  A
    w x w ``a`` is one interval: A b is ``a @ b``.
    """
    a = a.reshape(-1, a.shape[-1], a.shape[-1])
    blocks = b.reshape(*a.shape[:2], -1)
    out = np.zeros(blocks.shape, np.result_type(a, b))
    for p in reversed(range(len(a))):
        out[p:] += a[p] @ blocks[: len(a) - p]
    return out.reshape(b.shape)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix whose columns are the circulant eigenvectors.

    Column k is psi_k with entries exp(i*2*pi*k*j/n)/sqrt(n), j = 0..n-1.
    """
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
