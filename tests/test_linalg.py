"""Dense linear-algebra helpers against independent oracles."""

import numpy as np

from pfasst_lfa.linalg import dft_matrix, sort_eigenvalues


def test_dft_matrix_is_unitary():
    for n in (1, 2, 5, 16):
        psi = dft_matrix(n)
        np.testing.assert_allclose(psi.conj().T @ psi, np.eye(n), atol=1e-13)


def test_dft_matrix_diagonalizes_a_circulant_shift():
    n = 8
    shift = np.roll(np.eye(n), 1, axis=1)  # entry (i, i+1): the offset +1 circulant
    psi = dft_matrix(n)
    d = psi.conj().T @ shift @ psi
    off = d - np.diag(np.diag(d))
    assert np.max(np.abs(off)) < 1e-13
    np.testing.assert_allclose(
        np.diag(d), np.exp(2j * np.pi * np.arange(n) / n), atol=1e-13
    )


def test_sort_eigenvalues_orders_by_real_then_imag_descending():
    vals = np.array([1 + 1j, 2 - 1j, 1 - 1j, 2 + 1j])
    got = sort_eigenvalues(vals)
    np.testing.assert_array_equal(got, np.array([2 + 1j, 2 - 1j, 1 + 1j, 1 - 1j]))


def test_sort_eigenvalues_sorts_each_row_of_a_stack():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    stack[:, 3] = stack[:, 5].real + 1j  # ties in the real part fall back to imag
    got = sort_eigenvalues(stack)
    for row, vals in zip(got, stack):
        np.testing.assert_array_equal(row, sort_eigenvalues(vals))
