"""Dense linear-algebra helpers against independent oracles."""

import numpy as np
import pytest

from pfasst_lfa.analysis import ExperimentConfig
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa import lfa
from pfasst_lfa.linalg import dft_matrix, norm2, scaled, sort_eigenvalues


def test_dft_matrix_is_unitary():
    for n in (1, 2, 5, 16):
        psi = dft_matrix(n)
        np.testing.assert_allclose(psi.conj().T @ psi, np.eye(n), atol=1e-13)


def test_dft_matrix_rejects_an_empty_grid():
    # dft_matrix assumes n >= 1; ExperimentConfig refuses every grid below 16 points, n = 0 included
    with pytest.raises(ConfigurationError, match="got n = 0"):
        ExperimentConfig(problem="diffusion", mu=10.0, n=0)


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


def test_norm2_is_np_linalg_norm_bit_for_bit_in_range():
    # scaling by a power of two is exact: away from under- and overflow the bits are np.linalg.norm's
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(97), rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))):
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            assert norm2(scale * x) == np.linalg.norm(scale * x)
    assert norm2(np.zeros(4)) == 0.0


def test_norm2_of_entries_whose_squares_underflow():
    # 3e-170 and 4e-170 square to 0: np.linalg.norm reads 0, the scaled norm 5e-170
    x = np.array([3e-170, 4e-170])
    assert np.linalg.norm(x) == 0.0
    assert norm2(x) == pytest.approx(5e-170, rel=1e-15)
    assert norm2(x * (1 + 1j)) == pytest.approx(5e-170 * np.sqrt(2), rel=1e-15)
    assert norm2(np.array([5e-324, 0.0])) == 5e-324  # a subnormal max


def test_norms_of_entries_from_2_to_the_1023_stay_finite():
    # there the frexp exponent is 1024 and 2^1024 overflows: capped at 1023, s is finite and |X/s| < 2
    assert norm2(np.array([1e308, 0.0])) == 1e308
    assert norm2(np.array([0.0, -1.5e308j])) == 1.5e308
    scale, x = scaled(np.diag([1.7e308, 1.0])[None])
    assert scale.tolist() == [2.0**1023] and 1 < np.max(np.abs(x)) < 2
    assert lfa._norms2(scale, lfa._gram(x)).tolist() == [1.7e308]
