"""CI transfer operators: stencils, exactness and harmonic structure."""

from dataclasses import replace

import numpy as np
import pytest

from pfasst_lfa.analysis import ExperimentConfig
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.linalg import dft_matrix
from pfasst_lfa.transfer import (
    INTERP_EXACTNESS,
    RESTR_EXACTNESS,
    build_ci_pair,
    check_restriction_condition,
    harmonic_diagonals,
    midpoint_generator,
    midpoint_stencil_points,
    node_propagation,
    transfer_structure_residual,
)


@pytest.mark.parametrize("degree,points", [(1, 2), (2, 2), (3, 6), (4, 6), (5, 8), (6, 8)])
def test_midpoint_stencil_width(degree, points):
    assert midpoint_stencil_points(degree) == points


@pytest.mark.parametrize("degree", [2, 6])
def test_midpoint_generator_weights_from_lagrange_oracle(degree):
    gen = midpoint_generator(32, degree)
    offsets = sorted(gen.stencil)
    weights = np.array([gen.stencil[o] for o in offsets])
    # oracle: Lagrange weights reproduce monomial values at the midpoint up
    # to the polynomial degree the stencil width supports
    for deg in range(min(degree, len(offsets) - 1) + 1):
        poly = np.array([float(o) ** deg for o in offsets])
        value = float(weights @ poly)
        assert value == pytest.approx(0.5**deg, abs=1e-10), deg
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    # the degree-2 stencil is the plain midpoint average
    if degree == 2:
        np.testing.assert_allclose(weights, [0.5, 0.5])


def test_interpolation_reproduces_smooth_periodic_data():
    n = 64
    pair = build_ci_pair(n)
    x_c = np.arange(n // 2) / (n // 2)
    x_f = np.arange(n) / n
    for k in (1, 2, 3):
        coarse = np.sin(2 * np.pi * k * x_c)
        fine = np.sin(2 * np.pi * k * x_f)
        err = np.max(np.abs(pair.interpolation @ coarse - fine))
        assert err < 40.0 * (2.0 * np.pi * k / n) ** 6  # interpolation error O(h^6)


def test_interpolation_even_rows_are_identity():
    pair = build_ci_pair(16)
    np.testing.assert_array_equal(pair.interpolation[0::2], np.eye(8))
    np.testing.assert_array_equal(pair.interpolation[1::2], pair.generator_interp.materialize())


def test_restriction_is_half_transposed_interpolation_of_its_generator():
    pair = build_ci_pair(16)
    expected = np.empty((16, 8))
    expected[0::2] = np.eye(8)
    expected[1::2] = pair.generator_restr.materialize()
    np.testing.assert_array_equal(pair.restriction, 0.5 * expected.T)
    # full weighting: restriction preserves constants
    np.testing.assert_allclose(pair.restriction @ np.ones(16), np.ones(8), atol=1e-13)


def test_harmonic_diagonals_match_materialized_transform():
    n = 32
    pair = build_ci_pair(n)
    diags = harmonic_diagonals(pair)
    assert transfer_structure_residual(pair, diags) < 1e-12
    psi = dft_matrix(n)
    psi_c = dft_matrix(n // 2)
    t_int = psi.conj().T @ pair.interpolation @ psi_c
    k = np.arange(n // 2)
    np.testing.assert_allclose(t_int[k, k], diags.d, atol=1e-12)
    np.testing.assert_allclose(t_int[n // 2 + k, k], diags.d_hat, atol=1e-12)
    t_res = psi_c.conj().T @ pair.restriction @ psi
    np.testing.assert_allclose(t_res[k, k], 0.5 * diags.f, atol=1e-12)
    np.testing.assert_allclose(t_res[k, n // 2 + k], 0.5 * diags.f_hat, atol=1e-12)


def test_harmonic_diagonals_k0_pair():
    pair = build_ci_pair(16)
    diags = harmonic_diagonals(pair)
    vals = sorted([abs(diags.d[0]), abs(diags.d_hat[0])])
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert vals[1] == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_harmonic_diagonals_detect_tampering():
    pair = build_ci_pair(16)
    diags = harmonic_diagonals(pair)
    assert transfer_structure_residual(pair, diags) < 1e-12
    for field, scale in (("d", 1.0), ("f_hat", 0.5)):  # one interpolation and one restriction diagonal
        bad = getattr(diags, field).copy()
        bad[3] += 1e-6
        # the restriction's transform carries its diagonals halved
        residual = transfer_structure_residual(pair, replace(diags, **{field: bad}))
        assert residual == pytest.approx(scale * 1e-6, rel=1e-6)


def test_node_propagation_copies_last_node():
    k = node_propagation(3)
    np.testing.assert_array_equal(k, [[0, 0, 1], [0, 0, 1], [0, 0, 1]])
    u = np.array([1.0, 2.0, 7.0])
    np.testing.assert_array_equal(k @ u, [7.0, 7.0, 7.0])


def test_restriction_condition_exact_for_spatial_coarsening():
    pair = build_ci_pair(16)
    ok, violation = check_restriction_condition(pair, m_nodes=3)
    assert ok
    assert np.max(np.abs(violation)) == 0.0


def test_restriction_condition_detects_temporal_coarsening():
    pair = build_ci_pair(16)
    broken = np.eye(3)
    broken[2, 2] = 0.25
    ok, violation = check_restriction_condition(pair, 3, temporal_restriction=broken)
    assert not ok
    assert np.max(np.abs(violation)) > 0.1


def test_midpoint_stencil_rejects_bad_degree_and_size():
    # the analysis uses exactness degrees >= 1, and ExperimentConfig refuses every n whose coarse grid
    # n/2 is narrower than their stencil
    assert min(INTERP_EXACTNESS, RESTR_EXACTNESS) >= 1
    width = max(map(midpoint_stencil_points, (INTERP_EXACTNESS, RESTR_EXACTNESS)))
    for n in (4, 8):
        with pytest.raises(ConfigurationError, match=f"n/2 >= {width}, the transfer stencil width, got n = {n}"):
            ExperimentConfig(problem="advection", coefficient=1.0, n=n)
    ExperimentConfig(problem="advection", coefficient=1.0, n=2 * width)  # the narrowest grid it admits
    assert len(midpoint_generator(width, INTERP_EXACTNESS).stencil) == width


def test_build_ci_pair_needs_even_grid():
    # build_ci_pair assumes an even fine grid; ExperimentConfig refuses an odd one
    with pytest.raises(ConfigurationError, match="got n = 15"):
        ExperimentConfig(problem="advection", coefficient=1.0, n=15)


def test_restriction_condition_rejects_a_temporal_restriction_with_the_wrong_column_count():
    # a temporal restriction needs m_nodes columns; numpy's matmul refuses any other count
    pair = build_ci_pair(16)
    with pytest.raises(ValueError, match="mismatch in its core dimension"):
        check_restriction_condition(pair, 3, temporal_restriction=np.eye(2, 4))
