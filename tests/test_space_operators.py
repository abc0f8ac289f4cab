"""Circulant operators and the model problems' operators against FFT and PDE oracles."""

import numpy as np
import pytest

import oracles
from pfasst_lfa.analysis import ExperimentConfig, build_context
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.space_operators import (
    CirculantOperator,
    exact_solution,
    make_advection,
    make_diffusion,
)
from pfasst_lfa.transfer import build_ci_pair


def test_circulant_symbol_matches_fft_oracle():
    op = CirculantOperator(n=12, stencil={-2: 0.5, 0: -1.0, 3: 2.0}, scale=1.7)
    a = op.materialize()
    # first row of a circulant determines the spectrum via the FFT, in the
    # same harmonic order as the analytic symbol
    oracle = np.fft.fft(a[0]).conj()
    got = op.symbol(np.arange(op.n))
    np.testing.assert_allclose(got, oracle, atol=1e-12)


@pytest.mark.parametrize(
    "op",
    [
        CirculantOperator(n=12, stencil={-2: 0.5, 0: -1.0, 3: 2.0}, scale=1.7),
        CirculantOperator(n=2, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=3.0),  # offsets alias
        make_advection(16, 0.7),
    ],
)
def test_circulant_stencil_action_and_first_column_match_the_matrix(op):
    a = op.materialize()
    np.testing.assert_array_equal(op.first_column(), a[:, 0])
    u = np.random.default_rng(4).standard_normal((3, 2, op.n))
    np.testing.assert_allclose(op.apply(u), u @ a.T, rtol=0, atol=1e-13 * np.abs(a).max())


def _package_stencils():
    """Every stencil the package builds: both problems on both levels, both transfer generators and G_r^T."""
    for n in (4, 16, 128):  # n = 4: the 8-point interpolation stencil wraps the 2-point coarse grid
        for make, coefficient in ((make_diffusion, 0.3), (make_advection, 0.7)):
            yield make(n, coefficient)
            yield make(n // 2, coefficient)
        pair = build_ci_pair(n)
        yield from (pair.generator_interp, pair.generator_restr, pair._adjoint_restr)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_circulant_apply_is_bitwise_the_roll_sum(complex_):
    rng = np.random.default_rng(5)
    for op in _package_stencils():
        u = rng.standard_normal((2, 3, op.n))
        if complex_:
            u = u + 1j * rng.standard_normal(u.shape)
        for x in (u, u[1, 2], u[..., ::-1]):  # a stack, one row, a strided view
            assert np.array_equal(op.apply(x), oracles.roll_apply(op, x))


def test_circulant_eigenvectors_are_fourier_modes():
    op = CirculantOperator(n=8, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=3.0)
    a = op.materialize()
    lam = op.symbol(np.arange(op.n))
    j = np.arange(8)
    for k in range(8):
        v = np.exp(2j * np.pi * k * j / 8)
        np.testing.assert_allclose(a @ v, lam[k] * v, atol=1e-12)


def test_diffusion_matrix_entries_and_spectrum():
    n, nu = 16, 2.5e-3
    op = make_diffusion(n, nu)
    a = op.materialize()
    dx = 1.0 / n
    np.testing.assert_allclose(a[3, 2:5], nu / dx**2 * np.array([1.0, -2.0, 1.0]))
    lam = op.symbol(np.arange(n))
    np.testing.assert_allclose(lam.imag, 0.0, atol=1e-10)
    assert np.all(lam.real <= 1e-12)  # negative semi-definite
    # analytic symbol: -(4 nu / dx^2) sin^2(pi k / n)
    k = np.arange(n)
    expected = -4.0 * nu / dx**2 * np.sin(np.pi * k / n) ** 2
    np.testing.assert_allclose(lam.real, expected, atol=1e-9)


def test_advection_matrix_entries_and_spectrum():
    n, c = 16, 4.88e-3
    op = make_advection(n, c)
    a = op.materialize()
    dx = 1.0 / n
    row = a[5, 3:7]  # offsets -2..+1
    np.testing.assert_allclose(row, -c / (6 * dx) * np.array([1.0, -6.0, 3.0, 2.0]))
    lam = op.symbol(np.arange(n))
    # third-order upwind: nonpositive real part, real at k = 0 and k = n/2
    assert np.all(lam.real <= 1e-12)
    assert abs(lam[0]) < 1e-12
    assert abs(lam[n // 2].imag) < 1e-12
    # analytic real part: -(c / (3 dx)) (1 - cos theta)^2
    theta = 2 * np.pi * np.arange(n) / n
    np.testing.assert_allclose(lam.real, -c / (3 * dx) * (1 - np.cos(theta)) ** 2, atol=1e-9)


def test_advection_row_sums_vanish():
    op = make_advection(8, 1e-2)
    np.testing.assert_allclose(op.materialize().sum(axis=1), 0.0, atol=1e-15)


def test_exact_solution_diffusion_satisfies_heat_kernel_decay():
    n, nu = 32, 1e-2
    k, t = 3, 0.7
    u = exact_solution("diffusion", n, nu, k, t)
    u0 = exact_solution("diffusion", n, nu, k, 0.0)
    decay = np.exp(-nu * (2 * np.pi * k) ** 2 * t)
    np.testing.assert_allclose(u, decay * u0, atol=1e-14)
    np.testing.assert_allclose(u0, np.sin(2 * np.pi * k * np.arange(n) / n), atol=1e-14)


def test_exact_solution_advection_is_a_shift():
    n, c = 32, 2e-2
    k, t = 2, 0.5
    u = exact_solution("advection", n, c, k, t)
    np.testing.assert_allclose(
        u, np.sin(2 * np.pi * k * (np.arange(n) / n - c * t)), atol=1e-14
    )


def test_exact_solution_semidiscrete_consistency():
    # d/dt of the sampled PDE solution approximately equals A u for smooth modes
    n, nu = 128, 1e-3
    k, t, eps = 1, 0.3, 1e-6
    du = (exact_solution("diffusion", n, nu, k, t + eps) - exact_solution("diffusion", n, nu, k, t - eps)) / (2 * eps)
    au = make_diffusion(n, nu).materialize() @ exact_solution("diffusion", n, nu, k, t)
    np.testing.assert_allclose(du, au, atol=1e-4)


def test_cfl_number_and_kind_guard():
    cfg = ExperimentConfig(problem="advection", n=128, coefficient=4.88e-3, dt=0.1)
    assert cfg.cfl == 0.062464
    # cfl assumes advection; ExperimentConfig refuses the diffusion mesh ratio mu for it
    with pytest.raises(ConfigurationError, match="mu applies to diffusion only"):
        ExperimentConfig(problem="advection", mu=10.0)


@pytest.mark.parametrize(
    "problem,make,coefficient",
    [("diffusion", make_diffusion, {"mu": 10.0}), ("advection", make_advection, {"coefficient": 1e-2})],
    ids=["diffusion", "advection"],
)
def test_build_context_coarse_operator_is_the_maker_on_half_the_grid(problem, make, coefficient):
    cfg = ExperimentConfig(problem=problem, n=16, **coefficient)
    setup = build_context(cfg).setup
    for level, n in ((setup.fine, 16), (setup.coarse, 8)):
        expected = make(n, cfg.resolved_coefficient())
        assert level.operator.n == n
        # the same offsets in the same order, and the same scale to the bit
        assert list(level.operator.stencil.items()) == list(expected.stencil.items())
        assert level.operator.scale == expected.scale


def test_model_problem_rejects_bad_sizes_and_coefficients():
    # make_diffusion and make_advection assume the n and coefficient ranges that ExperimentConfig enforces
    for problem, n, coefficient in [
        ("diffusion", 5, 1.0),
        ("diffusion", 2, 1.0),
        ("diffusion", 16, -1.0),
        ("advection", 4, 1.0),
        ("advection", 16, 0.0),
    ]:
        with pytest.raises(ConfigurationError):
            ExperimentConfig(problem=problem, n=n, coefficient=coefficient)


def test_exact_solution_wavenumber_range():
    # exact_solution assumes 1 <= k < n; ExperimentConfig is where another wavenumber is refused
    for k in (0, 16):
        with pytest.raises(ConfigurationError, match=f"wavenumber must lie in 1..n-1 = 15, got {k}"):
            ExperimentConfig(problem="diffusion", mu=10.0, n=16, wavenumber=k)
