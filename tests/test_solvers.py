"""Sweeps, preconditioners and the PFASST step in both formulations."""

import numpy as np
import pytest

import oracles
from pfasst_lfa import solvers
from pfasst_lfa.analysis import ExperimentConfig, build_context
from pfasst_lfa.collocation import CollocationProblem, spread_initial
from pfasst_lfa.errors import ConfigurationError, FactorizationError
from pfasst_lfa.quadrature import QuadratureRule, build_qdelta
from pfasst_lfa.solvers import (
    Preconditioner,
    TwoLevelSetup,
    mlsdc_iteration_matrix,
    mlsdc_preconditioner_inverse,
    mlsdc_step,
    node_sweep,
    pfasst_run_algorithmic,
    richardson_step,
    sdc_iteration_matrix,
    sdc_preconditioner,
)
from pfasst_lfa.space_operators import (
    CirculantOperator,
    make_advection,
    make_diffusion,
)
from pfasst_lfa.transfer import build_ci_pair, node_propagation

EPS = np.finfo(float).eps


def _nu(n, dt=0.1):
    """The diffusion coefficient of mesh ratio mu = 10."""
    return 10.0 * (1.0 / n) ** 2 / dt


def _small_problem(n=16, m=3, dt=0.1, nu=None):
    """The coefficient, the Radau rule and the collocation problem of diffusion on n points."""
    nu = _nu(n, dt) if nu is None else nu
    rule = QuadratureRule.radau_right(m)
    return nu, rule, CollocationProblem(make_diffusion(n, nu), rule, dt)


def _setup(make, n, coefficient, m, l, kind="implicit-euler", dt=0.1):
    """The two-level setup of ``make``'s operator on n and on n/2 points, on one Radau rule."""
    rule = QuadratureRule.radau_right(m)
    fine = CollocationProblem(make(n, coefficient), rule, dt)
    coarse = CollocationProblem(make(n // 2, coefficient), rule, dt)
    return TwoLevelSetup(fine, coarse, build_ci_pair(n), l, qdelta=build_qdelta(rule, kind))


def _first_interval_rhs(u0, m, l):
    """The composite right-hand side: u0 on every node of the first interval, zero after."""
    rhs = np.zeros((l, m, len(u0)))
    rhs[0] = u0
    return rhs.ravel()


@pytest.mark.parametrize("coupled", [False, True], ids=["jacobi", "gauss-seidel"])
@pytest.mark.parametrize("l", [1, 3])
def test_preconditioner_solve_matches_dense_solve(l, coupled):
    _, rule, cp = _small_problem(n=8)
    p = sdc_preconditioner(cp, build_qdelta(rule, "implicit-euler"))
    coupling = node_propagation(rule.m) if coupled else None
    # oracles: the kron block Jacobi and the dense block lower-bidiagonal Gauss-Seidel
    dense = np.kron(np.eye(l), p.matrix)
    if coupled:
        dense -= np.kron(np.eye(l, k=-1), np.kron(coupling, np.eye(8)))
    # both are solved interval by interval through the one-interval LU, l intervals read off the rows
    composite = Preconditioner(p.matrix, coupling)
    rng = np.random.default_rng(6)
    d = l * cp.dim
    for rhs in (rng.standard_normal(d), rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))):
        np.testing.assert_allclose(composite.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-13)


def test_preconditioner_rejects_singular_matrix():
    p = Preconditioner(np.zeros((3, 3)))
    with pytest.raises(FactorizationError):
        p.solve(np.ones(3))


@pytest.mark.parametrize("coupling", [None, np.eye(3)], ids=["jacobi", "gauss-seidel"])
def test_preconditioner_refuses_rows_that_do_not_split_into_l_blocks(coupling):
    # 7 rows over intervals of 3 would leave the last row unsolved: it is an error, not uninitialized memory
    p = Preconditioner(2 * np.eye(3), coupling)
    for rhs in (np.ones(7), np.ones((7, 2)), np.ones((2, 7)).T):
        with pytest.raises(ValueError):
            p.solve(rhs)
    second = 0.5 if coupling is None else 0.75  # (1 + 0.5) / 2 with the first interval's value added
    np.testing.assert_array_equal(p.solve(np.ones(6)), [0.5] * 3 + [second] * 3)


@pytest.mark.parametrize("complex_stack", [False, True])
@pytest.mark.parametrize("make,coefficient", [(make_diffusion, 0.05), (make_advection, 0.5)])
@pytest.mark.parametrize("kind", ["implicit-euler", "lu"])
def test_node_sweep_equals_dense_preconditioner(kind, make, coefficient, complex_stack):
    rule = QuadratureRule.radau_right(3)
    cp = CollocationProblem(make(8, coefficient), rule, 0.1)
    qd = build_qdelta(rule, kind)
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, 4, 3, 8))
    if complex_stack:
        r = r + 1j * rng.standard_normal((2, 4, 3, 8))
    dense = sdc_preconditioner(cp, qd).solve(r.reshape(8, 24).T).T.reshape(r.shape)
    x = node_sweep(cp, qd).solve(r)
    assert np.iscomplexobj(x) == complex_stack  # real input gives real output
    np.testing.assert_allclose(x, dense, atol=1e-13)


@pytest.mark.parametrize(
    "make,coefficient,kind", [(make_diffusion, 0.05, "implicit-euler"), (make_advection, 0.5, "lu")]
)
def test_node_sweep_condition_is_the_pivot_spread_of_each_stencil(make, coefficient, kind):
    setup = _setup(make, 16, coefficient, 3, 2, kind)
    for level, sweep in ((make(16, coefficient), setup.fine_sweep), (make(8, coefficient), setup.coarse_sweep)):
        pivots = np.abs(1.0 - 0.1 * np.outer(np.diag(setup.qdelta), level.symbol(np.arange(level.n))))
        assert sweep.condition == pytest.approx(pivots.max() / pivots.min(), rel=1e-13)


def test_node_sweep_rejects_singular_node_factor():
    # dt * qd_11 * A = I: the middle node's factor is exactly zero
    rule = QuadratureRule.radau_right(3)
    cp = CollocationProblem(CirculantOperator(2, {0: 1.0}), rule, 1.0)
    with pytest.raises(FactorizationError):
        node_sweep(cp, np.diag([0.5, 1.0, 0.5]))


def test_sdc_sweeps_converge_to_collocation_solution():
    _, rule, cp = _small_problem()
    qd = build_qdelta(rule, "implicit-euler")
    p = sdc_preconditioner(cp, qd)
    u0 = np.sin(2 * np.pi * np.arange(16) / 16)
    c = spread_initial(u0, 3)
    exact = np.linalg.solve(cp.matrix, c)
    u = c.copy()
    for _ in range(60):
        u = richardson_step(p, cp.matrix, c, u)
    np.testing.assert_allclose(u, exact, atol=1e-12)


def test_sdc_iteration_matrix_consistent_with_step():
    _, rule, cp = _small_problem(n=8)
    qd = build_qdelta(rule, "lu")
    p = sdc_preconditioner(cp, qd)
    t = sdc_iteration_matrix(p, cp.matrix)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(cp.dim)
    u = rng.standard_normal(cp.dim)
    exact = np.linalg.solve(cp.matrix, c)
    stepped = richardson_step(p, cp.matrix, c, u)
    # error propagation: e_new = T e_old
    np.testing.assert_allclose(stepped - exact, t @ (u - exact), atol=1e-11)


def test_mlsdc_step_equals_explicit_preconditioner_formula():
    n, m, dt = 32, 3, 0.1
    nu, rule, fine = _small_problem(n=n, m=m, dt=dt)
    coarse = CollocationProblem(make_diffusion(n // 2, nu), rule, dt)
    pair = build_ci_pair(n)
    qd = build_qdelta(rule, "implicit-euler")
    pf = sdc_preconditioner(fine, qd)
    pc = sdc_preconditioner(coarse, qd)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(fine.dim)
    u = rng.standard_normal(fine.dim)
    stepped = mlsdc_step(pf, pc, pair, fine.matrix, c, u)
    p_inv = mlsdc_preconditioner_inverse(pf, pc, pair, fine.matrix)
    expected = u + p_inv @ (c - fine.matrix @ u)
    np.testing.assert_allclose(stepped, expected, atol=1e-12)


def test_mlsdc_iteration_matrix_consistent_with_step():
    n, m, dt = 32, 3, 0.1
    nu, rule, fine = _small_problem(n=n, m=m, dt=dt)
    coarse = CollocationProblem(make_diffusion(n // 2, nu), rule, dt)
    pair = build_ci_pair(n)
    qd = build_qdelta(rule, "implicit-euler")
    pf = sdc_preconditioner(fine, qd)
    pc = sdc_preconditioner(coarse, qd)
    t = mlsdc_iteration_matrix(pf, pc, pair, fine.matrix)
    rng = np.random.default_rng(10)
    c = rng.standard_normal(fine.dim)
    u = rng.standard_normal(fine.dim)
    exact = np.linalg.solve(fine.matrix, c)
    stepped = mlsdc_step(pf, pc, pair, fine.matrix, c, u)
    np.testing.assert_allclose(stepped - exact, t @ (u - exact), atol=1e-11)


def test_mlsdc_step_rejects_broken_restriction_condition():
    # a pair whose restriction no longer projects the last node correctly
    n, m = 16, 3
    nu, rule, fine = _small_problem(n=n, m=m)
    coarse = CollocationProblem(make_diffusion(n // 2, nu), rule, 0.1)
    pair = build_ci_pair(n)
    qd = build_qdelta(rule, "implicit-euler")
    pf = sdc_preconditioner(fine, qd)
    pc = sdc_preconditioner(coarse, qd)
    from pfasst_lfa.transfer import check_restriction_condition

    broken = np.eye(m)
    broken[0, 0] = 2.0
    ok, _ = check_restriction_condition(pair, m, temporal_restriction=broken)
    assert not ok
    # with the default spatial-only pair, the step runs fine
    c = np.zeros(fine.dim)
    u = np.zeros(fine.dim)
    mlsdc_step(pf, pc, pair, fine.matrix, c, u)


@pytest.mark.parametrize("l", [1, 3])
def test_lifted_transfer_commutes_with_node_propagation(l):
    # spatial-only coarsening: the lifted restriction commutes exactly with the
    # node propagation of every interval and of the interval coupling, for every
    # M, so mlsdc_step and the PFASST matrices need no per-call check
    pair = build_ci_pair(16)
    coupling = np.eye(l) + np.diag(np.ones(l - 1), -1)
    for m in (1, 3, 5):
        t_down = solvers._lifted(pair.restriction, np.eye(l * m * pair.n_fine))
        np.testing.assert_array_equal(t_down, np.kron(np.eye(l * m), pair.restriction))
        n_f = np.kron(coupling, np.kron(node_propagation(m), np.eye(pair.n_fine)))
        n_c = np.kron(coupling, np.kron(node_propagation(m), np.eye(pair.n_coarse)))
        np.testing.assert_array_equal(t_down @ n_f, n_c @ t_down)


def test_composite_mlsdc_step_matches_iteration_operator():
    n, m, l = 16, 3, 4
    setup = _setup(make_diffusion, n, _nu(n), m, l)
    p_gs, p_j = setup.composite_preconditioners
    rhs = _first_interval_rhs(np.sin(2 * np.pi * np.arange(n) / n), m, l)
    t = oracles.iteration_matrix(setup)
    exact = np.linalg.solve(oracles.composite_matrix(setup), rhs)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(len(rhs))
    stepped = mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs, u)
    np.testing.assert_allclose(stepped - exact, t @ (u - exact), atol=1e-10)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("make,kind", [(make_diffusion, "implicit-euler"), (make_advection, "lu")])
def test_mlsdc_step_from_m_column_equals_the_step_with_the_dense_m(make, kind, l):
    # M u by block convolution with M's first block column against the dense oracle M (a one-block column, whose
    # product is M @ u), on a real and a complex iterate; the inner sums differ in order, so to round-off
    setup = _setup(make, 16, 5e-3, 3, l, kind)
    p_gs, p_j = setup.composite_preconditioners
    column, dense = setup.composite_column, oracles.composite_matrix(setup)
    rng = np.random.default_rng(l)
    rhs, real, imag = rng.standard_normal((3, len(column)))
    for u in (real, real + 1j * imag):
        stepped = mlsdc_step(p_j, p_gs, setup.pair, column, rhs, u)
        expected = mlsdc_step(p_j, p_gs, setup.pair, dense, rhs, u)
        assert stepped.shape == u.shape and stepped.dtype == expected.dtype
        np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("l", [1, 2, 4, 8])
def test_iteration_matrix_factors_no_composite_square_matrix(monkeypatch, l):
    # both block preconditioners are solved by np.linalg.solve with the one-interval P, and the intervals'
    # coupling is carried by rank-N/2 products, so a T build factors P_fine (M*N rows) and P_coarse (M*N/2
    # rows) once each at every L
    n, m = 16, 3
    setup = _setup(make_diffusion, n, _nu(n), m, l)
    sizes = []
    original = np.linalg.solve

    def counted(a, b):
        sizes.append(a.shape)
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert setup.iteration_column.shape == (l * m * n, m * n)
    assert sorted(sizes) == [(m * n // 2, m * n // 2), (m * n, m * n)]


@pytest.mark.parametrize("l", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("problem", ["diffusion", "advection"])
def test_iteration_matrix_has_the_bits_of_the_causal_triangle_build(problem, l):
    # the serial build over the causal block triangle forms T's first block column over each product's whole
    # inner dimension, S's zero blocks included.  T_00 = S_0 K_0 is the same product in the column, so it has
    # the triangle's bits, zero signs included, at every L, and so does the whole column at L = 1.  Blocks
    # i >= 1 are rank-N/2 products in the column, and T's blocks below its first column are copies of the
    # column's: at these shapes all are within 4.8e-16 of max |T| of the triangle's (bound 1e-15, a margin of
    # 2).  The triangle's other column blocks are solved from interval j on, and equal its first column's bit
    # for bit with OpenBLAS, but the test does not pin how a BLAS tiles them
    coefficient = {"mu": 10.0} if problem == "diffusion" else {"coefficient": 0.02}
    setup = build_context(ExperimentConfig(problem=problem, n=16, m=3, l=l, **coefficient)).setup
    triangle = oracles.triangle_iteration_matrix(setup)
    column, w = setup.iteration_column, 3 * 16
    assert np.array_equal(column[:w].view(np.uint64), triangle[:w, :w].view(np.uint64))
    assert l > 1 or np.array_equal(column.view(np.uint64), triangle.view(np.uint64))
    t = oracles.iteration_matrix(setup)
    for i in range(l - 1):
        assert not np.any(t[i * w : (i + 1) * w, (i + 1) * w :].view(np.uint64))  # +0.0 above the diagonal
    assert np.max(np.abs(t - triangle)) <= 1e-15 * np.max(np.abs(triangle))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("problem", ["diffusion", "advection"])
def test_iteration_column_blocks_have_the_rank_of_the_interval_coupling(problem, m):
    # the intervals are coupled through N = K kron I, K = 1 e_M^T, whose rank is N: S's block 1 has rank N and the
    # coarse factor's blocks i >= 1 rank N/2, so T's column block 1 has rank <= 3N/2 and blocks i >= 2 rank <= N/2
    # (numerical rank: singular values above 1e-13 of the largest)
    n, l = (32, 4) if m == 3 else (16, 5)
    coefficient = {"mu": 10.0} if problem == "diffusion" else {"coefficient": 0.02}
    setup = build_context(ExperimentConfig(problem=problem, n=n, m=m, l=l, **coefficient)).setup
    blocks = setup.iteration_column.reshape(l, m * n, m * n)
    sigma = np.linalg.svd(blocks, compute_uv=False)
    ranks = np.sum(sigma > 1e-13 * sigma[:, :1], axis=1)
    assert ranks[1] <= 3 * n // 2 and np.all(ranks[2:] <= n // 2), ranks


@pytest.mark.parametrize("l", [1, 2, 4])
def test_setup_matrix_route_is_built_once_from_the_composite_column(l):
    setup, w = _setup(make_diffusion, 16, _nu(16), 3, l), 3 * 16
    # M's first block column is C, then -N, then zeros, and the dense M (against its three-layer oracle in
    # test_collocation.py) is assembled from it
    column = setup.composite_column
    assert column.shape == (l * w, w) and np.array_equal(column[:w], setup.fine.matrix) and not np.any(column[2 * w :])
    assert l == 1 or np.array_equal(column[w : 2 * w], -np.kron(node_propagation(3), np.eye(16)))
    assert np.array_equal(oracles.composite_matrix(setup)[:, :w], column)
    for cached in ("composite_preconditioners", "iteration_column"):
        assert getattr(setup, cached) is getattr(setup, cached)


def test_pfasst_algorithmic_equals_matrix_form():
    n, m, l = 16, 3, 4
    setup = _setup(make_diffusion, n, _nu(n), m, l)
    p_gs, p_j = setup.composite_preconditioners
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    rhs = _first_interval_rhs(u0, m, l)
    trace = pfasst_run_algorithmic(setup, rhs, spread_initial(u0, m, l), 6)
    u = trace[0].copy()
    for k in range(1, 7):
        u = mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs, u)
        np.testing.assert_allclose(trace[k], u, atol=1e-11)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize(
    "make,kind",
    [
        (make_diffusion, "implicit-euler"),
        (make_diffusion, "lu"),
        (make_advection, "implicit-euler"),
        (make_advection, "lu"),
    ],
)
def test_pfasst_algorithmic_equals_step_matrix_iterates(make, kind, l, m):
    n = 16
    setup = _setup(make, n, 5e-3, m, l, kind)
    p_gs, p_j = setup.composite_preconditioners
    dim = len(setup.composite_column)
    rng = np.random.default_rng(l + 10 * m)
    rhs = rng.standard_normal(dim)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    trace = pfasst_run_algorithmic(setup, rhs, u, 5)
    np.testing.assert_array_equal(trace[0], u)
    for k in range(1, 6):
        u = mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs, u)
        np.testing.assert_allclose(trace[k], u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("l", [16, 64])
@pytest.mark.parametrize(
    "make,coefficient,kind",
    [
        (make_diffusion, 0.390625, "implicit-euler"),  # mu = 10
        (make_diffusion, 0.390625, "lu"),
        (make_advection, 0.5, "implicit-euler"),  # CFL 0.8
        (make_advection, 0.5, "lu"),
    ],
)
def test_pfasst_algorithmic_equals_step_matrix_iterates_at_many_intervals(make, coefficient, kind, l):
    # the Fourier-space coarse chain against the dense LU route over 16 and 64
    # intervals; the worst deviation is 5.2e-15 (24 eps) of max |iterate|
    n, m = 16, 3
    setup = _setup(make, n, coefficient, m, l, kind)
    p_gs, p_j = setup.composite_preconditioners
    dim = len(setup.composite_column)
    rng = np.random.default_rng(l)
    rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    trace = pfasst_run_algorithmic(setup, rhs, u, 5)
    for k in range(1, 6):
        u = mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs, u)
        np.testing.assert_allclose(trace[k], u, rtol=0, atol=200 * EPS * np.max(np.abs(u)))


@pytest.mark.parametrize("complex_stack", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("l", [1, 2, 16, 64])
@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("kind", ["implicit-euler", "lu"])
@pytest.mark.parametrize("make,coefficient", [(make_diffusion, 0.390625), (make_advection, 0.5)])
def test_pfasst_run_equals_the_interval_by_interval_oracle(make, coefficient, kind, m, l, complex_stack):
    # the per-harmonic inverses, the Fourier-space coarse chain and the sliced
    # stencils only reorder round-off: over these 96 runs of 5 iterations the
    # worst deviation of an iterate is 5.3e-15 (24 eps) of its max |entry|
    setup = _setup(make, 16, coefficient, m, l, kind)
    rng = np.random.default_rng(l + 10 * m)
    dim = l * m * 16
    rhs = rng.standard_normal((2, dim))
    start = rng.standard_normal((2, dim))
    if complex_stack:
        start = start + 1j * rng.standard_normal((2, dim))
    trace = pfasst_run_algorithmic(setup, rhs, start, 5)
    for got, want in zip(trace, oracles.interval_run(setup, rhs, start, 5), strict=True):
        assert np.iscomplexobj(got) == complex_stack  # real input gives real iterates
        np.testing.assert_allclose(got, want, rtol=0, atol=100 * EPS * np.max(np.abs(want)))


def test_node_sweep_inverse_is_the_lower_triangular_inverse_of_each_harmonic():
    # P on harmonic k is I - dt*sigma_k*Q_Delta; the stored inverse is its inverse, lower triangular
    _, rule, cp = _small_problem(n=8, m=3)
    qd = build_qdelta(rule, "lu")
    sweep = node_sweep(cp, qd)
    dt_sigma = cp.dt * np.fft.fft(cp.operator.first_column())
    blocks = np.eye(3) - dt_sigma[:, None, None] * qd
    np.testing.assert_allclose(sweep.inverse @ blocks, np.broadcast_to(np.eye(3), blocks.shape), atol=1e-14)
    assert not np.any(np.triu(sweep.inverse, 1))


def test_pfasst_initial_state_override_propagates_errors():
    n, m, l = 16, 3, 4
    setup = _setup(make_diffusion, n, _nu(n), m, l)
    t = oracles.iteration_matrix(setup)
    rng = np.random.default_rng(8)
    e0 = rng.standard_normal(t.shape[0])
    trace = pfasst_run_algorithmic(setup, np.zeros_like(e0), e0, 3)
    np.testing.assert_allclose(trace[1], t @ e0, atol=1e-11)
    np.testing.assert_allclose(trace[3], t @ t @ t @ e0, atol=1e-10)


def test_pfasst_converges_to_composite_solution():
    n, m, l = 16, 3, 4
    setup = _setup(make_diffusion, n, _nu(n), m, l)
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    rhs = _first_interval_rhs(u0, m, l)
    exact = np.linalg.solve(oracles.composite_matrix(setup), rhs)
    trace = pfasst_run_algorithmic(setup, rhs, spread_initial(u0, m, l), 30)
    assert np.max(np.abs(trace[-1] - exact)) < 1e-12


def test_two_level_setup_rejects_mismatched_grids():
    # TwoLevelSetup assumes a fine grid of 4j points, a coarse grid of n/2 and transfers for n;
    # ExperimentConfig refuses any other n, and build_context builds all three from its one n
    for n in (10, 11, 30):
        with pytest.raises(ConfigurationError, match=f"got n = {n}"):
            ExperimentConfig(problem="diffusion", mu=10.0, n=n)
    setup = build_context(ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=2, l=2)).setup
    assert (setup.fine.n_space, setup.coarse.n_space, setup.pair.n_fine, setup.pair.n_coarse) == (16, 8, 16, 8)
