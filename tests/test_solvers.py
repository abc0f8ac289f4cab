"""Sweeps, preconditioners and the PFASST step in both formulations."""

import numpy as np
import pytest

from pfasst_lfa.collocation import collocation_matrix, composite_system, spread_initial
from pfasst_lfa.errors import FactorizationError, RangeError
from pfasst_lfa.quadrature import QDelta, QuadratureRule, build_qdelta
from pfasst_lfa.solvers import (
    Preconditioner,
    build_two_level_setup,
    composite_gauss_seidel,
    composite_jacobi,
    mlsdc_iteration_matrix,
    mlsdc_preconditioner_inverse,
    mlsdc_step,
    node_sweep,
    pfasst_run_algorithmic,
    pfasst_step_matrix,
    richardson_step,
    sdc_iteration_matrix,
    sdc_preconditioner,
)
from pfasst_lfa.space_operators import CirculantOperator, coarsen, make_advection, make_diffusion
from pfasst_lfa.transfer import build_ci_pair


def _small_problem(n=16, m=3, dt=0.1, nu=None):
    nu = 10.0 * (1.0 / n) ** 2 / dt if nu is None else nu
    prob = make_diffusion(n, nu)
    rule = QuadratureRule.radau_right(m)
    return prob, rule, collocation_matrix(prob.operator, rule, dt)


def _setup(prob, m, l, kind="implicit-euler", dt=0.1):
    """The two-level setup of ``prob`` and its coarsening, on one Radau rule."""
    rule = QuadratureRule.radau_right(m)
    fine = collocation_matrix(prob.operator, rule, dt)
    coarse = collocation_matrix(coarsen(prob).operator, rule, dt)
    return build_two_level_setup(fine, coarse, build_ci_pair(prob.n), l, kind)


def test_preconditioner_solve_matches_dense_solve():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    p = Preconditioner(mat)
    rhs = rng.standard_normal(8)
    np.testing.assert_allclose(p.solve(rhs), np.linalg.solve(mat, rhs), atol=1e-12)


def test_preconditioner_rejects_singular_matrix():
    p = Preconditioner(np.zeros((3, 3)))
    with pytest.raises(FactorizationError):
        p.solve(np.ones(3))


@pytest.mark.parametrize("complex_stack", [False, True])
@pytest.mark.parametrize("make,coefficient", [(make_diffusion, 0.05), (make_advection, 0.5)])
@pytest.mark.parametrize("kind", ["implicit-euler", "lu"])
def test_node_sweep_equals_dense_preconditioner(kind, make, coefficient, complex_stack):
    rule = QuadratureRule.radau_right(3)
    cp = collocation_matrix(make(8, coefficient).operator, rule, 0.1)
    qd = build_qdelta(rule, kind)
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, 4, 3, 8))
    if complex_stack:
        r = r + 1j * rng.standard_normal((2, 4, 3, 8))
    dense = sdc_preconditioner(cp, qd).solve(r.reshape(8, 24).T).T.reshape(r.shape)
    x = node_sweep(cp, qd).solve(r)
    assert np.iscomplexobj(x) == complex_stack  # real input gives real output
    np.testing.assert_allclose(x, dense, atol=1e-13)


def test_node_sweep_rejects_singular_node_factor():
    # dt * qd_11 * A = I: the middle node's factor is exactly zero
    rule = QuadratureRule.radau_right(3)
    cp = collocation_matrix(CirculantOperator(2, {0: 1.0}), rule, 1.0)
    qd = QDelta(kind="test", matrix=np.diag([0.5, 1.0, 0.5]))
    with pytest.raises(FactorizationError):
        node_sweep(cp, qd)


def test_sdc_sweeps_converge_to_collocation_solution():
    prob, rule, cp = _small_problem()
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
    prob, rule, cp = _small_problem(n=8)
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


def test_composite_preconditioners_structure():
    prob, rule, cp = _small_problem(n=8)
    qd = build_qdelta(rule, "implicit-euler")
    p = sdc_preconditioner(cp, qd)
    n_mat = composite_system(cp, 3, np.zeros(8)).n_matrix
    gs = composite_gauss_seidel(p, 3, n_mat)
    d = cp.dim
    np.testing.assert_array_equal(gs.matrix[d : 2 * d, :d], -n_mat)
    np.testing.assert_array_equal(gs.matrix[:d, d:], 0.0)
    ja = composite_jacobi(p, 3)
    np.testing.assert_array_equal(ja.matrix, np.kron(np.eye(3), p.matrix))


def test_mlsdc_step_equals_explicit_preconditioner_formula():
    n, m, dt = 32, 3, 0.1
    prob, rule, fine = _small_problem(n=n, m=m, dt=dt)
    coarse = collocation_matrix(coarsen(prob).operator, rule, dt)
    pair = build_ci_pair(n)
    qd = build_qdelta(rule, "implicit-euler")
    pf = sdc_preconditioner(fine, qd)
    pc = sdc_preconditioner(coarse, qd)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(fine.dim)
    u = rng.standard_normal(fine.dim)
    stepped = mlsdc_step(pf, pc, pair, fine.matrix, c, u, m)
    p_inv = mlsdc_preconditioner_inverse(pf, pc, pair, fine.matrix, m)
    expected = u + p_inv @ (c - fine.matrix @ u)
    np.testing.assert_allclose(stepped, expected, atol=1e-12)


def test_mlsdc_iteration_matrix_consistent_with_step():
    n, m, dt = 32, 3, 0.1
    prob, rule, fine = _small_problem(n=n, m=m, dt=dt)
    coarse = collocation_matrix(coarsen(prob).operator, rule, dt)
    pair = build_ci_pair(n)
    qd = build_qdelta(rule, "implicit-euler")
    pf = sdc_preconditioner(fine, qd)
    pc = sdc_preconditioner(coarse, qd)
    t = mlsdc_iteration_matrix(pf, pc, pair, fine.matrix, m)
    rng = np.random.default_rng(10)
    c = rng.standard_normal(fine.dim)
    u = rng.standard_normal(fine.dim)
    exact = np.linalg.solve(fine.matrix, c)
    stepped = mlsdc_step(pf, pc, pair, fine.matrix, c, u, m)
    np.testing.assert_allclose(stepped - exact, t @ (u - exact), atol=1e-11)


def test_mlsdc_step_rejects_broken_restriction_condition():
    # a pair whose restriction no longer projects the last node correctly
    n, m = 16, 3
    prob, rule, fine = _small_problem(n=n, m=m)
    coarse = collocation_matrix(coarsen(prob).operator, rule, 0.1)
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
    mlsdc_step(pf, pc, pair, fine.matrix, c, u, m)


@pytest.mark.parametrize("l", [1, 3])
def test_lifted_transfer_commutes_with_node_propagation(l):
    # spatial-only coarsening: the lifted restriction commutes exactly with the
    # node propagation of every interval and of the interval coupling, for every
    # M, so mlsdc_step and the PFASST matrices need no per-call check
    from pfasst_lfa.solvers import lift_transfer
    from pfasst_lfa.transfer import node_propagation

    pair = build_ci_pair(16)
    coupling = np.eye(l) + np.diag(np.ones(l - 1), -1)
    for m in (1, 3, 5):
        _, t_down = lift_transfer(pair, m, l)
        n_f = np.kron(coupling, np.kron(node_propagation(m), np.eye(pair.n_fine)))
        n_c = np.kron(coupling, np.kron(node_propagation(m), np.eye(pair.n_coarse)))
        np.testing.assert_array_equal(t_down @ n_f, n_c @ t_down)


def test_pfasst_step_matrix_matches_iteration_operator():
    n, m, l = 16, 3, 4
    setup = _setup(_small_problem(n=n, m=m)[0], m, l)
    p_gs, p_j = setup.composite_preconditioners
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    comp = composite_system(setup.fine, l, u0)
    t = setup.iteration_matrix
    exact = np.linalg.solve(comp.matrix, comp.rhs)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(comp.dim)
    stepped = pfasst_step_matrix(p_gs, p_j, setup.pair, comp.matrix, comp.rhs, u, m, l)
    np.testing.assert_allclose(stepped - exact, t @ (u - exact), atol=1e-10)


def test_setup_matrix_route_is_built_once_from_the_composite_system():
    setup = _setup(_small_problem(n=16, m=3)[0], 3, 4)
    comp = composite_system(setup.fine, 4, np.zeros(16))
    np.testing.assert_array_equal(setup.composite_matrix, comp.matrix)
    assert setup.composite_preconditioners is setup.composite_preconditioners
    assert setup.iteration_matrix is setup.iteration_matrix


def test_two_level_setup_rejects_mismatched_grids():
    rule = QuadratureRule.radau_right(2)

    def level(n):
        return collocation_matrix(CirculantOperator(n, {-1: 1.0, 0: -2.0, 1: 1.0}, 0.3), rule, 0.1)

    build_two_level_setup(level(10), level(5), build_ci_pair(10, 2, 2), 2, "lu")
    # a coarse grid not n/2, transfers for another grid, an odd fine grid
    for n_fine, n_coarse, n_pair in [(10, 8, 10), (10, 5, 16), (11, 5, 10)]:
        with pytest.raises(RangeError):
            build_two_level_setup(level(n_fine), level(n_coarse), build_ci_pair(n_pair, 2, 2), 2, "lu")


def test_pfasst_algorithmic_equals_matrix_form():
    n, m, l = 16, 3, 4
    setup = _setup(_small_problem(n=n, m=m)[0], m, l)
    p_gs, p_j = setup.composite_preconditioners
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    comp = composite_system(setup.fine, l, u0)
    trace = pfasst_run_algorithmic(setup, comp.rhs, spread_initial(u0, m, l), 6)
    u = trace[0].copy()
    for k in range(1, 7):
        u = pfasst_step_matrix(p_gs, p_j, setup.pair, comp.matrix, comp.rhs, u, m, l)
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
    setup = _setup(make(n, 5e-3), m, l, kind)
    p_gs, p_j = setup.composite_preconditioners
    dim = setup.composite_matrix.shape[0]
    rng = np.random.default_rng(l + 10 * m)
    rhs = rng.standard_normal(dim)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    trace = pfasst_run_algorithmic(setup, rhs, u, 5)
    np.testing.assert_array_equal(trace[0], u)
    for k in range(1, 6):
        u = pfasst_step_matrix(p_gs, p_j, setup.pair, setup.composite_matrix, rhs, u, m, l)
        np.testing.assert_allclose(trace[k], u, rtol=0, atol=1e-12)


def test_pfasst_initial_state_override_propagates_errors():
    n, m, l = 16, 3, 4
    setup = _setup(_small_problem(n=n, m=m)[0], m, l)
    t = setup.iteration_matrix
    rng = np.random.default_rng(8)
    e0 = rng.standard_normal(t.shape[0])
    trace = pfasst_run_algorithmic(setup, np.zeros_like(e0), e0, 3)
    np.testing.assert_allclose(trace[1], t @ e0, atol=1e-11)
    np.testing.assert_allclose(trace[3], t @ t @ t @ e0, atol=1e-10)


def test_pfasst_converges_to_composite_solution():
    n, m, l = 16, 3, 4
    setup = _setup(_small_problem(n=n, m=m)[0], m, l)
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    comp = composite_system(setup.fine, l, u0)
    exact = np.linalg.solve(comp.matrix, comp.rhs)
    trace = pfasst_run_algorithmic(setup, comp.rhs, spread_initial(u0, m, l), 30)
    assert np.max(np.abs(trace[-1] - exact)) < 1e-12
