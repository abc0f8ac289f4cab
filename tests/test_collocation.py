"""Single and composite collocation systems against integrator oracles."""

import numpy as np
import pytest

import oracles
from pfasst_lfa.analysis import ExperimentConfig
from pfasst_lfa.collocation import CollocationProblem, spread_initial, three_layer_matrix
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.quadrature import QuadratureRule
from pfasst_lfa.solvers import TwoLevelSetup
from pfasst_lfa.space_operators import CirculantOperator, make_diffusion


def _composite_matrix(problem: CollocationProblem, l: int) -> np.ndarray:
    """The dense M over L intervals of ``problem``, assembled from its first block column; it reads no other level."""
    return oracles.composite_matrix(TwoLevelSetup(fine=problem, coarse=None, pair=None, l=l, qdelta=None))


def test_collocation_matrix_shape_and_structure():
    rule = QuadratureRule.radau_right(3)
    op = CirculantOperator(2, {0: -1.0, 1: -0.5})
    a = op.materialize()
    p = CollocationProblem(op, rule, 0.1)
    assert p.matrix.shape == (6, 6)
    assert p.dim == 6
    assert p.n_space == 2
    np.testing.assert_allclose(p.matrix, np.eye(6) - 0.1 * np.kron(rule.q, a))


def test_collocation_rejects_nonpositive_dt():
    # CollocationProblem assumes dt > 0; ExperimentConfig is where a dt <= 0 is refused
    for dt in (0.0, -0.1):
        with pytest.raises(ConfigurationError, match=f"dt must be finite and positive, got {dt}"):
            ExperimentConfig(problem="diffusion", mu=10.0, dt=dt)


def test_collocation_apply_equals_dense_matrix_on_stacks():
    rule = QuadratureRule.radau_right(3)
    op = make_diffusion(8, 0.05)
    p = CollocationProblem(op, rule, 0.1)
    u = np.random.default_rng(1).standard_normal((2, 4, 3, 8))
    expected = (p.matrix @ u.reshape(8, 24).T).T.reshape(u.shape)
    np.testing.assert_allclose(p.apply(u), expected, atol=1e-13)


def test_scalar_collocation_solution_matches_exponential():
    # order 2m-1 at the right endpoint for u' = lam u
    lam, dt = -1.3, 0.05
    for m, tol in ((3, 1e-9), (5, 1e-13)):
        rule = QuadratureRule.radau_right(m)
        p = CollocationProblem(CirculantOperator(1, {0: lam}), rule, dt)
        u = np.linalg.solve(p.matrix, spread_initial(np.array([1.0]), m))
        assert abs(u[-1] - np.exp(lam * dt)) < tol


def test_scalar_collocation_convergence_order():
    lam, m = -2.0, 3
    rule = QuadratureRule.radau_right(m)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        p = CollocationProblem(CirculantOperator(1, {0: lam}), rule, dt)
        u = np.linalg.solve(p.matrix, spread_initial(np.array([1.0]), m))
        errs.append(abs(u[-1] - np.exp(lam * dt)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 2 * m - 1 - 0.2)


def test_spread_initial_tiles_nodes_and_intervals():
    u0 = np.array([1.0, 2.0])
    np.testing.assert_array_equal(spread_initial(u0, 3), np.tile(u0, 3))
    np.testing.assert_array_equal(spread_initial(u0, 2, 2), np.tile(u0, 4))


@pytest.mark.parametrize("l", [1, 2, 4])
def test_composite_matrix_equals_three_layer_assembly(l):
    op = make_diffusion(8, 1e-2)
    rule = QuadratureRule.radau_right(3)
    p = CollocationProblem(op, rule, 0.1)
    np.testing.assert_allclose(_composite_matrix(p, l), three_layer_matrix(p, l), atol=1e-14)


def test_composite_solution_continues_single_interval_solution():
    # solving over L intervals equals solving interval-by-interval, passing
    # the last node value forward
    op = make_diffusion(8, 1e-2)
    rule = QuadratureRule.radau_right(3)
    dt, l = 0.1, 3
    p = CollocationProblem(op, rule, dt)
    u0 = np.sin(2 * np.pi * np.arange(8) / 8)
    rhs = np.zeros((l, p.dim))
    rhs[0] = spread_initial(u0, 3)
    u = np.linalg.solve(_composite_matrix(p, l), rhs.ravel())
    seq = u0
    for i in range(l):
        ui = np.linalg.solve(p.matrix, spread_initial(seq, 3))
        np.testing.assert_allclose(u[i * p.dim : (i + 1) * p.dim], ui, atol=1e-12)
        seq = ui[-8:]


def test_composite_needs_at_least_one_interval():
    # the composite matrix assumes l >= 1; ExperimentConfig refuses l = 0, and l = 1 is one interval's matrix
    with pytest.raises(ConfigurationError, match="must be >= 1, got 0"):
        ExperimentConfig(problem="diffusion", mu=10.0, l=0)
    p = CollocationProblem(make_diffusion(8, 1e-2), QuadratureRule.radau_right(2), 0.1)
    np.testing.assert_array_equal(_composite_matrix(p, 1), p.matrix)
