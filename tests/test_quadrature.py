"""Gauss-Radau rules and sweep matrices against quadrature oracles."""

import numpy as np
import pytest
from scipy.special import roots_jacobi

from pfasst_lfa.analysis import ExperimentConfig
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.quadrature import (
    JACOBI_ROOTS,
    MAX_NODES,
    QuadratureRule,
    build_q,
    build_qdelta,
    lagrange_antiderivatives,
    radau_nodes,
)


def test_radau_nodes_m2_closed_form():
    np.testing.assert_allclose(radau_nodes(2), [1.0 / 3.0, 1.0], atol=1e-15)


def test_radau_nodes_m1_is_implicit_euler_node():
    np.testing.assert_array_equal(radau_nodes(1), [1.0])


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_radau_nodes_integrate_polynomials_to_order_2m_minus_2(m):
    # the m-point right Radau rule is exact for degree 2m-2; weights are the
    # last row of Q because tau_m = 1
    rule = QuadratureRule.radau_right(m)
    weights = rule.q[-1]
    for deg in range(2 * m - 1):
        exact = 1.0 / (deg + 1)
        approx = float(weights @ rule.nodes**deg)
        # the monomial-basis construction of Q loses a few digits at large m
        assert approx == pytest.approx(exact, abs=1e-11), deg


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_radau_nodes_in_half_open_interval_ascending(m):
    nodes = radau_nodes(m)
    assert nodes[-1] == 1.0
    assert np.all(nodes > 0.0)
    assert np.all(np.diff(nodes) > 0)


def test_jacobi_root_table_matches_scipy():
    assert list(JACOBI_ROOTS) == list(range(2, MAX_NODES + 1))
    for m, roots in JACOBI_ROOTS.items():
        np.testing.assert_array_max_ulp(np.array(roots), roots_jacobi(m - 1, 1.0, 0.0)[0], maxulp=2)


def test_build_q_rows_integrate_to_each_node():
    # q[i, :] applied to samples of a polynomial integrates it from 0 to tau_i
    nodes = radau_nodes(4)
    q = build_q(nodes)
    for deg in range(4):  # exact for the interpolation space
        samples = nodes**deg
        expected = nodes ** (deg + 1) / (deg + 1)
        np.testing.assert_allclose(q @ samples, expected, atol=1e-13)


def test_qdelta_implicit_euler_rectangle_structure():
    rule = QuadratureRule.radau_right(3)
    qd = build_qdelta(rule, "implicit-euler")
    deltas = np.diff(np.concatenate(([0.0], rule.nodes)))
    expected = np.zeros((3, 3))
    for i in range(3):
        expected[i, : i + 1] = deltas[: i + 1]
    np.testing.assert_allclose(qd, expected, atol=1e-15)
    # row sums reproduce the node positions: the rectangle rule integrates 1
    np.testing.assert_allclose(qd.sum(axis=1), rule.nodes, atol=1e-15)


def test_qdelta_lu_reproduces_q_transpose_factorization():
    rule = QuadratureRule.radau_right(5)
    qd = build_qdelta(rule, "lu")
    u = qd.T
    # U is upper triangular and Q^T = L U with unit lower-triangular L
    assert np.allclose(u, np.triu(u))
    l = rule.q.T @ np.linalg.inv(u)
    assert np.allclose(l, np.tril(l), atol=1e-12)
    np.testing.assert_allclose(np.diag(l), 1.0, atol=1e-12)


def test_qdelta_lower_triangular():
    rule = QuadratureRule.radau_right(4)
    for kind in ("implicit-euler", "lu"):
        qd = build_qdelta(rule, kind)
        assert np.allclose(qd, np.tril(qd))


def test_collocation_convergence_order_oracle():
    # solving u' = lam*u over one unit interval with the dense Q matrix is a
    # collocation method of order 2m-1 at the right endpoint
    lam = -0.7
    errors = []
    for m in (2, 3):
        rule = QuadratureRule.radau_right(m)
        u = np.linalg.solve(np.eye(m) - lam * rule.q, np.ones(m))
        errors.append(abs(u[-1] - np.exp(lam)))
    assert errors[0] < 2e-3
    assert errors[1] < errors[0] * 1e-1


@pytest.mark.parametrize("m", [0, -1, 13])
def test_radau_nodes_rejects_out_of_range(m):
    # radau_nodes assumes 1 <= m <= MAX_NODES; ExperimentConfig is where another m is refused
    with pytest.raises(ConfigurationError, match=f"must lie in 1..{MAX_NODES}, got {m}"):
        ExperimentConfig(problem="diffusion", mu=10.0, m=m)


def test_lagrange_antiderivatives_reject_duplicates():
    # lagrange_antiderivatives assumes distinct nodes: every node count the config admits gives strictly increasing ones
    for m in range(1, MAX_NODES + 1):
        nodes = radau_nodes(m)
        assert np.all(np.diff(nodes) > 0)
        assert all(np.all(np.isfinite(poly)) for poly in lagrange_antiderivatives(nodes))


def test_qdelta_unknown_kind():
    # build_qdelta assumes one of QDELTA_KINDS; ExperimentConfig refuses any other kind
    with pytest.raises(ConfigurationError, match="unknown qdelta_kind 'trapezoid'"):
        ExperimentConfig(problem="diffusion", mu=10.0, qdelta_kind="trapezoid")
