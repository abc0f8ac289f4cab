"""Single-interval and composite collocation problems.

A single interval couples M quadrature nodes with an N-dimensional spatial
operator through I - dt*(Q kron A).  The composite problem chains L such
intervals with a node-propagation block N that copies each interval's final
node value onto every node of the next interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import QuadratureRule
from .space_operators import CirculantOperator
from .transfer import node_propagation


@dataclass(frozen=True)
class CollocationProblem:
    """I - dt*(Q kron A) on one subinterval of length dt, A a circulant.

    An iterate on one interval is an (M, N) array, node by grid point; its
    row-major flattening is the Kronecker layout of the dense ``matrix``.
    The circulant ``operator`` is the one spatial representation; the dense
    N x N ``a`` is built only by the matrix route.
    """

    operator: CirculantOperator
    rule: QuadratureRule
    dt: float

    @cached_property
    def a(self) -> np.ndarray:
        """The dense N x N spatial matrix, built on first use by the matrix route."""
        return self.operator.materialize()

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (M*N) x (M*N) matrix, built on first use by the matrix route."""
        return np.eye(self.dim) - self.dt * np.kron(self.rule.q, self.a)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """U - dt*Q (A U) for every (M, N) slice of an (..., M, N) stack, A as a stencil."""
        return u - self.dt * (self.rule.q @ self.operator.apply(u))

    @property
    def n_space(self) -> int:
        return self.operator.n

    @property
    def dim(self) -> int:
        return self.rule.m * self.n_space


def spread_initial(u0, m: int, l: int = 1) -> np.ndarray:
    """Copy the initial value onto every node of every interval."""
    u0 = np.asarray(u0)
    return np.tile(u0, m * l)


def three_layer_matrix(problem: CollocationProblem, l: int) -> np.ndarray:
    """The composite M as I - dt*(I_L kron Q kron A) - E kron N, the oracle of ``TwoLevelSetup.composite_matrix``."""
    e = np.diag(np.ones(l - 1), -1) if l > 1 else np.zeros((1, 1))
    n_mat = np.kron(node_propagation(problem.rule.m), np.eye(problem.n_space))
    layers = np.kron(np.eye(l), np.kron(problem.rule.q, problem.a))
    return np.eye(l * problem.dim) - problem.dt * layers - np.kron(e, n_mat)
