"""Right Gauss-Radau collocation rules on the unit interval.

A rule stores its nodes in (0, 1] (last node exactly 1), the dense
integration matrix Q with entries q[i, j] = integral of the j-th Lagrange
basis polynomial from 0 to node i, and lower-triangular approximations of Q
used as sweep preconditioners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import DegeneracyError, FactorizationError, RangeError

MAX_NODES = 12
QDELTA_KINDS = ("implicit-euler", "lu")


def radau_nodes(m: int) -> np.ndarray:
    """The m right Gauss-Radau points on (0, 1], ascending, last node 1.

    Interior points are the roots of the Jacobi polynomial P_{m-1}^{(1,0)}
    mapped to (0, 1).
    """
    if m < 1 or m > MAX_NODES:
        raise RangeError(f"radau_nodes supports 1 <= m <= {MAX_NODES}, got {m}")
    if m == 1:
        return np.array([1.0])
    interior, _ = roots_jacobi(m - 1, 1.0, 0.0)
    nodes = np.concatenate(((interior + 1.0) / 2.0, [1.0]))
    return np.sort(nodes)


def lagrange_antiderivatives(nodes: np.ndarray) -> list[np.ndarray]:
    """Polynomial coefficients of the antiderivative of each Lagrange basis."""
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
    if len(np.unique(nodes)) != m:
        raise DegeneracyError("duplicate quadrature nodes")
    polys = []
    for j in range(m):
        others = np.delete(nodes, j)
        coeffs = np.poly(others) if len(others) else np.array([1.0])
        coeffs = coeffs / np.prod(nodes[j] - others) if len(others) else coeffs
        polys.append(np.polyint(coeffs))
    return polys


def build_q(nodes) -> np.ndarray:
    """Dense integration matrix: q[i, j] = int_0^{tau_i} l_j(t) dt."""
    nodes = np.asarray(nodes, dtype=float)
    anti = lagrange_antiderivatives(nodes)
    m = len(nodes)
    q = np.empty((m, m))
    for j, poly in enumerate(anti):
        q[:, j] = np.polyval(poly, nodes) - np.polyval(poly, 0.0)
    return q


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Radau nodes on (0, 1] together with the integration matrix Q."""

    m: int
    nodes: np.ndarray
    q: np.ndarray

    @classmethod
    def radau_right(cls, m: int) -> "QuadratureRule":
        nodes = radau_nodes(m)
        return cls(m=m, nodes=nodes, q=build_q(nodes))


@dataclass(frozen=True)
class QDelta:
    """Lower-triangular approximation of Q defining one sweep."""

    kind: str  # "implicit-euler" or "lu"
    matrix: np.ndarray


def _lu_no_pivot(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doolittle LU without pivoting; the LU sweep matrix requires it."""
    n = a.shape[0]
    l = np.eye(n)
    u = a.astype(float).copy()
    for k in range(n - 1):
        if u[k, k] == 0.0:
            raise FactorizationError("zero pivot in LU of Q^T")
        factors = u[k + 1 :, k] / u[k, k]
        l[k + 1 :, k] = factors
        u[k + 1 :, k:] -= np.outer(factors, u[k, k:])
    return l, u


def build_qdelta(rule: QuadratureRule, kind: str) -> QDelta:
    """Sweep matrix: rectangle rule ("implicit-euler") or LU of Q^T ("lu")."""
    if kind == "implicit-euler":
        deltas = np.diff(np.concatenate(([0.0], rule.nodes)))
        matrix = np.tril(np.tile(deltas, (rule.m, 1)))
    elif kind == "lu":
        _, u = _lu_no_pivot(rule.q.T)
        matrix = u.T
    else:
        raise RangeError(f"unknown qdelta kind {kind!r}")
    return QDelta(kind=kind, matrix=matrix)
