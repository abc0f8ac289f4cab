"""Right Gauss-Radau collocation rules on the unit interval.

A rule stores its nodes in (0, 1] (last node exactly 1), the dense
integration matrix Q with entries q[i, j] = integral of the j-th Lagrange
basis polynomial from 0 to node i, and lower-triangular approximations of Q
used as sweep preconditioners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError

MAX_NODES = 12
QDELTA_KINDS = ("implicit-euler", "lu")

# The m - 1 roots of the Jacobi polynomial P_{m-1}^{(1,0)} on (-1, 1), ascending,
# for m = 2..MAX_NODES, as scipy.special.roots_jacobi(m - 1, 1, 0) returns them
# (scipy 1.17.1), written with repr so each float round-trips exactly.  They are
# constants of the rule; tabulating them keeps scipy out of the analysis path.
JACOBI_ROOTS = {
    2: (-0.3333333333333333,),
    3: (-0.6898979485566357, 0.2898979485566358),
    4: (-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
    5: (-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
    6: (
        -0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
        0.8029298284023472,
    ),
    7: (
        -0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
        0.538467724060109, 0.8538913426394822,
    ),
    8: (
        -0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
        0.2947505657736607, 0.6395186165262152, 0.8874748789261557,
    ),
    9: (
        -0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
        0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603,
    ),
    10: (
        -0.9711751807022471, -0.8512252205816078, -0.6477666876740094, -0.3806648401447244,
        -0.07605919783797811, 0.23623446939058804, 0.5256460303700793, 0.7638420424200026,
        0.9274843742335811,
    ),
    11: (
        -0.9761647731351688, -0.8765358562457037, -0.7057771007138595, -0.4776806479830877,
        -0.21072030622842625, 0.0734775314313213, 0.3518889233533302, 0.6019578420737977,
        0.8034219755802935, 0.939941935677027,
    ),
    12: (
        -0.9799634390766392, -0.8959290977456389, -0.7507615497111139, -0.5543187859123242,
        -0.3199836841706695, -0.06372477382083189, 0.1969945595342783, 0.4444065697819358,
        0.6616497992456372, 0.8339167731051897, 0.9494527592049593,
    ),
}


def radau_nodes(m: int) -> np.ndarray:
    """The m right Gauss-Radau points on (0, 1], ascending, last node 1.

    Interior points are the roots of the Jacobi polynomial P_{m-1}^{(1,0)}
    mapped to (0, 1).
    """
    if m == 1:
        return np.array([1.0])
    interior = np.array(JACOBI_ROOTS[m])
    nodes = np.concatenate(((interior + 1.0) / 2.0, [1.0]))
    return np.sort(nodes)


def lagrange_antiderivatives(nodes: np.ndarray) -> list[np.ndarray]:
    """Polynomial coefficients of the antiderivative of each Lagrange basis."""
    nodes = np.asarray(nodes, dtype=float)
    m = len(nodes)
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


def build_qdelta(rule: QuadratureRule, kind: str) -> np.ndarray:
    """Q_Delta, the lower-triangular sweep matrix: rectangle rule ("implicit-euler") or U^T of Q^T = LU ("lu")."""
    if kind == "implicit-euler":
        deltas = np.diff(np.concatenate(([0.0], rule.nodes)))
        return np.tril(np.tile(deltas, (rule.m, 1)))
    return _lu_no_pivot(rule.q.T)[1].T
