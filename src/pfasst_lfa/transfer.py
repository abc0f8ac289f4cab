"""Circulant-interweaved (CI) transfer operators between periodic grids.

The fine grid has N points, the coarse grid N/2, aligned so that every even
fine point coincides with a coarse point.  Interpolation keeps the coarse
values on the even points and fills the odd points with a circulant
midpoint stencil C; restriction is half the adjoint of another
CI-interpolation.  Both act as stencils; their dense matrices are built only
on request.  Both transform into two-diagonal matrices under the Fourier
bases of the two grids, with closed-form harmonic diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import dft_matrix
from .space_operators import CirculantOperator

# Polynomial exactness of the interpolation and restriction stencils.
INTERP_EXACTNESS = 6
RESTR_EXACTNESS = 2


def midpoint_stencil_points(degree: int) -> int:
    """Width of the symmetric midpoint-interpolation stencil for a degree."""
    if degree <= 2:
        return 2
    return 2 * ((degree + 3) // 2)


def midpoint_generator(n_coarse: int, degree: int) -> CirculantOperator:
    """Circulant whose row j evaluates the fine midpoint right of coarse j.

    Uses Lagrange weights at the half-integer offset; the weights sum to 1,
    so constants are reproduced exactly.
    """
    p = midpoint_stencil_points(degree)
    offsets = np.arange(-(p // 2 - 1), p // 2 + 1)
    weights = np.array(
        [
            np.prod([(0.5 - o) / (i - o) for o in offsets if o != i])
            for i in offsets
        ]
    )
    return CirculantOperator(n=n_coarse, stencil=dict(zip(offsets.tolist(), weights)))


@dataclass(frozen=True)
class TransferPair:
    """CI interpolation/restriction pair between grids of size N and N/2, held as stencils."""

    n_fine: int
    generator_interp: CirculantOperator
    generator_restr: CirculantOperator

    @property
    def n_coarse(self) -> int:
        return self.n_fine // 2

    def interpolate(self, u: np.ndarray) -> np.ndarray:
        """Interpolate the last axis of a stack from N/2 to N points.

        The even points take u, the odd points the midpoint stencil applied to u.
        """
        u = np.asarray(u)
        return np.stack([u, self.generator_interp.apply(u)], axis=-1).reshape(*u.shape[:-1], self.n_fine)

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """Restrict the last axis of a stack from N to N/2 points: (u_even + G_r^T u_odd) / 2."""
        u = np.asarray(u)
        return 0.5 * (u[..., 0::2] + self._adjoint_restr.apply(u[..., 1::2]))

    @cached_property
    def _adjoint_restr(self) -> CirculantOperator:
        """G_r^T: the restriction stencil with its offsets negated."""
        gen = self.generator_restr
        return CirculantOperator(n=gen.n, stencil={-o: c for o, c in gen.stencil.items()}, scale=gen.scale)

    @cached_property
    def interpolation(self) -> np.ndarray:
        """The dense N x N/2 interpolation matrix, built on first use."""
        return self.interpolate(np.eye(self.n_coarse)).T

    @cached_property
    def restriction(self) -> np.ndarray:
        """The dense N/2 x N restriction matrix, built on first use."""
        return self.restrict(np.eye(self.n_fine)).T


def build_ci_pair(
    n_fine: int, interp_exactness: int = INTERP_EXACTNESS, restr_exactness: int = RESTR_EXACTNESS
) -> TransferPair:
    """CI pair with the requested polynomial exactness on each leg."""
    nc = n_fine // 2
    return TransferPair(
        n_fine=n_fine,
        generator_interp=midpoint_generator(nc, interp_exactness),
        generator_restr=midpoint_generator(nc, restr_exactness),
    )


@dataclass(frozen=True)
class HarmonicDiagonals:
    """Closed-form diagonals of the transformed interpolation/restriction.

    d/d_hat belong to the interpolation, f/f_hat to the restriction; index k
    runs over the N/2 coarse harmonics.
    """

    d: np.ndarray
    d_hat: np.ndarray
    f: np.ndarray
    f_hat: np.ndarray


def _diagonal_pair(gen: CirculantOperator, n_fine: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n_fine // 2)
    lam = gen.symbol(k)
    phase = np.exp(-2j * np.pi * k / n_fine)
    d = (1.0 + lam * phase) / np.sqrt(2.0)
    d_hat = (1.0 - lam * phase) / np.sqrt(2.0)
    return d, d_hat


def harmonic_diagonals(pair: TransferPair) -> HarmonicDiagonals:
    """Closed-form harmonic diagonals of the pair's two legs."""
    d, d_hat = _diagonal_pair(pair.generator_interp, pair.n_fine)
    f, f_hat = _diagonal_pair(pair.generator_restr, pair.n_fine)
    return HarmonicDiagonals(d=d, d_hat=d_hat, f=f, f_hat=f_hat)


def transfer_structure_residual(pair: TransferPair, diags: HarmonicDiagonals) -> float:
    """Max deviation of the dense transforms from the two-diagonal form with these diagonals; O(N^3)."""
    n, nc = pair.n_fine, pair.n_coarse
    k = np.arange(nc)
    psi, psi_c = dft_matrix(n), dft_matrix(nc)
    t_int = psi.conj().T @ pair.interpolation @ psi_c
    t_int[k, k] -= diags.d
    t_int[nc + k, k] -= diags.d_hat
    t_res = psi_c.conj().T @ pair.restriction @ psi
    t_res[k, k] -= 0.5 * diags.f
    t_res[k, nc + k] -= 0.5 * diags.f_hat
    return float(max(np.max(np.abs(t_int)), np.max(np.abs(t_res))))


def node_propagation(m_nodes: int) -> np.ndarray:
    """M x M block copying the last node value onto every node."""
    k = np.zeros((m_nodes, m_nodes))
    k[:, -1] = 1.0
    return k


def check_restriction_condition(
    pair: TransferPair,
    m_nodes: int,
    temporal_restriction: np.ndarray | None = None,
) -> tuple[bool, np.ndarray]:
    """Commutator L = T_F^C N - N_tilde T_F^C of restriction and propagation.

    With spatial-only coarsening the temporal restriction is the identity and
    L vanishes exactly.  A non-trivial temporal restriction may break the
    condition; the violation is returned as data.
    """
    r_t = np.eye(m_nodes) if temporal_restriction is None else np.asarray(temporal_restriction)
    r_st = np.kron(r_t, pair.restriction)
    n_fine = np.kron(node_propagation(m_nodes), np.eye(pair.n_fine))
    n_coarse = np.kron(node_propagation(r_t.shape[0]), np.eye(pair.n_coarse))
    violation = r_st @ n_fine - n_coarse @ r_st
    ok = bool(np.max(np.abs(violation)) == 0.0)
    return ok, violation
