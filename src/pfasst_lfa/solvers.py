"""Iterative solvers: SDC, MLSDC, block Gauss-Seidel/Jacobi and PFASST.

Every method exists twice: as a step procedure (the way one would run it)
and as an explicit preconditioner/iteration matrix (the way one analyzes
it).  The tests pin the two routes against each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .collocation import CollocationProblem, composite_system
from .errors import FactorizationError, RangeError
from .quadrature import QDelta, build_qdelta
from .transfer import TransferPair, node_propagation


def _lu_factor(matrix: np.ndarray) -> tuple:
    """scipy LU factors; a zero pivot or a failed factorization is a FactorizationError."""
    try:
        with warnings.catch_warnings():
            # the zero-pivot check below turns the warning into an error
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(matrix)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise FactorizationError(f"cannot factor preconditioner: {exc}") from exc
    if np.any(np.diag(lu[0]) == 0):
        raise FactorizationError("singular preconditioner")
    return lu


@dataclass
class Preconditioner:
    """A matrix P whose (cached-LU) inverse defines one Richardson step."""

    matrix: np.ndarray
    _lu: tuple = field(default=None, repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            self._lu = _lu_factor(self.matrix)
        return scipy.linalg.lu_solve(self._lu, rhs)


@dataclass(frozen=True)
class NodeSweep:
    """P^{-1} for the sweep P = I - dt*(Q_Delta kron A), applied node by node in Fourier space.

    A is circulant, so the Fourier transform on the grid axis diagonalizes
    it with the symbol sigma = fft(first column of A).  Q_Delta is lower
    triangular, so P^{-1} r is forward substitution over the nodes, one
    scalar division per harmonic:
    x_m = (r_m + dt*sigma*sum_{j<m} qd_mj x_j) / (1 - dt*qd_mm*sigma).
    This is the solve of the dense ``sdc_preconditioner`` without any
    N x N or (M*N) x (M*N) matrix.
    """

    qdelta: np.ndarray
    dt_sigma: np.ndarray  # dt * fft(first column of A), length N
    denominators: np.ndarray  # (M, N): 1 - dt*qd_mm*sigma

    def solve(self, r: np.ndarray) -> np.ndarray:
        """P^{-1} r for every (M, N) slice of an (..., M, N) stack; real input gives real output."""
        r = np.asarray(r)
        xhat = np.fft.fft(r.astype(np.result_type(r, float), copy=False), axis=-1)
        for i, denominator in enumerate(self.denominators):
            if i:
                xhat[..., i, :] += self.dt_sigma * (self.qdelta[i, :i] @ xhat[..., :i, :])
            xhat[..., i, :] /= denominator
        x = np.fft.ifft(xhat, axis=-1)
        return x if np.iscomplexobj(r) else x.real


def node_sweep(problem: CollocationProblem, qdelta: QDelta) -> NodeSweep:
    """The Fourier symbol of one sweep; a denominator that is exactly 0 is a FactorizationError."""
    dt_sigma = problem.dt * np.fft.fft(problem.operator.first_column())
    denominators = 1.0 - np.diag(qdelta.matrix)[:, None] * dt_sigma
    if np.any(denominators == 0):
        raise FactorizationError("singular node sweep")
    return NodeSweep(qdelta=qdelta.matrix, dt_sigma=dt_sigma, denominators=denominators)


def sdc_preconditioner(problem: CollocationProblem, qdelta: QDelta) -> Preconditioner:
    """P = I - dt*(Q_Delta kron A)."""
    return Preconditioner(np.eye(problem.dim) - problem.dt * np.kron(qdelta.matrix, problem.a))


def composite_gauss_seidel(p_single: Preconditioner, l: int, n_matrix: np.ndarray) -> Preconditioner:
    """Block lower-bidiagonal preconditioner: P blocks on the diagonal, -N below."""
    d = p_single.matrix.shape[0]
    mat = np.kron(np.eye(l), p_single.matrix)
    for i in range(1, l):
        mat[i * d : (i + 1) * d, (i - 1) * d : i * d] = -n_matrix
    return Preconditioner(mat)


def composite_jacobi(p_single: Preconditioner, l: int) -> Preconditioner:
    """Block-diagonal preconditioner: independent intervals."""
    return Preconditioner(np.kron(np.eye(l), p_single.matrix))


def richardson_step(p: Preconditioner, m: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u + P^{-1}(c - M u)."""
    return u + p.solve(c - m @ u)


def lift_transfer(pair: TransferPair, m_nodes: int, l: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Spatial transfer operators lifted to the (L, M, N) space-time layout."""
    eye = np.eye(l * m_nodes)
    return np.kron(eye, pair.interpolation), np.kron(eye, pair.restriction)


def mlsdc_step(
    fine: Preconditioner,
    coarse: Preconditioner,
    pair: TransferPair,
    m: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
    m_nodes: int,
    l: int = 1,
) -> np.ndarray:
    """One two-level step: coarse-corrected half step, then a fine sweep."""
    t_up, t_down = lift_transfer(pair, m_nodes, l)
    residual = c - m @ u
    u_half = u + t_up @ coarse.solve(t_down @ residual)
    return u_half + fine.solve(c - m @ u_half)


def mlsdc_preconditioner_inverse(
    fine: Preconditioner, coarse: Preconditioner, pair: TransferPair, m: np.ndarray, m_nodes: int, l: int = 1
) -> np.ndarray:
    """The explicit P_MLSDC^{-1} combining both levels in one matrix."""
    t_up, t_down = lift_transfer(pair, m_nodes, l)
    cgc = t_up @ coarse.solve(t_down)
    p_inv = fine.solve(np.eye(m.shape[0]))
    return cgc + p_inv - p_inv @ m @ cgc


def pfasst_step_matrix(
    coarse_gs: Preconditioner,
    fine_jacobi: Preconditioner,
    pair: TransferPair,
    m: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
    m_nodes: int,
    l: int,
) -> np.ndarray:
    """One PFASST iteration on the composite problem, in matrix form.

    The fine sweep starts from the coarse-corrected half step; this is the
    form whose error propagation factors into the PFASST iteration matrix.
    """
    t_up, t_down = lift_transfer(pair, m_nodes, l)
    u_half = u + t_up @ coarse_gs.solve(t_down @ (c - m @ u))
    return u_half + fine_jacobi.solve(c - m @ u_half)


def sdc_iteration_matrix(p: Preconditioner, m: np.ndarray) -> np.ndarray:
    """T = I - P_sdc^{-1} M."""
    return np.eye(m.shape[0]) - p.solve(m)


def mlsdc_iteration_matrix(
    fine: Preconditioner, coarse: Preconditioner, pair: TransferPair, m: np.ndarray, m_nodes: int, l: int = 1
) -> np.ndarray:
    """T = I - P_mlsdc^{-1} M."""
    return np.eye(m.shape[0]) - mlsdc_preconditioner_inverse(fine, coarse, pair, m, m_nodes, l) @ m


def pfasst_iteration_matrix(
    coarse_gs: Preconditioner, fine_jacobi: Preconditioner, pair: TransferPair, m: np.ndarray, m_nodes: int, l: int
) -> np.ndarray:
    """T = (I - Phat^{-1} M)(I - T_up Ptilde^{-1} T_down M)."""
    t_up, t_down = lift_transfer(pair, m_nodes, l)
    cgc_factor = np.eye(m.shape[0]) - t_up @ coarse_gs.solve(t_down @ m)
    smoother_factor = np.eye(m.shape[0]) - fine_jacobi.solve(m)
    return smoother_factor @ cgc_factor


@dataclass
class TwoLevelSetup:
    """One configuration's two-level operators; the coarsening is spatial, so the levels share one Q_Delta.

    The node sweeps and the stencil transfers serve the algorithmic run; the
    dense preconditioners, composite matrix and iteration matrix serve the
    matrix route.  Each is built on first use, so the run allocates no N x N
    or (M*N) x (M*N) matrix.
    """

    fine: CollocationProblem
    coarse: CollocationProblem
    pair: TransferPair
    l: int
    qdelta: QDelta

    @property
    def m_nodes(self) -> int:
        return self.fine.rule.m

    @cached_property
    def fine_sweep(self) -> NodeSweep:
        return node_sweep(self.fine, self.qdelta)

    @cached_property
    def coarse_sweep(self) -> NodeSweep:
        return node_sweep(self.coarse, self.qdelta)

    @cached_property
    def p_fine(self) -> Preconditioner:
        return sdc_preconditioner(self.fine, self.qdelta)

    @cached_property
    def p_coarse(self) -> Preconditioner:
        return sdc_preconditioner(self.coarse, self.qdelta)

    @cached_property
    def composite_matrix(self) -> np.ndarray:
        """The dense composite collocation matrix over the L intervals."""
        return composite_system(self.fine, self.l, np.zeros(self.fine.n_space)).matrix

    @cached_property
    def composite_preconditioners(self) -> tuple[Preconditioner, Preconditioner]:
        """(coarse block Gauss-Seidel, fine block Jacobi) on the full domain."""
        n_c = np.kron(node_propagation(self.m_nodes), np.eye(self.coarse.n_space))
        return (
            composite_gauss_seidel(self.p_coarse, self.l, n_c),
            composite_jacobi(self.p_fine, self.l),
        )

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """The dense PFASST iteration matrix T of the composite system."""
        return pfasst_iteration_matrix(
            *self.composite_preconditioners, self.pair, self.composite_matrix, self.m_nodes, self.l
        )


def build_two_level_setup(
    fine: CollocationProblem,
    coarse: CollocationProblem,
    pair: TransferPair,
    l: int,
    qdelta_kind: str,
) -> TwoLevelSetup:
    """The setup of a fine problem, its coarsening to n/2 points and their transfers."""
    n = fine.n_space
    if n % 2 or coarse.n_space != n // 2 or pair.n_fine != n:
        raise RangeError(
            f"need an even fine grid n, a coarse grid of n/2 and transfers for n, got "
            f"{n}, {coarse.n_space} and {pair.n_fine}"
        )
    qdelta = build_qdelta(fine.rule, qdelta_kind)
    return TwoLevelSetup(fine=fine, coarse=coarse, pair=pair, l=l, qdelta=qdelta)


def pfasst_run_algorithmic(
    setup: TwoLevelSetup, rhs: np.ndarray, start: np.ndarray, iterations: int
) -> list[np.ndarray]:
    """Run PFASST by simulating the per-processor message schedule serially.

    Iterates are (L, M, N) arrays: interval, node, grid point.  Each
    iteration: every interval restricts its iterate and forms the FAS
    correction; in Gauss-Seidel order each interval then receives the
    coarse value at its predecessor's last node and sweeps on the coarse
    level; the corrections are interpolated, and all intervals perform their
    fine sweep at once on values already available (Jacobi order).
    ``rhs`` holds the L per-interval right-hand sides and ``start`` the
    initial iterate, each of L*M*N values (a zero ``rhs`` propagates an error
    vector through the homogeneous iteration).  Returns all iterates,
    flattened to length L*M*N, starting with ``start``.
    """
    fine, coarse = setup.fine, setup.coarse
    shape = (setup.l, setup.m_nodes, fine.n_space)
    pair = setup.pair
    rhs = np.asarray(rhs).reshape(shape)
    start = np.asarray(start).reshape(shape)
    u = start.astype(np.result_type(start, rhs, float))
    rhs_coarse = pair.restrict(rhs)
    trace = [u.ravel()]
    for _ in range(iterations):
        # coarse level: the FAS right-hand side R c + tau of every interval at
        # once, then the sweeps in sequence
        restricted = pair.restrict(u)
        m_restricted = coarse.apply(restricted)
        tau = m_restricted - pair.restrict(fine.apply(u))
        residual = rhs_coarse + tau - m_restricted
        corrected = np.empty_like(restricted)
        for l in range(setup.l):
            if l > 0:
                residual[l] += corrected[l - 1, -1]  # the predecessor's last node, on every node
            corrected[l] = restricted[l] + setup.coarse_sweep.solve(residual[l])
        u_half = u + pair.interpolate(corrected - restricted)
        # fine level: one batched sweep over all intervals
        residual = rhs - fine.apply(u_half)
        residual[1:] += u_half[:-1, -1:]  # the predecessor's last node, on every node
        u = u_half + setup.fine_sweep.solve(residual)
        trace.append(u.ravel())
    return trace
