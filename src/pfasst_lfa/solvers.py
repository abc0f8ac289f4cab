"""Iterative solvers: SDC, MLSDC, block Gauss-Seidel/Jacobi and PFASST.

Every method exists twice: as a step procedure (the way one would run it)
and as an explicit preconditioner/iteration matrix (the way one analyzes
it).  The tests pin the two routes against each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collocation import CollocationProblem
from .errors import FactorizationError
from .linalg import convolved
from .transfer import TransferPair, node_propagation


@dataclass(frozen=True)
class Preconditioner:
    """P, or kron(I_L, P) with -N = -kron(coupling, I) below it, solved through the cached LU of P.

    The interval count L is the right-hand side's row count over the rows
    of P.  ``coupling=None`` is block Jacobi, independent intervals; an
    M x M coupling is block Gauss-Seidel, x_i = P^{-1}(r_i + N x_{i-1}),
    acting on the node axis of each interval.  Neither N nor the (L*d)^2
    matrix is formed.  Solve on one thread only: two threads calling
    ``scipy.linalg.lu_solve`` on one ``lu`` return wrong solutions (scipy
    1.17.1; separate copies of the factors do not), likely because its
    getrs wrapper shifts the pivot array in place.
    """

    matrix: np.ndarray
    coupling: np.ndarray | None = None

    @cached_property
    def lu(self) -> tuple:
        """scipy LU factors of P; a zero pivot or a failed factorization is a FactorizationError."""
        import scipy.linalg  # only the matrix route factors: the tc and c analyses never import scipy

        try:
            with warnings.catch_warnings():
                # the zero-pivot check below turns the warning into an error
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(self.matrix)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise FactorizationError(f"cannot factor preconditioner: {exc}") from exc
        if np.any(np.diag(lu[0]) == 0):
            raise FactorizationError("singular preconditioner")
        return lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """P^{-1} rhs for a vector or column stack of L*d rows, one row block per interval."""
        import scipy.linalg

        rhs = np.asarray(rhs)
        d = len(self.matrix)
        blocks = rhs.reshape(-1, d, *rhs.shape[1:])  # a ValueError unless the rows split into blocks of d
        # the LU solve returns Fortran-ordered blocks; a Fortran-ordered
        # result takes them without a transposing copy
        out = np.empty(rhs.shape, dtype=np.result_type(rhs, float), order="F")
        for i, r in enumerate(blocks):
            if i and self.coupling is not None:
                previous = out[(i - 1) * d : i * d]
                r = r + (self.coupling @ previous.reshape(len(self.coupling), -1)).reshape(previous.shape)
            out[i * d : (i + 1) * d] = scipy.linalg.lu_solve(self.lu, r)
        return out


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

    @property
    def condition(self) -> float:
        """max/min |denominator|: the spread of the sweep's pivots, cond_2(P) when Q_Delta is diagonal."""
        magnitudes = np.abs(self.denominators)
        return float(magnitudes.max() / magnitudes.min())


def node_sweep(problem: CollocationProblem, qdelta: np.ndarray) -> NodeSweep:
    """The Fourier symbol of one sweep; a denominator that is exactly 0 is a FactorizationError."""
    dt_sigma = problem.dt * np.fft.fft(problem.operator.first_column())
    denominators = 1.0 - np.diag(qdelta)[:, None] * dt_sigma
    if np.any(denominators == 0):
        raise FactorizationError("singular node sweep")
    return NodeSweep(qdelta=qdelta, dt_sigma=dt_sigma, denominators=denominators)


def sdc_preconditioner(problem: CollocationProblem, qdelta: np.ndarray) -> Preconditioner:
    """P = I - dt*(Q_Delta kron A)."""
    return Preconditioner(np.eye(problem.dim) - problem.dt * np.kron(qdelta, problem.a))


def richardson_step(p: Preconditioner, m: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u + P^{-1}(c - M u)."""
    return u + p.solve(c - m @ u)


def _lifted(transfer: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kron(I_{LM}, transfer) x: the dense spatial transfer applied to each (interval, node) row block.

    ``x`` is a vector or a column stack of L*M row blocks; the L*M-fold
    Kronecker product is never formed.
    """
    blocks = x.reshape(x.shape[0] // transfer.shape[1], transfer.shape[1], -1)
    return (transfer @ blocks).reshape(-1, *x.shape[1:])


def mlsdc_step(
    fine: Preconditioner,
    coarse: Preconditioner,
    pair: TransferPair,
    m_column: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """One two-level step: coarse-corrected half step, then a fine sweep; M u by ``convolved`` with M's column.

    ``m_column`` is M's first block column, which fixes the block lower Toeplitz M; for one interval it is M.
    With the composite block Jacobi and block Gauss-Seidel preconditioners it is one PFASST iteration in matrix form.
    """
    u_half = u + _lifted(pair.interpolation, coarse.solve(_lifted(pair.restriction, c - convolved(m_column, u))))
    return u_half + fine.solve(c - convolved(m_column, u_half))


def mlsdc_preconditioner_inverse(
    fine: Preconditioner, coarse: Preconditioner, pair: TransferPair, m: np.ndarray
) -> np.ndarray:
    """The explicit P_MLSDC^{-1} combining both levels in one matrix."""
    eye = np.eye(m.shape[0])
    cgc = _lifted(pair.interpolation, coarse.solve(_lifted(pair.restriction, eye)))
    p_inv = fine.solve(eye)
    return cgc + p_inv - p_inv @ m @ cgc


def sdc_iteration_matrix(p: Preconditioner, m: np.ndarray) -> np.ndarray:
    """T = I - P_sdc^{-1} M."""
    return np.eye(m.shape[0]) - p.solve(m)


def mlsdc_iteration_matrix(
    fine: Preconditioner, coarse: Preconditioner, pair: TransferPair, m: np.ndarray
) -> np.ndarray:
    """T = I - P_mlsdc^{-1} M."""
    return np.eye(m.shape[0]) - mlsdc_preconditioner_inverse(fine, coarse, pair, m) @ m


def pfasst_iteration_column(
    coarse_gs: Preconditioner, fine_jacobi: Preconditioner, pair: TransferPair, m_column: np.ndarray
) -> np.ndarray:
    """The first block column, (L*M*N) x (M*N), of T = (I - Phat^{-1} M)(I - T_up Ptilde^{-1} T_down M), from M's.

    Every interval has the same operators and both preconditioners are causal,
    so M and T are block lower triangular Toeplitz, fixed by their first block
    columns.  Block i of T's is S's band, its blocks i - 1 and i (one solve of
    M's band [M_10, M_11], M's blocks 1 and 0), times the matching row blocks of
    the coarse factor's column block 0 (one Gauss-Seidel solve of M's column).
    Leaving S's zero blocks out of the inner sums moves the column from the
    dense formula's by up to 7e-17 (L*M*N = 640) and 1.1e-15 (2560) of max |T|.
    """
    size, d = m_column.shape
    lo = d if size > d else 0  # block row 1, or block row 0 when L = 1
    row = [m_column[d : 2 * d], m_column[:d]] if lo else [m_column[:d]]  # [M_10, M_11], or M_00
    band = np.negative(fine_jacobi.solve(np.hstack(row)))  # [-P^{-1}(-N), -P^{-1} C]
    band[np.arange(d), lo + np.arange(d)] += 1.0
    cgc = np.negative(_lifted(pair.interpolation, coarse_gs.solve(_lifted(pair.restriction, m_column))))
    cgc[np.arange(d), np.arange(d)] += 1.0
    column = np.empty_like(cgc)
    for i in range(0, size, d):
        np.matmul(band[:, max(lo - i, 0) :], cgc[max(i - lo, 0) : i + d], out=column[i : i + d])
    return column


@dataclass
class TwoLevelSetup:
    """One configuration's two-level operators; the coarsening is spatial, so the levels share one Q_Delta.

    The node sweeps and the stencil transfers serve the algorithmic run; the
    dense preconditioners and the first block columns of M and T, which fix
    both, serve the matrix route; no (L*M*N)^2 matrix is assembled.  Each is
    built on first use, so the run allocates no N x N or (M*N) x (M*N) matrix.
    """

    fine: CollocationProblem
    coarse: CollocationProblem
    pair: TransferPair
    l: int
    qdelta: np.ndarray  # Q_Delta, lower triangular

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

    @property
    def composite_column(self) -> np.ndarray:
        """M's first block column, which fixes M: C, then -N, then zeros; not kept, as its readers' results are."""
        d = self.fine.dim
        column = np.zeros((self.l * d, d))
        column[:d] = self.fine.matrix
        if self.l > 1:
            column[d : 2 * d] = -np.kron(node_propagation(self.m_nodes), np.eye(self.fine.n_space))
        return column

    @cached_property
    def composite_preconditioners(self) -> tuple[Preconditioner, Preconditioner]:
        """(coarse block Gauss-Seidel, fine block Jacobi) on the full domain; the block Jacobi is ``p_fine``."""
        return Preconditioner(self.p_coarse.matrix, node_propagation(self.m_nodes)), self.p_fine

    @cached_property
    def iteration_column(self) -> np.ndarray:
        """The first block column of the PFASST iteration matrix T of the composite system, which fixes T."""
        return pfasst_iteration_column(*self.composite_preconditioners, self.pair, self.composite_column)


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
    ``start`` holds the initial iterate, L*M*N values after any leading
    axes, and ``rhs`` the L per-interval right-hand sides, as many values in
    any layout (a zero ``rhs`` propagates an error vector through the
    homogeneous iteration).  Leading axes stack independent runs: every
    operation acts on each run alone, so each run's iterates are bitwise
    those of running it by itself.  Returns all iterates, shaped like
    ``start``, starting with ``start``.
    """
    fine, coarse = setup.fine, setup.coarse
    pair = setup.pair
    start = np.asarray(start)
    stack = start.shape[:-1]
    shape = (*stack, setup.l, setup.m_nodes, fine.n_space)
    rhs = np.asarray(rhs).reshape(shape)
    u = start.reshape(shape).astype(np.result_type(start, rhs, float))
    rhs_coarse = pair.restrict(rhs)
    trace = [u.reshape(*stack, -1)]
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
                residual[..., l, :, :] += corrected[..., l - 1, -1:, :]  # the predecessor's last node, on every node
            corrected[..., l, :, :] = restricted[..., l, :, :] + setup.coarse_sweep.solve(residual[..., l, :, :])
        u_half = u + pair.interpolate(corrected - restricted)
        # fine level: one batched sweep over all intervals
        residual = rhs - fine.apply(u_half)
        residual[..., 1:, :, :] += u_half[..., :-1, -1:, :]  # the predecessor's last node, on every node
        u = u_half + setup.fine_sweep.solve(residual)
        trace.append(u.reshape(*stack, -1))
    return trace
