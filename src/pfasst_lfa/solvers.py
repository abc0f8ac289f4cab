"""Iterative solvers: SDC, MLSDC, block Gauss-Seidel/Jacobi and PFASST.

Every method exists twice: as a step procedure (the way one would run it)
and as an explicit preconditioner/iteration matrix (the way one analyzes
it).  The tests pin the two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collocation import CollocationProblem
from .errors import FactorizationError
from .linalg import convolved
from .transfer import TransferPair, node_propagation


@dataclass(frozen=True)
class Preconditioner:
    """P, or kron(I_L, P) with -N = -kron(coupling, I) below it, solved by ``np.linalg.solve`` with P.

    The interval count L is the right-hand side's row count over the rows
    of P.  ``coupling=None`` is block Jacobi, independent intervals, solved
    in one call with the L blocks side by side; an M x M coupling is block
    Gauss-Seidel, x_i = P^{-1}(r_i + N x_{i-1}), one call per interval,
    acting on the node axis of each interval.  Neither N nor the (L*d)^2
    matrix is formed.
    """

    matrix: np.ndarray
    coupling: np.ndarray | None = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """P^{-1} rhs for d rows by LAPACK's gesv (getrf, then getrs); a singular P is a FactorizationError."""
        try:
            return np.linalg.solve(self.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"cannot factor preconditioner: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """P^{-1} rhs for a vector or column stack of L*d rows, one row block per interval."""
        rhs = np.asarray(rhs)
        d = len(self.matrix)
        blocks = rhs.reshape(-1, d, *rhs.shape[1:])  # a ValueError unless the rows split into blocks of d
        if self.coupling is None:
            x = self._solve(blocks.swapaxes(0, 1).reshape(d, -1))
            return x.reshape(d, len(blocks), -1).swapaxes(0, 1).reshape(rhs.shape)
        out = np.empty(rhs.shape, dtype=np.result_type(rhs, float))
        for i, r in enumerate(blocks):
            if i:
                previous = out[(i - 1) * d : i * d]
                r = r + (self.coupling @ previous.reshape(len(self.coupling), -1)).reshape(previous.shape)
            out[i * d : (i + 1) * d] = self._solve(r)
        return out


@dataclass(frozen=True)
class NodeSweep:
    """P^{-1} for the sweep P = I - dt*(Q_Delta kron A), one M x M product per harmonic in Fourier space.

    A is circulant, so the Fourier transform on the grid axis diagonalizes
    it with the symbol sigma = fft(first column of A), and P becomes the
    lower triangular I - dt*sigma_k*Q_Delta on harmonic k.  ``inverse``
    holds their inverses, from forward substitution over the nodes,
    x_m = (r_m + dt*sigma*sum_{j<m} qd_mj x_j) / (1 - dt*qd_mm*sigma), on
    the identity: the solve of the dense ``sdc_preconditioner`` without any
    N x N or (M*N) x (M*N) matrix.
    """

    inverse: np.ndarray  # (N, M, M): (I - dt*sigma_k*Q_Delta)^{-1} of harmonic k
    denominators: np.ndarray  # (M, N): 1 - dt*qd_mm*sigma

    def solve(self, r: np.ndarray) -> np.ndarray:
        """P^{-1} r for every (M, N) slice of an (..., M, N) stack; real input gives real output."""
        r = np.asarray(r)
        to_hat, from_hat = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(r) else (np.fft.rfft, np.fft.irfft)
        rhat = to_hat(r, axis=-1).swapaxes(-1, -2)[..., None]  # (..., H, M, 1)
        xhat = np.matmul(self.inverse[: rhat.shape[-3]], rhat)[..., 0].swapaxes(-1, -2)
        return from_hat(xhat, r.shape[-1], axis=-1)

    @property
    def condition(self) -> float:
        """max/min |denominator|: the spread of the sweep's pivots, cond_2(P) when Q_Delta is diagonal."""
        magnitudes = np.abs(self.denominators)
        return float(magnitudes.max() / magnitudes.min())


def node_sweep(problem: CollocationProblem, qdelta: np.ndarray) -> NodeSweep:
    """The per-harmonic inverses of one sweep; a denominator that is exactly 0 is a FactorizationError."""
    dt_sigma = problem.dt * np.fft.fft(problem.operator.first_column())
    denominators = 1.0 - np.diag(qdelta)[:, None] * dt_sigma
    if np.any(denominators == 0):
        raise FactorizationError("singular node sweep")
    x = np.eye(len(qdelta), dtype=complex)[:, :, None].repeat(len(dt_sigma), axis=2)  # identity column, node, harmonic
    for i, denominator in enumerate(denominators):
        x[:, i] = (x[:, i] + dt_sigma * (qdelta[i, :i] @ x[:, :i])) / denominator
    return NodeSweep(inverse=np.ascontiguousarray(x.transpose(2, 1, 0)), denominators=denominators)


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
    out = np.empty((len(blocks) * len(transfer), *x.shape[1:]), np.result_type(transfer, x))
    np.matmul(transfer, blocks, out=out.reshape(len(blocks), len(transfer), -1))
    return out


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
    coarse_gs: Preconditioner, fine_jacobi: Preconditioner, pair: TransferPair, c: np.ndarray, l: int
) -> np.ndarray:
    """The first block column, (L*M*N) x (M*N), of T = (I - Phat^{-1} M)(I - T_up Ptilde^{-1} T_down M), from C and K.

    M and T are block lower triangular Toeplitz, fixed by their first block
    columns; M's is C (one interval's collocation matrix), -N, then zeros.  The
    coupling K = 1 e_M^T passes the last node on, so N = E Lam, E = 1 kron I and
    Lam the last node's rows.  One P_fine solve of [E, C] gives S's blocks,
    S_0 = I - P^{-1} C and S_1 = F Lam with F = P^{-1} E; one P_coarse solve of
    [T_down C, E_c] gives the coarse factor's, K_0 = I - T_up x_0 and
    K_i = -T_up G y_i, G = P_coarse^{-1} E_c, through the Gauss-Seidel chain
    y_1 = Lam x_0 - R Lam, y_(i+1) = (Lam G) y_i of (N/2) x (M*N) arrays.  So
    T_0 = S_0 K_0, T_1 = -(S_0 T_up G) y_1 + F Lam K_0 and, for i >= 2, the
    rank-N/2 T_i = -(S_0 T_up G Lam G + F Lam T_up G) y_(i-1).  The build is
    free of any Fourier or circulant structure: it uses only K's.
    """
    d, k = len(c), coarse_gs.coupling[:, -1:]  # K = k e_M^T
    n, n_coarse = d // len(k), len(pair.restriction)
    fine = fine_jacobi.solve(np.hstack([np.kron(k, np.eye(n)), c]))  # [F, P^{-1} C]
    f, s0 = fine[:, :n], fine[:, n:]
    np.negative(s0, out=s0)
    s0[np.arange(d), np.arange(d)] += 1.0
    coarse = coarse_gs._solve(np.hstack([_lifted(pair.restriction, c), np.kron(k, np.eye(n_coarse))]))  # [x_0, G]
    k0 = _lifted(pair.interpolation, coarse[:, :d])
    np.negative(k0, out=k0)
    k0[np.arange(d), np.arange(d)] += 1.0
    out = np.empty((l * d, d))
    np.matmul(s0, k0, out=out[:d])
    if l == 1:
        return out
    y = coarse[-n_coarse:, :d]  # Lam x_0, in place: K_0 no longer reads x_0
    y[:, -n:] -= pair.restriction
    g, g_last = coarse[:, d:], coarse[-n_coarse:, d:]
    s0_up_g = s0 @ _lifted(pair.interpolation, g)
    np.matmul(np.hstack([-s0_up_g, f]), np.vstack([y, k0[-n:]]), out=out[d : 2 * d])  # rank <= 3N/2
    w = -(s0_up_g @ g_last + f @ (pair.interpolation @ g_last))
    for i in range(2 * d, l * d, d):
        np.matmul(w, y, out=out[i : i + d])
        y = g_last @ y
    return out


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
        return pfasst_iteration_column(*self.composite_preconditioners, self.pair, self.fine.matrix, self.l)


def pfasst_run_algorithmic(
    setup: TwoLevelSetup, rhs: np.ndarray, start: np.ndarray, iterations: int
) -> list[np.ndarray]:
    """Run PFASST by simulating the per-processor message schedule serially.

    Iterates are (L, M, N) arrays: interval, node, grid point.  Each
    iteration: every interval restricts its iterate and forms the FAS
    correction; in Gauss-Seidel order each interval then receives the
    coarse value at its predecessor's last node and sweeps on the coarse
    level, in Fourier space (one transform of all intervals in, one P^{-1}
    product per interval, one transform out); the corrections are
    interpolated, and all intervals perform their fine sweep at once on
    values already available (Jacobi order).
    ``start`` holds the initial iterate, L*M*N values after any leading
    axes, and ``rhs`` the L per-interval right-hand sides, as many values in
    any layout (a zero ``rhs`` propagates an error vector through the
    homogeneous iteration).  Leading axes stack independent runs: every
    operation acts on each run alone, so each run's iterates are bitwise
    those of running it by itself.  Returns all iterates, shaped like
    ``start``, starting with ``start``.
    """
    fine, coarse, pair, sweep = setup.fine, setup.coarse, setup.pair, setup.coarse_sweep
    start = np.asarray(start)
    stack = start.shape[:-1]
    shape = (*stack, setup.l, setup.m_nodes, fine.n_space)
    rhs = np.asarray(rhs).reshape(shape)
    u = start.reshape(shape).astype(np.result_type(start, rhs, float))
    to_hat, from_hat = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(u) else (np.fft.rfft, np.fft.irfft)
    rhs_coarse = pair.restrict(rhs)
    trace = [u.reshape(*stack, -1)]
    for _ in range(iterations):
        # coarse level: the FAS right-hand side R c + tau of every interval at
        # once, with the predecessor's restricted last node on every node
        restricted = pair.restrict(u)
        m_restricted = coarse.apply(restricted)
        tau = m_restricted - pair.restrict(fine.apply(u))
        residual = rhs_coarse + tau - m_restricted
        residual[..., 1:, :, :] += restricted[..., :-1, -1:, :]
        # the sweeps in sequence, in Fourier space: each interval adds its
        # predecessor's correction at the last node, then applies P^{-1}
        chain = np.moveaxis(to_hat(residual, axis=-1), -3, 0).swapaxes(-1, -2)[..., None].copy()  # (L, ..., H, M, 1)
        for l, r in enumerate(chain):  # in place: each residual becomes its interval's correction
            if l:
                r += chain[l - 1, ..., -1:, :]
            np.matmul(sweep.inverse[: r.shape[-3]], r, out=r)
        correction = from_hat(np.moveaxis(chain[..., 0], 0, -3).swapaxes(-1, -2), coarse.n_space, axis=-1)
        u_half = u + pair.interpolate(correction)
        # fine level: one batched sweep over all intervals
        residual = rhs - fine.apply(u_half)
        residual[..., 1:, :, :] += u_half[..., :-1, -1:, :]  # the predecessor's last node, on every node
        u = u_half + setup.fine_sweep.solve(residual)
        trace.append(u.reshape(*stack, -1))
    return trace
