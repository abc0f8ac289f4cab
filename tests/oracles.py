"""Unbatched forms of kernels the program runs batched, kept as the oracles of its tests.

``pairwise_power_norms`` walks the block stack one harmonic pair at a time,
where ``lfa.block_power_norms`` walks row chunks, and in tc mode forms each
pair's ``convolution_powers`` from its ``tc_column``, where the kernel forms
them for every pair at once; ``exhaustive_phases`` refits every split, where
``analysis.detect_phases`` refits only the splits its closed-form residuals
shortlist.  Both must give the same floats bit for
bit.  ``transform_matrix`` is ``lfa.transform_vector`` as a dense matrix.
``asymptotic_ratio`` measures the late contraction of a trace, which the
acceptance suite compares with the predicted spectral radius.
``apply_blocks`` applies every block, where the ``apply`` prediction
multiplies only the rows of the excited harmonics.  ``norms2`` and
``max_norm2`` are the norm kernel's 2-norms over a stack, without chunks
or bounds.  ``convolved`` is ``linalg.convolved`` one block product at a
time, where the kernel takes one stacked product per block of its left
operand.  ``block_toeplitz`` assembles a block lower Toeplitz matrix from
its first block column, and ``composite_matrix`` so the dense M, which the
package applies by ``linalg.convolved`` from M's column alone.
``tc_similarity_pass`` is ``analysis.tc_similarity_residual`` as one
fft/ifft pair over T's whole column, where the check takes one pair per
interval.  ``dense_iteration_matrix`` is the PFASST iteration matrix as
its defining product over all columns, blind to its block Toeplitz
structure, where ``solvers.pfasst_iteration_column`` forms only its first
block column and ``iteration_matrix`` copies that column down the block
diagonals; the package itself assembles no dense T.
``band_iteration_column`` is the build the column builder replaced: block i
of T's column is S's band, its blocks i - 1 and i, times the coarse
factor's, with P_coarse factored once per interval, where the builder
carries the intervals' coupling by rank-N/2 products from one P_fine and
one P_coarse factorization.  ``triangle_iteration_matrix`` is the serial
build over T's causal block triangle that the band build replaced: it
solves and multiplies every column block from its own interval on.
``interval_run`` is ``solvers.pfasst_run_algorithmic`` as it ran before its
sweeps became per-harmonic products: one fft, a forward substitution over
the nodes and one ifft per coarse interval, and every stencil a sum of
``np.roll`` terms (``roll_apply``), where ``CirculantOperator.apply`` sums
slices of one wrap-padded copy.
"""

import numpy as np

from pfasst_lfa import lfa, linalg, solvers
from pfasst_lfa.analysis import (
    PHASE_IMPROVEMENT,
    PHASE_MIN_LEN,
    PHASE_NOISE_SSE,
    PHASE_REL_FLOOR,
    PhaseSegmentation,
    _segment_sse,
)
from pfasst_lfa.linalg import scaled
from pfasst_lfa.space_operators import CirculantOperator


def pair_stacks(d: lfa.BlockDecomposition):
    """The stored blocks of each harmonic pair whose singular values cover the stack.

    Those are the pairs k <= (N/2)//2 (the one block in full mode), and of
    each pair every block in tc mode; in c mode the time frequencies j >= 1, only up to
    j <= L/2 if conjugate-symmetric: the rows ``d.norm_chunks()`` walks, one
    pair at a time.
    """
    per = d.meta.blocks_per_pair
    pairs = min(d.meta.n // 4 + 1, len(d.blocks) // per)
    c = d.meta.mode == "c"
    kept = per // 2 + 1 if c and d.conjugate_symmetric else per
    for k in range(pairs):
        yield d.blocks[k * per + int(c) : k * per + kept]


def apply_blocks(d: lfa.BlockDecomposition, vhat: np.ndarray) -> np.ndarray:
    """The block-diagonal iteration matrix applied to transformed coordinates, one row per block."""
    return np.matmul(d.blocks, vhat[..., None])[..., 0]


def transform_matrix(meta: lfa.TransformMeta) -> np.ndarray:
    """F: column i is the transform of unit vector i, raveled over (block, entry)."""
    eye = np.eye(meta.l * meta.m * meta.n)
    return np.column_stack([lfa.transform_vector(e, meta).ravel() for e in eye])


def norms2(stack: np.ndarray) -> np.ndarray:
    """The 2-norm of each matrix of a real or complex stack, by ``lfa._norms2``."""
    scale, x = scaled(stack)
    return lfa._norms2(scale, lfa._gram(x))


def max_norm2(stack: np.ndarray) -> float:
    """Largest 2-norm in a stack of real or complex matrices, by ``lfa._norms2``."""
    return float(np.max(norms2(stack)))


def dense_iteration_matrix(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """(I - Phat^{-1} M)(I - T_up Ptilde^{-1} T_down M), each factor solved over all L*M*N columns of the dense M."""
    (coarse_gs, fine_jacobi), pair, m = setup.composite_preconditioners, setup.pair, composite_matrix(setup)
    eye = np.eye(len(m))
    cgc = eye - solvers._lifted(pair.interpolation, coarse_gs.solve(solvers._lifted(pair.restriction, m)))
    return (eye - fine_jacobi.solve(m)) @ cgc


def block_toeplitz(column: np.ndarray, width: int) -> np.ndarray:
    """The block lower triangular Toeplitz matrix whose first block column, ``width`` wide, is ``column``."""
    out = np.zeros((len(column), len(column)), dtype=column.dtype)
    for j in range(0, len(column), width):
        out[j:, j : j + width] = column[: len(column) - j]
    return out


def composite_matrix(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """The dense composite collocation matrix M over the L intervals, assembled from ``setup.composite_column``."""
    return block_toeplitz(setup.composite_column, setup.fine.dim)


def tc_similarity_pass(column: np.ndarray, d: lfa.BlockDecomposition) -> float:
    """``analysis.tc_similarity_residual`` with one fft/ifft pair over the whole of T's first block column."""
    n, l, m, h = d.meta.n, d.meta.l, d.meta.m, d.meta.n // 2
    hat = np.fft.ifft(np.fft.fft(column.reshape(l, m, n, m, n), axis=2, norm="ortho"), axis=4, norm="ortho")
    hat = hat.reshape(l, m, 2, h, m, 2, h)
    blocks = d.blocks.reshape(h, 2, l, m, 2, l, m)[:, :, :, :, :, 0]
    pairs = np.arange(h)
    hat[:, :, :, pairs, :, :, pairs] -= blocks.transpose(0, 2, 3, 1, 5, 4)
    return float(np.max(np.abs(hat))) / max(float(np.max(np.abs(column))), 1.0)


def iteration_matrix(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """The dense T, block lower triangular Toeplitz: block (i, j) is block i - j of ``setup.iteration_column``."""
    return block_toeplitz(setup.iteration_column, setup.fine.dim)


def band_iteration_column(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """T's first block column from band products: block i is S's band, blocks i - 1 and i, times the coarse factor's.

    The band [P^{-1} N, I - P^{-1} C] is one P_fine solve of M's band [M_10, M_11]
    (M_00 alone when L = 1), and the coarse factor's column block 0 one
    Gauss-Seidel solve of M's restricted column, P_coarse factored once per interval.
    """
    (coarse_gs, fine_jacobi), pair, m_column = setup.composite_preconditioners, setup.pair, setup.composite_column
    size, d = m_column.shape
    lo = d if size > d else 0  # block row 1, or block row 0 when L = 1
    row = [m_column[d : 2 * d], m_column[:d]] if lo else [m_column[:d]]  # [M_10, M_11], or M_00
    band = np.negative(fine_jacobi.solve(np.hstack(row)))  # [-P^{-1}(-N), -P^{-1} C]
    band[np.arange(d), lo + np.arange(d)] += 1.0
    cgc = -solvers._lifted(pair.interpolation, coarse_gs.solve(solvers._lifted(pair.restriction, m_column)))
    cgc[np.arange(d), np.arange(d)] += 1.0
    return np.vstack([band[:, max(lo - i, 0) :] @ cgc[max(i - lo, 0) : i + d] for i in range(0, size, d)])


def triangle_iteration_matrix(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """T over its causal block triangle: column block j of both factors solved and multiplied from interval j on.

    Block (i, j) is S's block row i, in a zeroed (M*N, L*M*N) buffer, times the
    coarse factor's column block j, so column block 0 is formed as
    ``band_iteration_column`` forms it, and every other column block
    from fewer intervals than block (i - j, 0) of that column.
    """
    (coarse_gs, fine_jacobi), pair, m = setup.composite_preconditioners, setup.pair, composite_matrix(setup)
    size, d = len(m), len(fine_jacobi.matrix)
    lo = d if size > d else 0
    band = np.negative(fine_jacobi.solve(m[lo : lo + d, : lo + d]))
    band[np.arange(d), lo + np.arange(d)] += 1.0
    cgc = np.zeros_like(m)
    for j in range(0, size, d):
        restricted = solvers._lifted(pair.restriction, m[j:, j : j + d])
        cgc[j:, j : j + d] = -solvers._lifted(pair.interpolation, coarse_gs.solve(restricted))
    cgc.flat[:: size + 1] += 1.0
    t, row = np.zeros_like(m), np.zeros((d, size))
    for j in range(0, size, d):
        for i in range(j, size, d):
            row.fill(0.0)
            row[:, max(i - lo, 0) : i + d] = band[:, max(lo - i, 0) :]
            np.matmul(row, cgc[:, j : j + d].copy(), out=t[i : i + d, j : j + d])
    return t


def convolved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``linalg.convolved`` one block product at a time: block i adds a's block i - j times b's block j, j = 0..i."""
    a = a.reshape(-1, a.shape[-1], a.shape[-1])
    blocks = b.reshape(*a.shape[:2], -1)
    out = np.zeros(blocks.shape, np.result_type(a, b))
    for i in range(len(a)):
        for j in range(i + 1):
            out[i] += a[i - j] @ blocks[j]
    return out.reshape(b.shape)


def tc_column(block: np.ndarray, meta: lfa.TransformMeta) -> np.ndarray:
    """A tc block's first block column, (L, 2M, 2M), its rows and columns in (interval, half, node) order.

    The block, in (half, interval, node) order, is the leading section of a block lower Toeplitz operator.
    """
    l, m = meta.l, meta.m
    order = np.arange(2 * l * m).reshape(2, l, m).transpose(1, 0, 2).ravel()
    return block[np.ix_(order, order[: 2 * m])].reshape(l, 2 * m, 2 * m)


def convolution_powers(column: np.ndarray, k_max: int):
    """B^k's first block column for k = 1..k_max, B block lower Toeplitz with first block column ``column``, (L, w, w).

    Block row i of B^k's is [C_i ... C_0] times block rows 0..i of B^(k-1)'s, one product, as
    ``lfa._power_columns`` forms it for a whole stack at once.
    """
    l, w = column.shape[:2]
    row = np.hstack(column[::-1])  # [C_(L-1) ... C_0]
    power = column
    for k in range(1, k_max + 1):
        if k > 1:
            power = np.stack([row[:, (l - 1 - i) * w :] @ power[: i + 1].reshape(-1, w) for i in range(l)])
        yield power


def pairwise_power_norms(d: lfa.BlockDecomposition, k_max: int) -> np.ndarray:
    """max over blocks of ||B^k||_2 for k = 0..k_max, pair by pair, in the field of the stored stack.

    In full mode T^k's first block column is formed by ``linalg.convolved`` and
    its 2-norm taken by ``lfa.toeplitz_norm2``, as ``lfa.block_power_norms`` does.
    In tc mode k = 1 is the stored blocks' norm, and k >= 2 each block's
    ``convolution_powers``, each assembled by ``block_toeplitz`` and its norm
    taken by ``lfa._norms2``.
    """
    norms = np.zeros(k_max + 1)
    norms[0] = 1.0
    full, tc = d.meta.mode == "full", d.meta.mode == "tc"
    for blocks in pair_stacks(d):
        if tc:
            w = 2 * d.meta.m
            for k, power in enumerate(convolution_powers(tc_column(blocks[0], d.meta), k_max), 1):
                section = blocks if k == 1 else block_toeplitz(power.reshape(-1, w), w)[None]
                norms[k] = np.maximum(norms[k], max_norm2(section))  # a NaN stays
            continue
        power = blocks  # full mode: T's first block column
        for k in range(1, k_max + 1):
            if k > 1:
                power = linalg.convolved(power, blocks) if full else power @ blocks
            norms[k] = np.maximum(norms[k], lfa.toeplitz_norm2(power[0]) if full else max_norm2(power))
    return norms


def exhaustive_phases(errors) -> PhaseSegmentation:
    """``detect_phases`` with every 2- and 3-segment split refitted by ``_segment_sse``."""
    min_len, improvement = PHASE_MIN_LEN, PHASE_IMPROVEMENT
    errors = np.asarray(errors, dtype=float)
    y = np.log10(errors[errors > PHASE_REL_FLOOR * errors[0]])
    n = len(y)
    sse1, slope1 = _segment_sse(y)
    if n < 2 * min_len or sse1 <= PHASE_NOISE_SSE:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1])

    best2 = None
    for b in range(min_len, n - min_len + 1):
        s_a, sl_a = _segment_sse(y[:b])
        s_b, sl_b = _segment_sse(y[b:])
        if best2 is None or s_a + s_b < best2[0]:
            best2 = (s_a + s_b, [0, b], [sl_a, sl_b])
    best3 = None
    for b1 in range(min_len, n - 2 * min_len + 1):
        s_a, sl_a = _segment_sse(y[:b1])
        for b2 in range(b1 + min_len, n - min_len + 1):
            s_b, sl_b = _segment_sse(y[b1:b2])
            s_c, sl_c = _segment_sse(y[b2:])
            if best3 is None or s_a + s_b + s_c < best3[0]:
                best3 = (s_a + s_b + s_c, [0, b1, b2], [sl_a, sl_b, sl_c])

    if best2[0] >= (1.0 - improvement) * sse1:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1])
    if best3 is None or best2[0] <= PHASE_NOISE_SSE or best3[0] >= (1.0 - improvement) * best2[0]:
        return PhaseSegmentation(boundaries=best2[1], slopes=best2[2])
    return PhaseSegmentation(boundaries=best3[1], slopes=best3[2])


def asymptotic_ratio(errors: np.ndarray, rel_floor: float = 1e-14) -> float:
    """Geometric-mean contraction ratio over the final third of the trace."""
    errors = np.asarray(errors, dtype=float)
    mask = errors > rel_floor * errors[0]
    e = errors[mask]
    if len(e) < 3:
        raise ValueError("too few usable error values for an asymptotic ratio")
    start = 2 * len(e) // 3
    ratios = e[start + 1 :] / e[start:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def roll_apply(op: CirculantOperator, u: np.ndarray) -> np.ndarray:
    """A u along the last axis as the sum of scale * c_o * roll(u, -o), in the stencil's order."""
    return sum(op.scale * coeff * np.roll(u, -off, axis=-1) for off, coeff in op.stencil.items())


def substitution_solve(problem, qdelta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P^{-1} r for the sweep P = I - dt*(Q_Delta kron A): fft, forward substitution over the nodes, ifft."""
    dt_sigma = problem.dt * np.fft.fft(problem.operator.first_column())
    xhat = np.fft.fft(r, axis=-1)
    for i in range(len(qdelta)):
        if i:
            xhat[..., i, :] += dt_sigma * (qdelta[i, :i] @ xhat[..., :i, :])
        xhat[..., i, :] /= 1.0 - qdelta[i, i] * dt_sigma
    x = np.fft.ifft(xhat, axis=-1)
    return x if np.iscomplexobj(r) else x.real


def interval_run(setup: solvers.TwoLevelSetup, rhs: np.ndarray, start: np.ndarray, iterations: int) -> list:
    """``solvers.pfasst_run_algorithmic`` with one coarse sweep call per interval and every stencil by ``roll_apply``."""
    fine, coarse, pair, qdelta = setup.fine, setup.coarse, setup.pair, setup.qdelta
    gen = pair.generator_restr
    adjoint = CirculantOperator(n=gen.n, stencil={-o: c for o, c in gen.stencil.items()}, scale=gen.scale)

    def apply(problem, u):
        return u - problem.dt * (problem.rule.q @ roll_apply(problem.operator, u))

    def restrict(u):
        return 0.5 * (u[..., 0::2] + roll_apply(adjoint, u[..., 1::2]))

    def interpolate(u):
        odd = roll_apply(pair.generator_interp, u)
        out = np.empty(u.shape[:-1] + (pair.n_fine,), dtype=np.result_type(u, odd))
        out[..., 0::2] = u
        out[..., 1::2] = odd
        return out

    start = np.asarray(start)
    stack = start.shape[:-1]
    shape = (*stack, setup.l, setup.m_nodes, fine.n_space)
    rhs = np.asarray(rhs).reshape(shape)
    u = start.reshape(shape).astype(np.result_type(start, rhs, float))
    rhs_coarse = restrict(rhs)
    trace = [u.reshape(*stack, -1)]
    for _ in range(iterations):
        restricted = restrict(u)
        m_restricted = apply(coarse, restricted)
        residual = rhs_coarse + (m_restricted - restrict(apply(fine, u))) - m_restricted
        corrected = np.empty_like(restricted)
        for l in range(setup.l):
            if l > 0:
                residual[..., l, :, :] += corrected[..., l - 1, -1:, :]
            corrected[..., l, :, :] = restricted[..., l, :, :] + substitution_solve(
                coarse, qdelta, residual[..., l, :, :]
            )
        u_half = u + interpolate(corrected - restricted)
        residual = rhs - apply(fine, u_half)
        residual[..., 1:, :, :] += u_half[..., :-1, -1:, :]
        u = u_half + substitution_solve(fine, qdelta, residual)
        trace.append(u.reshape(*stack, -1))
    return trace
