"""Unbatched forms of kernels the program runs batched, kept as the oracles of its tests.

``pairwise_power_norms`` walks the block stack one harmonic pair at a time,
where ``lfa.block_power_norms`` walks row chunks; ``exhaustive_phases``
refits every split, where ``analysis.detect_phases`` refits only the splits
its closed-form residuals shortlist.  Both must give the same floats bit for
bit.  ``transform_matrix`` is ``lfa.transform_vector`` as a dense matrix.
``asymptotic_ratio`` measures the late contraction of a trace, which the
acceptance suite compares with the predicted spectral radius.
``apply_blocks`` applies every block, where the ``apply`` prediction
multiplies only the rows of the excited harmonics.  ``norms2`` and
``max_norm2`` are the norm kernel's 2-norms over a stack, without chunks
or bounds.  ``convolved`` is ``lfa._convolved`` one block product at a
time, where the kernel takes one stacked product per block of its left
operand.  ``dense_iteration_matrix`` is the PFASST iteration matrix as
its defining product over all columns, blind to its block Toeplitz
structure, where ``solvers.pfasst_iteration_column`` forms only its first
block column and ``iteration_matrix`` copies that column down the block
diagonals; the package itself assembles no dense T.
``triangle_iteration_matrix`` is the serial build over T's causal block
triangle that the column builder replaced: it solves and multiplies every
column block from its own interval on.
"""

import numpy as np

from pfasst_lfa import lfa, solvers
from pfasst_lfa.analysis import (
    PHASE_IMPROVEMENT,
    PHASE_MIN_LEN,
    PHASE_NOISE_SSE,
    PHASE_REL_FLOOR,
    PhaseSegmentation,
    _segment_sse,
)
from pfasst_lfa.errors import RangeError
from pfasst_lfa.linalg import block_toeplitz, scaled


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


def dense_iteration_matrix(coarse_gs, fine_jacobi, pair, m: np.ndarray) -> np.ndarray:
    """(I - Phat^{-1} M)(I - T_up Ptilde^{-1} T_down M), each factor solved over all L*M*N columns."""
    eye = np.eye(len(m))
    cgc = eye - solvers._lifted(pair.interpolation, coarse_gs.solve(solvers._lifted(pair.restriction, m)))
    return (eye - fine_jacobi.solve(m)) @ cgc


def iteration_matrix(setup: solvers.TwoLevelSetup) -> np.ndarray:
    """The dense T, block lower triangular Toeplitz: block (i, j) is block i - j of ``setup.iteration_column``."""
    return block_toeplitz(setup.iteration_column, setup.fine.dim)


def triangle_iteration_matrix(coarse_gs, fine_jacobi, pair, m: np.ndarray) -> np.ndarray:
    """T over its causal block triangle: column block j of both factors solved and multiplied from interval j on.

    Block (i, j) is S's block row i, in a zeroed (M*N, L*M*N) buffer, times the
    coarse factor's column block j, so column block 0 is formed as
    ``solvers.pfasst_iteration_column`` forms it, and every other column block
    from fewer intervals than block (i - j, 0) of that column.
    """
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
    """``lfa._convolved`` one block product at a time: block i adds a's block i - j times b's block j, j = 0..i."""
    a = a.reshape(-1, a.shape[-1], a.shape[-1])
    blocks = b.reshape(*a.shape[:2], -1)
    out = np.zeros(blocks.shape, np.result_type(a, b))
    for i in range(len(a)):
        for j in range(i + 1):
            out[i] += a[i - j] @ blocks[j]
    return out.reshape(b.shape)


def pairwise_power_norms(d: lfa.BlockDecomposition, k_max: int) -> np.ndarray:
    """max over blocks of ||B^k||_2 for k = 0..k_max, pair by pair, in the field of the stored stack.

    In full mode T^k's first block column is formed by ``lfa._convolved`` and
    its 2-norm taken by ``lfa.toeplitz_norm2``, as ``lfa.block_power_norms`` does.
    """
    norms = np.zeros(k_max + 1)
    norms[0] = 1.0
    full = d.meta.mode == "full"
    for blocks in pair_stacks(d):
        power = blocks  # full mode: T's first block column
        for k in range(1, k_max + 1):
            if k > 1:
                power = lfa._convolved(power, blocks) if full else power @ blocks
            norms[k] = max(norms[k], lfa.toeplitz_norm2(power[0]) if full else max_norm2(power))
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
        raise RangeError("too few usable error values for an asymptotic ratio")
    start = 2 * len(e) // 3
    ratios = e[start + 1 :] / e[start:-1]
    return float(np.exp(np.mean(np.log(ratios))))
