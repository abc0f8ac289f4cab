"""Block Fourier diagonalization of the PFASST iteration matrix.

Two granularities are supported.  Time-collocation blocks (one 2LM x 2LM
block per spatial harmonic pair) come from an exact similarity transform:
their eigenvalue union is the spectrum of the full iteration matrix.
Collocation blocks (2M x 2M, additionally indexed by a time frequency)
assume periodicity in time, which is an approximation: the phase
e^{-2 pi i j/L} takes the place of the interval shift E.  The
constant-in-time blocks at time frequency 0, singular at k = 0, are left
zero and not built.  The unreduced iteration matrix is the one-block case:
T itself in the identity basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .linalg import sort_eigenvalues
from .solvers import TwoLevelSetup
from .space_operators import CirculantOperator, circulant_eigenvalues
from .transfer import HarmonicDiagonals, harmonic_diagonals, node_propagation


@dataclass(frozen=True)
class TransformMeta:
    """Shapes and mode of the block transform, enough to invert it."""

    mode: str  # "time-collocation", "collocation" or "identity" (one block, T itself)
    n: int
    l: int
    m: int

    @property
    def block_dim(self) -> int:
        if self.mode == "identity":
            return self.l * self.m * self.n
        return 2 * self.l * self.m if self.mode == "time-collocation" else 2 * self.m

    @property
    def blocks_per_pair(self) -> int:
        """Blocks sharing one spatial harmonic pair: L time frequencies (c), else 1."""
        return self.l if self.mode == "collocation" else 1

    def block_index(self) -> list[tuple]:
        if self.mode == "identity":
            return [(-1,)]
        if self.mode == "time-collocation":
            return [(k,) for k in range(self.n // 2)]
        return [(k, j) for k in range(self.n // 2) for j in range(self.l)]

    def rows(self, harmonics) -> np.ndarray | slice:
        """Block rows whose spatial-harmonic index k is in ``harmonics``; every row in identity mode."""
        if self.mode == "identity":
            return slice(None)
        per = self.blocks_per_pair
        ks = sorted(k for k in harmonics if 0 <= k < self.n // 2)
        return (per * np.asarray(ks, dtype=int)[:, None] + np.arange(per)).ravel()


@dataclass
class BlockDecomposition:
    """A stack of dense blocks jointly similar to the full iteration matrix.

    ``blocks`` has shape (number of blocks, d, d); row i belongs to
    ``index[i]``; mode and index are read from ``meta``.  With ``mirrored``
    set (real stencils), harmonic h and N - h are complex conjugates, so
    block k and its mirror block (N/2 - k) mod N/2, with time frequency j
    paired with (L - j) mod L, are related by B' = Pi conj(B) Pi, Pi
    swapping the two harmonic halves (B_0 = conj(B_0) without the swap).
    Mirror partners therefore have the same singular values.
    """

    blocks: np.ndarray
    meta: TransformMeta
    mirrored: bool = False

    @property
    def mode(self) -> str:
        return self.meta.mode

    @property
    def index(self) -> list[tuple]:
        return self.meta.block_index()

    def pair_blocks(self, k: int) -> np.ndarray:
        """The blocks of harmonic pair k, as a (blocks per pair, d, d) view."""
        per = self.meta.blocks_per_pair
        return self.blocks[k * per : (k + 1) * per]

    def norm_pairs(self) -> range:
        """Harmonic pairs whose singular values cover every block: k <= (N/2)//2 if mirrored."""
        return range(self.meta.n // 4 + 1 if self.mirrored else len(self.blocks) // self.meta.blocks_per_pair)


@dataclass(frozen=True)
class SpectralComponents:
    """Spectral data of one two-level configuration, ready for block assembly."""

    n: int
    l: int
    m: int
    dt: float
    q: np.ndarray
    qdelta: np.ndarray
    lam_fine: np.ndarray  # length N, harmonic order
    lam_coarse: np.ndarray  # length N/2, harmonic order
    diags: HarmonicDiagonals
    real_stencils: bool  # lambda_{N-k} = conj(lambda_k): the blocks are mirror pairs


def _real_stencil(op: CirculantOperator) -> bool:
    return bool(np.isrealobj(op.scale) and all(np.isrealobj(c) for c in op.stencil.values()))


def spectral_components(setup: TwoLevelSetup) -> SpectralComponents:
    """The symbols of a two-level setup; its grids were checked by ``build_two_level_setup``."""
    fine, coarse = setup.fine, setup.coarse
    return SpectralComponents(
        n=fine.n_space,
        l=setup.l,
        m=setup.m_nodes,
        dt=fine.dt,
        q=fine.rule.q,
        qdelta=setup.qdelta.matrix,
        lam_fine=circulant_eigenvalues(fine.operator),
        lam_coarse=circulant_eigenvalues(coarse.operator),
        diags=harmonic_diagonals(setup.pair),
        real_stencils=_real_stencil(fine.operator) and _real_stencil(coarse.operator),
    )


def _basic_blocks(sc: SpectralComponents, shift: np.ndarray):
    """Factories for the TM x TM basic blocks, stacked over a stack of time shifts.

    ``shift`` is an (nb, T, T) stack: the interval shift E for tc (one entry,
    T = L), or the phase e^{-2 pi i j/L} of each time frequency for c
    (T = 1).  The coupling shift kron node propagation enters the system and
    coarse blocks; the fine smoother is block Jacobi, with no interval
    coupling, and is shared by the whole stack.
    """
    nb, t = shift.shape[0], shift.shape[-1]
    dim = t * sc.m
    eye = np.eye(dim)
    coupling = (shift[:, :, None, :, None] * node_propagation(sc.m)[:, None, :]).reshape(nb, dim, dim)
    it_q = np.kron(np.eye(t), sc.q)
    it_qd = np.kron(np.eye(t), sc.qdelta)

    def b_system(lam):
        return eye - lam * sc.dt * it_q - coupling

    def b_smoother(lam):
        return eye - lam * sc.dt * it_qd

    def b_coarse(lam):
        return eye - lam * sc.dt * it_qd - coupling

    return b_system, b_smoother, b_coarse


def _paired_blocks(sc, k, b_system, b_smoother, b_coarse) -> np.ndarray:
    """S * CGC for the harmonic pair (k, k + N/2), batched over the factories' stack.

    Every operation is the one-block operation applied slice by slice, so a
    block does not depend on the size of the batch it was built in.
    """
    lam_lo = sc.lam_fine[k]
    lam_hi = sc.lam_fine[k + sc.n // 2]
    bm_lo = b_system(lam_lo)
    bm_hi = b_system(lam_hi)
    nb, dim = bm_lo.shape[0], bm_lo.shape[-1]
    eye = np.eye(dim)

    s = np.zeros((nb, 2 * dim, 2 * dim), dtype=complex)
    s[:, :dim, :dim] = eye - np.linalg.solve(b_smoother(lam_lo), bm_lo)
    s[:, dim:, dim:] = eye - np.linalg.solve(b_smoother(lam_hi), bm_hi)

    pt = b_coarse(sc.lam_coarse[k])
    x_lo = np.linalg.solve(pt, bm_lo)
    x_hi = np.linalg.solve(pt, bm_hi)
    d, d_hat = sc.diags.d[k], sc.diags.d_hat[k]
    f, f_hat = sc.diags.f[k], sc.diags.f_hat[k]
    cgc = np.zeros_like(s)
    cgc[:, :dim, :dim] = eye - 0.5 * d * f * x_lo
    cgc[:, :dim, dim:] = -0.5 * d * f_hat * x_hi
    cgc[:, dim:, :dim] = -0.5 * d_hat * f * x_lo
    cgc[:, dim:, dim:] = eye - 0.5 * d_hat * f_hat * x_hi
    return s @ cgc


def _decompose(sc: SpectralComponents, mode: str, shift: np.ndarray) -> BlockDecomposition:
    """Blocks of every harmonic pair; the last len(shift) blocks of each pair are built, the rest stay 0."""
    meta = TransformMeta(mode=mode, n=sc.n, l=sc.l, m=sc.m)
    basic = _basic_blocks(sc, shift)
    per, built = meta.blocks_per_pair, len(shift)
    blocks = np.zeros((sc.n // 2 * per, meta.block_dim, meta.block_dim), dtype=complex)
    for k in range(sc.n // 2):
        blocks[(k + 1) * per - built : (k + 1) * per] = _paired_blocks(sc, k, *basic)
    return BlockDecomposition(blocks=blocks, meta=meta, mirrored=sc.real_stencils)


def tc_decompose(sc: SpectralComponents) -> BlockDecomposition:
    """N/2 time-collocation blocks of size 2LM; an exact similarity transform."""
    return _decompose(sc, "time-collocation", np.eye(sc.l, k=-1)[None])


def c_decompose(sc: SpectralComponents) -> BlockDecomposition:
    """N/2 * L collocation blocks of size 2M, assuming periodicity in time.

    Time frequency j = 0 belongs to constant-in-time modes whose coarse
    basic block is singular at k = 0; those blocks are zero and not built.
    A singular block at j >= 1 raises ``np.linalg.LinAlgError``.
    """
    # each phase factor from a scalar exp: an array exp may round differently,
    # and a block must not depend on how many time frequencies share its batch
    phases = np.array([np.exp(-2j * np.pi * j / sc.l) for j in range(1, sc.l)], dtype=complex)
    return _decompose(sc, "collocation", phases.reshape(-1, 1, 1))


def identity_decompose(t: np.ndarray, n: int, l: int, m: int) -> BlockDecomposition:
    """The iteration matrix T of an (L, M, N) layout as one block in the identity basis."""
    meta = TransformMeta(mode="identity", n=n, l=l, m=m)
    return BlockDecomposition(blocks=t[None], meta=meta)


def transform_vector(v: np.ndarray, meta: TransformMeta) -> np.ndarray:
    """Map a space-time vector into block coordinates, one row per block.

    Applies the unitary Fourier transform (the conjugate-transposed
    ``dft_matrix``, i.e. ``np.fft.fft`` with ``norm="ortho"``) on the spatial
    layer, and on the interval layer for collocation mode, and gathers the
    harmonic pairs.  The map is unitary: 2-norms are preserved.  In identity
    mode the vector is the single row.
    """
    if meta.mode == "identity":
        return np.asarray(v).reshape(1, -1)
    n, l, m = meta.n, meta.l, meta.m
    hat = np.fft.fft(np.asarray(v).reshape(l, m, n), axis=-1, norm="ortho")
    # split the harmonic axis into (half s, pair k): harmonic s*N/2 + k
    if meta.mode == "collocation":
        hat = np.fft.fft(hat, axis=0, norm="ortho")
        # row k*L + j holds (hat[j, :, k], hat[j, :, k + N/2])
        return hat.reshape(l, m, 2, n // 2).transpose(3, 0, 2, 1).reshape(n // 2 * l, 2 * m)
    # row k holds (hat[:, :, k], hat[:, :, k + N/2]), each raveled over (l, m)
    return hat.reshape(l * m, 2, n // 2).transpose(2, 1, 0).reshape(n // 2, 2 * l * m)


def inverse_transform_vector(vhat: np.ndarray, meta: TransformMeta) -> np.ndarray:
    """Invert :func:`transform_vector`; returns the flat (L, M, N) vector."""
    n, l, m = meta.n, meta.l, meta.m
    vhat = np.asarray(vhat)
    if meta.mode == "identity":
        return vhat.ravel()
    if meta.mode == "collocation":
        tmp = vhat.reshape(n // 2, l, 2, m).transpose(1, 3, 2, 0).reshape(l, m, n)
        hat = np.fft.ifft(tmp, axis=0, norm="ortho")
    else:
        hat = vhat.reshape(n // 2, 2, l * m).transpose(2, 1, 0).reshape(l, m, n)
    return np.fft.ifft(hat, axis=-1, norm="ortho").ravel()


def apply_blocks(d: BlockDecomposition, vhat: np.ndarray, harmonics: set[int] | None = None) -> np.ndarray:
    """Apply the block-diagonal iteration matrix to transformed coordinates.

    ``harmonics`` optionally restricts the application to blocks whose
    spatial-harmonic index is in the set; other rows are zeroed (they carry
    no energy for single-mode initial data).
    """
    rows = slice(None) if harmonics is None else d.meta.rows(harmonics)
    out = np.zeros_like(vhat)
    out[rows] = np.matmul(d.blocks[rows], vhat[rows, :, None])[:, :, 0]
    return out


@dataclass(frozen=True)
class BlockSpectra:
    """Per-block eigenvalues plus the aggregates used by the estimators.

    ``eigenvalues`` is an (number of blocks, d) array; row i holds the
    eigenvalues of block ``index[i]``, sorted by (real, imag) descending.
    """

    eigenvalues: np.ndarray
    index: list[tuple]
    spectral_radius: float
    norm: float


def _max_norm2(stack: np.ndarray) -> float:
    """Largest 2-norm in a stack of matrices."""
    return float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1))))


def block_spectra(d: BlockDecomposition) -> BlockSpectra:
    """Eigenvalues of every block, in one batched call; the 2-norm from the pairs of ``d.norm_pairs()``.

    Eigenvalues are never taken from a mirror partner: defective clusters
    scatter at eps^(1/p), so partners that agree to round-off can still
    differ visibly in their computed eigenvalues.
    """
    vals = sort_eigenvalues(np.linalg.eigvals(d.blocks))
    rho = float(np.max(np.abs(vals)))
    norm = 0.0
    for k in d.norm_pairs():
        norm = max(norm, _max_norm2(d.pair_blocks(k)))
    return BlockSpectra(eigenvalues=vals, index=list(d.index), spectral_radius=rho, norm=norm)


def block_power_norms(d: BlockDecomposition, k_max: int) -> np.ndarray:
    """max over blocks of ||B^k||_2 for k = 0..k_max, i.e. ||T^k||_2 block-wise.

    One pass per harmonic pair of ``d.norm_pairs()`` forms B^k = B^(k-1) B
    for all the pair's blocks at once; no power outlives its pair.
    """
    if k_max < 0:
        raise RangeError("power must be nonnegative")
    norms = np.zeros(k_max + 1)
    norms[0] = 1.0
    for pair in d.norm_pairs():
        blocks = d.pair_blocks(pair)
        power = blocks
        for k in range(1, k_max + 1):
            if k > 1:
                power = power @ blocks
            norms[k] = max(norms[k], _max_norm2(power))
    return norms


def cluster_eigenvalues(vals: np.ndarray, tol: float = 2e-4) -> list[tuple[int, complex]]:
    """Group eigenvalues into clusters of nearby values; (multiplicity, mean).

    The iteration matrix has defective eigenvalues of high multiplicity; a
    double-precision eigensolver scatters each into a ring of radius roughly
    eps^(1/p) around the true value.  Individual ring members are therefore
    meaningless to compare, but the cluster mean cancels the ring scatter and
    is accurate to round-off.  Single-linkage clustering at the given
    tolerance (above the scatter radius, below the cluster gaps) recovers the
    true (value, multiplicity) pairs.
    """
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    vals = np.asarray(vals)
    if len(vals) == 1:
        return [(1, complex(vals[0]))]
    pts = np.column_stack([vals.real, vals.imag])
    labels = fcluster(linkage(pdist(pts), method="single"), tol, criterion="distance")
    out = []
    for c in np.unique(labels):
        sel = vals[labels == c]
        out.append((len(sel), complex(sel.mean())))
    return out


def matched_cluster_distance(
    a: np.ndarray, b: np.ndarray, tols: tuple[float, ...] = (1e-4, 2e-4, 5e-4, 1e-3)
) -> float:
    """Max distance between matched eigenvalue clusters of two spectra.

    Each clustering tolerance in ``tols`` is tried; the best (smallest)
    matched distance over tolerances at which both spectra produce the same
    cluster structure is returned, inf if no tolerance does.  The right
    linkage scale sits between the eigensolver scatter radius and the
    cluster gaps, and both vary with the problem size; scanning a ladder
    avoids hand-tuning, and cannot produce a false match because the
    returned distance itself measures the agreement of the cluster means.
    """
    best = float("inf")
    for tol in tols:
        best = min(best, _matched_cluster_distance_at(np.asarray(a), np.asarray(b), tol))
    return best


def _matched_cluster_distance_at(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    from scipy.optimize import linear_sum_assignment

    ca = cluster_eigenvalues(a, tol)
    cb = cluster_eigenvalues(b, tol)
    if len(ca) != len(cb):
        return float("inf")
    if sorted(m for m, _ in ca) != sorted(m for m, _ in cb):
        return float("inf")
    mult_a = np.array([m for m, _ in ca])
    mult_b = np.array([m for m, _ in cb])
    mean_a = np.array([v for _, v in ca])
    mean_b = np.array([v for _, v in cb])
    cost = np.abs(mean_a[:, None] - mean_b[None, :])
    cost = np.where(mult_a[:, None] == mult_b[None, :], cost, np.inf)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:  # infeasible: no multiplicity-respecting matching
        return float("inf")
    return float(cost[rows, cols].max())
