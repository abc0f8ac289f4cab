"""Block Fourier diagonalization of the PFASST iteration matrix.

Two granularities are supported.  Time-collocation blocks (one 2LM x 2LM
block per spatial harmonic pair) come from an exact similarity transform:
their eigenvalue union is the spectrum of the full iteration matrix.
Collocation blocks (2M x 2M, additionally indexed by a time frequency)
assume periodicity in time, which is an approximation: the phase
e^{-2 pi i j/L} takes the place of the interval shift E.  The
constant-in-time blocks at time frequency 0, singular at k = 0, are left
zero and not built.  The full mode is T in the identity basis, one block held
as T's first block column, which fixes the block Toeplitz T.  With symmetric
stencils every tc block is a real matrix, and the tc stack is held as
float64, so its eigenvalues, norms and powers run in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import convolved, scaled, sort_eigenvalues
from .solvers import TwoLevelSetup
from .space_operators import CirculantOperator
from .transfer import harmonic_diagonals, node_propagation

# Matrix entries per chunk of the norm and power kernels: every
# representative block of a c stack, one or two blocks of a large tc stack.
# tc norm-power counts float64 words instead: of a run of power columns, and
# of a chunk's symbol samples or sections with their Grams.  A block's 2-norm
# and powers do not depend on the chunk it is in.
NORM_CHUNK_ENTRIES = 2**16
# The margin delta of the norm-power certificates (``_below``, the Frobenius and symbol
# bounds).  The Gram's rounding and Cholesky's backward error are about d*eps relative
# (3.6e-14 at d = 160), so a certified block's computed norm would be below
# m(1 - delta)(1 + O(d eps)) < m, the running max: the max is the exhaustive one bit for bit.
NORM_CERTIFICATE_DELTA = 1e-8
# Rows (blocks times d) per chunk of the eigenvalue solve, at least.  numpy's batched
# eigvals holds the GIL on a stack of 500 rows or fewer (numpy 2.4), so two threads
# solving smaller chunks would take turns instead of running side by side.
EIGVALS_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class TransformMeta:
    """Shapes and block mode of the block transform."""

    mode: str  # "tc", "c" or "full" (one block, T's first block column)
    n: int
    l: int
    m: int

    @property
    def block_dim(self) -> int:
        if self.mode == "full":
            return self.l * self.m * self.n
        return 2 * self.l * self.m if self.mode == "tc" else 2 * self.m

    @property
    def blocks_per_pair(self) -> int:
        """Blocks sharing one spatial harmonic pair: L time frequencies (c), else 1."""
        return self.l if self.mode == "c" else 1

    def block_index(self) -> np.ndarray:
        """(number of blocks, 2) ints: block i's harmonic pair k and time frequency j, -1 where it has none."""
        if self.mode == "full":
            return np.array([[-1, -1]])
        k = np.repeat(np.arange(self.n // 2), self.blocks_per_pair)
        j = np.tile(np.arange(self.l), self.n // 2) if self.mode == "c" else np.full(self.n // 2, -1)
        return np.column_stack([k, j])

    def rows(self, harmonics) -> np.ndarray | slice:
        """Block rows whose spatial-harmonic index k is in ``harmonics``; every row in full mode."""
        if self.mode == "full":
            return slice(None)
        per = self.blocks_per_pair
        ks = sorted(k for k in harmonics if 0 <= k < self.n // 2)
        return (per * np.asarray(ks, dtype=int)[:, None] + np.arange(per)).ravel()


@dataclass
class BlockDecomposition:
    """A stack of dense blocks jointly similar to the full iteration matrix.

    ``blocks`` has shape (number of blocks, d, d), in full mode (1, d, M*N):
    T's first block column.  Row i belongs to ``meta.block_index()[i]``.  The
    eigenvalues, spectral radius and 2-norm are computed once, on first use.
    The stencils are real, so harmonic h and N - h are complex
    conjugates, and block k and its mirror block (N/2 - k) mod N/2, with
    time frequency j paired with (L - j) mod L, are related by
    B' = Pi conj(B) Pi, Pi swapping the two harmonic halves
    (B_0 = conj(B_0) without the swap).  Mirror partners therefore have the
    same singular values.  With ``conjugate_symmetric`` set (symmetric
    stencils, every lambda_k real) the pair symbol obeys
    T_k(conj z) = conj T_k(z).  So every tc block (z real) is a real matrix,
    and the tc stack is float64: the real part of the complex per-pair
    build, whose imaginary part is round-off from the transfer phases.  c
    block (k, (L - j) mod L) is the conjugate of block (k, j), and the
    2-norms skip j > L/2.  Eigenvalues are always taken of every stored
    block, in full mode of its diagonal block T_00 (``block_spectra``).
    """

    blocks: np.ndarray
    meta: TransformMeta
    conjugate_symmetric: bool = False

    # per (block, k) of the norm kernel: "solved" (eigvalsh or Lanczos), "certified" (Cholesky), else "bounded"
    # (a Frobenius bound; in tc mode also the symbol bound)
    grams: dict = field(
        default_factory=lambda: {"solved": 0, "certified": 0, "bounded": 0}, init=False, repr=False, compare=False
    )
    # the eigenvalue chunks in row order: (rows, the future of their eigvals on a worker, else None); full: T_00
    handed: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def eigvals_chunks(self) -> dict:
        """The eigenvalue chunks, and how many the calling thread solves: those with no future or a cancelled one."""
        main = sum(future is None or future.cancelled() for _, future in self.handed)
        return {"chunks": len(self.handed), "main_thread": main}

    def norm_chunks(self, order: np.ndarray | None = None):
        """The blocks whose singular values cover every block, in the field their 2-norms are taken in.

        Those are the harmonic pairs k <= (N/2)//2 (in full mode T's first
        block column, which fixes T), and of each pair every block in tc mode;
        in c mode the built time frequencies j >= 1, only up to j <= L/2 if
        conjugate-symmetric.  They are yielded as row chunks of at most
        ``NORM_CHUNK_ENTRIES`` matrix entries (at least one block), in the
        dtype of the stack; given ``order``, a permutation of the chunks, in
        that order.
        """
        per, shape = self.meta.blocks_per_pair, self.blocks.shape[1:]
        pairs = self.meta.n // 4 + 1
        c = self.meta.mode == "c"
        kept = per // 2 + 1 if c and self.conjugate_symmetric else per
        # a view in tc and full mode; c mode leaves out the zero j = 0 blocks
        blocks = self.blocks.reshape(-1, per, *shape)[:pairs, int(c) : kept].reshape(-1, *shape)
        step = max(1, NORM_CHUNK_ENTRIES // self.blocks[0].size)
        starts = range(0, len(blocks), step)
        for start in starts if order is None else (starts[j] for j in order):
            yield blocks[start : start + step]

    @cached_property
    def block_norms(self) -> np.ndarray:
        """||B||_2 of each block of ``norm_chunks()``, in its order (T's by ``toeplitz_norm2``); computed once."""
        if self.meta.mode == "full":
            norms = np.array([toeplitz_norm2(self.blocks[0])])
        else:
            norms = np.concatenate([_norms2(scale, _gram(x)) for scale, x in map(scaled, self.norm_chunks())])
        self.grams["solved"] += len(norms)
        return norms

    @cached_property
    def norm(self) -> float:
        """max ||B||_2 over the blocks, the max of ``block_norms``; computed once."""
        return float(np.max(self.block_norms))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """:func:`block_spectra` of the stack; computed once."""
        return block_spectra(self)

    @cached_property
    def spectral_radius(self) -> float:
        """max |eigenvalue| over the blocks; computed once."""
        return float(np.max(np.abs(self.eigenvalues)))


def _symmetric_stencil(op: CirculantOperator) -> bool:
    real = np.isrealobj(op.scale) and all(np.isrealobj(c) for c in op.stencil.values())
    return real and all(op.stencil.get(-o) == c for o, c in op.stencil.items())


def _pair_blocks(setup: TwoLevelSetup, shift: np.ndarray):
    """The builder of S * CGC for the harmonic pair (k, k + N/2), batched over a stack of time shifts.

    ``shift`` is an (nb, T, T) stack: the interval shift E for tc (one entry,
    T = L), or the phase e^{-2 pi i j/L} of each time frequency for c
    (T = 1).  The coupling shift kron node propagation enters the TM x TM
    system and coarse basic blocks; the fine smoother is block Jacobi, with
    no interval coupling, and is shared by the whole stack.  The symbols,
    transfer diagonals and Kronecker factors are computed once, and every
    operation is the one-block operation applied slice by slice, so a block
    does not depend on the size of the batch it was built in.
    """
    n, m, dt = setup.fine.n_space, setup.m_nodes, setup.fine.dt
    lam_fine = setup.fine.operator.symbol(np.arange(n))  # harmonic order
    lam_coarse = setup.coarse.operator.symbol(np.arange(n // 2))
    diags = harmonic_diagonals(setup.pair)
    nb, t = shift.shape[0], shift.shape[-1]
    dim = t * m
    eye = np.eye(dim)
    coupling = (shift[:, :, None, :, None] * node_propagation(m)[:, None, :]).reshape(nb, dim, dim)
    it_q = np.kron(np.eye(t), setup.fine.rule.q)
    it_qd = np.kron(np.eye(t), setup.qdelta)

    def blocks(k: int) -> np.ndarray:
        lam_lo, lam_hi = lam_fine[k], lam_fine[k + n // 2]
        bm_lo = eye - lam_lo * dt * it_q - coupling
        bm_hi = eye - lam_hi * dt * it_q - coupling

        s = np.zeros((nb, 2 * dim, 2 * dim), dtype=complex)
        s[:, :dim, :dim] = eye - np.linalg.solve(eye - lam_lo * dt * it_qd, bm_lo)
        s[:, dim:, dim:] = eye - np.linalg.solve(eye - lam_hi * dt * it_qd, bm_hi)

        pt = eye - lam_coarse[k] * dt * it_qd - coupling
        x_lo = np.linalg.solve(pt, bm_lo)
        x_hi = np.linalg.solve(pt, bm_hi)
        d, d_hat = diags.d[k], diags.d_hat[k]
        f, f_hat = diags.f[k], diags.f_hat[k]
        cgc = np.empty_like(s)  # all four quadrants are assigned below
        cgc[:, :dim, :dim] = eye - 0.5 * d * f * x_lo
        cgc[:, :dim, dim:] = -0.5 * d * f_hat * x_hi
        cgc[:, dim:, :dim] = -0.5 * d_hat * f * x_lo
        cgc[:, dim:, dim:] = eye - 0.5 * d_hat * f_hat * x_hi
        return s @ cgc

    return blocks


def _decompose(setup: TwoLevelSetup, mode: str, shift: np.ndarray, worker=None) -> BlockDecomposition:
    """Every pair's blocks, its last len(shift) built, the rest 0; each eigvals chunk is ``handed`` once built."""
    n = setup.fine.n_space
    meta = TransformMeta(mode=mode, n=n, l=setup.l, m=setup.m_nodes)
    # symmetric stencils on both levels make every lambda_k real
    symmetric = all(map(_symmetric_stencil, (setup.fine.operator, setup.coarse.operator)))
    pair_blocks = _pair_blocks(setup, shift)
    per, built = meta.blocks_per_pair, len(shift)
    # a real tc stack keeps each pair's real part as it is built: no complex stack is ever held
    real = symmetric and mode == "tc"
    blocks = np.zeros((n // 2 * per, meta.block_dim, meta.block_dim), dtype=float if real else complex)
    d = BlockDecomposition(blocks, meta, conjugate_symmetric=symmetric)
    chunks = spectrum_chunks(len(blocks), meta.block_dim)
    for k in range(n // 2):
        pair = pair_blocks(k)
        blocks[(k + 1) * per - built : (k + 1) * per] = pair.real if real else pair
        while chunks and chunks[0].stop <= (k + 1) * per:
            rows = blocks[chunks.pop(0)]
            d.handed.append((rows, worker.submit(np.linalg.eigvals, rows) if worker else None))
    return d


def tc_decompose(setup: TwoLevelSetup, worker=None) -> BlockDecomposition:
    """N/2 time-collocation blocks of size 2LM; an exact similarity transform; float64 with symmetric stencils."""
    return _decompose(setup, "tc", np.eye(setup.l, k=-1)[None], worker)


def c_decompose(setup: TwoLevelSetup, worker=None) -> BlockDecomposition:
    """N/2 * L collocation blocks of size 2M, assuming periodicity in time.

    Time frequency j = 0 belongs to constant-in-time modes whose coarse
    basic block is singular at k = 0; those blocks are zero and not built,
    so L = 1, which has no other time frequency, has no c mode (the config
    refuses it).  A singular block at j >= 1 raises ``np.linalg.LinAlgError``.
    """
    l = setup.l
    # each phase factor from a scalar exp: an array exp may round differently,
    # and a block must not depend on how many time frequencies share its batch
    phases = np.array([np.exp(-2j * np.pi * j / l) for j in range(1, l)], dtype=complex)
    return _decompose(setup, "c", phases.reshape(-1, 1, 1), worker)


def full_decompose(setup: TwoLevelSetup) -> BlockDecomposition:
    """T in the identity basis, one block held as its first block column; its spectrum is T_00's (``block_spectra``)."""
    meta = TransformMeta("full", setup.fine.n_space, setup.l, setup.m_nodes)
    return BlockDecomposition(setup.iteration_column[None], meta)


def transform_vector(v: np.ndarray, meta: TransformMeta) -> np.ndarray:
    """Map a space-time vector into block coordinates, one row per block.

    Applies the unitary Fourier transform (the conjugate-transposed
    ``dft_matrix``, i.e. ``np.fft.fft`` with ``norm="ortho"``) on the spatial
    layer, and on the interval layer in c mode, and gathers the harmonic
    pairs.  The map is unitary: 2-norms are preserved.  In full mode the
    vector is the single row.
    """
    if meta.mode == "full":
        return np.asarray(v).reshape(1, -1)
    n, l, m = meta.n, meta.l, meta.m
    hat = np.fft.fft(np.asarray(v).reshape(l, m, n), axis=-1, norm="ortho")
    # split the harmonic axis into (half s, pair k): harmonic s*N/2 + k
    if meta.mode == "c":
        hat = np.fft.fft(hat, axis=0, norm="ortho")
        # row k*L + j holds (hat[j, :, k], hat[j, :, k + N/2])
        return hat.reshape(l, m, 2, n // 2).transpose(3, 0, 2, 1).reshape(n // 2 * l, 2 * m)
    # row k holds (hat[:, :, k], hat[:, :, k + N/2]), each raveled over (l, m)
    return hat.reshape(l * m, 2, n // 2).transpose(2, 1, 0).reshape(n // 2, 2 * l * m)


def _gram(x: np.ndarray) -> np.ndarray:
    """G = X^H X of each matrix of a stack."""
    return np.swapaxes(x, -2, -1).conj() @ x


def _norms2(scale: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """||X||_2 = s*sqrt(lambda_max(G)) of each matrix, G the ``_gram`` of its ``scaled``; NaN where G is not finite.

    The scaling keeps the squares clear of over- and underflow; the relative
    error is about d*eps for d columns.  The batched Hermitian eigensolver
    beats the SVD on the 2M x 2M c blocks and on real stacks, and is about
    5% slower than it on the complex tc blocks at 2LM = 80.
    """
    finite = np.all(np.isfinite(gram), axis=(-2, -1))
    if not finite.all():  # eigvalsh raises on some non-finite Grams and returns a finite value on others
        gram = np.where(finite[..., None, None], gram, 0.0)
    return np.where(finite, scale, np.nan) * np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def _below(scale: np.ndarray, gram: np.ndarray, bound: float) -> bool:
    """Whether Cholesky proves ||X||_2 < bound for each X of a stack, from its s and G: (bound/s)^2 I - G factors.

    That matrix is formed in G's buffer, which is restored bit for bit if it
    does not factor.  A non-finite G or a NaN bound is never tried: OpenBLAS's
    Cholesky runs through a NaN pivot.
    """
    if np.isnan(bound) or not np.all(np.isfinite(gram)):
        return False
    with np.errstate(over="ignore"):  # s far below the bound: an infinite diagonal, which factors
        shift = np.square(bound / scale)
    i = np.arange(gram.shape[-1])
    diagonal = gram[..., i, i]
    np.negative(gram, out=gram)
    gram[..., i, i] += shift[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        np.negative(gram, out=gram)
        gram[..., i, i] = diagonal
        return False
    return True


def spectrum_chunks(count: int, dim: int) -> list[slice]:
    """The row slices of a stack of ``count`` d x d blocks that the eigenvalue solve takes one batched call each.

    The R = count*d rows are cut into n = max(1, min(count, R // EIGVALS_CHUNK_ROWS))
    chunks whose block counts differ by at most one.  With R >= EIGVALS_CHUNK_ROWS,
    a chunk holds at least one block and floor(count/n) > EIGVALS_CHUNK_ROWS/d - 1
    blocks: at least d rows and more than EIGVALS_CHUNK_ROWS - d, so more than 500.
    """
    n = max(1, min(count, count * dim // EIGVALS_CHUNK_ROWS))
    return [slice(i * count // n, (i + 1) * count // n) for i in range(n)]


def block_spectra(d: BlockDecomposition) -> np.ndarray:
    """The eigenvalues of every block: an (number of blocks, d) array.

    Row i holds the eigenvalues of block ``d.meta.block_index()[i]``, sorted
    by (real, imag) descending.  From the last of the chunks ``d.handed`` (one
    if built by hand: the stack, or in full mode T's diagonal block T_00, whose
    spectrum T's is, L-fold) to the first, each one with no future or one the
    worker has not started is solved here in one batched call; then the rest
    are joined.  eigvals solves each matrix on its own, so the rows are
    bitwise one call's on the whole stack.  A real stack (symmetric-stencil tc
    blocks) goes to the real solver, whose complex eigenvalues come in exact
    conjugate pairs.  Eigenvalues are never taken from a mirror partner:
    defective clusters scatter at eps^(1/p), so partners that agree to
    round-off can still differ visibly in theirs.
    """
    full, width = d.meta.mode == "full", d.meta.m * d.meta.n
    d.handed = d.handed or [(d.blocks[:, :width] if full else d.blocks, None)]
    mine = {}  # chunk number -> its eigenvalues, solved on this thread
    for i, (rows, future) in reversed(list(enumerate(d.handed))):
        if future is None or future.cancel():  # not started by the worker
            mine[i] = np.linalg.eigvals(rows)
    spectra = np.concatenate([mine[i] if i in mine else f.result() for i, (_, f) in enumerate(d.handed)])
    return sort_eigenvalues(np.tile(spectra, d.meta.l) if full else spectra)


def _visit_order(d: BlockDecomposition) -> np.ndarray | None:
    """None if ``d.norm_chunks()`` is one chunk; else the chunks by descending max ||B||."""
    step = max(1, NORM_CHUNK_ENTRIES // d.blocks[0].size)
    if len(d.block_norms) <= step:
        return None
    return np.argsort(-np.maximum.reduceat(d.block_norms, np.arange(0, len(d.block_norms), step)), kind="stable")


def _runs(count: int, words: int) -> list[slice]:
    """Slices of ``count`` items of ``words`` float64 words each: ``NORM_CHUNK_ENTRIES`` words a slice, or one item."""
    step = max(1, NORM_CHUNK_ENTRIES // words)
    return [slice(i, i + step) for i in range(0, count, step)]


def _power_columns(d: BlockDecomposition, k_max: int):
    """(ks, P): B^k's first block column of every representative tc block for each k of ``ks``, runs of 2..k_max.

    A tc block is the leading L x L section of a block lower Toeplitz operator whose w x w blocks (w = 2M) are
    indexed (half, node); its first block column C, in (interval, half, node) order, fixes it.  Block row i of
    B^k's column is [C_i ... C_0] times block rows 0..i of B^(k-1)'s, one product per row, from the last row up,
    in place: a row is overwritten once no later row reads it.  P, (len(ks), pairs, L, w, w), is a view of one
    buffer of at most ``NORM_CHUNK_ENTRIES`` float64 words (one k at least), overwritten by the next run.
    """
    if k_max < 2:
        return
    l, m = d.meta.l, d.meta.m
    w = 2 * m
    # a view: (pair, half, interval, node, half', node') of the representative blocks' first block columns
    column = d.blocks[: d.meta.n // 4 + 1].reshape(-1, 2, l, m, 2, l, m)[..., 0, :]
    shape = (len(column), l, w, w)
    step = max(1, NORM_CHUNK_ENTRIES * 8 // (np.prod(shape) * d.blocks.itemsize))
    buffer = np.empty((min(step, k_max - 1), *shape), d.blocks.dtype)
    buffer[-1].reshape(-1, l, 2, m, 2, m)[...] = column.transpose(0, 2, 1, 3, 4, 5)  # B's, read by the first k
    for start in range(2, k_max + 1, step):
        rows = column[:, :, ::-1].transpose(0, 1, 3, 2, 4, 5).reshape(-1, w, l * w)  # [C_(L-1) ... C_0], a copy
        ks = range(start, min(start + step, k_max + 1))
        for j in range(len(ks)):
            power = buffer[j]
            power[...] = buffer[j - 1]  # j = 0: the last of the previous run
            for i in reversed(range(l)):
                power[:, i] = rows[:, :, (l - 1 - i) * w :] @ power[:, : i + 1].reshape(-1, (i + 1) * w, w)
        del rows  # not held through the norms
        yield ks, buffer[: len(ks)]


def _sections(x: np.ndarray) -> np.ndarray:
    """The (L*w)^2 block lower Toeplitz sections of a (b, L, w, w) stack of first block columns."""
    b, l, w = x.shape[:3]
    out = np.zeros((b, l, w, l, w), x.dtype)
    for j in range(l):
        out[:, j:, :, j] = x[:, : l - j]
    return out.reshape(b, l * w, l * w)


def _symbol(x: np.ndarray) -> np.ndarray:
    """S_q = sum_j x_j exp(-2 pi i jq/(2L - 1)) of each column of a (b, L, w, w) stack, for q < L if real, else 2L - 1.

    A real column's S_(2L-1-q) is conj(S_q), and has its singular values; its real and imaginary parts are two
    real products.
    """
    b, l, w = x.shape[:3]
    q = np.arange(l if np.isrealobj(x) else 2 * l - 1)
    angles = 2 * np.pi * (np.outer(q, np.arange(l)) % (2 * l - 1)) / (2 * l - 1)
    flat = x.reshape(b, l, w * w)
    if np.iscomplexobj(x):
        return (np.exp(-1j * angles) @ flat).reshape(b, -1, w, w)
    samples = np.empty((b, l, w * w), complex)
    parts = samples.view(float).reshape(b, l, w * w, 2)
    np.matmul(np.cos(angles), flat, out=parts[..., 0])
    np.matmul(-np.sin(angles), flat, out=parts[..., 1])
    return samples.reshape(b, l, w, w)


def _symbol_bounds(x: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Upper bounds on ||X||_2 of each section X of a (b, L, w, w) stack of finite ``scaled`` first block columns.

    X is a compression of the block circulant of order 2L - 1 whose first block column is x padded by L - 1 zero
    blocks, so ||X||_2 <= max_q ||S_q||_2 over the ``_symbol`` samples.  Each ||S_q||_2 is bounded by its Frobenius
    norm; where that bound is not below the column's ``limit``, by ||G^2||_F^(1/4) >= ||S_q||_2, G = S_q^H S_q
    (a Schatten norm); where that is not either, by its 2-norm (``_norms2``).  The computed samples' entries err by
    at most 4(L + 8) eps sum_j |x_j| (L twiddled terms, and the twiddles' own error), so by at most
    4(L + 8) eps sqrt(L sum_j ||x_j||_F^2) < 4(L + 8) L w eps in norm (|x| < 1), which is added to each bound; a
    computed bound errs by less than 4 w^3 eps relative, by which it is raised.
    """
    l, w, eps = x.shape[1], x.shape[-1], np.finfo(float).eps
    samples = _symbol(x).reshape(-1, w, w)
    margin, grow = 4 * (l + 8) * l * w * eps, 1 + 4 * w**3 * eps
    cut = np.repeat((limit - margin) / grow, len(samples) // len(x))  # each sample's column's limit, net
    norms = np.sqrt(np.einsum("bij,bij->b", samples.view(float), samples.view(float)))
    tight = np.flatnonzero(norms >= cut)  # the samples their Frobenius norm does not settle
    if len(tight):
        gram = _gram(samples[tight])
        square = (gram @ gram).view(float)
        norms[tight] = np.einsum("bij,bij->b", square, square) ** 0.125
        left = norms[tight] >= cut[tight]
        if left.any():
            norms[tight[left]] = _norms2(1.0, gram[left])
    return grow * np.max(norms.reshape(len(x), -1), axis=-1) + margin


def _tc_power_norms(d: BlockDecomposition, norms: np.ndarray) -> None:
    """``norms[k]`` for k >= 2 in tc mode, the max over the assembled sections of ``_power_columns``' columns.

    At each k the block of the largest section Frobenius norm sum_j (L - j) ||P_j||_F^2 is solved alone, for a
    max m_k.  Every other block is then settled below m_k (1 - delta) by that Frobenius norm, else, if finite,
    by ``_symbol_bounds``; the rest are assembled in chunks, settled by ``_below`` or solved.  Each step takes a
    whole run of k at once.
    """
    l, w = d.meta.l, 2 * d.meta.m
    words = d.blocks.itemsize // 8  # float64 words per entry
    weights = l - np.arange(l)  # block j of a column lies on L - j block diagonals of its section
    samples = l if words == 1 else 2 * l - 1  # per column (``_symbol``)
    sections = 2 * (l * w) ** 2 * words  # float64 words of a section and its Gram
    cap = 1 - NORM_CERTIFICATE_DELTA  # a block is settled below m_k cap
    for ks, power in _power_columns(d, len(norms) - 1):
        pairs = power.shape[1]
        power = power.reshape(-1, l, w, w)  # row r holds pair r % pairs at k = ks[r // pairs]
        k = np.repeat(ks, pairs)
        scale, frob = np.empty(len(power)), np.empty(len(power))
        for rows in _runs(len(power), (words + 1) * l * w * w):  # a chunk's |P| and scaled copy
            scale[rows], x = scaled(power[rows].reshape(-1, l * w, w))
            x = x.reshape(-1, l, w, w).view(float)
            frob[rows] = np.einsum("...ij,...ij->...", x, x) @ weights  # ||X/s||_F^2 < L^2 w^2: no overflow
        del x  # not held through the sections
        shift = 1 - np.frexp(scale)[1][:, None, None, None]  # x = power 2^shift, so rows are scaled alike below

        def part(rows):
            return np.ldexp(power[rows].view(float), shift[rows]).view(power.dtype)

        with np.errstate(over="ignore"):  # s sqrt(frob) overflows only near max float
            lone = np.argmax((np.sqrt(frob) * scale).reshape(len(ks), pairs), axis=1) + pairs * np.arange(len(ks))
        for rows in _runs(len(lone), sections):
            norms[k[lone[rows]]] = _norms2(scale[lone[rows]], _gram(_sections(part(lone[rows]))))
        d.grams["solved"] += len(lone)
        with np.errstate(over="ignore"):  # a subnormal s overflows the limit to inf
            limit = norms[k] * cap / scale  # a NaN m_k, or an inf or NaN frob, never settles
            unsettled = ~(frob < np.square(limit))
        unsettled[lone] = False
        finite = np.flatnonzero(unsettled & np.isfinite(frob))
        for rows in _runs(len(finite), 6 * samples * w * w):  # the complex samples, their conjugates and Grams
            take = finite[rows]
            unsettled[take] = ~(_symbol_bounds(part(take), limit[take]) < limit[take])
        left = np.flatnonzero(unsettled)
        d.grams["bounded"] += len(power) - len(lone) - len(left)
        for same in np.split(left, np.searchsorted(left, pairs * np.arange(1, len(ks)))):  # one k's, in chunks
            for rows in _runs(len(same), sections):
                take, at = same[rows], k[same[0]]
                gram = _gram(_sections(part(take)))
                certified = _below(scale[take], gram, norms[at] * cap)
                if not certified:
                    norms[at] = np.maximum(norms[at], np.max(_norms2(scale[take], gram)))  # a NaN norm stays NaN
                d.grams["certified" if certified else "solved"] += len(take)
                del gram  # not held through the next chunk


def block_power_norms(d: BlockDecomposition, k_max: int) -> np.ndarray:
    """max over blocks of ||B^k||_2 for k = 0..k_max, i.e. ||T^k||_2 block-wise.

    k = 1 is the decomposition's cached ``norm``.  tc mode takes k >= 2 from the blocks' first block columns
    (``_tc_power_norms``).  c mode makes one pass per chunk of ``d.norm_chunks()``, in ``_visit_order``, and forms
    B^k = B^(k-1) B for all the chunk's blocks at once; no power outlives its chunk.  A block with ||B^k||_F below
    the running max times 1 - delta is settled without a Gram (a first chunk's largest-||B^k||_F block is solved
    alone, for a max); the rest are solved only where ``_below`` fails on them.  Full mode forms T^k's first block
    column instead, by ``convolved`` with T's, and its 2-norm by ``toeplitz_norm2``.
    """
    norms = np.zeros(k_max + 1)
    norms[0] = 1.0
    if k_max:
        norms[1] = d.norm
    if d.meta.mode == "tc":
        _tc_power_norms(d, norms)
        return norms
    full = d.meta.mode == "full"
    for i, blocks in enumerate(d.norm_chunks(_visit_order(d) if k_max > 1 else None)):
        power = blocks  # full mode: T's first block column
        for k in range(2, k_max + 1):
            power = convolved(power, blocks) if full else power @ blocks
            if full:  # one block: no running max, nothing to settle
                norms[k] = toeplitz_norm2(power[0])
                d.grams["solved"] += 1
                continue
            scale, x = scaled(power)
            left = np.arange(len(x))
            frob = np.einsum("...ij,...ij->...", x.view(float), x.view(float))  # ||X/s||_F^2 < 4d^2: no overflow
            # s sqrt(frob) = ||X||_F overflows only near max float, and a subnormal s overflows the bound to inf
            with np.errstate(over="ignore"):
                if not i:  # no running max yet: the block of the largest ||B^k||_F is solved alone first
                    lone = np.argmax(np.sqrt(frob) * scale)
                    norms[k] = _norms2(scale[lone, None], _gram(x[lone, None]))[0]
                    d.grams["solved"] += 1
                    left = np.delete(left, lone)
                # as in ``_below``, a settled norm would be below bound (1 + O(d^2 eps)) < m_k; inf or NaN never is
                bound = norms[k] * (1 - NORM_CERTIFICATE_DELTA)
                settled = frob[left] < np.square(bound / scale[left])
            d.grams["bounded"] += int(np.count_nonzero(settled))
            left = left[~settled]
            if len(left) < len(x):
                scale, x = scale[left], x[left]  # one indexed copy; the chunk's scaled stack is freed
            if len(left):
                gram = _gram(x)
                del x  # not held through eigvalsh
                certified = _below(scale, gram, bound)
                if not certified:
                    norms[k] = np.maximum(norms[k], np.max(_norms2(scale, gram)))  # a NaN norm stays NaN
                d.grams["certified" if certified else "solved"] += len(left)
                del gram  # not held through the next product
    return norms


def toeplitz_norm2(column: np.ndarray) -> float:
    """||X||_2, X block lower triangular Toeplitz with first block column ``column``; NaN if it is not finite.

    Lanczos on X^H X of the ``scaled`` column, fully reorthogonalized, from a fixed-seed Gaussian (a constant vector
    stays in the k = 0 harmonic's invariant subspace).  X q is ``convolved``; X^H r is too, of the blocks'
    conjugate transposes with r's blocks reversed, then reversed back.  The top Ritz pair (theta, s) of the j x j
    tridiagonal comes from ``np.linalg.eigh`` at checkpoints only: j = 1, then j + max(1, j // 8), any step whose
    beta_j is exactly 0 and j = L*w; so the solves cost O(j^3) in all, as the last one does.  It stops at the first
    checkpoint where beta_j |s_j| <= 1e-15 theta, or once the basis spans the space.  The basis is the leading rows
    of one buffer, doubled when it fills, so a step copies no earlier vector.  No (L*w)^2 array is formed.
    """
    (scale,), (x,) = scaled(column[None])
    if not np.all(np.isfinite(x)):
        return np.nan
    w, start = x.shape[-1], np.random.default_rng(0).standard_normal(len(x))
    x_h = np.swapaxes(x.reshape(-1, w, w), -2, -1).conj()
    rows = np.empty((min(32, len(x)), len(x)), x.dtype)  # the basis is its first j rows; doubled when full
    rows[0], j, checkpoint, alpha, beta = start / np.linalg.norm(start), 1, 1, [], []
    while True:
        basis = rows[:j]
        r = convolved(x_h, convolved(x, basis[-1]).reshape(-1, w)[::-1])[::-1].ravel()  # X^H X q_j
        alpha.append(np.vdot(basis[-1], r).real)
        for _ in range(2):  # Gram-Schmidt twice against the whole basis keeps it orthonormal
            r -= (basis.conj() @ r) @ basis
        beta.append(np.linalg.norm(r))
        if j == checkpoint or not beta[-1] or j == len(x):  # a zero beta_j stops here: r / beta_j is never formed
            checkpoint = j + max(1, j // 8)
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))  # lower triangle; ascending
            if beta[-1] * abs(s[-1, -1]) <= 1e-15 * theta[-1] or j == len(x):
                return float(scale * np.sqrt(theta[-1]))
        if j == len(rows):
            rows = np.concatenate([rows, np.empty((min(j, len(x) - j), len(x)), x.dtype)])
        rows[j] = r / beta[-1]
        j += 1
