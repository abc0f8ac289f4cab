"""Block Fourier decomposition against the materialized iteration matrix."""

import tracemalloc
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import clusters
import oracles
from pfasst_lfa import lfa, solvers
from pfasst_lfa.analysis import ExperimentConfig, build_context, tc_similarity_residual
from pfasst_lfa.collocation import CollocationProblem
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.linalg import convolved, scaled, sort_eigenvalues
from pfasst_lfa.quadrature import QuadratureRule, build_qdelta
from pfasst_lfa.solvers import TwoLevelSetup
from pfasst_lfa.space_operators import CirculantOperator, make_advection, make_diffusion
from pfasst_lfa.transfer import build_ci_pair, harmonic_diagonals


def _setup(op_f, op_c, m, l, dt, qdelta_kind="implicit-euler"):
    rule = QuadratureRule.radau_right(m)
    fine, coarse = CollocationProblem(op_f, rule, dt), CollocationProblem(op_c, rule, dt)
    return TwoLevelSetup(fine, coarse, build_ci_pair(op_f.n), l, qdelta=build_qdelta(rule, qdelta_kind))


def _assemble(make, n, coefficient, m, l, dt, qdelta_kind):
    """The setup of ``make``'s operator on n and on n/2 points; it builds T's first block column on first use."""
    return _setup(make(n, coefficient), make(n // 2, coefficient), m, l, dt, qdelta_kind)


def _eigenvalues(d):
    return d.eigenvalues.ravel()


@pytest.mark.parametrize(
    "make,qdelta_kind",
    [(make_diffusion, "implicit-euler"), (make_advection, "lu")],
)
def test_tc_action_equals_full_matrix(make, qdelta_kind):
    setup = _assemble(make, 16, 5e-3, 3, 4, 0.1, qdelta_kind)
    t = oracles.iteration_matrix(setup)
    d = lfa.tc_decompose(setup)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(t.shape[0])
    back = oracles.apply_blocks(d, lfa.transform_vector(v, d.meta))
    np.testing.assert_allclose(back, lfa.transform_vector(t @ v, d.meta), atol=1e-12)


def test_transform_is_unitary_and_invertible():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 2, 0.1, "implicit-euler")
    for d in (lfa.tc_decompose(setup), lfa.c_decompose(setup)):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(2 * 3 * 16) + 1j * rng.standard_normal(2 * 3 * 16)
        vhat = lfa.transform_vector(v, d.meta)
        assert np.linalg.norm(vhat) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        f = oracles.transform_matrix(d.meta)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(len(v)), atol=1e-12)
        np.testing.assert_allclose(f @ v, vhat.ravel(), atol=1e-12)


@pytest.mark.parametrize("l", [1, 3])
def test_transform_round_trip_is_unitary(l):
    setup = _assemble(make_advection, 16, 4.88e-3, 2, l, 0.1, "lu")
    rng = np.random.default_rng(5)
    # the transform is defined at l = 1 in both modes, though c blocks are not
    for meta in (lfa.tc_decompose(setup).meta, lfa.TransformMeta(mode="c", n=16, l=l, m=2)):
        v = rng.standard_normal(l * 2 * 16) + 1j * rng.standard_normal(l * 2 * 16)
        vhat = lfa.transform_vector(v, meta)
        assert vhat.shape == (len(meta.block_index()), meta.block_dim)
        assert np.linalg.norm(vhat) == pytest.approx(np.linalg.norm(v), rel=1e-13)
        f = oracles.transform_matrix(meta)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(len(v)), atol=1e-13)


def test_rows_select_exactly_the_blocks_of_the_given_harmonics():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 3, 0.1, "implicit-euler")
    for d in (lfa.tc_decompose(setup), lfa.c_decompose(setup)):
        rows = d.meta.rows({2, 5})
        np.testing.assert_array_equal(rows, [i for i, idx in enumerate(d.meta.block_index()) if idx[0] in (2, 5)])
        # harmonics outside 0..N/2-1 select nothing
        np.testing.assert_array_equal(d.meta.rows({2, 5, -1, 8}), rows)


@pytest.mark.parametrize(
    "make,qdelta_kind,l",
    [(make_diffusion, "implicit-euler", 4), (make_advection, "lu", 3), (make_diffusion, "lu", 7)],
)
def test_batched_kernel_equals_one_pair_at_a_time(make, qdelta_kind, l):
    setup = _assemble(make, 32, 5e-3, 3, l, 0.1, qdelta_kind)
    tc = lfa.tc_decompose(setup)
    assert isinstance(tc.blocks, np.ndarray) and tc.blocks.shape == (16, 6 * l, 6 * l)
    shift = np.eye(l, k=-1)[None]
    # symmetric stencils: the stack holds the real part of the complex per-pair build
    real = make is make_diffusion
    assert tc.blocks.dtype == (np.float64 if real else np.complex128)
    for k in range(16):
        one = lfa._pair_blocks(setup, shift)(k)
        assert np.array_equal(tc.blocks[k], one[0].real if real else one[0])
    c = lfa.c_decompose(setup)
    assert c.blocks.shape == (16 * l, 6, 6)
    for row, (k, j) in enumerate(c.meta.block_index()):
        if j == 0:  # the constant-in-time modes are not built
            assert np.array_equal(c.blocks[row], np.zeros((6, 6)))
            continue
        # the phase factor as a scalar, exactly as a single block would use it
        phase = np.array([np.exp(-2j * np.pi * j / l)]).reshape(1, 1, 1)
        one = lfa._pair_blocks(setup, phase)(k)[0]
        assert np.array_equal(c.blocks[row], one)


def _mirror_row(meta, k, j):
    half = meta.n // 2
    mk = (half - k) % half
    return mk if meta.mode == "tc" else mk * meta.l + (-j) % meta.l


@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind",
    [(make_diffusion, 1e-2, "implicit-euler"), (make_advection, 4.88e-3, "lu")],
)
def test_mirror_blocks_have_equal_power_norms(make, coefficient, qdelta_kind):
    setup = _assemble(make, 32, coefficient, 3, 4, 0.1, qdelta_kind)
    k_max = 20
    for d in (lfa.tc_decompose(setup), lfa.c_decompose(setup)):
        dim = d.meta.block_dim // 2
        # exchanges the two harmonic halves; harmonics 0 and N/2 are self-conjugate
        swap = np.roll(np.eye(2 * dim), dim, axis=0)
        for row, idx in enumerate(d.meta.block_index()):
            partner = d.blocks[_mirror_row(d.meta, idx[0], idx[-1])]
            block = d.blocks[row]
            mirrored = block.conj() if idx[0] == 0 else swap @ block.conj() @ swap
            assert np.max(np.abs(partner - mirrored)) <= 1e-14 * max(np.abs(block).max(), 1.0)
            p, q = block, partner
            for _ in range(k_max):
                a, b = np.linalg.norm(p, 2), np.linalg.norm(q, 2)
                assert abs(a - b) <= 1e-13 * max(a, b)
                p, q = p @ block, q @ partner


@pytest.mark.parametrize("n", [16, 32, 128, 512])
def test_transfer_diagonals_are_real_up_to_round_off(n):
    # premise of real tc blocks: the midpoint stencils are symmetric about the midpoint
    for degree in range(1, 7):
        diags = harmonic_diagonals(build_ci_pair(n, degree, degree))
        for diag in (diags.d, diags.d_hat, diags.f, diags.f_hat):
            assert np.max(np.abs(diag.imag)) <= 1e-15


@pytest.mark.parametrize("l,qdelta_kind", [(1, "implicit-euler"), (4, "lu"), (7, "implicit-euler")])
def test_symmetric_stencil_tc_blocks_are_real_and_flagged(l, qdelta_kind):
    setup = _assemble(make_diffusion, 32, 5e-3, 3, l, 0.1, qdelta_kind)
    assert lfa._symmetric_stencil(setup.fine.operator) and lfa._symmetric_stencil(setup.coarse.operator)
    tc = lfa.tc_decompose(setup)
    assert tc.conjugate_symmetric
    # the per-pair build is complex, its imaginary part round-off from the transfer phases
    built = np.concatenate([lfa._pair_blocks(setup, np.eye(l, k=-1)[None])(k) for k in range(16)])
    assert np.max(np.abs(built.imag)) <= 1e-14 * np.max(np.abs(built))
    # the stored stack is its real part; test_batched_kernel_equals_one_pair_at_a_time
    # pins it bit for bit to the per-pair build
    assert tc.blocks.dtype == np.float64
    assert all(chunk.dtype == np.float64 for chunk in tc.norm_chunks())
    if l > 1:
        # the phases make c blocks complex: the flag leaves time frequencies out instead
        c = lfa.c_decompose(setup)
        assert c.conjugate_symmetric
        assert all(chunk.dtype == complex for chunk in c.norm_chunks())


@pytest.mark.parametrize("l,qdelta_kind", [(1, "implicit-euler"), (4, "lu"), (7, "implicit-euler")])
def test_symmetric_stencil_tc_spectra_are_closed_under_conjugation(l, qdelta_kind):
    # the real eigensolver returns complex eigenvalues in exact conjugate pairs
    vals = lfa.tc_decompose(_assemble(make_diffusion, 32, 5e-3, 3, l, 0.1, qdelta_kind)).eigenvalues
    assert np.any(vals.imag != 0)
    for row in vals:
        assert np.array_equal(sort_eigenvalues(row.conj()), row)


@pytest.mark.parametrize("make,coefficient", [(make_diffusion, 5e-3), (make_advection, 4.88e-3)])
def test_tc_decompose_holds_one_stack(make, coefficient):
    # 64 blocks of 24 x 24: the per-pair temporaries are a few blocks, so the
    # peak stays near the stored stack; a complex stack converted to its real
    # part afterwards would peak at three times the real stack
    setup = _assemble(make, 128, coefficient, 3, 4, 0.1, "lu")
    tracemalloc.start()
    try:
        d = lfa.tc_decompose(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.blocks.dtype == (np.float64 if make is make_diffusion else np.complex128)
    assert peak <= 1.5 * d.blocks.nbytes


def test_conjugate_symmetry_flag_is_false_without_symmetric_stencils():
    setup = _assemble(make_advection, 32, 4.88e-3, 3, 4, 0.1, "lu")
    tc = lfa.tc_decompose(setup)
    assert not tc.conjugate_symmetric
    assert not lfa.c_decompose(setup).conjugate_symmetric
    # a real stencil with c_1 != c_{-1} is not symmetric either
    op_f = CirculantOperator(n=16, stencil={-1: 1.0, 0: -2.0, 1: 0.5})
    op_c = CirculantOperator(n=8, stencil={-1: 1.0, 0: -2.0, 1: 0.5})
    assert not lfa.tc_decompose(_setup(op_f, op_c, 2, 2, 0.1)).conjugate_symmetric
    cfg = ExperimentConfig(problem="diffusion", coefficient=5e-3, n=16, m=2, l=2, qdelta_kind="lu", blocks=("full",))
    assert not build_context(cfg).decomposition("full").conjugate_symmetric


@pytest.mark.parametrize("l", [2, 3, 4, 8])
@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind", [(make_diffusion, 5e-3, "implicit-euler"), (make_advection, 4.88e-3, "lu")]
)
def test_conjugate_time_frequencies_give_conjugate_c_blocks_for_symmetric_stencils(make, coefficient, qdelta_kind, l):
    d = lfa.c_decompose(_assemble(make, 32, coefficient, 3, l, 0.1, qdelta_kind))
    symmetric = make is make_diffusion
    assert d.conjugate_symmetric == symmetric
    blocks = d.blocks.reshape(16, l, *d.blocks.shape[1:])
    # B_{k,(L-j) mod L} against conj B_{k,j}, entry by entry
    gap = np.max(np.abs(blocks[:, -np.arange(l) % l] - blocks.conj())) / np.max(np.abs(blocks))
    assert gap <= 1e-14 if symmetric else gap > 1e-3


@pytest.mark.parametrize(
    "make,n,l,m,visited",
    [
        (make_diffusion, 16, 3, 2, 5 * 1),
        (make_diffusion, 128, 16, 5, 264),  # the c-sweep's L = 16: 495 blocks without the conjugate partners
        (make_advection, 128, 16, 5, 495),
    ],
)
def test_c_norm_kernel_visits_one_block_per_symmetry_orbit(monkeypatch, make, n, l, m, visited):
    # (N/4 + 1) mirror-representative pairs, each with the built time frequencies 1..L-1, only 1..L/2 if conjugate-symmetric
    d = lfa.c_decompose(_assemble(make, n, 5e-3, m, l, 0.1, "implicit-euler"))
    rows = []
    original = lfa.scaled

    def counted(stack):
        rows.append(len(stack))
        return original(stack)

    monkeypatch.setattr(lfa, "scaled", counted)
    assert d.norm > 0
    assert sum(rows) == visited
    assert len(d.block_norms) == visited
    assert d.grams == {"solved": visited, "certified": 0, "bounded": 0}  # one per block norm


@pytest.mark.parametrize("l", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("make,qdelta_kind", [(make_diffusion, "implicit-euler"), (make_advection, "lu")])
def test_block_power_norms_match_matrix_power(make, qdelta_kind, l):
    # the mirror and conjugate representatives carry the SVD norms of every block's powers
    setup = _assemble(make, 32, 5e-3, 3, l, 0.1, qdelta_kind)
    k_max = 12
    for d in (lfa.tc_decompose(setup), lfa.c_decompose(setup)):
        norms = lfa.block_power_norms(d, k_max)
        assert norms.shape == (k_max + 1,)
        assert norms[0] == 1.0
        for k in range(1, k_max + 1):
            ref = max(np.linalg.norm(np.linalg.matrix_power(b, k), 2) for b in d.blocks)
            assert norms[k] == pytest.approx(ref, rel=1e-13)


def test_tc_eigenvalues_match_full_spectrum_via_clusters():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler")
    d = lfa.tc_decompose(setup)
    dist = clusters.matched_cluster_distance(np.linalg.eigvals(oracles.iteration_matrix(setup)), _eigenvalues(d))
    assert dist < 1e-8


@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind",
    [(make_diffusion, 5e-3, "implicit-euler"), (make_advection, 4.88e-3, "lu")],
)
def test_tc_similarity_residual_detects_one_changed_entry(make, coefficient, qdelta_kind):
    n, m, l, delta = 16, 3, 4, 1e-9
    setup = _assemble(make, n, coefficient, m, l, 0.1, qdelta_kind)
    column, d = setup.iteration_column, lfa.tc_decompose(setup)
    scale = max(np.max(np.abs(column)), 1.0)
    assert tc_similarity_residual(column, d) <= 1e-14
    # one entry of the tc blocks' first block column, in its interval block (0, 0) and (1, 0): the
    # deviation is the change itself (a tc block's rows and columns are (half, interval, node), 2LM = 24)
    for entry in ((3, 2, 14), (3, 17, 2)):
        blocks = d.blocks.copy()
        blocks[entry] += delta
        assert tc_similarity_residual(column, replace(d, blocks=blocks)) == pytest.approx(delta / scale, rel=1e-4)
    # one entry of T's column block (0, 0) and (2, 0): the unitary transforms spread it over N^2 entries of
    # modulus delta/N
    for entry in ((20, 40), (100, 40)):
        changed = column.copy()
        changed[entry] += delta
        assert tc_similarity_residual(changed, d) == pytest.approx(delta / n / scale, rel=1e-3)


@pytest.mark.parametrize("l", [1, 2, 4])
@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind",
    [(make_diffusion, 5e-3, "implicit-euler"), (make_advection, 4.88e-3, "lu")],
)
def test_tc_similarity_residual_per_interval_has_the_bits_of_one_pass(make, coefficient, qdelta_kind, l):
    # one fft/ifft pair per interval of T's column against one pair over the whole column: the same transforms
    # of every line, so the same residual bit for bit, with real (diffusion) and complex (advection) tc blocks,
    # and with one tc block entry changed, where the residual is no longer round-off
    setup = _assemble(make, 16, coefficient, 3, l, 0.1, qdelta_kind)
    column, d = setup.iteration_column, lfa.tc_decompose(setup)
    blocks = d.blocks.copy()
    blocks[3, 1, 2] += 1e-9
    for x in (d, replace(d, blocks=blocks)):
        residual = tc_similarity_residual(column, x)
        assert np.float64(residual).view(np.uint64) == np.float64(oracles.tc_similarity_pass(column, x)).view(np.uint64)


def _interval_blocks(d, l, m):
    """The tc blocks in (interval, half, node) order, as an (nb, L, 2M, L, 2M) array."""
    order = np.arange(2 * l * m).reshape(2, l, m).transpose(1, 0, 2).ravel()
    return d.blocks[:, order][:, :, order].reshape(-1, l, 2 * m, l, 2 * m)


@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind",
    [(make_diffusion, 5e-3, "implicit-euler"), (make_advection, 4.88e-3, "lu")],
)
def test_tc_blocks_are_block_lower_triangular_over_intervals(make, coefficient, qdelta_kind):
    # In (interval, half, node) order every tc block is block lower triangular
    # Toeplitz over the L intervals: block (i, j) depends on i - j only, and
    # each diagonal 2M x 2M block is the L = 1 tc block, so the spectrum is
    # the L = 1 spectrum with multiplicity L.
    l, m = 4, 3
    setup = _assemble(make, 16, coefficient, m, l, 0.1, qdelta_kind)
    d = lfa.tc_decompose(setup)
    one = lfa.tc_decompose(replace(setup, l=1))
    blocks = _interval_blocks(d, l, m)
    for i in range(l):
        assert np.all(blocks[:, i, :, i + 1 :] == 0.0)
        np.testing.assert_allclose(blocks[:, i, :, i], one.blocks, rtol=0, atol=1e-14)
        for j in range(i):
            np.testing.assert_allclose(blocks[:, i, :, j], blocks[:, i - j, :, 0], rtol=0, atol=1e-14)
    dist = clusters.matched_cluster_distance(_eigenvalues(d), np.tile(_eigenvalues(one), l))
    assert dist < 1e-8


@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind,l",
    [
        (make_diffusion, 10.0 / 32**2 / 0.1, "implicit-euler", 8),  # mu = 10
        (make_diffusion, 10.0 / 32**2 / 0.1, "implicit-euler", 16),
        (make_advection, 4.88e-3, "lu", 4),
        (make_advection, 4.88e-3, "lu", 8),
    ],
)
def test_tc_blocks_are_leading_sections_of_one_block_toeplitz_operator(make, coefficient, qdelta_kind, l):
    # Every block diagonal is constant, and the leading L-interval section of
    # the 2L block is the L block: the tc block of every L is a section of one
    # causal block Toeplitz operator per harmonic pair.
    m = 3
    setup = _assemble(make, 32, coefficient, m, l, 0.1, qdelta_kind)
    blocks = _interval_blocks(lfa.tc_decompose(setup), l, m)
    for i in range(l):
        for j in range(i + 1):
            np.testing.assert_allclose(blocks[:, i, :, j], blocks[:, i - j, :, 0], rtol=0, atol=1e-14)
    double = _interval_blocks(lfa.tc_decompose(replace(setup, l=2 * l)), 2 * l, m)
    np.testing.assert_allclose(double[:, :l, :, :l], blocks, rtol=0, atol=1e-14)


# Dense eigvals of a tc block scatter around eig(C_0), each eigenvalue an L-fold Jordan chain, by up to
# (eps ||B||)^(1/L): measured at most 0.37 of it at n = 32, 64 and L = 4, 8, 16 on both problems (0.70 at L = 2).
# At L = 1 the block is C_0 itself and the distance is C_0's own conditioning (a double zero eigenvalue on
# diffusion): at most 5.03 eps ||B|| at M = 3 and 11.0 at M = 5.
TC_SCATTER_MULTIPLE = 2.0
TC_SCATTER_MULTIPLE_L1 = 20.0


@pytest.fixture(scope="module")
def one_interval_mlsdc_rho():
    """rho of the dense one-interval MLSDC iteration matrix at n = 32, M = 3, per problem."""
    rho = {}
    for problem, coefficient in (("diffusion", {"mu": 10.0}), ("advection", {"coefficient": 0.02})):
        setup = build_context(ExperimentConfig(problem=problem, n=32, m=3, l=1, **coefficient)).setup
        pf, pc = (solvers.sdc_preconditioner(level, setup.qdelta) for level in (setup.fine, setup.coarse))
        t = solvers.mlsdc_iteration_matrix(pf, pc, setup.pair, setup.fine.matrix)
        rho[problem] = float(np.abs(np.linalg.eigvals(t)).max())
    return rho


@pytest.mark.parametrize("l", [1, 4, 8, 16])
@pytest.mark.parametrize(
    "problem,coefficient,rho",
    [("diffusion", {"mu": 10.0}, 0.416710), ("advection", {"coefficient": 0.02}, 0.016991)],
    ids=["diffusion", "advection"],
)
def test_tc_spectrum_is_the_one_interval_block_repeated(one_interval_mlsdc_rho, problem, coefficient, rho, l):
    # C_0, a pair's leading 2M x 2M interval block, is every diagonal interval block of its tc block, which is
    # block lower triangular; so the exact tc spectrum is eig(C_0) L-fold, its rate is one-interval MLSDC's at
    # every L, and the dense eigvals of the tc block lie within the Jordan-chain scatter radius of eig(C_0).
    m = 3
    setup = build_context(ExperimentConfig(problem=problem, n=32, m=m, l=l, **coefficient)).setup
    d = lfa.tc_decompose(setup)
    blocks = _interval_blocks(d, l, m)
    pair_c0 = lfa._pair_blocks(setup, np.zeros((1, 1, 1)))
    dense = np.linalg.eigvals(d.blocks)
    multiple = TC_SCATTER_MULTIPLE_L1 if l == 1 else TC_SCATTER_MULTIPLE
    rho_c0 = 0.0
    for k in range(len(d.blocks)):
        c0 = pair_c0(k)[0]
        for i in range(l):
            assert np.abs(blocks[k, i, :, i] - c0).max() <= 1e-12 * np.abs(c0).max()
            assert not blocks[k, i, :, i + 1 :].any()
        exact = np.linalg.eigvals(c0)
        rho_c0 = max(rho_c0, np.abs(exact).max())
        radius = (np.finfo(float).eps * np.linalg.norm(d.blocks[k], 2)) ** (1 / l)
        assert np.abs(dense[k][:, None] - exact).min(axis=1).max() <= multiple * radius
    assert rho_c0 == pytest.approx(one_interval_mlsdc_rho[problem], rel=1e-12, abs=0)
    assert rho_c0 == pytest.approx(rho, abs=5e-7)


def test_tc_norm_identity():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler")
    t = oracles.iteration_matrix(setup)
    d = lfa.tc_decompose(setup)
    assert d.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-10)
    assert d.spectral_radius <= np.linalg.norm(t, 2) + 1e-12


def test_block_power_norm_reduces_to_norm_and_identity():
    d = lfa.tc_decompose(_assemble(make_diffusion, 16, 5e-3, 3, 2, 0.1, "implicit-euler"))
    assert lfa.block_power_norms(d, 0)[0] == pytest.approx(1.0)
    assert lfa.block_power_norms(d, 1)[1] == pytest.approx(d.norm, rel=1e-12)


def test_full_mode_is_the_first_block_column_as_one_block():
    n, m, l = 16, 3, 2
    ctx = build_context(ExperimentConfig(problem="advection", coefficient=4.88e-3, n=n, m=m, l=l, qdelta_kind="lu"))
    t = oracles.iteration_matrix(ctx.setup)
    d = ctx.decomposition("full")
    assert d.meta == lfa.TransformMeta("full", n, l, m)
    assert d.blocks.shape == (1, l * m * n, m * n)
    np.testing.assert_array_equal(d.blocks[0], t[:, : m * n])
    np.testing.assert_array_equal(d.meta.block_index(), [[-1, -1]])
    assert d.meta.block_dim == l * m * n
    # the column is the one norm chunk, a view of the stack
    [chunk] = d.norm_chunks()
    assert chunk.shape == d.blocks.shape and np.shares_memory(chunk, d.blocks)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(t.shape[0])
    vhat = lfa.transform_vector(v, d.meta)
    np.testing.assert_array_equal(vhat, v[None])
    # every harmonic selection keeps the single block, which multiplies by block convolution
    back = convolved(d.blocks[d.meta.rows({1})], vhat)
    assert back.shape == vhat.shape
    np.testing.assert_allclose(back[0], t @ v, rtol=0, atol=1e-14)


def test_identity_block_spectra_and_power_norms_match_the_matrix():
    n, m, l = 16, 3, 2
    setup = _assemble(make_diffusion, 16, 5e-3, m, l, 0.1, "implicit-euler")
    t = oracles.iteration_matrix(setup)
    d = lfa.BlockDecomposition(setup.iteration_column[None], lfa.TransformMeta("full", n, l, m))
    np.testing.assert_array_equal(d.meta.block_index(), [[-1, -1]])
    eig, w = np.linalg.eigvals(t), m * n
    # T is block lower triangular Toeplitz: its spectrum is its diagonal block's, L-fold
    assert d.spectral_radius == pytest.approx(np.max(np.abs(np.linalg.eigvals(t[:w, :w]))), rel=1e-12)
    assert d.eigenvalues.shape == (1, l * m * n)
    assert clusters.matched_cluster_distance(_eigenvalues(d), eig) < 1e-8
    assert d.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-12)
    norms = lfa.block_power_norms(d, 6)
    for k in range(7):
        assert norms[k] == pytest.approx(np.linalg.norm(np.linalg.matrix_power(t, k), 2), rel=1e-12)


def _all_c_blocks(setup):
    """All L collocation blocks of every harmonic pair, j = 0 included, as a decomposition."""
    n, l = setup.fine.n_space, setup.l
    phases = np.exp(-2j * np.pi * np.arange(l) / l).reshape(-1, 1, 1)
    pair_blocks = lfa._pair_blocks(setup, phases)
    blocks = np.concatenate([pair_blocks(k) for k in range(n // 2)])
    meta = lfa.TransformMeta(mode="c", n=n, l=l, m=setup.m_nodes)
    return lfa.BlockDecomposition(blocks=blocks, meta=meta)


def _periodic_full_matrix(setup):
    """Oracle: the PFASST matrix for the time-periodic composite system."""
    from pfasst_lfa.transfer import node_propagation

    fine, pair, l, m = setup.fine, setup.pair, setup.l, setup.m_nodes
    op_f, op_c = setup.fine.operator, setup.coarse.operator
    n_f = np.kron(node_propagation(m), np.eye(op_f.n))
    n_c = np.kron(node_propagation(m), np.eye(op_c.n))
    e_hat = np.diag(np.ones(l - 1), -1)
    e_hat[0, -1] = 1.0  # periodic wrap-around in time
    m_comp = np.kron(np.eye(l), fine.matrix) - np.kron(e_hat, n_f)
    p_gs = np.kron(np.eye(l), setup.p_coarse.matrix) - np.kron(e_hat, n_c)
    p_j = np.kron(np.eye(l), setup.p_fine.matrix)
    t_up = np.kron(np.eye(l * m), pair.interpolation)
    t_down = np.kron(np.eye(l * m), pair.restriction)
    eye = np.eye(m_comp.shape[0])
    cgc = eye - t_up @ np.linalg.solve(p_gs, t_down @ m_comp)
    return (eye - np.linalg.solve(p_j, m_comp)) @ cgc


def test_c_blocks_match_periodic_composite_oracle():
    # a shifted stencil keeps every coarse symbol nonzero, so all periodic
    # blocks exist and the similarity is exact
    n, m, l, dt = 16, 3, 4, 0.1
    scale = 0.3
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=scale)
    op_c = CirculantOperator(n=n // 2, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=scale)
    setup = _setup(op_f, op_c, m, l, dt)
    d = _all_c_blocks(setup)
    t = _periodic_full_matrix(setup)
    dist = clusters.matched_cluster_distance(np.linalg.eigvals(t), _eigenvalues(d))
    assert dist < 1e-8


def test_c_blocks_action_matches_periodic_oracle():
    n, m, l, dt = 16, 3, 4, 0.1
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=0.3)
    op_c = CirculantOperator(n=n // 2, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=0.3)
    setup = _setup(op_f, op_c, m, l, dt)
    d = _all_c_blocks(setup)
    t = _periodic_full_matrix(setup)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(t.shape[0])
    back = oracles.apply_blocks(d, lfa.transform_vector(v, d.meta))
    np.testing.assert_allclose(back, lfa.transform_vector(t @ v, d.meta), atol=1e-11)


def test_c_decompose_zeroes_constant_time_frequency():
    d = lfa.c_decompose(_assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler"))
    for block, idx in zip(d.blocks, d.meta.block_index()):
        if idx[1] == 0:
            np.testing.assert_array_equal(block, 0.0)
        else:
            assert np.all(np.isfinite(block)) and np.any(block != 0)


def test_c_decompose_raises_on_a_singular_block():
    # M = 1, L = 2, dt = qd = 1: the coarse basic block 1 - lam - phase at j = 1
    # is exactly 0 for a coarse symbol lam = 1 - phase
    n, dt = 16, 1.0
    rule = QuadratureRule.radau_right(1)
    qd = build_qdelta(rule, "implicit-euler")
    assert qd[0, 0] == 1.0
    lam = 1.0 - np.exp(-2j * np.pi * 1 / 2)
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -2.0, 1: 1.0})
    op_c = CirculantOperator(n=n // 2, stencil={0: lam})
    setup = _setup(op_f, op_c, 1, 2, dt)
    np.testing.assert_array_equal(setup.qdelta, qd)
    with pytest.raises(np.linalg.LinAlgError):
        lfa.c_decompose(setup)


def test_block_indexing_and_dimensions():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler")
    tc = lfa.tc_decompose(setup)
    assert len(tc.blocks) == 8
    assert all(b.shape == (24, 24) for b in tc.blocks)
    np.testing.assert_array_equal(tc.meta.block_index(), [(k, -1) for k in range(8)])
    c = lfa.c_decompose(setup)
    assert len(c.blocks) == 8 * 4
    assert all(b.shape == (6, 6) for b in c.blocks)
    np.testing.assert_array_equal(c.meta.block_index(), [(k, j) for k in range(8) for j in range(4)])


def test_matched_cluster_distance_detects_mutation():
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler")
    d_bad = lfa.tc_decompose(replace(setup, qdelta=-setup.qdelta))
    dist = clusters.matched_cluster_distance(np.linalg.eigvals(oracles.iteration_matrix(setup)), _eigenvalues(d_bad))
    assert dist > 1e-8


def _stencil_family(family: str, n: int):
    """(fine, coarse) operators: symmetric real, real advection, or complex-scaled (complex, not symmetric)."""
    if family == "complex-scale":
        stencil = {-1: 1.0, 0: -2.0, 1: 1.0}
        return tuple(CirculantOperator(n=k, stencil=stencil, scale=0.3 + 0.1j) for k in (n, n // 2))
    make = make_diffusion if family.startswith("diffusion") else make_advection
    return make(n, 5e-3), make(n // 2, 5e-3)


@pytest.mark.parametrize("l", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("family", ["diffusion", "advection", "complex-scale"])
@pytest.mark.parametrize("decompose", [lfa.tc_decompose, lfa.c_decompose], ids=["tc", "c"])
def test_chunked_norms_equal_the_pairwise_oracle(monkeypatch, decompose, family, l):
    n, m, k_max = 16, 2, 6
    setup = _setup(*_stencil_family(family, n), m, l, 0.1)
    if decompose is lfa.c_decompose and l == 1:
        # c mode has no block at l = 1, and the config refuses it before any decomposition
        with pytest.raises(ConfigurationError, match="l=1"):
            ExperimentConfig(problem="diffusion", mu=10.0, n=n, m=m, l=l, blocks=("c",))
        return
    d = decompose(setup)
    assert d.conjugate_symmetric == family.startswith("diffusion")
    expected = oracles.pairwise_power_norms(d, k_max)
    size = d.blocks[0].size
    # the default chunk, then chunks of one block and of three (the last chunk shorter)
    for entries in (lfa.NORM_CHUNK_ENTRIES, size, 4 * size - 1):
        monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", entries)
        chunked = replace(d)  # a fresh cached norm
        assert np.array_equal(lfa.block_power_norms(chunked, k_max), expected)
        assert chunked.norm == expected[1]


def test_chunked_norms_of_the_full_block_equal_the_oracle():
    column = _assemble(make_advection, 16, 4.88e-3, 3, 2, 0.1, "lu").iteration_column
    d = lfa.BlockDecomposition(column[None], lfa.TransformMeta("full", 16, 2, 3))
    expected = oracles.pairwise_power_norms(d, 4)
    assert np.array_equal(lfa.block_power_norms(d, 4), expected)
    assert d.norm == expected[1]


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_stack_norm_matches_the_svd_norm(field, scale):
    rng = np.random.default_rng(17)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    stacks = [
        draw(4, 9, 9),
        draw(2, 7, 4),
        draw(3, 9, 1) * draw(3, 1, 9),  # rank one
        np.zeros((2, 5, 5), dtype=complex if field == "complex" else float),
        np.concatenate([np.zeros((1, 6, 6)), draw(1, 6, 6)]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stack in stacks:
            stack = scale * stack
            assert np.iscomplexobj(stack) == (field == "complex")
            per_matrix = np.linalg.norm(stack, 2, axis=(-2, -1))
            assert abs(oracles.max_norm2(stack) - per_matrix.max()) <= 1e-13 * per_matrix.max()
            for x, expected in zip(stack, per_matrix):
                assert abs(oracles.max_norm2(x[None]) - expected) <= 1e-13 * expected


def test_a_subnormal_complex_stack_has_a_finite_norm():
    # the powers of a block nilpotent to round-off sink into subnormals; a complex division by such a
    # max entry overflows, while the power-of-two scaling keeps the Gram finite and the norm exact
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    tiny = np.ldexp(x.view(float), -1060).view(complex)
    assert oracles.max_norm2(tiny) == np.ldexp(oracles.max_norm2(x), -1060) > 0


def test_matched_cluster_distance_equals_per_tolerance_recomputation():
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    # a defective eigenvalue scattered on rings of two radii: the wide ring
    # splits at the smaller tolerances, so some tolerances give inf
    ring = np.exp(2j * np.pi * np.arange(6) / 6)
    singles = np.array([0.1, -0.3 + 0.2j, 0.25j])
    a = np.concatenate([0.5 + 3e-4 * ring, singles])
    b = np.concatenate([0.5 + 2e-5 * ring[::-1] + 1e-6, singles + 1e-7])
    tols = (1e-4, 2e-4, 5e-4, 1e-3)
    per_tol = [clusters.matched_cluster_distance(a, b, (tol,)) for tol in tols]
    assert np.isinf(per_tol[0]) and np.isfinite(per_tol[-1])
    assert clusters.matched_cluster_distance(a, b, tols) == min(per_tol)
    # the clusters cut from one tree are the clusters of a fresh linkage at each tolerance
    tree = clusters._single_linkage(a)
    for tol in tols:
        points = np.column_stack([a.real, a.imag])
        labels = fcluster(linkage(pdist(points), method="single"), tol, criterion="distance")
        fresh = [(int(np.sum(labels == c)), complex(a[labels == c].mean())) for c in np.unique(labels)]
        assert clusters._clusters(a, tree, tol) == fresh
    # and on a real pair of spectra
    setup = _assemble(make_diffusion, 16, 5e-3, 3, 4, 0.1, "implicit-euler")
    full, blocks = np.linalg.eigvals(oracles.iteration_matrix(setup)), _eigenvalues(lfa.tc_decompose(setup))
    assert clusters.matched_cluster_distance(full, blocks, tols) == min(
        clusters.matched_cluster_distance(full, blocks, (tol,)) for tol in tols
    )


@pytest.mark.parametrize("factor,certified,bounded", [(1.0, 0, 0), (1 + 1e-12, 0, 0), (1 - 1e-6, 5, 0), (0.5, 0, 5)])
@pytest.mark.parametrize("make,qdelta_kind", [(make_diffusion, "implicit-euler"), (make_advection, "lu")])
def test_certified_norms_of_two_chunk_stacks_equal_the_oracle(
    monkeypatch, make, qdelta_kind, factor, certified, bounded
):
    # one tc block and a multiple of it, one block per chunk: an exact tie and a
    # 1e-12 gap lie inside the certificate's margin, so both chunks are solved at
    # every k.  ||B^k||_F / ||B^k||_2 is 1.0003 to 1.1 here (k = 2..6): a 1e-6 gap
    # is too small for the Frobenius bound and is certified at every k >= 2, and
    # half the block is settled by its Frobenius norm at every k >= 2
    l, m, k_max = 2, 3, 6
    block = lfa.tc_decompose(_assemble(make, 16, 5e-3, m, l, 0.1, qdelta_kind)).blocks[1]
    d = lfa.BlockDecomposition(np.stack([block, factor * block]), lfa.TransformMeta("tc", 4, l, m))
    monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", block.size)
    expected = oracles.pairwise_power_norms(d, k_max)
    assert np.array_equal(lfa.block_power_norms(d, k_max), expected)
    assert d.grams == {"solved": 2 * k_max - certified - bounded, "certified": certified, "bounded": bounded}


@pytest.mark.parametrize("field", ["inf", "nan"])
def test_a_non_finite_power_in_a_certifiable_chunk_gives_nan(monkeypatch, field):
    # c rows 1 and 3 are the representatives: a block of norm 1e200 whose powers
    # stay finite, then a block of norm ~1e160 whose square is inf * I, or has
    # inf - inf = NaN entries.  LAPACK's Cholesky factors a NaN Gram without
    # complaint, so the kernel must solve it instead, and the NaN must survive the
    # running max over the chunks
    first = 0.5 * np.eye(4)
    first[0, 1] = 1e200
    second = 1e160 * (np.eye(4) if field == "inf" else np.kron(np.eye(2), [[1.0, 1.0], [1.0, -1.0]]))
    blocks = np.zeros((4, 4, 4), dtype=complex)
    blocks[1], blocks[3] = first, second
    d = lfa.BlockDecomposition(blocks, lfa.TransformMeta("c", 4, 2, 2))
    monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", blocks[0].size)
    assert d.norm == d.block_norms[0] > d.block_norms[1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = lfa.block_power_norms(d, 3)
    assert norms[:2].tolist() == [1.0, d.norm]
    assert np.isnan(norms[2:]).all()
    # a Gram per block and k: a non-finite block is never bounded (its Frobenius norm is inf or NaN) nor certified
    assert d.grams == {"solved": 6, "certified": 0, "bounded": 0}
    # in one chunk, the non-finite block has the largest Frobenius norm and is solved alone first: the same NaNs;
    # the other block is solved too, as a NaN running max certifies nothing
    one_chunk = replace(d)
    monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", lfa.NORM_CHUNK_ENTRIES * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(lfa.block_power_norms(one_chunk, 3), norms, equal_nan=True)
    assert one_chunk.grams == {"solved": 6, "certified": 0, "bounded": 0}


def _bounded_by_chunk_size(monkeypatch, blocks, meta, k_max):
    """(one block per chunk, the default chunks): the grams of block_power_norms, each equal to the oracle bit for bit."""
    grams = []
    for entries in (blocks[0].size, lfa.NORM_CHUNK_ENTRIES):
        monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", entries)
        d = lfa.BlockDecomposition(blocks, meta)
        assert np.array_equal(lfa.block_power_norms(d, k_max), oracles.pairwise_power_norms(d, k_max))
        grams.append(d.grams)
    return grams


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_one_blocks_where_the_frobenius_bound_is_tight_equal_the_oracle(monkeypatch, field):
    # R = u v^T with |v^T u| = 1: every power R^k = (v^T u)^(k-1) R has ||R^k||_F = ||R^k||_2 = ||R||_2, so
    # the bound is tight.  The c rows 1, 2, 4, 5 hold R, (1 - 0.3 delta) R, R and R/2: the tie and the
    # arg-max are never settled, the 0.3 delta gap only once (1 - 0.3 delta)^k < 1 - delta, from k = 4 on
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, 4, 1)) + (1j * rng.standard_normal((2, 4, 1)) if field == "complex" else 0)
    r = u @ v.T / abs(v.T @ u).item()
    assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(r, 2), rel=1e-15)
    blocks = np.zeros((6, 4, 4), dtype=complex)
    blocks[[1, 2, 4, 5]] = np.array([1.0, 1 - 0.3 * lfa.NORM_CERTIFICATE_DELTA, 1.0, 0.5])[:, None, None] * r
    one_block, one_chunk = _bounded_by_chunk_size(monkeypatch, blocks, lfa.TransformMeta("c", 4, 3, 2), 6)
    # R and the tie solved at every k, the gap at k = 2, 3, R/2 bounded at k = 2..6
    assert one_block == {"solved": 4 + 5 + 5 + 2, "certified": 0, "bounded": 3 + 5}
    assert one_chunk == one_block  # R the lone block at every k, the others bounded or solved after it


@pytest.mark.parametrize("normal", [False, True])
def test_subnormal_powers_are_bounded_in_the_scaled_domain(monkeypatch, normal):
    # three c blocks of entries about 2^-520, whose squares (k = 2) are subnormal, and so is their scale s;
    # with a normal fourth block (I/2), the bound (m_k (1 - delta) / s)^2 overflows to inf: every
    # subnormal power is settled, without an overflow warning.  k = 3, 4 underflow to 0
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    blocks = np.zeros((6, 4, 4), dtype=complex)
    blocks[[1, 2, 4]] = np.ldexp(x.view(float), -520).view(complex) * np.array([1.0, 0.5, 0.9])[:, None, None]
    blocks[5] = 0.5 * np.eye(4) if normal else np.ldexp(x[0].view(float), -521).view(complex)
    scale, _ = scaled(blocks[[1, 2, 4]] @ blocks[[1, 2, 4]])
    assert np.all(scale < np.finfo(float).tiny)
    one_block, one_chunk = _bounded_by_chunk_size(monkeypatch, blocks, lfa.TransformMeta("c", 4, 3, 2), 4)
    expected = {"solved": 7, "certified": 0, "bounded": 9} if normal else {"solved": 13, "certified": 0, "bounded": 3}
    assert one_block == one_chunk == expected


def test_a_one_chunk_c_stack_solves_its_largest_frobenius_block_alone_first(monkeypatch):
    # the 27 representative 6 x 6 c blocks of advection n = 32, L = 4 fit one chunk: at each k >= 2 the
    # block of the largest Frobenius norm takes a one-block Gram first, and the Frobenius bound settles
    # most of the other 26 before their Gram
    d = lfa.c_decompose(_assemble(make_advection, 32, 0.02, 3, 4, 0.1, "lu"))
    k_max = 8
    assert len(list(d.norm_chunks())) == 1 and d.norm > 0
    expected = oracles.pairwise_power_norms(d, k_max)
    sizes = []
    original = lfa._gram

    def recorded(x):
        sizes.append(len(x))
        return original(x)

    monkeypatch.setattr(lfa, "_gram", recorded)
    assert np.array_equal(lfa.block_power_norms(d, k_max), expected)
    # k = 2..8: the lone block; the Frobenius bound leaves 6 of the other 26 at k = 2, certified, and none after
    assert sizes == [1, 6, 1, 1, 1, 1, 1, 1]
    assert d.grams == {"solved": 27 + 7, "certified": 6, "bounded": 20 + 6 * 26}


def test_a_power_that_overflows_gives_a_nan_norm_power():
    # B = diag(1e200, 1): ||B|| is finite, B^2 overflows, and its 2-norm is NaN
    d = lfa.BlockDecomposition(np.diag([1e200, 1.0])[None], lfa.TransformMeta("full", 1, 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = lfa.block_power_norms(d, 4)
    assert norms[:2].tolist() == [1.0, 1e200]
    assert np.isnan(norms[2:]).all()


def test_a_non_finite_gram_gives_a_nan_norm():
    # eigvalsh raises on some non-finite Grams and returns a finite value on others, as on the
    # identity with one NaN; the stack's finite Grams keep their norms
    gram = np.stack([np.eye(3)] * 3)
    gram[1, 0, 0], gram[2, 0, 1] = np.nan, np.inf
    assert np.linalg.eigvalsh(gram[1])[-1] == 1.0
    norms = lfa._norms2(np.full(3, 2.0), gram)
    assert norms[0] == 2.0 and np.isnan(norms[1:]).all()


@pytest.mark.parametrize("k_max", [1, 3])
def test_a_nan_block_gives_a_nan_norm(k_max):
    # one NaN entry: its Gram is NaN in a whole row and column, and the norm of every power is NaN
    blocks = np.stack([np.eye(2), 2 * np.eye(2)])
    blocks[1, 0, 1] = np.nan
    d = lfa.BlockDecomposition(blocks, lfa.TransformMeta("tc", 4, 1, 1))
    assert d.block_norms[0] == 1.0 and np.isnan(d.block_norms[1]) and np.isnan(d.norm)
    norms = lfa.block_power_norms(d, k_max)
    assert norms[0] == 1.0 and np.isnan(norms[1:]).all()


@pytest.mark.parametrize("dim", [6, 10, 24, 40, 80, 96, 160, 640, 1536])
def test_spectrum_chunks_keep_more_rows_than_eigvals_holds_the_gil_for(dim):
    # the stack in order, in chunks within one block of each other, each more than the 500 rows numpy 2.4's
    # batched eigvals holds the GIL for once the stack has 1024 rows; one block a chunk from d = 1024 on
    assert lfa.EIGVALS_CHUNK_ROWS == 1024
    for count in range(1, 601):
        chunks = lfa.spectrum_chunks(count, dim)
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == count
        sizes = [c.stop - c.start for c in chunks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        if count * dim >= 1024:
            assert all(size * dim > 500 for size in sizes)
        if dim >= 1024:
            assert sizes == [1] * count


@pytest.mark.parametrize(
    "make,coefficient,mode,m,l,chunks",
    [
        (make_diffusion, 0.05, "tc", 3, 16, 3),  # real: 32 blocks of 96, 10 + 11 + 11
        (make_advection, 0.02, "tc", 3, 16, 3),
        (make_advection, 0.02, "tc", 5, 8, 2),  # 32 blocks of 80: 16 + 16
        (make_advection, 0.02, "c", 3, 16, 3),  # 512 blocks of 6: 170 + 171 + 171
    ],
)
def test_chunked_spectra_equal_one_batched_call(make, coefficient, mode, m, l, chunks):
    d = getattr(lfa, f"{mode}_decompose")(_assemble(make, 64, coefficient, m, l, 0.1, "lu"))
    assert len(lfa.spectrum_chunks(*d.blocks.shape[:2])) == chunks
    assert np.array_equal(lfa.block_spectra(d), sort_eigenvalues(np.linalg.eigvals(d.blocks)))
    assert d.eigvals_chunks == {"chunks": chunks, "main_thread": chunks}  # no futures: every chunk solved here
    # a decomposition built by hand has no chunks: its stack is solved in one call
    by_hand = lfa.BlockDecomposition(d.blocks, d.meta)
    assert np.array_equal(lfa.block_spectra(by_hand), d.eigenvalues)
    assert by_hand.eigvals_chunks == {"chunks": 1, "main_thread": 1}


def test_block_spectra_solves_the_chunks_the_worker_has_not_started_and_joins_the_rest():
    # three chunks: one the worker has solved, one still queued (cancelled and solved here), one never handed over
    d = lfa.tc_decompose(_assemble(make_diffusion, 64, 0.05, 3, 16, 0.1, "lu"))
    rows = [d.blocks[chunk] for chunk in lfa.spectrum_chunks(*d.blocks.shape[:2])]
    done, queued = Future(), Future()
    done.set_result(np.linalg.eigvals(rows[0]))
    queued.result = lambda timeout=None: pytest.fail("the queued chunk was waited for, not taken back")
    d.handed = [(rows[0], done), (rows[1], queued), (rows[2], None)]
    assert np.array_equal(lfa.block_spectra(d), sort_eigenvalues(np.linalg.eigvals(d.blocks)))
    assert queued.cancelled()
    assert d.eigvals_chunks == {"chunks": 3, "main_thread": 2}


class _RecordingWorker:
    """An executor stub: each submitted call is recorded with a copy of its argument, and returns a fresh future."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, rows):
        self.submitted.append((fn, rows, rows.copy(), Future()))
        return self.submitted[-1][-1]


@pytest.mark.parametrize("mode", ["tc", "c"])
def test_decompose_hands_over_each_chunk_once_it_is_built(mode):
    # the views come in row order, and each already holds its final blocks
    setup = _assemble(make_advection, 64, 0.02, 3, 16, 0.1, "lu")
    worker = _RecordingWorker()
    d = getattr(lfa, f"{mode}_decompose")(setup, worker)
    chunks = lfa.spectrum_chunks(*d.blocks.shape[:2])
    assert len(worker.submitted) == len(chunks) == 3
    assert [(rows, future) for _, rows, _, future in worker.submitted] == d.handed
    for (fn, rows, copy, _), chunk in zip(worker.submitted, chunks):
        assert fn is np.linalg.eigvals
        assert rows.base is d.blocks and rows.shape == d.blocks[chunk].shape
        assert np.shares_memory(rows, d.blocks[chunk]) and np.array_equal(copy, d.blocks[chunk])


@pytest.mark.parametrize("l", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("make,qdelta_kind", [(make_diffusion, "implicit-euler"), (make_advection, "lu")])
def test_toeplitz_norm_equals_the_svd_norm_of_the_assembled_matrix(make, qdelta_kind, l):
    # Lanczos on X^H X from X's first block column against the SVD of the assembled X: T's column and T^3's
    # (real), and a complex column, T's plus i times a Gaussian one, whose X^H needs the conjugate
    column = _assemble(make, 16, 5e-3, 3, l, 0.1, qdelta_kind).iteration_column
    w = column.shape[1]
    noise = np.random.default_rng(l).standard_normal(column.shape)
    for x in (column, convolved(convolved(column, column), column), column + 0.5j * noise):
        expected = np.linalg.svd(oracles.block_toeplitz(x, w), compute_uv=False)[0]
        np.testing.assert_allclose(lfa.toeplitz_norm2(x), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("l", [1, 2, 4, 8])
def test_block_convolution_equals_the_pairwise_sums_bit_for_bit(l):
    # one stacked product per block of the left operand adds into each block in the order of the pairwise loop:
    # T's column times itself, a real and a complex vector, and a complex column times T's
    column = _assemble(make_advection, 16, 4.88e-3, 3, l, 0.1, "lu").iteration_column
    x = np.random.default_rng(l).standard_normal((2, len(column)))
    complex_column = column + 1j * np.random.default_rng(l).standard_normal(column.shape)
    for a, b in ((column, column), (column, x[0]), (column, x[0] + 1j * x[1]), (complex_column, column)):
        assert np.array_equal(convolved(a, b).view(np.uint64), oracles.convolved(a, b).view(np.uint64))


def test_toeplitz_norm_of_a_circulant_column_reaches_past_the_constant_subspace():
    # blocks circulant in space, with integer entries: X^H X maps a vector constant on each block to one exactly, so
    # a Krylov space started there stays in the k = 0 harmonic's subspace (||X|| = 1 there, against 4.53)
    stencil = np.array([-2.0, 1.0] + [0.0] * 5 + [1.0])  # the periodic second difference
    column = np.concatenate([np.stack([np.roll(stencil, i) for i in range(8)]), np.eye(8)])
    expected = np.linalg.svd(oracles.block_toeplitz(column, 8), compute_uv=False)[0]
    assert expected > 4.5
    np.testing.assert_allclose(lfa.toeplitz_norm2(column), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("l", [1, 2, 4])
def test_toeplitz_norm_of_round_off_powers(l):
    # at M = 1 the blocks are nilpotent to round-off: T^k's norms fall to 1e-30 and below, and the scaled
    # column keeps them relative to the SVD of the scaled matrix
    column = _assemble(make_advection, 16, 6.25e-4, 1, l, 0.1, "lu").iteration_column
    power = column
    for k in range(1, 7):
        scale, x = scaled(power[None])
        expected = scale[0] * np.linalg.svd(oracles.block_toeplitz(x[0], 16), compute_uv=False)[0]
        np.testing.assert_allclose(lfa.toeplitz_norm2(power), expected, rtol=1e-13, atol=0)
        power = convolved(power, column)
    assert lfa.toeplitz_norm2(power) < 1e-30
    assert lfa.toeplitz_norm2(np.zeros((l * 16, 16))) == 0.0


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_column_has_a_nan_toeplitz_norm(value):
    column = _assemble(make_advection, 16, 4.88e-3, 3, 2, 0.1, "lu").iteration_column.copy()
    column[-1, 0] = value
    assert np.isnan(lfa.toeplitz_norm2(column))
    d = lfa.BlockDecomposition(column[None], lfa.TransformMeta("full", 16, 2, 3))
    with np.errstate(invalid="ignore"):  # inf - inf in the powers
        assert np.isnan(d.norm) and np.isnan(lfa.block_power_norms(d, 3)[1:]).all()


def test_full_decompose_holds_the_iteration_column_as_its_one_block():
    setup = _assemble(make_advection, 16, 4.88e-3, 3, 2, 0.1, "lu")
    d = lfa.full_decompose(setup)
    assert d.meta == lfa.TransformMeta("full", 16, 2, 3) and d.handed == []
    column = setup.iteration_column
    assert d.blocks.shape == (1, *column.shape) and np.shares_memory(d.blocks, column)
    assert np.array_equal(d.blocks[0], column)
    # the one eigenvalue chunk is T's diagonal block T_00, a view solved on this thread, its spectrum L-fold
    d.eigenvalues
    [(rows, future)] = d.handed
    assert future is None and rows.base is column and np.array_equal(rows, column[None, :48])
    assert d.eigvals_chunks == {"chunks": 1, "main_thread": 1}
    assert np.array_equal(d.eigenvalues, sort_eigenvalues(np.tile(np.linalg.eigvals(column[None, :48]), 2)))


def test_certified_norms_follow_the_moving_arg_max():
    # the block of the largest ||B^k|| is pair 32 at k = 1, pair 9 at k = 2 and pair 0
    # from k = 3 on; visiting pair 0, the largest rho(C_0), first bounds or certifies
    # most chunks (two blocks each)
    cfg = ExperimentConfig(
        problem="diffusion", mu=1.8407792370088312, n=128, m=5, l=16, wavenumber=63, iterations=20
    )
    d = build_context(cfg).decomposition("tc")
    reps = d.blocks[: cfg.n // 4 + 1]
    powers = [reps, reps @ reps, reps @ reps @ reps]
    assert [np.argmax(oracles.norms2(p)) for p in powers] == [32, 9, 0]
    assert lfa._visit_order(d)[:2].tolist() == [0, 16]  # the chunks of pairs 0, 1 and of pair 32
    norms = lfa.block_power_norms(d, cfg.iterations)
    assert np.array_equal(norms, oracles.pairwise_power_norms(d, cfg.iterations))
    assert len(list(d.norm_chunks())) == 17
    blocks = len(d.block_norms)
    powers = blocks * (cfg.iterations - 1)  # the (block, k) norms for k >= 2
    assert blocks == 33 and sum(d.grams.values()) == blocks + powers
    assert d.grams["solved"] - blocks < powers / 3
    # the Frobenius bound settles 191 of the 627 without a Gram, the certificate 398 more
    assert d.grams == {"solved": blocks + 38, "certified": 398, "bounded": 191}
