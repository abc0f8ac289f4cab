"""Block Fourier decomposition against the materialized iteration matrix."""

from dataclasses import replace

import numpy as np
import pytest

from pfasst_lfa import lfa
from pfasst_lfa.collocation import collocation_matrix
from pfasst_lfa.errors import RangeError
from pfasst_lfa.quadrature import QuadratureRule, build_qdelta
from pfasst_lfa.solvers import build_two_level_setup, lift_transfer
from pfasst_lfa.space_operators import CirculantOperator, coarsen, make_advection, make_diffusion
from pfasst_lfa.transfer import build_ci_pair


def _setup(op_f, op_c, m, l, dt, qdelta_kind="implicit-euler"):
    rule = QuadratureRule.radau_right(m)
    fine = collocation_matrix(op_f, rule, dt)
    coarse = collocation_matrix(op_c, rule, dt)
    return build_two_level_setup(fine, coarse, build_ci_pair(op_f.n), l, qdelta_kind)


def _assemble(prob, m, l, dt, qdelta_kind):
    """(the setup, its spectral components); the setup builds T on first use of ``iteration_matrix``."""
    setup = _setup(prob.operator, coarsen(prob).operator, m, l, dt, qdelta_kind)
    return setup, lfa.spectral_components(setup)


def _eigenvalues(d):
    return lfa.block_spectra(d).eigenvalues.ravel()


@pytest.mark.parametrize(
    "make,qdelta_kind",
    [(make_diffusion, "implicit-euler"), (make_advection, "lu")],
)
def test_tc_action_equals_full_matrix(make, qdelta_kind):
    prob = make(16, 5e-3)
    setup, sc = _assemble(prob, 3, 4, 0.1, qdelta_kind)
    t = setup.iteration_matrix
    d = lfa.tc_decompose(sc)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(t.shape[0])
    vhat = lfa.transform_vector(v, d.meta)
    back = lfa.inverse_transform_vector(lfa.apply_blocks(d, vhat), d.meta)
    np.testing.assert_allclose(back, t @ v, atol=1e-12)


def test_transform_is_unitary_and_invertible():
    prob = make_diffusion(16, 5e-3)
    _, sc = _assemble(prob, 3, 2, 0.1, "implicit-euler")
    for d in (lfa.tc_decompose(sc), lfa.c_decompose(sc)):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(2 * 3 * 16) + 1j * rng.standard_normal(2 * 3 * 16)
        vhat = lfa.transform_vector(v, d.meta)
        assert np.linalg.norm(vhat) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        np.testing.assert_allclose(lfa.inverse_transform_vector(vhat, d.meta), v, atol=1e-12)


@pytest.mark.parametrize("l", [1, 3])
def test_transform_round_trip_is_unitary(l):
    prob = make_advection(16, 4.88e-3)
    _, sc = _assemble(prob, 2, l, 0.1, "lu")
    rng = np.random.default_rng(5)
    for d in (lfa.tc_decompose(sc), lfa.c_decompose(sc)):
        v = rng.standard_normal(l * 2 * 16) + 1j * rng.standard_normal(l * 2 * 16)
        vhat = lfa.transform_vector(v, d.meta)
        assert vhat.shape == (len(d.blocks), d.meta.block_dim)
        assert np.linalg.norm(vhat) == pytest.approx(np.linalg.norm(v), rel=1e-13)
        np.testing.assert_allclose(lfa.inverse_transform_vector(vhat, d.meta), v, atol=1e-13)


def test_apply_blocks_restricted_to_harmonics():
    prob = make_diffusion(16, 5e-3)
    _, sc = _assemble(prob, 3, 3, 0.1, "implicit-euler")
    rng = np.random.default_rng(2)
    for d in (lfa.tc_decompose(sc), lfa.c_decompose(sc)):
        vhat = rng.standard_normal((len(d.blocks), d.meta.block_dim)) + 0j
        full = lfa.apply_blocks(d, vhat)
        part = lfa.apply_blocks(d, vhat, harmonics={2, 5})
        for i, idx in enumerate(d.index):
            np.testing.assert_array_equal(part[i], full[i] if idx[0] in (2, 5) else 0.0)
            np.testing.assert_allclose(full[i], d.blocks[i] @ vhat[i], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize(
    "make,qdelta_kind,l",
    [(make_diffusion, "implicit-euler", 4), (make_advection, "lu", 3), (make_diffusion, "lu", 7)],
)
def test_batched_kernel_equals_one_pair_at_a_time(make, qdelta_kind, l):
    prob = make(32, 5e-3)
    _, sc = _assemble(prob, 3, l, 0.1, qdelta_kind)
    tc = lfa.tc_decompose(sc)
    assert isinstance(tc.blocks, np.ndarray) and tc.blocks.shape == (16, 6 * l, 6 * l)
    shift = np.eye(l, k=-1)[None]
    for k in range(16):
        one = lfa._paired_blocks(sc, k, *lfa._basic_blocks(sc, shift))
        assert np.array_equal(tc.blocks[k], one[0])
    c = lfa.c_decompose(sc)
    assert c.blocks.shape == (16 * l, 6, 6)
    for row, (k, j) in enumerate(c.index):
        if j == 0:  # the constant-in-time modes are not built
            assert np.array_equal(c.blocks[row], np.zeros((6, 6)))
            continue
        # the phase factor as a scalar, exactly as a single block would use it
        phase = np.array([np.exp(-2j * np.pi * j / l)]).reshape(1, 1, 1)
        one = lfa._paired_blocks(sc, k, *lfa._basic_blocks(sc, phase))[0]
        assert np.array_equal(c.blocks[row], one)


def _mirror_row(meta, k, j):
    half = meta.n // 2
    mk = (half - k) % half
    return mk if meta.mode == "time-collocation" else mk * meta.l + (-j) % meta.l


@pytest.mark.parametrize(
    "make,coefficient,qdelta_kind",
    [(make_diffusion, 1e-2, "implicit-euler"), (make_advection, 4.88e-3, "lu")],
)
def test_mirror_blocks_have_equal_power_norms(make, coefficient, qdelta_kind):
    prob = make(32, coefficient)
    _, sc = _assemble(prob, 3, 4, 0.1, qdelta_kind)
    k_max = 20
    for d in (lfa.tc_decompose(sc), lfa.c_decompose(sc)):
        assert d.mirrored
        dim = d.meta.block_dim // 2
        # exchanges the two harmonic halves; harmonics 0 and N/2 are self-conjugate
        swap = np.roll(np.eye(2 * dim), dim, axis=0)
        for row, idx in enumerate(d.index):
            partner = d.blocks[_mirror_row(d.meta, idx[0], idx[-1])]
            block = d.blocks[row]
            mirrored = block.conj() if idx[0] == 0 else swap @ block.conj() @ swap
            assert np.max(np.abs(partner - mirrored)) <= 1e-14 * max(np.abs(block).max(), 1.0)
            p, q = block, partner
            for _ in range(k_max):
                a, b = np.linalg.norm(p, 2), np.linalg.norm(q, 2)
                assert abs(a - b) <= 1e-13 * max(a, b)
                p, q = p @ block, q @ partner


def test_mirror_needs_real_stencils():
    n = 16
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=0.3 + 0.1j)
    op_c = CirculantOperator(n=n // 2, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=0.3 + 0.1j)
    sc = lfa.spectral_components(_setup(op_f, op_c, 2, 2, 0.1))
    d = lfa.tc_decompose(sc)
    assert not d.mirrored
    assert d.norm_pairs() == range(8)
    assert lfa.tc_decompose(replace(sc, real_stencils=True)).norm_pairs() == range(5)


@pytest.mark.parametrize("make,qdelta_kind", [(make_diffusion, "implicit-euler"), (make_advection, "lu")])
def test_block_power_norms_match_matrix_power(make, qdelta_kind):
    prob = make(32, 5e-3)
    _, sc = _assemble(prob, 3, 3, 0.1, qdelta_kind)
    k_max = 12
    for d in (lfa.tc_decompose(sc), lfa.c_decompose(sc)):
        norms = lfa.block_power_norms(d, k_max)
        assert norms.shape == (k_max + 1,)
        assert norms[0] == 1.0
        for k in range(1, k_max + 1):
            ref = max(np.linalg.norm(np.linalg.matrix_power(b, k), 2) for b in d.blocks)
            assert norms[k] == pytest.approx(ref, rel=1e-12)


def test_tc_eigenvalues_match_full_spectrum_via_clusters():
    prob = make_diffusion(16, 5e-3)
    setup, sc = _assemble(prob, 3, 4, 0.1, "implicit-euler")
    d = lfa.tc_decompose(sc)
    dist = lfa.matched_cluster_distance(np.linalg.eigvals(setup.iteration_matrix), _eigenvalues(d))
    assert dist < 1e-8


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
    _, sc = _assemble(make(16, coefficient), m, l, 0.1, qdelta_kind)
    d = lfa.tc_decompose(sc)
    one = lfa.tc_decompose(replace(sc, l=1))
    blocks = _interval_blocks(d, l, m)
    for i in range(l):
        assert np.all(blocks[:, i, :, i + 1 :] == 0.0)
        np.testing.assert_allclose(blocks[:, i, :, i], one.blocks, rtol=0, atol=1e-14)
        for j in range(i):
            np.testing.assert_allclose(blocks[:, i, :, j], blocks[:, i - j, :, 0], rtol=0, atol=1e-14)
    dist = lfa.matched_cluster_distance(_eigenvalues(d), np.tile(_eigenvalues(one), l))
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
    _, sc = _assemble(make(32, coefficient), m, l, 0.1, qdelta_kind)
    blocks = _interval_blocks(lfa.tc_decompose(sc), l, m)
    for i in range(l):
        for j in range(i + 1):
            np.testing.assert_allclose(blocks[:, i, :, j], blocks[:, i - j, :, 0], rtol=0, atol=1e-14)
    double = _interval_blocks(lfa.tc_decompose(replace(sc, l=2 * l)), 2 * l, m)
    np.testing.assert_allclose(double[:, :l, :, :l], blocks, rtol=0, atol=1e-14)


def test_tc_norm_identity():
    prob = make_diffusion(16, 5e-3)
    setup, sc = _assemble(prob, 3, 4, 0.1, "implicit-euler")
    t = setup.iteration_matrix
    bs = lfa.block_spectra(lfa.tc_decompose(sc))
    assert bs.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-10)
    assert bs.spectral_radius <= np.linalg.norm(t, 2) + 1e-12


def test_block_power_norm_reduces_to_norm_and_identity():
    prob = make_diffusion(16, 5e-3)
    _, sc = _assemble(prob, 3, 2, 0.1, "implicit-euler")
    d = lfa.tc_decompose(sc)
    assert lfa.block_power_norms(d, 0)[0] == pytest.approx(1.0)
    assert lfa.block_power_norms(d, 1)[1] == pytest.approx(lfa.block_spectra(d).norm, rel=1e-12)
    with pytest.raises(RangeError):
        lfa.block_power_norms(d, -1)


def test_identity_decompose_is_the_matrix_as_one_block():
    prob = make_advection(16, 4.88e-3)
    n, m, l = 16, 3, 2
    t = _assemble(prob, m, l, 0.1, "lu")[0].iteration_matrix
    d = lfa.identity_decompose(t, n, l, m)
    assert d.blocks.shape == (1, l * m * n, l * m * n)
    np.testing.assert_array_equal(d.blocks[0], t)
    assert d.index == [(-1,)] and d.meta.block_dim == l * m * n
    assert not d.mirrored and list(d.norm_pairs()) == [0]
    rng = np.random.default_rng(5)
    v = rng.standard_normal(t.shape[0])
    vhat = lfa.transform_vector(v, d.meta)
    np.testing.assert_array_equal(vhat, v[None])
    np.testing.assert_array_equal(lfa.inverse_transform_vector(vhat, d.meta), v)
    # every harmonic selection keeps the single block
    back = lfa.apply_blocks(d, vhat, harmonics={1})
    np.testing.assert_allclose(lfa.inverse_transform_vector(back, d.meta), t @ v, rtol=0, atol=1e-14)


def test_identity_block_spectra_and_power_norms_match_the_matrix():
    prob = make_diffusion(16, 5e-3)
    n, m, l = 16, 3, 2
    t = _assemble(prob, m, l, 0.1, "implicit-euler")[0].iteration_matrix
    d = lfa.identity_decompose(t, n, l, m)
    bs = lfa.block_spectra(d)
    assert bs.index == [(-1,)]
    eig = np.linalg.eigvals(t)
    assert bs.spectral_radius == pytest.approx(np.max(np.abs(eig)), rel=1e-12)
    assert bs.eigenvalues.shape == (1, l * m * n)
    assert lfa.matched_cluster_distance(_eigenvalues(d), eig) < 1e-8
    assert bs.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-12)
    norms = lfa.block_power_norms(d, 6)
    for k in range(7):
        assert norms[k] == pytest.approx(np.linalg.norm(np.linalg.matrix_power(t, k), 2), rel=1e-12)


def _all_c_blocks(sc):
    """All L collocation blocks of every harmonic pair, j = 0 included, as a decomposition."""
    phases = np.exp(-2j * np.pi * np.arange(sc.l) / sc.l).reshape(-1, 1, 1)
    basic = lfa._basic_blocks(sc, phases)
    blocks = np.concatenate([lfa._paired_blocks(sc, k, *basic) for k in range(sc.n // 2)])
    meta = lfa.TransformMeta(mode="collocation", n=sc.n, l=sc.l, m=sc.m)
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
    t_up, t_down = lift_transfer(pair, m, l)
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
    d = _all_c_blocks(lfa.spectral_components(setup))
    t = _periodic_full_matrix(setup)
    dist = lfa.matched_cluster_distance(np.linalg.eigvals(t), _eigenvalues(d))
    assert dist < 1e-8


def test_c_blocks_action_matches_periodic_oracle():
    n, m, l, dt = 16, 3, 4, 0.1
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=0.3)
    op_c = CirculantOperator(n=n // 2, stencil={-1: 1.0, 0: -3.0, 1: 1.0}, scale=0.3)
    setup = _setup(op_f, op_c, m, l, dt)
    d = _all_c_blocks(lfa.spectral_components(setup))
    t = _periodic_full_matrix(setup)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(t.shape[0])
    vhat = lfa.transform_vector(v, d.meta)
    back = lfa.inverse_transform_vector(lfa.apply_blocks(d, vhat), d.meta)
    np.testing.assert_allclose(back, t @ v, atol=1e-11)


def test_c_decompose_zeroes_constant_time_frequency():
    prob = make_diffusion(16, 5e-3)
    _, sc = _assemble(prob, 3, 4, 0.1, "implicit-euler")
    d = lfa.c_decompose(sc)
    for block, idx in zip(d.blocks, d.index):
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
    assert qd.matrix[0, 0] == 1.0
    lam = 1.0 - np.exp(-2j * np.pi * 1 / 2)
    op_f = CirculantOperator(n=n, stencil={-1: 1.0, 0: -2.0, 1: 1.0})
    op_c = CirculantOperator(n=n // 2, stencil={0: lam})
    sc = lfa.spectral_components(_setup(op_f, op_c, 1, 2, dt))
    np.testing.assert_array_equal(sc.qdelta, qd.matrix)
    with pytest.raises(np.linalg.LinAlgError):
        lfa.c_decompose(sc)


def test_block_indexing_and_dimensions():
    prob = make_diffusion(16, 5e-3)
    _, sc = _assemble(prob, 3, 4, 0.1, "implicit-euler")
    tc = lfa.tc_decompose(sc)
    assert len(tc.blocks) == 8
    assert all(b.shape == (24, 24) for b in tc.blocks)
    assert tc.index == [(k,) for k in range(8)]
    c = lfa.c_decompose(sc)
    assert len(c.blocks) == 8 * 4
    assert all(b.shape == (6, 6) for b in c.blocks)
    assert c.index == [(k, j) for k in range(8) for j in range(4)]


def test_matched_cluster_distance_detects_mutation():
    prob = make_diffusion(16, 5e-3)
    setup, sc = _assemble(prob, 3, 4, 0.1, "implicit-euler")
    sc_bad = replace(sc, qdelta=-sc.qdelta)
    d_bad = lfa.tc_decompose(sc_bad)
    dist = lfa.matched_cluster_distance(np.linalg.eigvals(setup.iteration_matrix), _eigenvalues(d_bad))
    assert dist > 1e-8
