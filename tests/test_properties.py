"""Property tests: the algorithmic run, the matrix form and the blocks agree on small random configs.

Configurations are drawn from n in {16, 32}, m in 1..5, l in 1..4 (the
iteration-matrix oracles: l in {1, 2, 3, 4, 8}, and m in {1, 3} against the
Kronecker products and the dense matrix powers), both problems and
both Q_Delta kinds; mu is log-uniform on [1, 100] and the
advection CFL number c*dt/dx on [0.01, 1].  The stencil transfers are
checked on n in {16, 32, 64}, every exactness degree 1..6 and real or
complex stacks, phase detection on error histories whose log10 is
piecewise linear, exact or noisy.  The tc bound chain
||e^k|| <= ||T^k|| ||e^0|| <= ||T||^k ||e^0|| holds on every draw, and at
K = 20, where the block powers of M = 1 advection underflow, ``analyze``
exits 0 with every tc check true.
``analyze`` runs on wide draws (n up to 34, dt and mu or c over many
decades) exactly what ``ExperimentConfig`` accepts, and ends every argv of
valid and invalid flag values with an exit code, never a traceback.  The
draws are derandomized, so every run of the suite checks the same examples.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pfasst_lfa import cli, lfa
from pfasst_lfa.analysis import (
    STRATEGIES,
    ExperimentConfig,
    bound_chain_holds,
    build_context,
    detect_phases,
    predict,
    run_and_compare,
    strategy4_exact,
    tc_similarity_residual,
)
from pfasst_lfa.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from pfasst_lfa.collocation import spread_initial
from pfasst_lfa.errors import ConfigurationError
from pfasst_lfa.linalg import convolved, sort_eigenvalues
from pfasst_lfa.quadrature import QDELTA_KINDS
from pfasst_lfa.solvers import mlsdc_step, pfasst_run_algorithmic
from pfasst_lfa.transfer import TransferPair, midpoint_generator, node_propagation

DT = 0.1
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw, iterations=6, ls=None, ms=None, problems=("diffusion", "advection")):
    """Small configurations; ``ls`` / ``ms`` / ``problems`` restrict l, m and the problem to the given values."""
    problem = draw(st.sampled_from(problems))
    n = draw(st.sampled_from((16, 32)))
    exponent = draw(st.floats(0.0, 2.0))
    if problem == "diffusion":
        physics = {"mu": 10.0**exponent}
    else:
        physics = {"coefficient": 10.0 ** (exponent - 2.0) / (n * DT)}
    return ExperimentConfig(
        problem=problem,
        n=n,
        m=draw(st.integers(1, 5) if ms is None else st.sampled_from(ms)),
        l=draw(st.integers(1, 4) if ls is None else st.sampled_from(ls)),
        dt=DT,
        wavenumber=draw(st.integers(1, n - 1).filter(lambda k: 2 * k != n)),
        iterations=iterations,
        qdelta_kind=draw(st.sampled_from(QDELTA_KINDS)),
        **physics,
    )


@PROPERTY
@given(configs())
def test_fft_swept_run_equals_matrix_iterates(cfg):
    setup = build_context(cfg).setup
    u0 = np.sin(2 * np.pi * cfg.wavenumber * np.arange(cfg.n) / cfg.n)
    rhs = np.zeros((cfg.l, cfg.m, cfg.n))
    rhs[0] = u0
    p_gs, p_j = setup.composite_preconditioners
    trace = pfasst_run_algorithmic(setup, rhs, spread_initial(u0, cfg.m, cfg.l), cfg.iterations)
    u = trace[0]
    for k in range(1, cfg.iterations + 1):
        u = mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs.ravel(), u)
        np.testing.assert_allclose(trace[k], u, rtol=0, atol=1e-12)


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8), ms=(1, 3)))
def test_iteration_matrix_equals_the_kron_oracle(cfg):
    # the factors the matrix route applies block by block, formed as Kronecker products
    setup = build_context(cfg).setup
    l, m = cfg.l, cfg.m
    mat = oracles.composite_matrix(setup)
    n_coarse = np.kron(node_propagation(m), np.eye(cfg.n // 2))
    p_gs = np.kron(np.eye(l), setup.p_coarse.matrix) - np.kron(np.eye(l, k=-1), n_coarse)
    p_jacobi = np.kron(np.eye(l), setup.p_fine.matrix)
    t_up = np.kron(np.eye(l * m), setup.pair.interpolation)
    t_down = np.kron(np.eye(l * m), setup.pair.restriction)
    eye = np.eye(len(mat))
    oracle = (eye - np.linalg.solve(p_jacobi, mat)) @ (eye - t_up @ np.linalg.solve(p_gs, t_down @ mat))
    assert np.max(np.abs(oracles.iteration_matrix(setup) - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8)))
def test_iteration_matrix_is_block_lower_triangular(cfg):
    # interval i's iterate depends on intervals j <= i only: every block above the diagonal is exactly 0
    t = oracles.iteration_matrix(build_context(cfg).setup)
    w = cfg.m * cfg.n
    for i in range(cfg.l - 1):
        assert not np.any(t[i * w : (i + 1) * w, (i + 1) * w :])


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8)))
def test_iteration_matrix_equals_the_dense_formula(cfg):
    # T's first block column against both factors solved over all columns and multiplied whole; the column's
    # products leave S's zero blocks out of their inner sums, so the two agree to round-off, not bit for bit
    setup = build_context(cfg).setup
    column = setup.iteration_column
    oracle = oracles.dense_iteration_matrix(setup)
    assert column.shape == (cfg.l * cfg.m * cfg.n, cfg.m * cfg.n)
    assert np.max(np.abs(column - oracle[:, : cfg.m * cfg.n])) <= 1e-15 * np.max(np.abs(oracle))


@PROPERTY
@given(configs())
@example(ExperimentConfig(problem="advection", coefficient=0.02, n=16, m=1, l=1, iterations=6, qdelta_kind="lu"))
@example(ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=1, l=3, iterations=6, qdelta_kind="implicit-euler"))
def test_iteration_column_equals_the_band_product_build(cfg):
    # T_00 = S_0 K_0 is the band build's product and has its bits.  Blocks i >= 1 are rank-N/2 products in the
    # column and full band products in the oracle: they differ by at most 1.84e-15 of max |T| over 2400 random
    # draws of this strategy (diffusion, n = 32, M = 4, L = 2, mu = 7.93, where a 40-digit reference of block 1
    # is 2.3e-16 from the column and 8.3e-16 from the band build), so 4e-15 is the bound
    setup = build_context(cfg).setup
    column, band, w = setup.iteration_column, oracles.band_iteration_column(setup), cfg.m * cfg.n
    assert np.array_equal(column[:w].view(np.uint64), band[:w].view(np.uint64))
    assert np.max(np.abs(column - band)) <= 4e-15 * np.max(np.abs(band))


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8)))
def test_the_dense_formula_is_block_lower_triangular_toeplitz(cfg):
    # every interval has the same operators, so block (i, j) of T is block (i - j, 0), and 0 above the
    # diagonal; the dense formula's round-off separates them by at most 6.7e-16 absolute over 320 draws
    # of this strategy (max |T| <= 0.71), so 2e-15 is the bound
    setup = build_context(cfg).setup
    t = oracles.dense_iteration_matrix(setup)
    w = cfg.m * cfg.n
    blocks = t.reshape(cfg.l, w, cfg.l, w)
    for i in range(cfg.l):
        assert not np.any(blocks[i, :, i + 1 :])
        for j in range(i + 1):
            assert np.max(np.abs(blocks[i, :, j] - blocks[i - j, :, 0])) <= 2e-15


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8), ms=(1, 3)))
@example(ExperimentConfig(problem="advection", coefficient=0.02, n=16, m=1, l=8, iterations=6))
@example(ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=1, l=1, iterations=6))
def test_full_mode_norm_power_equals_the_dense_powers_and_tc(cfg):
    # full mode forms T^k's first block column by block convolution.  Its 2-norms, above 1e-12 ||e0||, against
    # the SVD norms of the oracle T's dense powers: at most 3.0e-15 relative on these draws and 1.5e-13 over 970
    # random draws of this strategy, at ||T^5|| = 1.2e-11 (diffusion, M = 1, L = 8, mu = 91.5), where the Gram
    # norm of the dense product T^k reads the same; against tc mode's, at most 5.3e-13 (mu > 90)
    ctx = build_context(cfg)
    setup = ctx.setup
    t = oracles.dense_iteration_matrix(setup)
    full = predict(ctx, "norm-power", "full")
    e0_norm = full[0]
    dense = e0_norm * np.array([np.linalg.norm(np.linalg.matrix_power(t, k), 2) for k in range(cfg.iterations + 1)])
    kept = dense > 1e-12 * e0_norm
    assert np.all(np.abs(full - dense)[kept] <= 5e-13 * dense[kept])
    tc = predict(ctx, "norm-power", "tc")
    assert np.all(np.abs(full - tc)[kept] <= 2e-12 * dense[kept])


@PROPERTY
@given(configs())
def test_the_full_spectrum_is_the_diagonal_blocks_and_its_radius_the_tc_rate(cfg):
    # T is block lower triangular Toeplitz, so full mode takes eig(T_00) and repeats it L times.  Its radius is
    # rho(C_0), C_0 the tc blocks' leading 2M x 2M interval block, reached by another route: within 1e-13
    # relative above an absolute floor of 1e-14, for the blocks nilpotent at M = 1, where both radii are
    # round-off, and for small radii.  Over 300 random draws of this strategy with l in {1, 2, 3, 4, 8}: at most
    # 2.2e-15 absolute (5.0e-13 relative at rho = 0.0044) for M >= 2, and 3.5e-16 absolute at M = 1
    ctx = build_context(cfg)
    full, tc = ctx.decomposition("full"), ctx.decomposition("tc")
    w = cfg.m * cfg.n
    t00 = np.linalg.eigvals(ctx.setup.iteration_column[:w])
    assert np.array_equal(full.eigenvalues, sort_eigenvalues(np.tile(t00, cfg.l))[None])
    lead = np.concatenate([np.arange(cfg.m), cfg.l * cfg.m + np.arange(cfg.m)])
    rho_c0 = np.max(np.abs(np.linalg.eigvals(tc.blocks[:, lead[:, None], lead])))
    assert abs(full.spectral_radius - rho_c0) <= 1e-13 * rho_c0 + 1e-14


@PROPERTY
@given(configs(ls=(1, 2, 3, 4, 8)))
def test_block_convolution_equals_the_assembled_product(cfg):
    # full mode's one product kernel against the assembled T: T's first block column times a block column
    # (another block Toeplitz matrix's first, as norm-power's powers take it) or a vector (as apply takes it);
    # and full-mode apply against ||T^k e^0|| from the dense T, within 1e-15 ||e^0|| absolute.  The worst on a
    # grid of these configs: 9.1e-18 of the product bound, and 1.4e-16 ||e^0||
    ctx = build_context(cfg)
    column = ctx.setup.iteration_column
    t, x = oracles.iteration_matrix(ctx.setup), np.random.default_rng(cfg.l).standard_normal(len(column))
    for b in (column, x, x[None]):
        scale = np.max(np.abs(t)) * np.max(np.abs(b)) * len(column)
        product = (t @ b.reshape(len(t), -1)).reshape(b.shape)
        assert np.max(np.abs(convolved(column[None], b) - product)) <= 1e-15 * scale
    e, expected = ctx.initial_error, []
    for _ in range(cfg.iterations + 1):
        expected.append(np.linalg.norm(e))
        e = t @ e
    assert np.max(np.abs(predict(ctx, "apply", "full") - expected)) <= 1e-15 * expected[0]


@PROPERTY
@given(configs())
def test_tc_blocks_equal_the_transformed_iteration_matrix(cfg):
    # round-off grows with mu: the worst on a grid of these configs is 1.4e-14
    # (diffusion, mu = 100, M = 5)
    ctx = build_context(cfg)
    assert tc_similarity_residual(ctx.setup.iteration_column, ctx.decomposition("tc")) <= 1e-13


@PROPERTY
@given(configs(iterations=10))
def test_tc_apply_reproduces_the_run(cfg):
    trace = run_and_compare(replace(cfg, strategies=("apply",)))
    assert strategy4_exact(trace.actual_2, trace.predictions["apply", "tc"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs(iterations=8))
def test_tc_bound_chain_holds(cfg):
    # ||e^k|| <= ||T^k|| ||e^0|| <= ||T||^k ||e^0||; at M = L = 1 the error is round-off and T computes to 0
    trace = run_and_compare(replace(cfg, strategies=("norm", "norm-power")))
    assert bound_chain_holds(trace.actual_2, trace.predictions["norm-power", "tc"], trace.predictions["norm", "tc"])


def _run_and_compare_of_kind(qdelta_kind, cfg):
    """``run_and_compare`` with the given Q_Delta kind: the CLI has no flag for it."""
    assert cfg.qdelta_kind is None
    return run_and_compare(replace(cfg, qdelta_kind=qdelta_kind))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(configs(iterations=20))
def test_analyze_exits_0_with_every_tc_check_true(cfg):
    # at M = 1 the tc blocks are nilpotent to round-off, so B^k sinks into subnormals at k = 10-20
    argv = [f"--problem={cfg.problem}", f"--n={cfg.n}", f"--m={cfg.m}", f"--l={cfg.l}", f"--dt={cfg.dt!r}",
            f"--wavenumber={cfg.wavenumber}", f"--iterations={cfg.iterations}"]
    argv.append(f"--mu={cfg.mu!r}" if cfg.problem == "diffusion" else f"--coefficient={cfg.coefficient!r}")
    analyze = partial(_run_and_compare_of_kind, cfg.qdelta_kind)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run_and_compare", analyze):
        assert main(["analyze", *argv, "--out", tmp]) == EXIT_OK
        checks = json.loads((Path(tmp) / "report.json").read_text())["checks"]
    assert checks == {"bound_chain_2norm": True, "strategy4_tc_exact": True}


@PROPERTY
@given(configs(iterations=8, problems=("diffusion",)))
def test_real_tc_norms_equal_the_complex_route(cfg):
    ctx = build_context(cfg)
    d = ctx.decomposition("tc")
    assert d.conjugate_symmetric and d.blocks.dtype == np.float64
    # the complex route: SVD 2-norms of the complex per-pair builds of the
    # mirror-representative pairs k <= N/4, and of their powers
    pair_blocks = lfa._pair_blocks(ctx.setup, np.eye(cfg.l, k=-1)[None])
    expected = np.zeros(cfg.iterations + 1)
    expected[0] = 1.0
    for blocks in map(pair_blocks, range(cfg.n // 4 + 1)):
        assert np.iscomplexobj(blocks)
        power = blocks
        for k in range(1, cfg.iterations + 1):
            expected[k] = max(expected[k], np.max(np.linalg.norm(power, 2, axis=(-2, -1))))
            power = power @ blocks
    # entry 1 is the cached norm
    np.testing.assert_allclose(lfa.block_power_norms(d, cfg.iterations), expected, rtol=1e-13, atol=0)
    # the eigenvalues come from the real stack
    assert np.array_equal(d.eigenvalues, sort_eigenvalues(np.linalg.eigvals(d.blocks)))


@PROPERTY
@given(configs(iterations=20, ls=(2, 3, 4)))
@example(ExperimentConfig(problem="advection", coefficient=0.000625, n=16, m=1, l=2, iterations=20))
def test_certified_power_norms_equal_the_pairwise_oracle(cfg):
    # one block per chunk, where every chunk after the first is bounded, certified or solved at
    # each k, and the default chunks, where one chunk solves its largest block alone first; at
    # K = 20 the powers of M = 1 advection (the explicit example) sink into subnormals
    ctx = build_context(cfg)
    for mode in ("tc", "c"):
        d = ctx.decomposition(mode)
        for entries in (d.blocks[0].size, lfa.NORM_CHUNK_ENTRIES):
            chunked = replace(d)  # a fresh cached norm and fresh counts
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lfa, "NORM_CHUNK_ENTRIES", entries)
                norms = lfa.block_power_norms(chunked, cfg.iterations)
                chunks = len(list(chunked.norm_chunks()))
            assert np.array_equal(norms, oracles.pairwise_power_norms(d, cfg.iterations))
            assert sum(chunked.grams.values()) == len(chunked.block_norms) * cfg.iterations  # one per (block, k)
        assert chunks == 1 or mode == "tc"  # every c stack here fits one default chunk


@PROPERTY
@given(configs(iterations=6))
def test_mirror_partners_have_equal_power_norms(cfg):
    # block k and its mirror (N/2 - k) mod N/2, time frequency j with (L - j) mod L in c mode, are
    # B' = Pi conj(B) Pi, and so are their powers; with symmetric stencils c block (k, L - j) is
    # conj(B(k, j)).  The norm kernel walks one block of each orbit, so every power's 2-norm must agree
    # across it
    ctx = build_context(cfg)
    for mode in ("tc", "c") if cfg.l > 1 else ("tc",):  # no c mode at L = 1
        d = ctx.decomposition(mode)
        k, j = d.meta.block_index().T
        h, l = cfg.n // 2, cfg.l
        per = d.meta.blocks_per_pair
        mirror = ((h - k) % h) * per + (((l - j) % l) if mode == "c" else 0)
        partners = [mirror]
        if mode == "c" and d.conjugate_symmetric:
            partners.append(k * per + (l - j) % l)
        power = d.blocks
        for k in range(1, cfg.iterations + 1):
            # round-off in B^k is relative to ||B||^k, at least 1: T is round-off itself at M = L = 1, and
            # M = 1 blocks are nilpotent to round-off
            norms, floor = oracles.norms2(power), 1e-13 * max(d.norm, 1.0) ** k
            for partner in partners:
                np.testing.assert_allclose(norms[partner], norms, rtol=1e-13, atol=floor)
            power = power @ d.blocks


@PROPERTY
@given(
    st.sampled_from(("tc", "c")),
    st.sampled_from((16, 32)),
    st.integers(1, 4),
    st.integers(1, 5),
)
def test_transform_vector_is_unitary_and_inverted(mode, n, l, m):
    # F^H F = I: the transform preserves 2-norms and F^H inverts it
    f = oracles.transform_matrix(lfa.TransformMeta(mode=mode, n=n, l=l, m=m))
    np.testing.assert_allclose(f.conj().T @ f, np.eye(l * m * n), rtol=0, atol=1e-13)


@PROPERTY
@given(
    st.sampled_from((16, 32, 64)),
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_stencil_transfers_equal_the_dense_matrices(n, interp_degree, restr_degree, batch, m, complex_, seed):
    pair = TransferPair(n, midpoint_generator(n // 2, interp_degree), midpoint_generator(n // 2, restr_degree))
    rng = np.random.default_rng(seed)

    def stack(points):
        shape = (*batch, m, points)
        u = rng.standard_normal(shape)
        return u + 1j * rng.standard_normal(shape) if complex_ else u

    coarse, fine = stack(n // 2), stack(n)
    np.testing.assert_allclose(pair.interpolate(coarse), coarse @ pair.interpolation.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(pair.restrict(fine), fine @ pair.restriction.T, rtol=0, atol=1e-14)
    # oracle: coarse point j takes half of fine point 2j, plus half of each odd
    # fine point 2i+1 weighted by the restriction stencil's coefficient for j - i
    nc = n // 2
    oracle = np.zeros((nc, n))
    oracle[np.arange(nc), 2 * np.arange(nc)] = 0.5
    for i in range(nc):
        for offset, coeff in pair.generator_restr.stencil.items():
            oracle[(i + offset) % nc, 2 * i + 1] += 0.5 * coeff
    np.testing.assert_allclose(pair.restriction, oracle, rtol=0, atol=1e-15)


@st.composite
def error_traces(draw):
    """Error histories whose log10 is piecewise linear in 1-4 pieces, exact or noisy, some below the floor."""
    pieces = draw(st.lists(st.tuples(st.integers(1, 10), st.floats(-3.0, 0.5)), min_size=1, max_size=4))
    steps = np.concatenate([np.full(length, slope) for length, slope in pieces])
    noise = draw(st.sampled_from((0.0, 1e-13, 1e-6, 1e-2, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return 10.0 ** (np.concatenate([[0.0], np.cumsum(steps)]) + noise * rng.standard_normal(len(steps) + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(error_traces())
def test_phase_splits_are_the_exhaustive_minima(errors):
    # the chosen splits are those of refitting every split, so the slopes keep their bits
    assert detect_phases(errors) == oracles.exhaustive_phases(errors)


@st.composite
def analyze_fields(draw):
    """ExperimentConfig fields over a wide range, n = 2 (mod 4), the Nyquist wavenumber and c mode at l = 1 included."""
    problem = draw(st.sampled_from(("diffusion", "advection")))
    n = draw(st.sampled_from((16, 18, 20, 24, 26, 32, 34)))
    physics = 10.0 ** draw(st.floats(-8.0, 8.0))
    return {
        "problem": problem,
        "n": n,
        "m": draw(st.integers(1, 3)),
        "l": draw(st.integers(1, 3)),
        "dt": 10.0 ** draw(st.floats(-12.0, 6.0)),
        ("mu" if problem == "diffusion" else "coefficient"): physics,
        "wavenumber": draw(st.integers(1, n - 1)),
        "iterations": draw(st.sampled_from((0, 3))),
        "strategies": ("rho", "apply"),
        "blocks": draw(st.sampled_from((("tc",), ("c",), ("tc", "c")))),
    }


def _flag(name, value) -> str:
    """The analyze option that sets config field ``name`` to ``value``: floats exactly, name lists comma-joined."""
    if isinstance(value, tuple):
        return f"--{name}={','.join(value)}"
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(analyze_fields())
def test_analyze_runs_exactly_what_the_config_accepts(fields):
    # a refused config exits 2 with the config's own message and writes nothing; an accepted one runs
    try:
        ExperimentConfig(**fields)
        expected, message = EXIT_OK, None
    except ConfigurationError as exc:
        expected, message = EXIT_USAGE, f"pfasst-lfa: error: {exc}"
    flags = [_flag(name, value) for name, value in fields.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(["analyze", *flags, "--out", str(out)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code == expected, err.getvalue()
        if expected == EXIT_OK:
            assert sorted(p.name for p in out.iterdir()) == ["report.json", "spectrum.csv", "timings.json", "trace.csv"]
        else:
            assert not out.exists()
            assert err.getvalue().strip().splitlines()[-1] == message


# analyze flag values: the first ones in each row are in range for some config, the rest are not
ARGV_VALUES = {
    "n": ((16, 32), (-4, 0, 6)),
    "m": ((1, 3), (0, 13)),
    "l": ((1, 2), (0,)),
    "wavenumber": ((1, 8), (0, 16)),
    "iterations": ((0, 3), (-1,)),
    "physics": ((1e-3, 10), (-1, 0)),
    "blocks": (("tc", "c", "full"), ("fft",)),
    "strategies": (STRATEGIES, ("psychic",)),
}


@st.composite
def analyze_argvs(draw):
    """analyze flags: in range but for up to two fields, which draw from all their values, unknown names included."""
    wild = draw(st.sets(st.sampled_from(tuple(ARGV_VALUES)), max_size=2))
    pick = {name: valid + invalid if name in wild else valid for name, (valid, invalid) in ARGV_VALUES.items()}
    problem = draw(st.sampled_from(("diffusion", "advection")))
    mu_allowed = problem == "diffusion" or "physics" in wild  # mu with advection is refused
    physics = draw(st.sampled_from(("mu", "coefficient") if mu_allowed else ("coefficient",)))
    flags = {name: draw(st.sampled_from(pick[name])) for name in ("n", "m", "l", "wavenumber", "iterations")}
    flags |= {"problem": problem, physics: draw(st.sampled_from(pick["physics"]))}
    for name in ("blocks", "strategies"):
        flags[name] = ",".join(draw(st.lists(st.sampled_from(pick[name]), min_size=1, max_size=3, unique=True)))
    return [f"--{name}={value}" for name, value in flags.items()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(analyze_argvs())
def test_analyze_ends_every_argv_with_an_exit_code(argv):
    # a refused flag exits 2 (argparse's SystemExit); any other exception would escape as a traceback
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["analyze", *argv, "--out", str(Path(tmp) / "out")])
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_VERIFICATION)
