"""Property tests: the algorithmic run, the matrix form and the blocks agree on small random configs.

Configurations are drawn from n in {16, 32}, m in 1..5, l in 1..4, both
problems and both Q_Delta kinds; mu is log-uniform on [1, 100] and the
advection CFL number c*dt/dx on [0.01, 1].  The stencil transfers are
checked on n in {16, 32, 64}, every exactness degree 1..6 and real or
complex stacks.  The draws are derandomized, so every run of the suite
checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfasst_lfa import lfa
from pfasst_lfa.analysis import ExperimentConfig, build_context, run_and_compare
from pfasst_lfa.cli import strategy4_exact
from pfasst_lfa.collocation import composite_system, spread_initial
from pfasst_lfa.quadrature import QDELTA_KINDS
from pfasst_lfa.solvers import pfasst_run_algorithmic, pfasst_step_matrix
from pfasst_lfa.transfer import build_ci_pair

DT = 0.1
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw, iterations=6):
    problem = draw(st.sampled_from(("diffusion", "advection")))
    n = draw(st.sampled_from((16, 32)))
    exponent = draw(st.floats(0.0, 2.0))
    if problem == "diffusion":
        physics = {"mu": 10.0**exponent}
    else:
        physics = {"coefficient": 10.0 ** (exponent - 2.0) / (n * DT)}
    return ExperimentConfig(
        problem=problem,
        n=n,
        m=draw(st.integers(1, 5)),
        l=draw(st.integers(1, 4)),
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
    comp = composite_system(setup.fine, cfg.l, u0)
    p_gs, p_j = setup.composite_preconditioners
    trace = pfasst_run_algorithmic(setup, comp.rhs, spread_initial(u0, cfg.m, cfg.l), cfg.iterations)
    u = trace[0]
    for k in range(1, cfg.iterations + 1):
        u = pfasst_step_matrix(p_gs, p_j, setup.pair, comp.matrix, comp.rhs, u, cfg.m, cfg.l)
        np.testing.assert_allclose(trace[k], u, rtol=0, atol=1e-12)


@PROPERTY
@given(configs(iterations=10))
def test_tc_apply_reproduces_the_run(cfg):
    trace = run_and_compare(cfg, strategies=("apply",))
    assert strategy4_exact(trace.actual_2, trace.prediction("apply", "tc").values)


@PROPERTY
@given(
    st.sampled_from(("time-collocation", "collocation")),
    st.sampled_from((16, 32)),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_transform_vector_is_unitary_and_inverted(mode, n, l, m, seed):
    meta = lfa.TransformMeta(mode=mode, n=n, l=l, m=m)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(l * m * n) + 1j * rng.standard_normal(l * m * n)
    vhat = lfa.transform_vector(v, meta)
    assert abs(np.linalg.norm(vhat) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)
    np.testing.assert_allclose(lfa.inverse_transform_vector(vhat, meta), v, rtol=0, atol=1e-13)


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
    pair = build_ci_pair(n, interp_degree, restr_degree)
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
