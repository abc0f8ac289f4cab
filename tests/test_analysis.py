"""Error vectors, prediction strategies and phase detection."""

from collections import Counter

import numpy as np
import pytest

from pfasst_lfa import analysis, lfa, solvers
from pfasst_lfa.analysis import (
    ExperimentConfig,
    asymptotic_ratio,
    build_context,
    detect_phases,
    error_vector,
    exact_trajectory,
    excited_blocks,
    manufactured_rhs,
    node_times,
    predict,
    run_and_compare,
)
from pfasst_lfa.errors import ConfigurationError, RangeError


def _small_cfg(problem="diffusion", **kw):
    defaults = dict(n=16, m=3, l=4, dt=0.1, wavenumber=2, iterations=5)
    if problem == "diffusion":
        defaults["mu"] = 10.0
    else:
        defaults["coefficient"] = 4.88e-3
    defaults.update(kw)
    return ExperimentConfig(problem=problem, **defaults)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="wave", coefficient=1.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="advection", mu=10.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="diffusion", coefficient=1.0, mu=10.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="diffusion")
    with pytest.raises(RangeError):
        ExperimentConfig(problem="diffusion", mu=1.0, iterations=-1)


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("dt", -0.1, RangeError),
        ("dt", 0.0, RangeError),
        ("dt", float("inf"), RangeError),
        ("dt", float("nan"), RangeError),
        ("mu", -1.0, RangeError),
        ("mu", 0.0, RangeError),
        ("mu", float("nan"), RangeError),
        ("mu", float("inf"), RangeError),
        ("mu", 1e-320, RangeError),  # positive, but mu*dx^2/dt underflows to 0
        ("coefficient", float("nan"), RangeError),
        ("coefficient", float("inf"), RangeError),
        ("coefficient", -0.5, RangeError),
        ("l", 0, RangeError),
        ("m", 0, RangeError),
        ("m", 13, RangeError),
        ("n", 33, RangeError),
        ("n", 8, RangeError),
        ("n", 4, RangeError),
        ("wavenumber", 0, RangeError),
        ("wavenumber", 200, RangeError),
        ("wavenumber", 64, RangeError),  # the Nyquist mode n/2
        ("qdelta_kind", "rk4", ConfigurationError),
        ("interp_exactness", 0, RangeError),
    ],
)
def test_config_rejects_invalid_field_by_name(field, value, error):
    if field == "coefficient":
        kwargs = {"problem": "advection", "coefficient": 1e-2}
    else:
        kwargs = {"problem": "diffusion", "mu": 10.0}
    kwargs.update({"n": 128, field: value})
    with pytest.raises(error, match=field):
        ExperimentConfig(**kwargs)


def test_config_accepts_the_edges_of_each_range():
    ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=12, l=1, wavenumber=15, qdelta_kind="lu")
    ExperimentConfig(problem="advection", coefficient=1e-3, n=16, m=1, wavenumber=1)


def test_mu_resolves_to_parabolic_mesh_ratio():
    cfg = ExperimentConfig(problem="diffusion", mu=10.0)
    assert cfg.resolved_coefficient() == pytest.approx(10.0 * (1.0 / 128) ** 2 / 0.1)
    assert cfg.resolved_coefficient() == pytest.approx(6.1035e-3, rel=1e-3)


def test_default_qdelta_kinds_per_problem():
    assert ExperimentConfig(problem="diffusion", mu=1.0).resolved_qdelta_kind() == "implicit-euler"
    assert (
        ExperimentConfig(problem="advection", coefficient=1e-3).resolved_qdelta_kind() == "lu"
    )
    cfg = ExperimentConfig(problem="diffusion", mu=1.0, qdelta_kind="lu")
    assert cfg.resolved_qdelta_kind() == "lu"


def test_node_times_layout():
    cfg = _small_cfg()
    ctx = build_context(cfg)
    rule = ctx.setup.fine.rule
    times = node_times(cfg, rule)
    assert times.shape == (4, 3)
    np.testing.assert_allclose(times[0], 0.1 * rule.nodes)
    np.testing.assert_allclose(times[2], 0.2 + 0.1 * rule.nodes)


def test_diffusion_initial_error_tensor_form():
    cfg = _small_cfg()
    ctx = build_context(cfg)
    e0 = error_vector(ctx, ctx.initial_iterate).reshape(cfg.l, cfg.m, cfg.n)
    nu, k = cfg.resolved_coefficient(), cfg.wavenumber
    x = np.arange(cfg.n) / cfg.n
    times = node_times(cfg, ctx.setup.fine.rule)
    for i in range(cfg.l):
        for j in range(cfg.m):
            expected = (1.0 - np.exp(-nu * (2 * np.pi * k) ** 2 * times[i, j])) * np.sin(
                2 * np.pi * k * x
            )
            np.testing.assert_allclose(e0[i, j], expected, atol=1e-13)


def test_advection_initial_error_entries():
    cfg = _small_cfg("advection")
    ctx = build_context(cfg)
    e0 = error_vector(ctx, ctx.initial_iterate).reshape(cfg.l, cfg.m, cfg.n)
    c, k = cfg.resolved_coefficient(), cfg.wavenumber
    x = np.arange(cfg.n) / cfg.n
    times = node_times(cfg, ctx.setup.fine.rule)
    for i in range(cfg.l):
        for j in range(cfg.m):
            expected = np.sin(2 * np.pi * k * x) - np.sin(2 * np.pi * k * (x - c * times[i, j]))
            np.testing.assert_allclose(e0[i, j], expected, atol=1e-13)


def test_initial_error_vanishes_as_dt_goes_to_zero():
    # continuity: the first node time tends to 0 with dt, and so does e0
    norms = []
    for dt in (0.1, 0.01, 0.001):
        cfg = _small_cfg(dt=dt, l=1, mu=None, coefficient=2e-2)
        ctx = build_context(cfg)
        norms.append(np.linalg.norm(error_vector(ctx, ctx.initial_iterate)))
    assert norms[2] < norms[1] < norms[0]
    assert norms[2] < 2e-2 * norms[0]


def test_manufactured_rhs_makes_analytic_samples_the_discrete_solution():
    cfg = _small_cfg()
    ctx = build_context(cfg)
    rhs = np.concatenate(manufactured_rhs(ctx))
    solution = np.linalg.solve(ctx.setup.composite_matrix, rhs)
    np.testing.assert_allclose(solution, exact_trajectory(ctx), atol=1e-11)


def test_excited_blocks_pairing():
    cfg = _small_cfg(wavenumber=2)  # n = 16: harmonics 2 and 14 -> blocks 2, 6
    assert excited_blocks(cfg) == {2, 6}
    cfg = _small_cfg(wavenumber=4)  # harmonics 4 and 12 -> blocks 4
    assert excited_blocks(cfg) == {4}


def test_strategy4_harmonic_restriction_is_lossless():
    cfg = _small_cfg(iterations=6)
    ctx = build_context(cfg)
    restricted = predict(ctx, "apply", "tc", restrict_harmonics=True).values
    full = predict(ctx, "apply", "tc", restrict_harmonics=False).values
    np.testing.assert_allclose(restricted, full, rtol=1e-10)


def test_predictions_full_mode_agree_with_tc_mode():
    cfg = _small_cfg(iterations=4)
    ctx = build_context(cfg)
    for strategy in ("rho", "norm", "norm-power", "apply"):
        tc = predict(ctx, strategy, "tc").values
        full = predict(ctx, strategy, "full").values
        # the dense eigensolver scatters defective eigenvalues, so the
        # spectral radius agrees less tightly than the norm quantities
        rtol = 1e-3 if strategy == "rho" else 1e-7
        np.testing.assert_allclose(tc, full, rtol=rtol, atol=1e-12)


def test_full_mode_predictions_equal_the_dense_matrix_oracle():
    # the one-block identity decomposition against T used directly
    cfg = _small_cfg(iterations=6)
    ctx = build_context(cfg)
    t = ctx.decomposition("full").blocks[0]
    assert t.shape == (cfg.l * cfg.m * cfg.n,) * 2 and np.isrealobj(t)
    e0 = ctx.initial_error
    k = np.arange(cfg.iterations + 1)
    rho = np.max(np.abs(np.linalg.eigvals(t)))
    nrm = np.linalg.norm(t, 2)
    e0_norm = np.linalg.norm(e0)
    powers = [np.linalg.matrix_power(t, p) for p in k]
    oracle = {
        "rho": e0_norm * rho**k,
        "norm": e0_norm * nrm**k,
        "norm-power": np.array([np.linalg.norm(p, 2) for p in powers]) * e0_norm,
        "apply": np.array([np.linalg.norm(p @ e0.astype(complex)) for p in powers]),
    }
    for strategy, expected in oracle.items():
        got = predict(ctx, strategy, "full").values
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14 * e0_norm)


def test_predict_rejects_unknown_names():
    ctx = build_context(_small_cfg())
    with pytest.raises(ConfigurationError):
        predict(ctx, "magic", "tc")
    with pytest.raises(ConfigurationError):
        predict(ctx, "rho", "banded")


def test_run_and_compare_strategy4_exactness_small():
    trace = run_and_compare(_small_cfg(iterations=8))
    ap = trace.prediction("apply", "tc").values
    mask = trace.actual_2 > 1e-13
    rel = np.abs(ap[mask] - trace.actual_2[mask]) / trace.actual_2[mask]
    assert np.max(rel) < 1e-8


def test_run_and_compare_measurement_consistency():
    trace = run_and_compare(_small_cfg(iterations=6))
    # propagated and subtracted error measurements describe the same run
    assert trace.consistency_gap() < 1e-11
    ctx = build_context(trace.cfg)
    assert trace.actual_2[0] == pytest.approx(np.linalg.norm(error_vector(ctx, ctx.initial_iterate)))


def test_run_and_compare_builds_each_operator_once(monkeypatch):
    calls = Counter()
    cfg = _small_cfg(iterations=6)
    full_dim = cfg.l * cfg.m * cfg.n

    def counting(owner, name, key=None, when=lambda *a: True):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if when(*args):
                calls[key or name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("tc_decompose", "c_decompose", "block_spectra"):
        counting(lfa, name)
    for name in ("build_qdelta", "composite_system", "pfasst_iteration_matrix"):
        counting(solvers, name)
    counting(analysis, "exact_trajectory")
    counting(analysis, "exact_solution")
    counting(np.linalg, "eigvals", "full eigvals", lambda a: a.shape[-1] == full_dim)
    counting(np.linalg, "eigvals")  # one batched call per block mode
    trace = run_and_compare(cfg, block_modes=("tc", "c", "full"))
    assert calls == {
        "tc_decompose": 1,
        "c_decompose": 1,
        "block_spectra": 3,
        "build_qdelta": 1,
        "composite_system": 1,
        "pfasst_iteration_matrix": 1,
        "exact_trajectory": 1,
        "exact_solution": cfg.l * cfg.m + 1,  # the trajectory's node times and u0, each once
        "full eigvals": 1,
        "eigvals": 3,
    }
    # the shared spectra are the ones the trace reports
    ctx = trace.context
    assert trace.aggregates["tc"]["rho"] == ctx.spectra("tc").spectral_radius
    assert trace.aggregates["full"]["norm"] == ctx.spectra("full").norm


@pytest.mark.parametrize("mode", ["tc", "c"])
def test_run_and_compare_builds_no_dense_collocation_matrix(mode):
    ctx = run_and_compare(_small_cfg(), block_modes=(mode,)).context
    assert "matrix" not in vars(ctx.setup.fine) and "matrix" not in vars(ctx.setup.coarse)
    assert "a" not in vars(ctx.setup.fine) and "a" not in vars(ctx.setup.coarse)  # no N x N spatial matrix
    for dense in ("p_fine", "p_coarse", "composite_matrix", "composite_preconditioners", "iteration_matrix"):
        assert dense not in vars(ctx.setup)
    assert "interpolation" not in vars(ctx.setup.pair) and "restriction" not in vars(ctx.setup.pair)
    assert "fine_sweep" in vars(ctx.setup)


def test_run_and_compare_k0_gives_single_row():
    trace = run_and_compare(_small_cfg(iterations=0), strategies=("rho",))
    assert len(trace.actual_2) == 1
    assert len(trace.prediction("rho", "tc").values) == 1


def test_bound_chain_small():
    trace = run_and_compare(_small_cfg(iterations=8))
    s2 = trace.prediction("norm", "tc").values
    s3 = trace.prediction("norm-power", "tc").values
    assert np.all(trace.actual_2 <= s3 * (1 + 1e-12))
    assert np.all(s3 <= s2 * (1 + 1e-12))


def test_detect_phases_synthetic_two_slopes():
    errors = np.concatenate([10.0 ** (-2 * np.arange(6)), 1e-10 * 10.0 ** (-0.3 * np.arange(1, 9))])
    seg = detect_phases(errors)
    assert seg.count >= 2
    assert seg.slopes[0] < seg.slopes[-1] < 0  # first phase steeper


def test_detect_phases_single_slope():
    errors = 10.0 ** (-0.8 * np.arange(12))
    seg = detect_phases(errors)
    assert seg.count == 1
    assert seg.slopes[0] == pytest.approx(-0.8, abs=1e-10)


def test_detect_phases_excludes_round_off_floor():
    errors = np.concatenate([10.0 ** (-2.0 * np.arange(8)), np.full(10, 1e-16)])
    seg = detect_phases(errors)
    assert seg.count == 1


def test_asymptotic_ratio_of_geometric_decay():
    errors = 5.0 * 0.37 ** np.arange(30)
    assert asymptotic_ratio(errors) == pytest.approx(0.37, rel=1e-10)
    with pytest.raises(RangeError):
        asymptotic_ratio(np.array([1.0, 0.5]))
