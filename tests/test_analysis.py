"""Error vectors, prediction strategies and phase detection."""

import inspect
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import asymptotic_ratio
from pfasst_lfa import analysis, lfa, solvers
from pfasst_lfa.analysis import (
    ExperimentConfig,
    build_context,
    detect_phases,
    exact_trajectory,
    excited_blocks,
    manufactured_rhs,
    node_times,
    predict,
    run_and_compare,
)
from pfasst_lfa.errors import ConfigurationError, RangeError
from pfasst_lfa.linalg import sort_eigenvalues


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
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="diffusion", mu=1.0, iterations=-1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", -0.1),
        ("dt", 0.0),
        ("dt", float("inf")),
        ("dt", float("nan")),
        ("mu", -1.0),
        ("mu", 0.0),
        ("mu", float("nan")),
        ("mu", float("inf")),
        ("mu", 1e-320),  # positive, but mu*dx^2/dt underflows to 0
        ("coefficient", float("nan")),
        ("coefficient", float("inf")),
        ("coefficient", -0.5),
        ("l", 0),
        ("m", 0),
        ("m", 13),
        ("n", 33),
        ("n", 8),
        ("n", 4),
        ("n", 18),  # the coarse grid n/2 = 9 is odd
        ("wavenumber", 0),
        ("wavenumber", 200),
        ("wavenumber", 64),  # the Nyquist mode n/2
        ("qdelta_kind", "rk4"),
        ("strategies", ()),
        ("strategies", ("rho", "psychic")),
        ("blocks", ("tc", "fft")),
        ("blocks", ()),
        ("iterations", -1),
        ("n", 32.0),  # an integer value of the wrong type fails deep in the build
        ("m", 3.0),
        ("l", 4.0),
        ("wavenumber", 1.5),
    ],
)
def test_config_rejects_invalid_field_by_name(field, value):
    if field == "coefficient":
        kwargs = {"problem": "advection", "coefficient": 1e-2}
    else:
        kwargs = {"problem": "diffusion", "mu": 10.0}
    kwargs.update({"n": 128, field: value})
    with pytest.raises(ConfigurationError, match=field):
        ExperimentConfig(**kwargs)


def test_config_accepts_the_edges_of_each_range():
    ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=12, l=1, wavenumber=15, qdelta_kind="lu")
    ExperimentConfig(problem="advection", coefficient=1e-3, n=16, m=1, wavenumber=1)


def test_config_keeps_a_numpy_integer_as_an_int():
    cfg = ExperimentConfig(problem="diffusion", mu=10.0, n=np.int64(32), m=np.int32(3), iterations=np.uint8(4))
    assert (cfg.n, cfg.m, cfg.iterations) == (32, 3, 4)
    assert all(type(v) is int for v in (cfg.n, cfg.m, cfg.iterations))
    with pytest.raises(ConfigurationError, match="iterations must be an integer, got True"):
        ExperimentConfig(problem="diffusion", mu=10.0, iterations=True)
    # a real float field of any type is kept as given
    cfg = ExperimentConfig(problem="diffusion", mu=np.float32(10.0), dt=1)
    assert type(cfg.mu) is np.float32 and type(cfg.dt) is int


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", "0.1"),  # each of these failed in numpy or resolved_coefficient with a TypeError
        ("dt", 1j),
        ("dt", None),
        ("dt", True),  # ran as dt = 1.0
        ("mu", "10"),
        ("mu", 10j),
        ("mu", False),
        ("coefficient", "0.01"),
        ("coefficient", 0.01 + 0j),
        ("coefficient", True),
    ],
)
def test_config_refuses_a_float_field_that_is_not_a_real_number(field, value):
    if field == "coefficient":
        kwargs = {"problem": "advection", "coefficient": value}
    else:
        kwargs = {"problem": "diffusion", "mu": 10.0, field: value}
    with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be a real number, got {value!r}")):
        ExperimentConfig(**kwargs)


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
    e0 = ctx.initial_error.reshape(cfg.l, cfg.m, cfg.n)
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
    e0 = ctx.initial_error.reshape(cfg.l, cfg.m, cfg.n)
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
        norms.append(np.linalg.norm(ctx.initial_error))
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
    restricted = predict(ctx, "apply", "tc")
    # every block applied, from the same initial error
    d = ctx.decomposition("tc")
    ehat = lfa.transform_vector(ctx.initial_error, d.meta)
    full = [np.linalg.norm(ehat)]
    for _ in range(cfg.iterations):
        ehat = oracles.apply_blocks(d, ehat)
        full.append(np.linalg.norm(ehat))
    np.testing.assert_allclose(restricted, full, rtol=1e-10)


def test_predictions_full_mode_agree_with_tc_mode():
    cfg = _small_cfg(iterations=4)
    ctx = build_context(cfg)
    for strategy in ("rho", "norm", "norm-power", "apply"):
        tc = predict(ctx, strategy, "tc")
        full = predict(ctx, strategy, "full")
        # the dense eigensolver scatters defective eigenvalues, so the
        # spectral radius agrees less tightly than the norm quantities
        rtol = 1e-3 if strategy == "rho" else 1e-7
        np.testing.assert_allclose(tc, full, rtol=rtol, atol=1e-12)


def test_full_mode_predictions_equal_the_dense_matrix_oracle():
    # the one-block identity decomposition, T's first block column, against the assembled T used directly; T is
    # block lower triangular Toeplitz, so its spectral radius is its diagonal block's
    cfg = _small_cfg(iterations=6)
    ctx = build_context(cfg)
    t, w = oracles.iteration_matrix(ctx.setup), cfg.m * cfg.n
    column = ctx.decomposition("full").blocks[0]
    assert column.shape == (cfg.l * w, w) and np.isrealobj(column) and np.array_equal(column, t[:, :w])
    e0 = ctx.initial_error
    k = np.arange(cfg.iterations + 1)
    rho = np.max(np.abs(np.linalg.eigvals(t[:w, :w])))
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
        got = predict(ctx, strategy, "full")
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14 * e0_norm)


def test_config_checks_the_strategy_and_block_names():
    # an unknown name is refused at the config (test_config_rejects_invalid_field_by_name), so predict and
    # decomposition never see one; c mode builds no block at j = 0, the only time frequency at l = 1
    with pytest.raises(ConfigurationError, match=r"blocks: c mode needs l >= 2.*got l=1"):
        _small_cfg(l=1, blocks=("tc", "c"))
    assert _small_cfg(l=1).blocks == ("tc",)
    # a repeated name is kept once, where it was first given
    cfg = _small_cfg(strategies=("rho", "apply", "rho"), blocks=("c", "tc", "c"))
    assert (cfg.strategies, cfg.blocks) == (("rho", "apply"), ("c", "tc"))


@pytest.mark.parametrize(
    "field,value", [("strategies", "rho"), ("strategies", "apply"), ("blocks", "tc"), ("blocks", "c")]
)
def test_config_refuses_a_bare_string_of_names(field, value):
    # a string was read letter by letter: "c" as ("c",), "tc" as ("t", "c")
    with pytest.raises(ConfigurationError, match=f"{field} must be a tuple of names, got the string '{value}'"):
        _small_cfg(**{field: value})


@pytest.mark.parametrize(
    "field,value,shown",
    [("strategies", None, "None"), ("blocks", 5, "5"), ("strategies", ("rho", ["apply"]), r"\('rho', \['apply'\]\)")],
    ids=["none", "not-iterable", "unhashable-entry"],
)
def test_config_refuses_names_that_are_not_a_tuple_of_strings(field, value, shown):
    # each raised a bare TypeError: None and 5 from iterating them, ["apply"] from hashing it
    with pytest.raises(ConfigurationError, match=f"^{field} must be a tuple of names, got {shown}$"):
        _small_cfg(**{field: value})


def test_run_and_compare_strategy4_exactness_small():
    trace = run_and_compare(_small_cfg(iterations=8))
    ap = trace.predictions["apply", "tc"]
    mask = trace.actual_2 > 1e-13
    rel = np.abs(ap[mask] - trace.actual_2[mask]) / trace.actual_2[mask]
    assert np.max(rel) < 1e-8


def test_run_and_compare_measurement_consistency():
    trace = run_and_compare(_small_cfg(iterations=6))
    # propagated and subtracted error measurements describe the same run
    assert trace.consistency_gap() < 1e-11
    ctx = build_context(trace.context.cfg)
    assert trace.actual_2[0] == pytest.approx(np.linalg.norm(ctx.initial_error))


@pytest.mark.parametrize("spare_core", [True, False])
def test_run_and_compare_builds_each_operator_once(monkeypatch, worker_takes_every_chunk, spare_core):
    # each tc and c stack is one eigenvalue chunk (at most 192 rows), and the main thread takes none back; full
    # mode's one chunk is T's diagonal block T_00, solved on the main thread
    monkeypatch.setattr(analysis, "_spare_core", lambda: spare_core)
    calls = Counter()
    cfg = _small_cfg(iterations=6, blocks=("tc", "c", "full"))
    width = cfg.m * cfg.n

    def counting(owner, name, key=None, when=lambda *a: True):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if when(*args):
                calls[key or name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("tc_decompose", "c_decompose", "block_spectra"):
        counting(lfa, name)
    # given a spare core, tc's and c's eigvals run on the worker thread; block_spectra always runs on this one
    main_thread = threading.main_thread()
    counting(lfa, "block_spectra", "main-thread block_spectra", lambda *a: threading.current_thread() is main_thread)
    counting(analysis, "build_qdelta")
    # M and T themselves are never assembled (test_run_and_compare_assembles_no_dense_composite_or_iteration_matrix)
    counting(solvers, "pfasst_iteration_column")
    counting(analysis, "exact_trajectory")
    counting(analysis, "pfasst_run_algorithmic")  # the error run and the manufactured run, stacked
    counting(analysis, "exact_solution")
    counting(
        np.linalg,
        "eigvals",
        "main-thread T_00 eigvals",
        lambda a: a.shape == (1, width, width) and threading.current_thread() is main_thread,
    )
    counting(np.linalg, "eigvals")  # one batched call per block mode
    counting(np.linalg, "eigvals", "worker eigvals", lambda a: threading.current_thread() is not main_thread)
    solved = []  # every chunk is solved exactly once, on one thread or the other (records, counts nothing)
    counting(np.linalg, "eigvals", "chunk", lambda a: solved.append((a.__array_interface__["data"][0], a.shape)))
    trace = run_and_compare(cfg)
    assert calls == {
        "tc_decompose": 1,
        "c_decompose": 1,
        "block_spectra": 3,
        "main-thread block_spectra": 3,
        "build_qdelta": 1,
        "pfasst_iteration_column": 1,
        "exact_trajectory": 1,
        "pfasst_run_algorithmic": 1,
        "exact_solution": cfg.l * cfg.m + 1,  # the trajectory's node times and u0, each once
        "main-thread T_00 eigvals": 1,
        "eigvals": 3,
    } | ({"worker eigvals": 2} if spare_core else {})
    assert len(set(solved)) == len(solved) == 3
    chunks = {mode: trace.context.decomposition(mode).eigvals_chunks for mode in cfg.blocks}
    main = {"tc": 1 - spare_core, "c": 1 - spare_core, "full": 1}
    assert chunks == {mode: {"chunks": 1, "main_thread": main[mode]} for mode in cfg.blocks}
    # the aggregates the trace reports are each decomposition's own cached values
    for mode in ("tc", "c", "full"):
        d = trace.context.decomposition(mode)
        assert trace.aggregates[mode]["rho"] is d.spectral_radius
        assert trace.aggregates[mode]["norm"] is d.norm


def test_run_and_compare_equals_the_serial_computation_bitwise(monkeypatch):
    # the worker's solves, interleaved with the main thread at a 1 us switch interval, give the serial values
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    cfg = _small_cfg("advection", iterations=6, blocks=("tc", "c", "full"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = run_and_compare(cfg)
    finally:
        sys.setswitchinterval(interval)
    ctx = build_context(cfg)  # no worker: every value computed in this thread, in request order
    for mode in cfg.blocks:
        d = ctx.decomposition(mode)
        assert np.array_equal(trace.context.decomposition(mode).eigenvalues, d.eigenvalues)
        assert trace.aggregates[mode] == {"rho": d.spectral_radius, "norm": d.norm}
        for strategy in cfg.strategies:
            assert np.array_equal(trace.predictions[strategy, mode], predict(ctx, strategy, mode))


@pytest.mark.parametrize("spare_core", [True, False])
def test_the_dense_route_equals_the_serial_computation_bitwise(monkeypatch, spare_core):
    # tc,full at K = 20 with or without the eigenvalue worker, at a 1 us switch interval: full mode's 2-norms
    # never reach the worker, and the tc chunks it solves give one call's bits
    cfg = _small_cfg("advection", iterations=20, blocks=("tc", "full"))
    monkeypatch.setattr(analysis, "_spare_core", lambda: spare_core)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = run_and_compare(cfg)
    finally:
        sys.setswitchinterval(interval)
    ctx = build_context(cfg)  # no worker: every value computed in this thread, in request order
    for mode in cfg.blocks:
        for strategy in cfg.strategies:
            expected = predict(ctx, strategy, mode)
            assert np.array_equal(trace.predictions[strategy, mode].view(np.uint64), expected.view(np.uint64))
        assert trace.context.decomposition(mode).grams == ctx.decomposition(mode).grams


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_and_compare(_small_cfg(iterations=2, blocks=("tc", "c", "full"))),
        lambda: run_and_compare(_small_cfg(iterations=20, blocks=("tc", "full"))),  # norm-power's 19 full-mode norms
    ],
    ids=["tc-c-full", "tc-full-k20"],
)
def test_the_worker_thread_runs_no_package_code(monkeypatch, worker_takes_every_chunk, run):
    # the worker makes only numpy's eigvals calls, so a per-thread profile of this package sees one thread;
    # it takes every eigenvalue chunk here, and full mode's 2-norms stay on the main thread
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    package = str(Path(analysis.__file__).parent)
    # numpy.linalg's public functions, by the code of their implementations
    linalg = {f.__wrapped__.__code__: name for name, f in vars(np.linalg).items() if hasattr(f, "__wrapped__")}
    seen, worker_linalg = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code.co_filename.startswith(package):
            seen.append(frame.f_code.co_name)
        elif frame.f_code in linalg and threading.current_thread() is not threading.main_thread():
            worker_linalg.append(linalg[frame.f_code])

    threading.setprofile(profile)  # every thread started from here on
    try:
        run()
    finally:
        threading.setprofile(None)
    assert seen == []
    assert set(worker_linalg) == {"eigvals"}


def test_lu_solves_stay_on_the_main_thread(monkeypatch):
    # two threads calling scipy's lu_solve on one LU factorization can return wrong solutions: given a spare
    # core, the worker still runs no Preconditioner.solve, in an analysis or in verify
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    solve, threads = solvers.Preconditioner.solve, []

    def recording(self, rhs):
        threads.append(threading.current_thread())
        return solve(self, rhs)

    monkeypatch.setattr(solvers.Preconditioner, "solve", recording)
    trace = run_and_compare(_small_cfg(iterations=20, blocks=("tc", "full")))
    assert trace.context.decomposition("full").grams["solved"] == 1 + 19
    analyzed = len(threads)
    assert all(residual <= tol for _, residual, tol in analysis.verify_checks("small"))
    assert 0 < analyzed < len(threads) and set(threads) == {threading.main_thread()}


# multi-chunk stacks: 32 tc blocks of 96 (3 chunks), 256 tc blocks of 40 (10), 512 c blocks of 6 (3)
MULTI_CHUNK = [
    (dict(n=64, l=16, blocks=("tc",)), {"tc": 3}),
    (dict(n=512, m=5, l=4, blocks=("tc",)), {"tc": 10}),
    (dict(n=64, l=16, blocks=("c",)), {"c": 3}),
]


def _multi_chunk_cfg(**kw):
    return _small_cfg("advection", iterations=2, strategies=("rho", "norm", "apply"), **kw)


def _chunk_starts(d):
    return sorted(d.blocks[rows].__array_interface__["data"][0] for rows in lfa.spectrum_chunks(*d.blocks.shape[:2]))


@pytest.mark.parametrize("kw, chunks", MULTI_CHUNK, ids=["tc-n64-l16", "tc-n512-l4", "c-n64-l16"])
def test_streamed_chunks_equal_one_batched_call(monkeypatch, kw, chunks):
    # the chunks go to the worker while the stack is still being built, and the main thread takes back
    # the ones the worker has not started; at a 1 us switch interval the spectra are one eigvals call's
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    cfg = _multi_chunk_cfg(**kw)
    eigvals, starts = np.linalg.eigvals, []

    def recording(a):
        starts.append(a.__array_interface__["data"][0])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = run_and_compare(cfg)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    # each chunk solved exactly once, on one thread or the other
    decompositions = [trace.context.decomposition(mode) for mode in cfg.blocks]
    assert sorted(starts) == sorted(start for d in decompositions for start in _chunk_starts(d))
    counted = {mode: d.eigvals_chunks for mode, d in zip(cfg.blocks, decompositions)}
    assert {mode: counts["chunks"] for mode, counts in counted.items()} == chunks
    assert all(0 <= counts["main_thread"] <= counts["chunks"] for counts in counted.values())
    ctx = build_context(cfg)
    for mode in cfg.blocks:
        d = ctx.decomposition(mode)
        assert np.array_equal(trace.context.decomposition(mode).eigenvalues, sort_eigenvalues(eigvals(d.blocks)))
        assert trace.aggregates[mode] == {"rho": d.spectral_radius, "norm": d.norm}
        for strategy in cfg.strategies:
            assert np.array_equal(trace.predictions[strategy, mode], predict(ctx, strategy, mode))


def test_a_slow_first_chunk_leaves_the_later_ones_to_the_main_thread(monkeypatch):
    # the worker's first chunk waits until the main thread has solved the two others itself
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    cfg = _multi_chunk_cfg(n=64, l=16, blocks=("tc",))
    eigvals, main_thread = np.linalg.eigvals, threading.main_thread()
    threads, later_ones_solved = [], threading.Event()

    def slow_first(a):
        threads.append(threading.current_thread())
        if threads[-1] is not main_thread:
            later_ones_solved.wait(30)
        elif threads.count(main_thread) == 2:
            later_ones_solved.set()
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", slow_first)
    trace = run_and_compare(cfg)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    assert later_ones_solved.is_set()
    assert [t is main_thread for t in threads] == [False, True, True]
    assert trace.context.decomposition("tc").eigvals_chunks == {"chunks": 3, "main_thread": 2}
    d = build_context(cfg).decomposition("tc")
    assert np.array_equal(trace.context.decomposition("tc").eigenvalues, sort_eigenvalues(eigvals(d.blocks)))
    assert trace.aggregates["tc"]["rho"] == d.spectral_radius


def test_the_worker_thread_runs_no_package_code_on_multi_chunk_stacks(monkeypatch):
    # the streamed chunks, the take-back and the join all run on the main thread
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    package = str(Path(analysis.__file__).parent)
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            seen.append(frame.f_code.co_name)

    threading.setprofile(profile)  # every thread started from here on
    try:
        trace = run_and_compare(_multi_chunk_cfg(n=64, l=16, blocks=("tc", "c")))
    finally:
        threading.setprofile(None)
    assert seen == []
    counted = {mode: trace.context.decomposition(mode).eigvals_chunks for mode in ("tc", "c")}
    assert {mode: counts["chunks"] for mode, counts in counted.items()} == {"tc": 3, "c": 3}


def test_an_early_spectrum_read_is_the_join(monkeypatch):
    # reading the spectral radius right after the build solves each chunk once, on one thread or the other
    eigvals, threads = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: threads.append(threading.current_thread()) or eigvals(a))
    ctx = build_context(_multi_chunk_cfg(n=64, l=16, blocks=("tc",)))
    with ThreadPoolExecutor(1) as worker:
        d = ctx.decomposition("tc", worker)
        rho = d.spectral_radius
    assert len(threads) == len(lfa.spectrum_chunks(*d.blocks.shape[:2])) == d.eigvals_chunks["chunks"] == 3
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    serial = build_context(ctx.cfg).decomposition("tc")
    assert rho == serial.spectral_radius and np.array_equal(d.eigenvalues, serial.eigenvalues)


@pytest.mark.parametrize(
    "cores, env, spare",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),  # one usable core (taskset -c 0)
        (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
        (2, {}, False),  # unset: the BLAS uses every core
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, False),  # 0 is unset
        (4, {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}, True),  # MKL's own variable first
        (4, {"OMP_NUM_THREADS": "2,1"}, True),  # an OpenMP list: its first level
    ],
)
def test_spare_core_compares_blas_threads_with_usable_cores(monkeypatch, cores, env, spare):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert analysis._spare_core() is spare


def test_an_error_on_the_main_thread_cancels_the_queued_solves(monkeypatch):
    solves = []
    eigvals = np.linalg.eigvals

    def slow_eigvals(a):
        solves.append(a.shape)
        time.sleep(0.5)  # the main thread raises while the first solve runs
        return eigvals(a)

    def failing_run(*args):
        raise RuntimeError("the run failed")

    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    monkeypatch.setattr(np.linalg, "eigvals", slow_eigvals)
    monkeypatch.setattr(analysis, "pfasst_run_algorithmic", failing_run)
    with pytest.raises(RuntimeError, match="the run failed"):
        run_and_compare(_small_cfg(iterations=2, blocks=("tc", "c", "full")))
    assert len(solves) == 1  # the solve in flight; the other two modes' are cancelled


@pytest.mark.parametrize("problem", ["diffusion", "advection"])
def test_stacked_run_equals_the_two_runs_bitwise(problem):
    cfg = _small_cfg(problem, iterations=6)
    ctx = build_context(cfg)
    rhs = manufactured_rhs(ctx).ravel()
    runs = [(np.zeros_like(rhs), ctx.initial_error), (rhs, ctx.initial_iterate)]
    rhs_stack, start_stack = (np.stack(column) for column in zip(*runs))
    stacked = solvers.pfasst_run_algorithmic(ctx.setup, rhs_stack, start_stack, cfg.iterations)
    assert [u.shape for u in stacked] == [(2, rhs.size)] * (cfg.iterations + 1)
    for i, (r, start) in enumerate(runs):
        alone = solvers.pfasst_run_algorithmic(ctx.setup, r, start, cfg.iterations)
        assert all(np.array_equal(s[i], a) for s, a in zip(stacked, alone))
    # the same right-hand sides as a stack of (L, M, N) arrays
    rhs_stack = rhs_stack.reshape(2, cfg.l, cfg.m, cfg.n)
    again = solvers.pfasst_run_algorithmic(ctx.setup, rhs_stack, start_stack, cfg.iterations)
    assert all(np.array_equal(s, a) for s, a in zip(stacked, again))


@pytest.mark.parametrize("problem", ["diffusion", "advection"])
def test_norm_kernels_take_no_svd(monkeypatch, problem):
    # every tc and c 2-norm, real or complex, comes from the Gram matrix's top eigenvalue, every full one from Lanczos
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append(np.asarray(a).shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    # np.linalg.norm calls the svd of its own module
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", recording)
    trace = run_and_compare(_small_cfg(problem, iterations=6, blocks=("tc", "c", "full")))
    assert calls == []
    for mode in ("tc", "c", "full"):
        assert trace.predictions["norm-power", mode][-1] > 0


def test_run_and_compare_takes_each_block_norm_once(monkeypatch):
    # ||B|| is taken once per block mode and read by the norm strategy, the
    # aggregates and norm-power at k = 1: K scalings per row chunk of the
    # N/4 + 1 = 5 mirror-representative pairs; at the default size one chunk
    # holds them all, at two blocks per chunk it takes three.  Of the 25 tc
    # (block, k >= 2) norms, the Frobenius bound settles none of diffusion's
    # and 16 of advection's without a Gram, and the Cholesky certificate spares
    # the eigensolver 12 (one chunk) or 10 (three) of diffusion's and 4 of advection's
    tc_grams_by_chunks = {
        "diffusion": ({"solved": 18, "certified": 12, "bounded": 0}, {"solved": 20, "certified": 10, "bounded": 0}),
        "advection": ({"solved": 10, "certified": 4, "bounded": 16}, {"solved": 10, "certified": 4, "bounded": 16}),
    }
    original, default_entries = lfa.scaled, lfa.NORM_CHUNK_ENTRIES
    for problem, (grams_of_one, grams_of_three) in tc_grams_by_chunks.items():
        cfg = _small_cfg(problem, iterations=6, blocks=("tc", "full"))
        tc_dim = 2 * cfg.l * cfg.m
        full_grams = {"solved": cfg.iterations, "certified": 0, "bounded": 0}
        for entries, tc_chunks, tc_grams in ((default_entries, 1, grams_of_one), (2 * tc_dim**2, 3, grams_of_three)):
            calls = Counter()

            def counted(stack):
                calls[stack.shape[-1]] += 1
                return original(stack)

            monkeypatch.setattr(lfa, "NORM_CHUNK_ENTRIES", entries)
            monkeypatch.setattr(lfa, "scaled", counted)
            trace = run_and_compare(cfg)
            # full mode scales T's first block column (M*N columns) at k = 1 and T^k's from k = 2 on, never T
            assert calls == {tc_dim: tc_chunks * cfg.iterations, cfg.m * cfg.n: cfg.iterations}
            grams = {mode: trace.context.decomposition(mode).grams for mode in cfg.blocks}
            assert grams["tc"] == tc_grams and sum(tc_grams.values()) == 5 * cfg.iterations  # one per (block, k)
            assert grams["full"] == full_grams
        for mode in ("tc", "full"):
            norm = trace.aggregates[mode]["norm"]
            assert norm == trace.context.decomposition(mode).norm
            e0_norm = trace.predictions["norm", mode][0]
            assert trace.predictions["norm", mode][1] == e0_norm * norm
            assert trace.predictions["norm-power", mode][1] == e0_norm * norm


@pytest.mark.parametrize("mode", ["tc", "c"])
def test_run_and_compare_builds_no_dense_collocation_matrix(mode):
    ctx = run_and_compare(_small_cfg(blocks=(mode,))).context
    assert "matrix" not in vars(ctx.setup.fine) and "matrix" not in vars(ctx.setup.coarse)
    assert "a" not in vars(ctx.setup.fine) and "a" not in vars(ctx.setup.coarse)  # no N x N spatial matrix
    matrix_route = {"p_fine", "p_coarse", "composite_matrix", "composite_preconditioners", "iteration_column"}
    assert not matrix_route & set(vars(ctx.setup))
    assert "interpolation" not in vars(ctx.setup.pair) and "restriction" not in vars(ctx.setup.pair)
    assert "fine_sweep" in vars(ctx.setup)


def test_run_and_compare_assembles_no_dense_composite_or_iteration_matrix(monkeypatch):
    # M and T are held as their first block columns: the block Toeplitz assembly, the one build of either as an
    # (L*M*N)^2 matrix, raises if an analysis of every block mode and strategy reaches it, and so does a Gram or
    # a Hermitian eigensolve wider than a tc block (2LM = 24; T is 192 wide): full mode's 2-norms form no Gram
    def refused(column, width):
        raise AssertionError(f"an analysis assembled a {len(column)} x {len(column)} block Toeplitz matrix")

    def narrow(name, kernel):
        def checked(x):
            assert x.shape[-1] <= 24, f"an analysis called {name} on a {x.shape[-1]}-wide matrix"
            return kernel(x)

        return checked

    monkeypatch.setattr(solvers, "block_toeplitz", refused)
    monkeypatch.setattr(lfa, "_gram", narrow("_gram", lfa._gram))
    monkeypatch.setattr(np.linalg, "eigvalsh", narrow("eigvalsh", np.linalg.eigvalsh))
    trace = run_and_compare(_small_cfg(iterations=20, blocks=("tc", "c", "full")))
    setup = trace.context.setup
    assert "composite_matrix" not in vars(setup) and "iteration_column" in vars(setup)
    assert trace.context.decomposition("full").blocks.shape == (1, setup.l * setup.fine.dim, setup.fine.dim)


def test_run_and_compare_predicts_what_the_config_requests():
    assert list(inspect.signature(run_and_compare).parameters) == ["cfg"]
    trace = run_and_compare(_small_cfg(strategies=("apply", "rho"), blocks=("c", "tc")))
    assert list(trace.predictions) == [("apply", "c"), ("rho", "c"), ("apply", "tc"), ("rho", "tc")]
    assert list(trace.aggregates) == ["c", "tc"]


def test_run_and_compare_k0_gives_single_row():
    trace = run_and_compare(_small_cfg(iterations=0, strategies=("rho",)))
    assert len(trace.actual_2) == 1
    assert len(trace.predictions["rho", "tc"]) == 1


def test_bound_chain_small():
    trace = run_and_compare(_small_cfg(iterations=8))
    s2 = trace.predictions["norm", "tc"]
    s3 = trace.predictions["norm-power", "tc"]
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
