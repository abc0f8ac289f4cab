"""Acceptance suite: eleven end-to-end criteria at the scale of the studied
experiments, each printing one PASS line with its measured figure of merit.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np
import pytest

from pfasst_lfa import lfa
from pfasst_lfa.analysis import (
    ExperimentConfig,
    asymptotic_ratio,
    build_context,
    run_and_compare,
)
from pfasst_lfa.collocation import collocation_matrix, composite_system, spread_initial
from pfasst_lfa.quadrature import QuadratureRule, build_qdelta
from pfasst_lfa.solvers import (
    build_two_level_setup,
    mlsdc_preconditioner_inverse,
    mlsdc_step,
    pfasst_run_algorithmic,
    pfasst_step_matrix,
    richardson_step,
    sdc_preconditioner,
)
from pfasst_lfa.space_operators import coarsen, make_advection, make_diffusion
from pfasst_lfa.transfer import (
    build_ci_pair,
    check_restriction_condition,
    check_transfer_structure,
    harmonic_diagonals,
)


def _report(number, label, detail):
    print(f"[criterion {number:2d}] PASS: {label} ({detail})")


def _two_level(prob, m, l, dt, qdelta_kind):
    cprob = coarsen(prob)
    rule = QuadratureRule.radau_right(m)
    pair = build_ci_pair(prob.n)
    fine = collocation_matrix(prob.operator, rule, dt)
    coarse = collocation_matrix(cprob.operator, rule, dt)
    setup = build_two_level_setup(fine, coarse, pair, l, qdelta_kind)
    return rule, pair, fine, coarse, setup


def _hand_sdc_sweep(a, q, qdelta, dt, c, u):
    """Node-by-node forward substitution of one SDC sweep, no matrix solve."""
    m = q.shape[0]
    n = a.shape[0]
    r = c - (np.eye(m * n) - dt * np.kron(q, a)) @ u
    x = np.zeros_like(u)
    for i in range(m):
        acc = r[i * n : (i + 1) * n].copy()
        for j in range(i):
            acc = acc + dt * qdelta[i, j] * (a @ x[j * n : (j + 1) * n])
        x[i * n : (i + 1) * n] = np.linalg.solve(np.eye(n) - dt * qdelta[i, i] * a, acc)
    return u + x


def test_criterion_01_sdc_equivalence():
    start = time.perf_counter()
    n, m, dt = 16, 3, 0.1
    prob = make_diffusion(n, 10.0 * (1.0 / n) ** 2 / dt)
    rule = QuadratureRule.radau_right(m)
    cp = collocation_matrix(prob.operator, rule, dt)
    qd = build_qdelta(rule, "implicit-euler")
    p = sdc_preconditioner(cp, qd)
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    c = spread_initial(u0, m)
    u_a = c.copy()
    u_b = c.copy()
    dev = 0.0
    for _ in range(10):
        u_a = richardson_step(p, cp.matrix, c, u_a)
        u_b = _hand_sdc_sweep(prob.operator.materialize(), rule.q, qd.matrix, dt, c, u_b)
        dev = max(dev, float(np.max(np.abs(u_a - u_b))))
    elapsed = time.perf_counter() - start
    assert dev < 1e-12
    assert elapsed < 1.0
    _report(1, "SDC step equals hand-assembled sweep", f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_02_mlsdc_equivalence():
    start = time.perf_counter()
    n, m, dt = 32, 3, 0.1
    prob = make_diffusion(n, 10.0 * (1.0 / n) ** 2 / dt)
    rule, pair, fine, coarse, setup = _two_level(prob, m, 1, dt, "implicit-euler")
    rng = np.random.default_rng(12)
    c = rng.standard_normal(fine.dim)
    u = rng.standard_normal(fine.dim)
    stepped = mlsdc_step(setup.p_fine, setup.p_coarse, pair, fine.matrix, c, u, m)
    p_inv = mlsdc_preconditioner_inverse(setup.p_fine, setup.p_coarse, pair, fine.matrix, m)
    expected = u + p_inv @ (c - fine.matrix @ u)
    dev = float(np.max(np.abs(stepped - expected)))
    elapsed = time.perf_counter() - start
    assert dev < 1e-12
    assert elapsed < 1.0
    _report(2, "MLSDC step equals explicit preconditioner", f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_03_pfasst_equivalence():
    start = time.perf_counter()
    n, m, l, dt, iterations = 128, 5, 4, 0.1, 10
    problems = [
        make_diffusion(n, 10.0 * (1.0 / n) ** 2 / dt),
        make_advection(n, 4.88e-3),
    ]
    worst = 0.0
    for prob in problems:
        kind = "implicit-euler" if prob.kind == "diffusion" else "lu"
        rule, pair, fine, coarse, setup = _two_level(prob, m, l, dt, kind)
        p_gs, p_j = setup.composite_preconditioners
        u0 = np.sin(2 * np.pi * np.arange(n) / n)
        comp = composite_system(fine, l, u0)
        trace = pfasst_run_algorithmic(setup, comp.rhs, spread_initial(u0, m, l), iterations)
        u = trace[0].copy()
        for k in range(1, iterations + 1):
            u = pfasst_step_matrix(p_gs, p_j, pair, comp.matrix, comp.rhs, u, m, l)
            worst = max(worst, float(np.max(np.abs(u - trace[k]))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 30.0
    _report(3, "algorithmic PFASST equals matrix form", f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_rigorous_block_transform():
    start = time.perf_counter()
    n, m, l, dt = 64, 3, 4, 0.1
    prob = make_diffusion(n, 10.0 * (1.0 / n) ** 2 / dt)
    rule, pair, fine, coarse, setup = _two_level(prob, m, l, dt, "implicit-euler")
    t = setup.iteration_matrix
    d = lfa.tc_decompose(lfa.spectral_components(setup))
    # the defective eigenvalues scatter under the dense eigensolver, so the
    # multisets are compared cluster-wise (equal multiplicities, matched means)
    dist = lfa.matched_cluster_distance(np.linalg.eigvals(t), lfa.block_spectra(d).eigenvalues.ravel())
    # and the underlying similarity itself is verified through the action
    rng = np.random.default_rng(21)
    v = rng.standard_normal(t.shape[0])
    vhat = lfa.transform_vector(v, d.meta)
    action_dev = float(
        np.max(np.abs(lfa.inverse_transform_vector(lfa.apply_blocks(d, vhat), d.meta) - t @ v))
    )
    elapsed = time.perf_counter() - start
    assert dist < 1e-8
    assert action_dev < 1e-10
    assert elapsed < 60.0
    _report(4, "block eigenvalues match full spectrum", f"cluster dist {dist:.2e}, {elapsed:.1f}s")


def test_criterion_05_transfer_transform():
    start = time.perf_counter()
    pair = build_ci_pair(64)
    diags = harmonic_diagonals(pair)
    check_transfer_structure(pair, diags, tol=1e-12)  # raises if off-structure
    k0 = sorted([abs(diags.d[0]), abs(diags.d_hat[0])])
    elapsed = time.perf_counter() - start
    assert k0[0] == pytest.approx(0.0, abs=1e-13)
    assert k0[1] == pytest.approx(np.sqrt(2.0), abs=1e-13)
    assert elapsed < 1.0
    _report(5, "transfer transform is two-diagonal", f"k=0 pair {{0, sqrt(2)}}, {elapsed:.2f}s")


def test_criterion_06_norm_identity():
    start = time.perf_counter()
    n, m, l, dt = 64, 3, 4, 0.1
    prob = make_diffusion(n, 10.0 * (1.0 / n) ** 2 / dt)
    rule, pair, fine, coarse, setup = _two_level(prob, m, l, dt, "implicit-euler")
    block_norm = lfa.block_spectra(lfa.tc_decompose(lfa.spectral_components(setup))).norm
    full_norm = float(np.linalg.norm(setup.iteration_matrix, 2))
    rel = abs(block_norm - full_norm) / full_norm
    elapsed = time.perf_counter() - start
    assert rel < 1e-8
    assert elapsed < 30.0
    _report(6, "block norm maxima equal ||T||_2", f"rel dev {rel:.2e}, {elapsed:.1f}s")


_CRITERION_7_RUNS = [
    ("diffusion", {"mu": 10.0}, 1),
    ("diffusion", {"mu": 10.0}, 8),
    ("diffusion", {"mu": 10.0}, 32),
    ("advection", {"coefficient": 4.88e-3}, 1),
    ("advection", {"coefficient": 4.88e-3}, 8),
]


@pytest.fixture(scope="module")
def criterion_7_traces():
    """The five runs of criteria 7 and 8, built once; (traces, seconds to build)."""
    start = time.perf_counter()
    traces = []
    for problem, kw, k in _CRITERION_7_RUNS:
        cfg = ExperimentConfig(problem=problem, wavenumber=k, iterations=20, **kw)
        traces.append(run_and_compare(cfg))
    return traces, time.perf_counter() - start


def test_criterion_07_strategy4_exactness(criterion_7_traces):
    traces, build_seconds = criterion_7_traces
    start = time.perf_counter() - build_seconds  # the runs count towards this criterion's time
    worst = 0.0
    for trace in traces:
        ap = trace.prediction("apply", "tc").values
        mask = trace.actual_2 > 1e-13
        rel = np.abs(ap[mask] - trace.actual_2[mask]) / trace.actual_2[mask]
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 120.0
    _report(7, "strategy 4 reproduces the actual error", f"max rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_bound_chain(criterion_7_traces):
    violations = 0
    for trace in criterion_7_traces[0]:
        s2 = trace.prediction("norm", "tc").values
        s3 = trace.prediction("norm-power", "tc").values
        violations += int(np.sum(trace.actual_2 > s3 * (1 + 1e-12)))
        violations += int(np.sum(s3 > s2 * (1 + 1e-12)))
    assert violations == 0
    _report(8, "actual <= strategy-3 <= strategy-2 chain", "0 violations over 5 runs")


def test_criterion_09_qualitative_reproduction():
    cfg_d = ExperimentConfig(problem="diffusion", mu=10.0, wavenumber=8, iterations=40)
    tr_d = run_and_compare(cfg_d, strategies=("rho",))
    assert tr_d.phases.count >= 2
    first_end = tr_d.phases.boundaries[1]
    drop = tr_d.actual_2[first_end] / tr_d.actual_2[0]
    assert drop < 1e-4
    ratio = asymptotic_ratio(tr_d.actual_2)
    rho = tr_d.aggregates["tc"]["rho"]
    rel = abs(ratio - rho) / rho
    assert rel < 0.2
    cfg_a = ExperimentConfig(problem="advection", coefficient=4.88e-3, wavenumber=8, iterations=40)
    tr_a = run_and_compare(cfg_a, strategies=("rho",))
    assert tr_a.phases.count == 3
    _report(
        9,
        "phase structure and asymptotic rate",
        f"diffusion {tr_d.phases.count} phases (drop {drop:.1e}, rate within {rel:.0%}), "
        f"advection {tr_a.phases.count} phases",
    )


def test_criterion_10_restriction_condition():
    start = time.perf_counter()
    pair = build_ci_pair(32)
    ok, violation = check_restriction_condition(pair, 5)
    assert ok
    assert np.max(np.abs(violation)) == 0.0
    broken = np.eye(5)
    broken[4, 4] = 0.5  # no longer projects the last node faithfully
    ok_broken, violation_b = check_restriction_condition(pair, 5, temporal_restriction=broken)
    elapsed = time.perf_counter() - start
    assert not ok_broken
    assert np.max(np.abs(violation_b)) > 0.0
    assert elapsed < 1.0
    _report(10, "restriction condition L = 0 exactly", f"broken variant detected, {elapsed:.2f}s")


def test_criterion_11_cfl_reproduction():
    cfg = ExperimentConfig(problem="advection", coefficient=4.88e-3)
    cfl = cfg.make_problem().cfl(cfg.dt)
    assert cfl == 0.062464
    _report(11, "advection defaults reproduce the CFL number", f"cfl = {cfl}")
