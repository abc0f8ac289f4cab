"""Command-line front end: run analyses, emit CSV traces and a JSON report.

Two subcommands:

  analyze   run one experiment, write trace.csv / spectrum.csv / report.json,
            and the wall times to timings.json
  verify    run the cross-module equivalence suite and print a check table

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 verification
failure.  CSV files use a decimal point, scientific notation with 17
significant digits, LF line endings and a leading header row; identical
configurations produce byte-identical CSV files and report.json (timings.json
holds the only run-dependent values).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, lfa
from .analysis import (
    BLOCK_MODES,
    STRATEGIES,
    ExperimentConfig,
    build_context,
    run_and_compare,
)
from .collocation import spread_initial
from .errors import ConfigurationError, PfasstLfaError, RangeError
from .solvers import pfasst_run_algorithmic, pfasst_step_matrix
from .transfer import check_restriction_condition, check_transfer_structure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

# Strategy 4 in tc mode must match the measured error to STRATEGY4_RTOL
# relative, on the iterations whose error exceeds STRATEGY4_FLOOR times the
# initial error.  The two differ by round-off of the initial error, at most
# 7e-15 ||e0|| over n = 32..128, L = 2..8, k in {1, 2, n/16}, mu = 0.5..100
# and CFL = 0.01..1; below the floor a relative comparison would test that
# round-off, not the prediction.  Kept iterations can deviate by at most 7e-9
# relative; the worst measured on that grid is 9e-12.
STRATEGY4_FLOOR = 1e-6
STRATEGY4_RTOL = 1e-8


def _fmt(x: float) -> str:
    """Scientific notation with 17 significant digits."""
    return f"{x:.16e}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def strategy4_exact(actual_2: np.ndarray, apply_2: np.ndarray) -> bool:
    """Whether the apply prediction matches the measured error above the round-off floor; NaN or inf fails."""
    if not (np.all(np.isfinite(actual_2)) and np.all(np.isfinite(apply_2))):
        return False
    mask = actual_2 > STRATEGY4_FLOOR * actual_2[0]
    rel = np.abs(apply_2[mask] - actual_2[mask]) / actual_2[mask]
    return bool(np.all(rel < STRATEGY4_RTOL))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfasst-lfa",
        description="Block Fourier analysis and error prediction for two-level PFASST.",
    )
    parser.add_argument("--version", action="version", version=f"pfasst-lfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one experiment and write its artifacts")
    pa.add_argument("--problem", required=True, choices=["diffusion", "advection"])
    pa.add_argument("--n", type=int, default=128, help="fine spatial grid size")
    pa.add_argument("--m", type=int, default=5, help="quadrature nodes per interval")
    pa.add_argument("--l", type=int, default=4, help="time intervals (processors)")
    pa.add_argument("--dt", type=float, default=0.1, help="interval length")
    pa.add_argument("--coefficient", type=float, help="diffusion nu or advection speed c")
    pa.add_argument("--mu", type=float, help="parabolic mesh ratio nu*dt/dx^2 (diffusion)")
    pa.add_argument("--wavenumber", type=int, default=1, help="initial-data wavenumber k")
    pa.add_argument("--iterations", type=int, default=10, help="PFASST iteration count K")
    pa.add_argument(
        "--strategies",
        default=",".join(STRATEGIES),
        help="comma list out of rho,norm,norm-power,apply",
    )
    pa.add_argument("--blocks", default="tc", help="comma list out of tc,c,full")
    pa.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("verify", help="run the cross-module equivalence suite")
    pv.add_argument("--scale", choices=["small", "large"], default="small")
    pv.add_argument(
        "--flip-qdelta-sign",
        action="store_true",
        help="test hook: negate Q_Delta in the block analysis (must be caught)",
    )
    return parser


def cmd_analyze(args, parser) -> int:
    strategies = tuple(s for s in args.strategies.split(",") if s)
    block_modes = tuple(m for m in args.blocks.split(",") if m)
    for s in strategies:
        if s not in STRATEGIES:
            parser.error(f"unknown strategy {s!r} (choose from {', '.join(STRATEGIES)})")
    for m in block_modes:
        if m not in BLOCK_MODES:
            parser.error(f"unknown block mode {m!r} (choose from {', '.join(BLOCK_MODES)})")
    if not strategies or not block_modes:
        parser.error("need at least one strategy and one block mode")

    timings = {}
    t0 = time.perf_counter()
    try:
        cfg = ExperimentConfig(
            problem=args.problem,
            n=args.n,
            m=args.m,
            l=args.l,
            dt=args.dt,
            coefficient=args.coefficient,
            mu=args.mu,
            wavenumber=args.wavenumber,
            iterations=args.iterations,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))
    trace = run_and_compare(cfg, strategies=strategies, block_modes=block_modes)
    timings["run_and_compare"] = time.perf_counter() - t0
    columns = {"actual_inf": trace.actual_inf, "actual_2": trace.actual_2}
    columns.update({f"pred_{p.strategy}_{p.block_mode}": p.values for p in trace.predictions})
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            k = int(np.argmin(np.isfinite(values)))
            raise RangeError(f"{name} is not finite from iteration {k}: the run overflows double precision")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    rows = [[str(k)] + [_fmt(values[k]) for values in columns.values()] for k in range(cfg.iterations + 1)]
    trace_path = out / "trace.csv"
    _write_csv(trace_path, ["iteration", *columns], rows)

    spectrum_mode = block_modes[0]
    spectrum_path = out / "spectrum.csv"
    spec_rows = []
    spectra = trace.context.spectra(spectrum_mode)
    for vals, idx in zip(spectra.eigenvalues, spectra.index):
        block_k = idx[0]
        block_j = idx[1] if len(idx) > 1 else -1
        for v in vals:
            spec_rows.append([str(block_k), str(block_j), _fmt(v.real), _fmt(v.imag)])
    _write_csv(spectrum_path, ["block_k", "block_j", "eig_re", "eig_im"], spec_rows)
    timings["write_outputs"] = time.perf_counter() - t0

    checks = {"bound_chain_2norm": True, "strategy4_tc_exact": None}
    try:
        s2 = trace.prediction("norm", spectrum_mode).values
        s3 = trace.prediction("norm-power", spectrum_mode).values
        checks["bound_chain_2norm"] = bool(
            np.all(trace.actual_2 <= s3 * (1 + 1e-12)) and np.all(s3 <= s2 * (1 + 1e-12))
        )
    except KeyError:
        checks["bound_chain_2norm"] = None
    try:
        checks["strategy4_tc_exact"] = strategy4_exact(trace.actual_2, trace.prediction("apply", "tc").values)
    except KeyError:
        pass

    report = {
        "tool": "pfasst-lfa",
        "version": __version__,
        "config": {
            "problem": cfg.problem,
            "n": cfg.n,
            "m": cfg.m,
            "l": cfg.l,
            "dt": cfg.dt,
            "coefficient": cfg.resolved_coefficient(),
            "mu": cfg.mu,
            "wavenumber": cfg.wavenumber,
            "iterations": cfg.iterations,
            "qdelta_kind": cfg.resolved_qdelta_kind(),
            "interp_exactness": cfg.interp_exactness,
            "restr_exactness": cfg.restr_exactness,
            "strategies": list(strategies),
            "blocks": list(block_modes),
        },
        "aggregates": trace.aggregates,
        "phases": {
            "count": trace.phases.count,
            "boundaries": trace.phases.boundaries,
            "slopes": trace.phases.slopes,
        },
        "checks": checks,
        "error_measurement_consistency": trace.consistency_gap(),
        "files": [trace_path.name, spectrum_path.name, "report.json", "timings.json"],
    }
    if cfg.problem == "advection":
        report["cfl"] = trace.context.fine.cfl(cfg.dt)
    _write_json(out / "report.json", report)
    _write_json(out / "timings.json", {"wall_time_seconds": timings})
    return EXIT_OK


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _verify_checks(scale: str, flip_qdelta_sign: bool):
    """Yield (name, residual, tolerance) for each verification check."""
    n = 32 if scale == "small" else 128
    m = 3 if scale == "small" else 5
    l = 4
    ctx = build_context(ExperimentConfig(problem="diffusion", mu=10.0, n=n, m=m, l=l, dt=0.1))
    setup, pair = ctx.setup, ctx.setup.pair

    # 1: algorithmic run against the matrix formulation, u0 spread over the first interval
    u0 = np.sin(2 * np.pi * np.arange(n) / n)
    rhs = np.zeros((l, m, n))
    rhs[0] = u0
    p_gs, p_j = setup.composite_preconditioners
    iterations = 5
    trace = pfasst_run_algorithmic(setup, rhs, spread_initial(u0, m, l), iterations)
    u = trace[0].copy()
    dev = 0.0
    for k in range(1, iterations + 1):
        u = pfasst_step_matrix(p_gs, p_j, pair, setup.composite_matrix, rhs.ravel(), u, m, l)
        dev = max(dev, float(np.max(np.abs(u - trace[k]))))
    yield "pfasst matrix vs algorithmic", dev, 1e-10

    # 2: block spectrum against the full spectrum (cluster means)
    sc = ctx.components
    if flip_qdelta_sign:
        sc = replace(sc, qdelta=-sc.qdelta)
    blocks = lfa.block_spectra(lfa.tc_decompose(sc)).eigenvalues.ravel()
    dist = lfa.matched_cluster_distance(np.linalg.eigvals(setup.iteration_matrix), blocks)
    yield "block spectrum vs full spectrum", dist, 1e-8

    # 3: transfer operators transform to two-diagonal form
    try:
        diags = ctx.components.diags
        check_transfer_structure(pair, diags, tol=1e-12)
        pair_vals = sorted([abs(diags.d[0]), abs(diags.d_hat[0])])
        k0_dev = max(abs(pair_vals[0] - 0.0), abs(pair_vals[1] - np.sqrt(2.0)))
    except PfasstLfaError:
        k0_dev = float("inf")
    yield "transfer transform structure", k0_dev, 1e-12

    # 4: restriction condition holds exactly, violations are detected
    ok, violation = check_restriction_condition(pair, m)
    res = float(np.max(np.abs(violation))) if not ok else 0.0
    broken = np.eye(m)
    broken[0, 0] = 0.5
    ok_broken, _ = check_restriction_condition(pair, m, temporal_restriction=broken)
    if ok_broken:
        res = float("inf")
    yield "restriction condition", res, 0.0


def cmd_verify(args) -> int:
    failures = 0
    print(f"{'check':<40} {'residual':>12} {'tolerance':>12}  result")
    for name, residual, tol in _verify_checks(args.scale, args.flip_qdelta_sign):
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"{name:<40} {residual:>12.3e} {tol:>12.3e}  {'PASS' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFICATION
    print("all checks passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args, parser)
        return cmd_verify(args)
    except PfasstLfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
