"""Command-line front end: run analyses, emit CSV traces and a JSON report.

Two subcommands:

  analyze   run one experiment, write trace.csv / spectrum.csv / report.json,
            and the wall times and the norm and eigenvalue kernels' counts to
            timings.json
  verify    run the cross-module equivalence suite and print a check table

Exit codes: 0 success, 2 usage error (every refused input, before any work),
3 numerical failure, 4 verification failure (verify, or an analyze with a
false tc-mode check or, under --blocks tc,full, tc blocks or norms that differ
from the iteration matrix's; it writes its artifacts first).  CSV files use a
decimal point, scientific notation with 17 significant digits, LF line
endings and a leading header row; identical configurations at the same
BLAS thread count produce byte-identical CSV files and report.json,
whatever the number of cores (timings.json holds the only run-dependent
values).  Another BLAS thread count can change the last digits: LAPACK's
results depend on how its work is split.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import BLOCK_MODES, INTERP_EXACTNESS, PROBLEMS, RESTR_EXACTNESS, STRATEGIES, ExperimentConfig
from .analysis import run_and_compare, verify_checks
from .errors import ConfigurationError, PfasstLfaError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


def _write_csv(path: Path, header: list[str], table: np.ndarray, int_columns: int) -> None:
    """Write the header and the table in one %-format: int_columns integers, then 17-digit scientific notation."""
    rows, cols = table.shape
    row = ",".join(["%d"] * int_columns + ["%.16e"] * (cols - int_columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + row * rows % tuple(table.ravel().tolist()))


def _names(text: str) -> tuple[str, ...]:
    """A comma list as a tuple of its non-empty names."""
    return tuple(name for name in text.split(",") if name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfasst-lfa",
        description="Block Fourier analysis and error prediction for two-level PFASST.",
    )
    parser.add_argument("--version", action="version", version=f"pfasst-lfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is absent from the namespace: ExperimentConfig alone sets its default and refuses its value
    pa = sub.add_parser("analyze", help="run one experiment and write its artifacts",
                        argument_default=argparse.SUPPRESS)
    pa.add_argument("--problem", required=True, metavar="{" + ",".join(PROBLEMS) + "}")
    pa.add_argument("--n", type=int, help="fine spatial grid size, a multiple of 4")
    pa.add_argument("--m", type=int, help="quadrature nodes per interval")
    pa.add_argument("--l", type=int, help="time intervals (processors)")
    pa.add_argument("--dt", type=float, help="interval length")
    pa.add_argument("--coefficient", type=float, help="diffusion nu or advection speed c")
    pa.add_argument("--mu", type=float, help="parabolic mesh ratio nu*dt/dx^2 (diffusion)")
    pa.add_argument("--wavenumber", type=int, help="initial-data wavenumber k")
    pa.add_argument("--iterations", type=int, help="PFASST iteration count K")
    pa.add_argument("--strategies", type=_names, help=f"comma list out of {','.join(STRATEGIES)}")
    pa.add_argument("--blocks", type=_names, help=f"comma list out of {','.join(BLOCK_MODES)}")
    pa.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("verify", help="run the cross-module equivalence suite")
    pv.add_argument("--scale", choices=["small", "large"], default="small")
    return parser


def cmd_analyze(args, parser) -> int:
    out = Path(args.out)
    if any((path.exists() or path.is_symlink()) and not path.is_dir() for path in (out, *out.parents)):
        parser.error(f"--out {args.out}: it or one of its parents exists and is not a directory")

    timings = {}
    t0 = time.perf_counter()
    cfg = ExperimentConfig(**{name: value for name, value in vars(args).items() if name not in ("command", "out")})
    trace = run_and_compare(cfg)
    timings["run_and_compare"] = time.perf_counter() - t0
    timings["pfasst_run_algorithmic"] = trace.run_seconds
    columns = {"actual_inf": trace.actual_inf, "actual_2": trace.actual_2}
    columns.update({f"pred_{strategy}_{mode}": values for (strategy, mode), values in trace.predictions.items()})
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            k = int(np.argmin(np.isfinite(values)))
            kind = "run" if name.startswith("actual") else "prediction"
            print(f"error: {name} is not finite from iteration {k}: the {kind} overflows double precision",
                  file=sys.stderr)
            return EXIT_NUMERICAL

    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    trace_path = out / "trace.csv"
    table = np.column_stack([np.arange(cfg.iterations + 1), *columns.values()])
    _write_csv(trace_path, ["iteration", *columns], table, 1)

    spectrum_mode = cfg.blocks[0]
    spectrum_path = out / "spectrum.csv"
    d = trace.context.decomposition(spectrum_mode)
    # one row per eigenvalue: block k, time frequency j (-1 without one), real and imaginary part
    vals, index = d.eigenvalues, d.meta.block_index()
    table = np.column_stack([np.repeat(index, vals.shape[1], axis=0), vals.real.ravel(), vals.imag.ravel()])
    _write_csv(spectrum_path, ["block_k", "block_j", "eig_re", "eig_im"], table, 2)
    timings["write_outputs"] = time.perf_counter() - t0

    checks, failed = trace.checks()

    config = {
        **asdict(cfg),
        "coefficient": cfg.resolved_coefficient(),
        "qdelta_kind": cfg.resolved_qdelta_kind(),
        "interp_exactness": INTERP_EXACTNESS,
        "restr_exactness": RESTR_EXACTNESS,
    }
    # the request last: one key order across versions keeps reports byte-comparable
    config |= {name: config.pop(name) for name in ("strategies", "blocks")}
    report = {
        "tool": "pfasst-lfa",
        "version": __version__,
        "config": config,
        "aggregates": trace.aggregates,
        "phases": {
            "count": trace.phases.count,
            "boundaries": trace.phases.boundaries,
            "slopes": trace.phases.slopes,
        },
        "checks": checks,
        "error_measurement_consistency": trace.consistency_gap(),
        "numerics": {
            "node_sweep_condition": {
                "fine": trace.context.setup.fine_sweep.condition,
                "coarse": trace.context.setup.coarse_sweep.condition,
            },
        },
        "files": [trace_path.name, spectrum_path.name, "report.json", "timings.json"],
    }
    if cfg.problem == "advection":
        report["cfl"] = cfg.cfl
    _write_json(out / "report.json", report)
    # the kernels' work, not their results: the report's bytes do not depend on it
    decompositions = {mode: trace.context.decomposition(mode) for mode in cfg.blocks}
    grams = {mode: d.grams for mode, d in decompositions.items()}
    chunks = {mode: d.eigvals_chunks for mode, d in decompositions.items()}
    work = {"wall_time_seconds": timings, "norm_grams": grams, "eigvals_chunks": chunks}
    _write_json(out / "timings.json", work)
    for failure in failed:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def cmd_verify(args) -> int:
    failures = 0
    print(f"{'check':<40} {'residual':>12} {'tolerance':>12}  result")
    for name, residual, tol in verify_checks(args.scale):
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
    except ConfigurationError as exc:
        parser.error(str(exc))
    except PfasstLfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
