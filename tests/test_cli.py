"""Command-line interface: artifacts, determinism and exit codes."""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import clusters
import oracles
from pfasst_lfa import analysis, cli, lfa, solvers
from pfasst_lfa.analysis import (
    STRATEGY4_FLOOR,
    ExperimentConfig,
    bound_chain_holds,
    build_context,
    predict,
    run_and_compare,
    strategy4_exact,
)
from pfasst_lfa.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from pfasst_lfa.linalg import sort_eigenvalues


def _analyze(tmp_path, *extra, code=EXIT_OK):
    out = tmp_path / "out"
    args = [
        "analyze",
        "--problem",
        "diffusion",
        "--mu",
        "10",
        "--n",
        "32",
        "--m",
        "3",
        "--wavenumber",
        "2",
        "--iterations",
        "5",
        "--out",
        str(out),
        *extra,
    ]
    assert main(args) == code
    return out


def test_analyze_writes_all_artifacts(tmp_path):
    out = _analyze(tmp_path)
    assert (out / "trace.csv").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert set(report["files"]) == {"trace.csv", "spectrum.csv", "report.json", "timings.json"}
    assert set(json.loads((out / "timings.json").read_text())["wall_time_seconds"]) == {
        "run_and_compare",
        "pfasst_run_algorithmic",
        "write_outputs",
    }
    assert report["config"]["problem"] == "diffusion"
    assert report["config"]["qdelta_kind"] == "implicit-euler"
    assert "tc" in report["aggregates"]
    assert report["checks"]["strategy4_tc_exact"] is True


def test_analyze_writes_the_norm_kernel_counts_to_timings_only(tmp_path):
    # one count per (block, k).  At L = 16 the 9 representative tc blocks (96 x 96)
    # are solved at k = 1, and at each k = 2..5 the one of the largest section
    # Frobenius norm; of the other 32 (block, k) norms the Frobenius bound settles
    # none of these diffusion blocks, the symbol bound 29, and the certificate 2 of
    # the 3 left.  The 72 c blocks (6 x 6) fit one chunk, whose lone largest block is
    # solved at every k; of the other 284 (block, k >= 2) norms the Frobenius bound
    # settles 241 and the certificate 43
    out = _analyze(tmp_path, "--l", "16", "--blocks", "tc,c")
    grams = json.loads((out / "timings.json").read_text())["norm_grams"]
    assert grams == {
        "tc": {"solved": 9 + 4 + 1, "certified": 2, "bounded": 29},
        "c": {"solved": 72 + 4, "certified": 43, "bounded": 241},
    }
    assert "grams" not in (out / "report.json").read_text()


@pytest.mark.parametrize("spare_core", [True, False])
def test_analyze_writes_the_eigvals_chunk_counts_to_timings_only(tmp_path, monkeypatch, worker_takes_every_chunk,
                                                                 spare_core):
    # at L = 16 the 16 tc blocks (96 x 96) make one eigenvalue chunk, and so do the 256 c blocks (6 x 6, 1536
    # rows); the main thread solves them all without a spare core, and none while the worker takes every one
    monkeypatch.setattr(analysis, "_spare_core", lambda: spare_core)
    out = _analyze(tmp_path, "--l", "16", "--blocks", "tc,c")
    chunks = json.loads((out / "timings.json").read_text())["eigvals_chunks"]
    expected = {"chunks": 1, "main_thread": int(not spare_core)}
    assert chunks == {"tc": expected, "c": expected}
    assert "chunks" not in (out / "report.json").read_text()


def test_trace_csv_columns_and_format(tmp_path):
    # rho is predicted after the eigenvalue worker's join, the others before it; the columns keep the request order
    out = _analyze(tmp_path, "--strategies", "apply,rho,norm", "--blocks", "tc")
    lines = (out / "trace.csv").read_bytes().split(b"\n")
    header = lines[0].decode()
    assert header == "iteration,actual_inf,actual_2,pred_apply_tc,pred_rho_tc,pred_norm_tc"
    assert len(lines) == 5 + 2 + 1  # K+1 rows, header, trailing newline
    # 17 significant digits in scientific notation
    first = lines[1].decode().split(",")
    assert first[0] == "0"
    mantissa = first[1].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17
    # LF endings only
    assert b"\r" not in (out / "trace.csv").read_bytes()


def test_analyze_lists_repeated_strategies_and_blocks_once(tmp_path):
    out = _analyze(tmp_path, "--strategies", "rho,apply,rho", "--blocks", "tc,c,tc")
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["strategies"] == ["rho", "apply"]
    assert config["blocks"] == ["tc", "c"]
    header = (out / "trace.csv").read_text().split("\n")[0].split(",")
    assert header[3:] == ["pred_rho_tc", "pred_apply_tc", "pred_rho_c", "pred_apply_c"]


def test_report_config_echo_keeps_its_key_order(tmp_path):
    # the config fields, the resolved values and the fixed stencil degrees, then the request
    out = _analyze(tmp_path, "--strategies", "apply", "--blocks", "c,tc")
    config = json.loads((out / "report.json").read_text())["config"]
    assert list(config) == ["problem", "n", "m", "l", "dt", "coefficient", "mu", "wavenumber", "iterations",
                            "qdelta_kind", "interp_exactness", "restr_exactness", "strategies", "blocks"]
    assert (config["strategies"], config["blocks"]) == (["apply"], ["c", "tc"])


def test_spectrum_csv_covers_all_blocks(tmp_path):
    out = _analyze(tmp_path)
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert rows[0] == "block_k,block_j,eig_re,eig_im"
    data = [r.split(",") for r in rows[1:]]
    # tc mode at n=32, m=3, l=4: 16 blocks of dimension 24
    assert len(data) == 16 * 24
    assert {d[0] for d in data} == {str(k) for k in range(16)}
    assert {d[1] for d in data} == {"-1"}


def _per_value_csv(header, rows) -> bytes:
    """The CSV as formatted one value at a time: str() of integers, 17-digit f-strings of floats."""
    lines = [",".join(header)] + [",".join(str(v) if isinstance(v, int) else f"{v:.16e}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_csv_tables_are_the_per_value_format(tmp_path):
    out = _analyze(tmp_path, "--blocks", "c,tc")
    cfg = ExperimentConfig(problem="diffusion", mu=10.0, n=32, m=3, wavenumber=2, iterations=5, blocks=("c", "tc"))
    trace = run_and_compare(cfg)
    columns = {"actual_inf": trace.actual_inf, "actual_2": trace.actual_2}
    columns.update({f"pred_{strategy}_{mode}": values for (strategy, mode), values in trace.predictions.items()})
    rows = [[k] + [float(v[k]) for v in columns.values()] for k in range(cfg.iterations + 1)]
    assert (out / "trace.csv").read_bytes() == _per_value_csv(["iteration", *columns], rows)
    d = trace.context.decomposition("c")
    index = d.meta.block_index()
    rows = [[int(k), int(j), float(v.real), float(v.imag)] for vals, (k, j) in zip(d.eigenvalues, index) for v in vals]
    assert (out / "spectrum.csv").read_bytes() == _per_value_csv(["block_k", "block_j", "eig_re", "eig_im"], rows)
    # values the analyses rarely produce
    rows = [[-1, 7, -0.0, 1e-310], [3, 0, float("inf"), float("nan")], [12, -3, -1e300, 1 / 3]]
    cli._write_csv(tmp_path / "odd.csv", ["a", "b", "c", "d"], np.array(rows, dtype=float), 2)
    assert (tmp_path / "odd.csv").read_bytes() == _per_value_csv(["a", "b", "c", "d"], rows)


def test_analyze_builds_one_context(tmp_path, monkeypatch):
    built = []
    original = analysis.build_context
    monkeypatch.setattr(analysis, "build_context", lambda cfg: built.append(cfg) or original(cfg))
    out = _analyze(tmp_path, "--blocks", "c,tc,full")
    assert len(built) == 1
    # the spectrum holds the eigenvalues of the first mode's shared decomposition
    rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 16 * 4 * 6


def test_full_spectrum_csv_is_the_sorted_matrix_spectrum(tmp_path):
    out = _analyze(tmp_path, "--blocks", "full")
    rows = [r.split(",") for r in (out / "spectrum.csv").read_text().strip().split("\n")[1:]]
    n, m, l = 32, 3, 4
    assert len(rows) == l * m * n
    assert all(r[:2] == ["-1", "-1"] for r in rows)
    vals = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    np.testing.assert_array_equal(vals, sort_eigenvalues(vals))
    ctx = build_context(ExperimentConfig(problem="diffusion", mu=10.0, n=n, m=m, l=l))
    t = oracles.iteration_matrix(ctx.setup)
    assert clusters.matched_cluster_distance(vals, np.linalg.eigvals(t)) < 1e-8


@pytest.mark.parametrize("mu", ["1", "3", "10", "30"])
def test_strategy4_check_ignores_round_off_tail(tmp_path, mu):
    # smooth diffusion converges to round-off well within K = 20; the tail
    # below the floor differs from the prediction by round-off only
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", mu, "--n", "64", "--l", "2",
            "--wavenumber", "1", "--iterations", "20", "--strategies", "apply", "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["strategy4_tc_exact"] is True


def test_strategy4_check_rejects_a_wrong_apply_column():
    cfg = ExperimentConfig(problem="diffusion", mu=10.0, n=64, l=2, wavenumber=1, iterations=20, strategies=("apply",))
    trace = run_and_compare(cfg)
    actual, apply_2 = trace.actual_2, trace.predictions["apply", "tc"]
    assert strategy4_exact(actual, apply_2)
    assert not strategy4_exact(actual, apply_2 * (1 + 1e-7))
    # the prediction for a slightly different problem is wrong from iteration 1 on
    other = build_context(ExperimentConfig(problem="diffusion", mu=10.5, n=64, l=2, wavenumber=1, iterations=20))
    assert not strategy4_exact(actual, predict(other, "apply", "tc"))
    # a non-finite value fails the check, also in a row below the round-off floor
    for column in (actual, apply_2):
        for k in (0, 1, len(column) - 1):
            for bad in (np.nan, np.inf):
                spoiled = column.copy()
                spoiled[k] = bad
                args = (spoiled, apply_2) if column is actual else (actual, spoiled)
                assert not strategy4_exact(*args)


def test_strategy4_check_compares_every_error_above_its_floor():
    # errors between 1e-6 and 1e-3 of ||e^0|| are compared: a prediction 1e-6 off there fails the check;
    # below the floor the same deviation is round-off of ||e^0|| and passes
    actual = 0.4 * np.array([1.0, 1e-1, 1e-2, 1e-4, 5e-6, 1e-7, 1e-9])
    assert strategy4_exact(actual, actual.copy())
    for k, compared in ((3, True), (4, True), (5, False), (6, False)):
        spoiled = actual.copy()
        spoiled[k] *= 1 + 1e-6
        assert strategy4_exact(actual, spoiled) is not compared


def test_bound_chain_check_ignores_round_off_below_the_floor(tmp_path):
    # M = L = 1: Q_Delta = Q, so T = 0 in exact arithmetic and its computed norm is exactly 0,
    # while the measured error after one iteration is round-off (2.5e-18 of 0.40)
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", "1", "--n", "16", "--m", "1", "--l", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["checks"]["bound_chain_2norm"] is True
    trace = run_and_compare(ExperimentConfig(problem="diffusion", mu=1.0, n=16, m=1, l=1))
    s3 = trace.predictions["norm-power", "tc"]
    assert np.all(s3[1:] == 0) and 0 < trace.actual_2[1] <= STRATEGY4_FLOOR * trace.actual_2[0]


@pytest.mark.parametrize("blocks", ["c,tc", "tc,c"])
def test_bound_chain_check_reads_tc_whenever_tc_is_requested(tmp_path, blocks):
    # here c mode's bound chain fails (its blocks assume periodicity in time) and tc's holds,
    # whichever mode comes first
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", "10", "--n", "32", "--m", "1", "--l", "4",
            "--wavenumber", "15", "--blocks", blocks, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["checks"]["bound_chain_2norm"] is True
    cfg = ExperimentConfig(problem="diffusion", mu=10.0, n=32, m=1, l=4, wavenumber=15, blocks=("c",))
    trace = run_and_compare(cfg)
    assert not bound_chain_holds(trace.actual_2, trace.predictions["norm-power", "c"], trace.predictions["norm", "c"])


def test_analyze_of_a_nilpotent_m1_block_exits_0(tmp_path):
    # at M = 1 the tc blocks are nilpotent to round-off (rho = 2.2e-16), so the powers B^k are subnormal
    # from k = 10 on; a complex division by their max entry overflows into a NaN norm-power (exit 3)
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "advection", "--coefficient", "0.000625", "--n", "16", "--m", "1", "--l", "2",
            "--iterations", "12", "--blocks", "tc", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["checks"] == {
        "bound_chain_2norm": True,
        "strategy4_tc_exact": True,
    }


def test_the_2_norms_of_an_error_below_1e_154_are_not_zero():
    # the M = 1 repro's error is 3.5e-164 (max-norm) at k = 11 and 3.9e-180 at k = 12; unscaled squares
    # underflow to a 2-norm of 0 there, below the max-norm, which no 2-norm of the same vector can be
    cfg = ExperimentConfig(problem="advection", coefficient=0.000625, n=16, m=1, l=2, iterations=12)
    trace = run_and_compare(cfg)
    assert 0.0 < trace.actual_inf[12] < 1e-179
    assert np.all(trace.actual_2 >= trace.actual_inf) and np.all(trace.u_run_2 > 0.0)
    assert np.all(trace.predictions["apply", "tc"] > 0.0)


@pytest.mark.parametrize("check", ["strategy4_tc_exact", "bound_chain_2norm"])
def test_analyze_exits_4_after_writing_artifacts_on_a_false_tc_check(tmp_path, monkeypatch, capsys, check):
    function = "strategy4_exact" if check == "strategy4_tc_exact" else "bound_chain_holds"
    monkeypatch.setattr(analysis, function, lambda *columns: False)
    out = _analyze(tmp_path, code=EXIT_VERIFICATION)
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert checks[check] is False and all(value is True for name, value in checks.items() if name != check)
    assert {"trace.csv", "spectrum.csv", "timings.json"} <= {p.name for p in out.iterdir()}
    assert capsys.readouterr().err == f"error: {check} is false\n"


def test_a_false_c_mode_bound_chain_is_only_reported(tmp_path, monkeypatch):
    # c's blocks assume periodicity in time; its bound chain fails here, and tc is not requested
    argv = ["analyze", "--problem", "diffusion", "--mu", "10", "--n", "32", "--m", "1", "--l", "4",
            "--wavenumber", "15", "--blocks", "c", "--out", str(tmp_path / "c")]
    assert main(argv) == EXIT_OK
    assert json.loads((tmp_path / "c" / "report.json").read_text())["checks"]["bound_chain_2norm"] is False
    monkeypatch.setattr(analysis, "bound_chain_holds", lambda *columns: False)
    for blocks in ("c", "full"):
        _analyze(tmp_path / blocks, "--blocks", blocks)


def test_bound_chain_check_rejects_a_low_prediction():
    cfg = ExperimentConfig(
        problem="advection", coefficient=0.02, n=32, m=3, l=4, iterations=12, strategies=("norm", "norm-power")
    )
    trace = run_and_compare(cfg)
    columns = (trace.actual_2, trace.predictions["norm-power", "tc"], trace.predictions["norm", "tc"])
    assert bound_chain_holds(*columns)
    for i in (1, 2):  # ||T^k|| e0 or ||T||^k e0 scaled by 0.9 is below the next link from k = 0 on
        assert not bound_chain_holds(*(0.9 * c if j == i else c for j, c in enumerate(columns)))
    # a NaN fails the check, also in a row below the round-off floor
    for i in range(3):
        for k in (0, 1, len(columns[0]) - 1):
            spoiled = [c.copy() for c in columns]
            spoiled[i][k] = np.nan
            assert not bound_chain_holds(*spoiled)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_refuses_non_finite_results(tmp_path, capsys):
    # the run overflows from iteration 1 on; nothing is written
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", "1e300", "--n", "16", "--m", "3", "--l", "2",
            "--iterations", "3", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    assert "actual_inf is not finite from iteration 1: the run overflows" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_overflow_under_warnings_as_errors_exits_3(tmp_path):
    # as CI runs every CLI call: under -W error::RuntimeWarning numpy's overflow warning is raised, and it is
    # a numerical failure like the non-finite check's, one error line and exit 3 with nothing written
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", "1e300", "--n", "16", "--m", "3", "--l", "2",
            "--iterations", "3", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pfasst_lfa.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERICAL
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "overflow" in line
    assert proc.stdout == "" and not out.exists()


def test_analyze_names_a_non_finite_prediction(tmp_path, capsys, monkeypatch):
    original = analysis.predict

    def overflowing(ctx, strategy, mode):
        values = original(ctx, strategy, mode)
        if strategy == "norm":
            values[2:] = np.inf
        return values

    monkeypatch.setattr(analysis, "predict", overflowing)
    out = _analyze(tmp_path, code=EXIT_NUMERICAL)
    assert "pred_norm_tc is not finite from iteration 2: the prediction overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_analyze_exits_3_on_a_non_finite_iteration_column(tmp_path, capsys, monkeypatch, value):
    # a non-finite entry of T's first block column, outside T_00: full mode's 2-norms are NaN, not a finite guess
    original = lfa.full_decompose

    def spoiled(setup):
        d = original(setup)
        column = d.blocks[0].copy()
        column[-1, 0] = value
        return lfa.BlockDecomposition(column[None], d.meta)

    monkeypatch.setattr(lfa, "full_decompose", spoiled)
    out = _analyze(tmp_path, "--strategies", "norm-power", "--blocks", "full", code=EXIT_NUMERICAL)
    assert "pred_norm-power_full is not finite from iteration 1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_worker_linalg_error_exits_3(tmp_path, capsys, monkeypatch, worker_takes_every_chunk):
    # the block eigenvalues are solved on a worker thread, which takes the one chunk here (the main thread
    # takes none back); its LinAlgError reaches main at the join
    threads = []

    def failing(a):
        threads.append(threading.current_thread())
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    out = _analyze(tmp_path, code=EXIT_NUMERICAL)
    err = capsys.readouterr().err
    assert "numerical failure: Eigenvalues did not converge" in err
    assert "Traceback" not in err
    assert threads and threading.main_thread() not in threads
    assert not out.exists()


def test_analyze_refuses_an_out_that_is_or_lies_under_a_file(tmp_path, capsys, monkeypatch):
    # a file, a path under a file and a dangling link: a usage error before the run, exit 2, nothing written
    runs = []
    monkeypatch.setattr(cli, "run_and_compare", lambda *args, **kwargs: runs.append(args))
    blocker, dangling = tmp_path / "file", tmp_path / "dangling"
    blocker.write_text("keep")
    dangling.symlink_to(tmp_path / "missing")
    for out in (blocker, blocker / "sub", dangling):
        argv = ["analyze", "--problem", "diffusion", "--mu", "10", "--n", "16", "--m", "2", "--l", "2",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
    assert runs == []
    assert blocker.read_text() == "keep"
    assert sorted(tmp_path.iterdir()) == [dangling, blocker]


def test_analyze_reruns_are_byte_identical(tmp_path):
    out1 = _analyze(tmp_path / "a")
    out2 = _analyze(tmp_path / "b")
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_analyze_records_the_tc_similarity_residual_with_tc_and_full(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = _analyze(tmp_path / name, "--blocks", "tc,full")
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    residual = json.loads(reports[0])["checks"]["tc_similarity_residual"]
    assert 0.0 < residual <= 1e-14
    for blocks in ("tc", "full", "c,full"):
        out = _analyze(tmp_path / blocks, "--blocks", blocks)
        assert "tc_similarity_residual" not in json.loads((out / "report.json").read_text())["checks"]


C_CHAIN = {"mu": 10.0, "n": 32, "m": 1, "l": 4, "wavenumber": 15}  # c mode's bound chain fails here, tc's holds


@pytest.mark.parametrize(
    "fields,spoiled,chain,failures",
    [
        ({"mu": 10.0, "n": 32, "m": 3, "l": 4, "blocks": ("c", "tc", "full")}, False, True, []),
        ({**C_CHAIN, "blocks": ("c",)}, False, False, []),
        ({**C_CHAIN, "blocks": ("c", "tc")}, False, True, []),
        ({"mu": 10.0, "n": 32, "m": 3, "l": 4}, True, True, ["strategy4_tc_exact is false"]),
    ],
)
def test_trace_checks_are_the_reports_checks_and_the_analyze_errors(tmp_path, monkeypatch, capsys, fields, spoiled,
                                                                    chain, failures):
    # a library caller reads the CLI's verdict off the trace: the report's checks, and one error line per failure
    if spoiled:
        monkeypatch.setattr(analysis, "strategy4_exact", lambda *columns: False)
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--out", str(out)]
    for name, value in fields.items():
        argv += [f"--{name}", ",".join(value) if isinstance(value, tuple) else str(value)]
    code = main(argv)
    errors = [line.removeprefix("error: ") for line in capsys.readouterr().err.splitlines()]
    checks, failed = run_and_compare(ExperimentConfig(problem="diffusion", **fields)).checks()
    assert checks == json.loads((out / "report.json").read_text())["checks"]
    assert failed == errors == failures and code == (EXIT_VERIFICATION if failures else EXIT_OK)
    assert checks["bound_chain_2norm"] is chain


def test_analyze_exits_4_after_writing_artifacts_when_tc_differs_from_t(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "tc_similarity_residual", lambda t, tc: 1.0)
    out = _analyze(tmp_path, "--blocks", "tc,full", code=EXIT_VERIFICATION)
    assert json.loads((out / "report.json").read_text())["checks"]["tc_similarity_residual"] == 1.0
    assert {"trace.csv", "spectrum.csv", "timings.json"} <= {p.name for p in out.iterdir()}
    assert "tc similarity residual 1.000e+00 > 1e-12" in capsys.readouterr().err


def test_analyze_records_the_cross_route_norm_with_tc_and_full(tmp_path):
    # ||T^k||, k = 1..K, by the tc blocks and by T's first block column agree to round-off; ||T|| without norm-power
    for strategies, bound in (("norm-power", 1e-13), ("rho,norm", 1e-14)):
        out = _analyze(tmp_path / strategies, "--iterations", "20", "--strategies", strategies, "--blocks", "tc,full")
        assert 0.0 <= json.loads((out / "report.json").read_text())["checks"]["cross_route_norm"] <= bound
    out = _analyze(tmp_path / "c", "--blocks", "c,full")
    assert "cross_route_norm" not in json.loads((out / "report.json").read_text())["checks"]


def test_analyze_exits_4_when_the_full_norms_differ_from_tc(tmp_path, monkeypatch, capsys):
    # a full-mode 2-norm 1e-6 off: past the cross-route tolerance, after the artifacts are written
    norm2 = lfa.toeplitz_norm2
    monkeypatch.setattr(lfa, "toeplitz_norm2", lambda column: norm2(column) * (1 + 1e-6))
    out = _analyze(tmp_path, "--blocks", "tc,full", code=EXIT_VERIFICATION)
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert checks["cross_route_norm"] == pytest.approx(1e-6, rel=1e-6) and checks["tc_similarity_residual"] < 1e-14
    assert {"trace.csv", "spectrum.csv", "timings.json"} <= {p.name for p in out.iterdir()}
    assert f"cross route norm 1.000e-06 > {analysis.CROSS_ROUTE_NORM_TOL:.0e}" in capsys.readouterr().err


def test_analyze_reports_the_node_sweep_condition_in_closed_form(tmp_path):
    # M = 1 implicit Euler: the pivots are 1 - dt*lambda over the Laplacian's
    # spectrum [-4 nu/dx^2, 0], so the spread is 1 + 4 mu; the coarse grid
    # has twice the spacing and a quarter of the mesh ratio
    out = _analyze(tmp_path, "--m", "1", "--l", "2")
    condition = json.loads((out / "report.json").read_text())["numerics"]["node_sweep_condition"]
    assert condition["fine"] == pytest.approx(1 + 4 * 10.0, rel=1e-14)
    assert condition["coarse"] == pytest.approx(1 + 10.0, rel=1e-14)


@pytest.mark.parametrize("blocks", ["tc,c", "full", "tc,c,full", "verify"])
def test_a_cold_start_imports_no_scipy(tmp_path, blocks):
    # a fresh interpreter: no analysis and no verify imports scipy, the matrix route's full-mode 2-norms
    # included (their Lanczos solves its Ritz pairs with numpy's eigh)
    code = (
        "import sys\n"
        "from pfasst_lfa.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    argv = ["analyze", "--problem", "advection", "--coefficient", "0.5", "--n", "16", "--m", "3", "--l", "2",
            "--iterations", "3", "--blocks", blocks, "--out", str(tmp_path)]
    if blocks == "verify":
        argv = ["verify", "--scale", "small"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-1].split() == []  # the line after verify's table


def test_importing_the_cli_loads_no_scipy_and_no_executor():
    # the import a cold start pays before any analysis: numpy and the package, no scipy and no thread
    # pool, which run_and_compare imports only when it runs
    code = (
        "import sys\n"
        "import pfasst_lfa.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent.futures'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.split() == []


def test_analyze_zero_iterations_single_row(tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "analyze",
                "--problem",
                "diffusion",
                "--mu",
                "10",
                "--n",
                "16",
                "--m",
                "2",
                "--iterations",
                "0",
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    rows = (out / "trace.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header and the single e0 row


def test_analyze_advection_reports_cfl(tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "analyze",
                "--problem",
                "advection",
                "--coefficient",
                "4.88e-3",
                "--n",
                "128",
                "--m",
                "3",
                "--iterations",
                "2",
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    report = json.loads((out / "report.json").read_text())
    assert report["cfl"] == 0.062464
    assert report["config"]["qdelta_kind"] == "lu"


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--problem", "diffusion", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "analyze",
                "--problem",
                "advection",
                "--mu",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "analyze",
                "--problem",
                "diffusion",
                "--mu",
                "10",
                "--strategies",
                "psychic",
                "--out",
                str(tmp_path),
            ]
        )
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--problem", "membrane", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "unknown problem 'membrane'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "analyze",
                "--problem",
                "diffusion",
                "--coefficient",
                "1e-3",
                "--mu",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
    assert exc.value.code == EXIT_USAGE


def test_every_analyze_option_but_out_is_a_config_field_without_a_default_or_choices():
    # ExperimentConfig alone holds a request's defaults and choices
    parser = cli._build_parser()
    analyze = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["analyze"]
    options = {action.dest for action in analyze._actions if action.dest != "help"}
    assert options - {"out"} <= {field.name for field in fields(ExperimentConfig)}
    assert all(action.choices is None for action in analyze._actions)
    args = parser.parse_args(["analyze", "--problem", "diffusion", "--out", "out"])
    assert vars(args) == {"command": "analyze", "problem": "diffusion", "out": "out"}


@pytest.mark.parametrize(
    "flags,given",
    [
        ([], {}),
        (
            ["--n", "32", "--m", "3", "--l", "2", "--dt", "0.2", "--wavenumber", "2", "--iterations", "4",
             "--strategies", "rho,,apply", "--blocks", "c,tc"],
            {"n": 32, "m": 3, "l": 2, "dt": 0.2, "wavenumber": 2, "iterations": 4, "strategies": ("rho", "apply"),
             "blocks": ("c", "tc")},
        ),
    ],
    ids=["defaults-only", "every-option"],
)
def test_analyze_hands_run_and_compare_the_config_of_the_given_options(tmp_path, monkeypatch, flags, given):
    # an option left out takes the config's default; --strategies and --blocks arrive as tuples
    class Stop(Exception):
        pass

    configs = []

    def record(cfg):
        configs.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "run_and_compare", record)
    with pytest.raises(Stop):
        main(["analyze", "--problem", "diffusion", "--mu", "10", *flags, "--out", str(tmp_path / "out")])
    expected = ExperimentConfig(problem="diffusion", mu=10.0, **given)
    assert configs == [expected]
    assert repr(configs[0]) == repr(expected)  # the same types too: 10.0, not 10
    assert not (tmp_path / "out").exists()


def _refused(argv) -> int:
    """The exit code of a ``main`` call that argparse ends with a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_config_range_errors_exit_2_with_their_message(tmp_path, capsys):
    # ExperimentConfig is the one place that checks the fields; nothing is written
    diffusion = ["--problem", "diffusion", "--mu", "10"]
    advection = ["--problem", "advection", "--coefficient"]
    for flags, fragment in [
        ([*diffusion, "--m", "13"], "m (quadrature nodes)"),
        ([*diffusion, "--wavenumber", "0"], "wavenumber"),
        ([*diffusion, "--wavenumber", "64"], "Nyquist mode"),
        ([*diffusion, "--n", "31"], "n must be a multiple of 4"),
        ([*diffusion, "--n", "18"], "n must be a multiple of 4 with n/2 >= 8, the transfer stencil width, got n = 18"),
        ([*diffusion, "--dt", "inf"], "dt must be finite and positive, got inf"),
        ([*diffusion, "--dt", "nan"], "dt must be finite and positive, got nan"),
        (["--problem", "diffusion", "--mu", "-1"], "mu must be finite and positive, got -1.0"),
        (["--problem", "diffusion", "--mu", "nan"], "mu must be finite and positive, got nan"),
        (["--problem", "diffusion", "--coefficient", "nan"], "coefficient must be finite and positive"),
        ([*advection, "nan"], "coefficient must be finite and positive, got nan"),
        ([*advection, "inf"], "coefficient must be finite and positive, got inf"),
        ([*advection, "-0.5"], "coefficient must be finite and positive, got -0.5"),
        # the ranges that the layers below the config assume, rejected here and nowhere else
        ([*diffusion, "--m", "0"], "m (quadrature nodes) must lie in 1..12, got 0"),
        ([*diffusion, "--l", "0"], "l (time intervals) must be >= 1, got 0"),
        ([*diffusion, "--iterations", "-1"], "iterations must be >= 0, got -1"),
        ([*diffusion, "--n", "8"], "n must be a multiple of 4 with n/2 >= 8, the transfer stencil width, got n = 8"),
        ([*diffusion, "--n", "4"], "n must be a multiple of 4 with n/2 >= 8, the transfer stencil width, got n = 4"),
        ([*diffusion, "--wavenumber", "128"], "wavenumber must lie in 1..n-1 = 127, got 128"),
    ]:
        out = tmp_path / "out"
        assert _refused(["analyze", *flags, "--out", str(out)]) == EXIT_USAGE
        assert fragment in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flags,fragments",
    [
        (["--m", "0"], ("m (quadrature nodes)", "got 0")),
        (["--blocks", "c", "--l", "1"], ("blocks: c mode needs l >= 2", "got l=1")),
        (["--strategies", "rho,psychic"], ("strategies must be one or more of", "'psychic'")),
        (["--blocks", "tc,fft"], ("blocks must be one or more of", "'fft'")),
        (["--strategies", ""], ("strategies must be one or more of", "got []")),
    ],
    ids=["m-0", "c-at-l-1", "strategy-psychic", "block-fft", "no-strategy"],
)
def test_refused_input_exits_2_before_any_work(tmp_path, capsys, monkeypatch, flags, fragments):
    # every refusal comes from ExperimentConfig, before a context, a block or a sweep exists
    built = []
    monkeypatch.setattr(analysis, "build_context", lambda cfg: built.append(cfg))
    base = ["analyze", "--problem", "diffusion", "--mu", "10", "--n", "16", "--m", "2", "--l", "2"]
    assert _refused([*base, *flags, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(fragment in err for fragment in fragments), err
    assert built == []
    assert list(tmp_path.iterdir()) == []


def test_analyze_c_mode_at_one_interval_exits_2_naming_l(tmp_path, capsys, monkeypatch):
    # c mode builds no block at time frequency j = 0, the only one at l = 1; it is refused before the run
    runs = []
    original = analysis.pfasst_run_algorithmic
    monkeypatch.setattr(analysis, "pfasst_run_algorithmic", lambda *args: runs.append(args) or original(*args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _analyze(tmp_path, "--l", "1", "--blocks", "c")
    assert exc.value.code == EXIT_USAGE
    assert "l=1" in capsys.readouterr().err
    assert not out.exists()
    assert runs == []
    # tc mode is exact at l = 1
    _analyze(tmp_path, "--l", "1", "--blocks", "tc")
    assert len(runs) == 1


# Each check's tracemalloc peak in ``verify --scale large`` (L*M*N = 2560), in MB: 31.0, 33.6, 21.1 and 28.9, here
# and in a fresh process alike (45.2, 39.8, 21.1 and 28.9 with T's column from band products, and check 2 holding
# one interval's transforms into the next), bounded with a margin of 5-45 MB.  M and T are held as their first
# block columns (13 MB each): check 1 builds T's from one P_fine and one P_coarse solve, without M's (the build
# alone peaks at 23.3), and steps the iterates' differences with it, and check 2 transforms one interval of T's
# column at a time.  A dense M or T (52 MB) breaks check 1's bound.  This call sets the dense-verify benchmark's
# peak RSS: 120.5 MB with the band build, 111.5 MB now (medians of 20 alternating pairs, 1 BLAS thread)
VERIFY_LARGE_PEAK_MB = (50, 80, 50, 60)


def test_verify_large_assembles_no_dense_composite_matrix(monkeypatch):
    contexts, build_context = [], analysis.build_context
    monkeypatch.setattr(analysis, "build_context", lambda cfg: contexts.append(build_context(cfg)) or contexts[-1])
    checks, results = analysis.verify_checks("large"), []
    tracemalloc.start()
    try:
        while True:
            tracemalloc.reset_peak()
            check = next(checks, None)
            if check is None:
                break
            results.append((*check, tracemalloc.get_traced_memory()[1] / 2**20))
    finally:
        tracemalloc.stop()
    assert len(results) == len(VERIFY_LARGE_PEAK_MB)
    for i, ((name, _, _, peak), bound) in enumerate(zip(results, VERIFY_LARGE_PEAK_MB), 1):
        print(f"verify --scale large, check {i} ({name}): tracemalloc peak {peak:.1f} MB, bound {bound} MB")
    assert all(residual <= tol for _, residual, tol, _ in results)
    assert all(peak <= bound for (*_, peak), bound in zip(results, VERIFY_LARGE_PEAK_MB))
    [ctx] = contexts
    assert not hasattr(ctx.setup, "composite_matrix") and "iteration_column" in vars(ctx.setup)


@pytest.mark.parametrize("scale", ["small", "large"])
def test_verify_starts_no_worker(monkeypatch, scale):
    # every check of verify runs on the main thread, with a spare core too: it constructs no executor.  An
    # analysis, which reads the same patched name at call time, constructs one
    monkeypatch.setattr(analysis, "_spare_core", lambda: True)
    constructed, executor = [], concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda *a: constructed.append(a) or executor(*a))
    assert main(["verify", "--scale", scale]) == EXIT_OK
    assert constructed == []
    run_and_compare(ExperimentConfig(problem="diffusion", mu=10.0, n=16, m=3, l=2, iterations=2))
    assert constructed == [(1,)]


def test_verify_small_passes():
    assert main(["verify", "--scale", "small"]) == EXIT_OK


def test_verify_computes_no_dense_eigenvalues(monkeypatch, capsys):
    calls = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or original(a))
    assert main(["verify", "--scale", "small"]) == EXIT_OK
    assert calls == []
    out = capsys.readouterr().out.splitlines()
    row = next(line for line in out if line.startswith("tc blocks vs transformed T column"))
    assert float(row.split()[-3]) <= 1e-14


@pytest.mark.parametrize("scale", ["small", "large"])
def test_verify_detects_qdelta_mutation(monkeypatch, capsys, scale):
    # the tc blocks built from a negated Q_Delta: check 2 alone fails, and verify exits 4
    original = lfa.tc_decompose
    monkeypatch.setattr(lfa, "tc_decompose", lambda setup, *a: original(replace(setup, qdelta=-setup.qdelta), *a))
    assert main(["verify", "--scale", scale]) == EXIT_VERIFICATION
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[-1] for row in rows] == ["PASS", "FAIL", "PASS", "PASS"]
    assert rows[1].startswith("tc blocks vs transformed T column")


@pytest.mark.parametrize("scale", ["small", "large"])
def test_verify_detects_a_mutated_fine_sweep(monkeypatch, capsys, scale):
    # the algorithmic run's fine sweep from Q_Delta's diagonal alone, a valid but other sweep: check 1 alone
    # fails, as the matrix route and the tc blocks keep the setup's Q_Delta, and verify exits 4
    monkeypatch.setattr(solvers.TwoLevelSetup, "fine_sweep",
                        property(lambda setup: solvers.node_sweep(setup.fine, np.diag(np.diag(setup.qdelta)))))
    assert main(["verify", "--scale", scale]) == EXIT_VERIFICATION
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[-1] for row in rows] == ["FAIL", "PASS", "PASS", "PASS"]
    assert rows[0].startswith("pfasst matrix vs algorithmic")


def test_verify_detects_a_tampered_iteration_column(monkeypatch, capsys):
    # one block of T's first block column off by about 1e-6 of max |T|: check 1 steps the run's iterates with it and
    # check 2 transforms it, so both fail
    original = solvers.pfasst_iteration_column

    def tampered(*args):
        column = original(*args)
        d = column.shape[1]
        column[d : 2 * d] += 1e-6 * np.max(np.abs(column)) * np.random.default_rng(7).standard_normal((d, d))
        return column

    monkeypatch.setattr(solvers, "pfasst_iteration_column", tampered)
    assert main(["verify", "--scale", "small"]) == EXIT_VERIFICATION
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[-1] for row in rows] == ["FAIL", "FAIL", "PASS", "PASS"]


def test_verify_detects_a_column_built_without_the_coupling_factor(monkeypatch, capsys):
    # the column's one P_fine solve, of [E, C], with its coupling factor F = P_fine^{-1} E zeroed: T's blocks
    # i >= 1 lose S's sub-diagonal block F Lam, so check 1 (the run against T's steps) and check 2 (the tc blocks
    # against T's column) fail, and verify exits 4
    n, w, zeroed = 32, 3 * 32, []  # verify --scale small: N and M*N
    solve = solvers.Preconditioner._solve

    def without_f(p, rhs):
        x = solve(p, rhs)
        if rhs.shape == (w, n + w):  # [F, P_fine^{-1} C]
            x[:, :n] = 0.0
            zeroed.append(1)
        return x

    monkeypatch.setattr(solvers.Preconditioner, "_solve", without_f)
    assert main(["verify", "--scale", "small"]) == EXIT_VERIFICATION
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[-1] for row in rows] == ["FAIL", "FAIL", "PASS", "PASS"] and zeroed == [1]


def test_verify_check_1_iterates_equal_the_mlsdc_step_loop(monkeypatch):
    # check 1 takes one mlsdc_step and then steps the differences by T's first block column; with five
    # mlsdc_step calls, the former check 1, in place of the algorithmic run, its residual is the distance
    # between the two matrix routes' iterates, and T is the setup's cached column, built once
    steps, contexts, built = [], [], []
    build_context, column = analysis.build_context, solvers.pfasst_iteration_column
    monkeypatch.setattr(analysis, "build_context", lambda cfg: contexts.append(build_context(cfg)) or contexts[-1])
    monkeypatch.setattr(solvers, "pfasst_iteration_column", lambda *args: built.append(1) or column(*args))

    def stepped(setup, rhs, start, iterations):
        p_gs, p_j = setup.composite_preconditioners
        steps.append(start)
        for _ in range(iterations):
            steps.append(solvers.mlsdc_step(p_j, p_gs, setup.pair, setup.composite_column, rhs.ravel(), steps[-1]))
        return steps

    monkeypatch.setattr(analysis, "pfasst_run_algorithmic", stepped)
    checks = analysis.verify_checks("small")
    name, residual, _ = next(checks)
    assert name == "pfasst matrix vs algorithmic" and len(steps) == 6
    assert 0 < residual <= 1e-13 * max(np.max(np.abs(u)) for u in steps)
    assert built == [1] and "iteration_column" in vars(contexts[0].setup)
    assert next(checks)[1] <= analysis.TC_SIMILARITY_TOL and built == [1]


def test_verify_prints_the_transfer_structure_residual_of_tampered_diagonals(monkeypatch, capsys):
    # check 3 prints the deviation it measures, a finite number, and fails on it
    original = analysis.harmonic_diagonals

    def tampered(pair):
        diags = original(pair)
        d = diags.d.copy()
        d[3] += 1e-6
        return replace(diags, d=d)

    monkeypatch.setattr(analysis, "harmonic_diagonals", tampered)
    assert main(["verify", "--scale", "small"]) == EXIT_VERIFICATION
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("transfer transform structure"))
    assert row.split()[-1] == "FAIL"
    residual = float(row.split()[-3])
    assert np.isfinite(residual) and residual >= 1e-7

