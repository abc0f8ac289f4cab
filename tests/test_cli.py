"""Command-line interface: artifacts, determinism and exit codes."""

import json

import numpy as np
import pytest

from pfasst_lfa import analysis, lfa, solvers
from pfasst_lfa.analysis import ExperimentConfig, build_context, predict, run_and_compare
from pfasst_lfa.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main, strategy4_exact
from pfasst_lfa.linalg import sort_eigenvalues


def _analyze(tmp_path, *extra):
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
    assert main(args) == EXIT_OK
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
        "write_outputs",
    }
    assert report["config"]["problem"] == "diffusion"
    assert report["config"]["qdelta_kind"] == "implicit-euler"
    assert "tc" in report["aggregates"]
    assert report["checks"]["strategy4_tc_exact"] is True


def test_trace_csv_columns_and_format(tmp_path):
    out = _analyze(tmp_path, "--strategies", "apply,rho", "--blocks", "tc")
    lines = (out / "trace.csv").read_bytes().split(b"\n")
    header = lines[0].decode()
    assert header == "iteration,actual_inf,actual_2,pred_apply_tc,pred_rho_tc"
    assert len(lines) == 5 + 2 + 1  # K+1 rows, header, trailing newline
    # 17 significant digits in scientific notation
    first = lines[1].decode().split(",")
    assert first[0] == "0"
    mantissa = first[1].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17
    # LF endings only
    assert b"\r" not in (out / "trace.csv").read_bytes()


def test_spectrum_csv_covers_all_blocks(tmp_path):
    out = _analyze(tmp_path)
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert rows[0] == "block_k,block_j,eig_re,eig_im"
    data = [r.split(",") for r in rows[1:]]
    # tc mode at n=32, m=3, l=4: 16 blocks of dimension 24
    assert len(data) == 16 * 24
    assert {d[0] for d in data} == {str(k) for k in range(16)}
    assert {d[1] for d in data} == {"-1"}


def test_analyze_builds_one_context(tmp_path, monkeypatch):
    built = []
    original = analysis.build_context
    monkeypatch.setattr(analysis, "build_context", lambda cfg: built.append(cfg) or original(cfg))
    out = _analyze(tmp_path, "--blocks", "c,tc,full")
    assert len(built) == 1
    # the spectrum comes from the first mode's shared block spectra
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
    t = ctx.setup.iteration_matrix
    assert lfa.matched_cluster_distance(vals, np.linalg.eigvals(t)) < 1e-8


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
    cfg = ExperimentConfig(problem="diffusion", mu=10.0, n=64, l=2, wavenumber=1, iterations=20)
    trace = run_and_compare(cfg, strategies=("apply",))
    actual, apply_2 = trace.actual_2, trace.prediction("apply", "tc").values
    assert strategy4_exact(actual, apply_2)
    assert not strategy4_exact(actual, apply_2 * (1 + 1e-7))
    # the prediction for a slightly different problem is wrong from iteration 1 on
    other = build_context(ExperimentConfig(problem="diffusion", mu=10.5, n=64, l=2, wavenumber=1, iterations=20))
    assert not strategy4_exact(actual, predict(other, "apply", "tc").values)
    # a non-finite value fails the check, also in a row below the round-off floor
    for column in (actual, apply_2):
        for k in (0, 1, len(column) - 1):
            for bad in (np.nan, np.inf):
                spoiled = column.copy()
                spoiled[k] = bad
                args = (spoiled, apply_2) if column is actual else (actual, spoiled)
                assert not strategy4_exact(*args)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_refuses_non_finite_results(tmp_path, capsys):
    # the run overflows from iteration 1 on; nothing is written
    out = tmp_path / "out"
    argv = ["analyze", "--problem", "diffusion", "--mu", "1e300", "--n", "16", "--m", "3", "--l", "2",
            "--iterations", "3", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    assert "actual_inf is not finite from iteration 1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_reruns_are_byte_identical(tmp_path):
    out1 = _analyze(tmp_path / "a")
    out2 = _analyze(tmp_path / "b")
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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


def test_usage_errors_exit_2(tmp_path):
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


def test_config_range_errors_exit_3_with_their_message(tmp_path, capsys):
    # ExperimentConfig is the one place that checks the fields; nothing is written
    diffusion = ["--problem", "diffusion", "--mu", "10"]
    advection = ["--problem", "advection", "--coefficient"]
    for flags, fragment in [
        ([*diffusion, "--m", "13"], "m (quadrature nodes)"),
        ([*diffusion, "--wavenumber", "0"], "wavenumber"),
        ([*diffusion, "--wavenumber", "64"], "Nyquist mode"),
        ([*diffusion, "--n", "31"], "n must be even"),
        ([*diffusion, "--dt", "inf"], "dt must be finite and positive, got inf"),
        ([*diffusion, "--dt", "nan"], "dt must be finite and positive, got nan"),
        (["--problem", "diffusion", "--mu", "-1"], "mu must be finite and positive, got -1.0"),
        (["--problem", "diffusion", "--mu", "nan"], "mu must be finite and positive, got nan"),
        (["--problem", "diffusion", "--coefficient", "nan"], "coefficient must be finite and positive"),
        ([*advection, "nan"], "coefficient must be finite and positive, got nan"),
        ([*advection, "inf"], "coefficient must be finite and positive, got inf"),
        ([*advection, "-0.5"], "coefficient must be finite and positive, got -0.5"),
    ]:
        out = tmp_path / "out"
        assert main(["analyze", *flags, "--out", str(out)]) == EXIT_NUMERICAL
        assert fragment in capsys.readouterr().err
        assert not out.exists()


def test_verify_shares_one_composite_matrix(monkeypatch):
    calls = {"composite_system": 0, "pfasst_iteration_matrix": 0}
    for name in calls:
        original = getattr(solvers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    assert main(["verify", "--scale", "small"]) == EXIT_OK
    assert calls == {"composite_system": 1, "pfasst_iteration_matrix": 1}


def test_verify_small_passes():
    assert main(["verify", "--scale", "small"]) == EXIT_OK


def test_verify_detects_qdelta_mutation():
    assert main(["verify", "--scale", "small", "--flip-qdelta-sign"]) == EXIT_VERIFICATION


def test_numerical_failure_exit_3(tmp_path):
    # grid too small for the default degree-6 interpolation stencil
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--problem",
            "diffusion",
            "--mu",
            "10",
            "--n",
            "8",
            "--m",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 3
