"""Smoke test of the benchmark: tiny configurations, every declared metric emitted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = _run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_workload_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _sizes(argv):
    """An argv without the seeded physics: problem, coefficient and wavenumber."""
    drawn = ("--problem", "--mu", "--coefficient", "--wavenumber")
    return [x for i, x in enumerate(argv) if x not in drawn and (i == 0 or argv[i - 1] not in drawn)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_draws_parameters_not_sizes(workload):
    a = workloads.generate(workload, 3, 20)
    b = workloads.generate(workload, 4, 20)
    assert a == workloads.generate(workload, 3, 20)
    assert [_sizes(x) for x in a] == [_sizes(x) for x in b]


def _artifacts(path, blocks=("tc",), checks=None, gap=1e-14, value="0.5"):
    """Synthetic analyze outputs: trace.csv, spectrum.csv and report.json."""
    (path / "trace.csv").write_text(f"k,actual_2\n0,1.0\n1,{value}\n")
    (path / "spectrum.csv").write_text("mode,index,re,im\n0,0,0.5,0.1\n")
    checks = {"strategy4_tc_exact": True, "bound_chain_2norm": True, **(checks or {})}
    report = {"config": {"blocks": list(blocks)}, "checks": checks, "error_measurement_consistency": gap}
    (path / "report.json").write_text(json.dumps(report))


@pytest.mark.parametrize(
    "artifacts, expected",
    [
        ({}, []),
        ({"checks": {"strategy4_tc_exact": False}}, ["strategy4_tc_exact false"]),
        ({"checks": {"bound_chain_2norm": False}}, ["bound_chain_2norm false"]),
        # the c mode approximates: its bound chain is not gated
        ({"blocks": ("c",), "checks": {"bound_chain_2norm": False}}, []),
        ({"gap": 1e-9}, ["consistency gap 1.000e-09 > 1e-11"]),
        ({"value": "nan"}, ["non-finite value in trace.csv"]),
    ],
    ids=["pass", "tc-exact", "bound-chain", "c-mode", "gap", "non-finite"],
)
def test_gate_reasons(artifacts, expected, tmp_path):
    _artifacts(tmp_path, **artifacts)
    reasons, digest, outputs = gate.check(["analyze"], 0, tmp_path, "")
    assert reasons == expected and digest
    assert gate.compare(outputs, outputs) == []


def test_gate_fails_exit_code_and_verify_fail(tmp_path):
    assert gate.check(["analyze"], 1, tmp_path, "")[0] == ["exit code 1"]
    assert gate.check(["verify"], 0, tmp_path, "lfa  FAIL")[0] == ["verify reported FAIL"]
