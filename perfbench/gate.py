"""Correctness gate for one analysis, output digests and the seed-0 reference.

An analysis fails when the CLI exits non-zero, a CSV holds a non-finite
number, the propagated and subtracted error norms disagree by more than the
test-suite tolerance, a tc-mode check in report.json is false, or verify
prints a FAIL.  The c mode approximates, so its bound chain is not gated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# tests/test_analysis.py: trace.consistency_gap() < 1e-11
CONSISTENCY_TOL = 1e-11
# Tolerances against the stored reference: a value v matches r when
# |v - r| <= rtol*|r| + atol*|r_0|, r_0 being the column's iteration-0 value, so
# round-off-level tails are compared absolutely.  rho predictions take the max
# modulus over defective eigenvalue clusters whose ring scatter is about
# eps^(1/p), so they get the looser rtol the test suite also uses for rho.
REFERENCE_RTOL = 1e-7
REFERENCE_RTOL_RHO = 1e-3
REFERENCE_ATOL = 1e-12


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def check(argv: list[str], rc: int, out_dir: Path, stdout: str) -> tuple[list[str], str, dict]:
    """(failure reasons, output digest, outputs to compare against a reference)."""
    reasons = [] if rc == 0 else [f"exit code {rc}"]
    digest = hashlib.sha256()
    if argv[0] == "verify":
        digest.update(stdout.encode())
        if "FAIL" in stdout:
            reasons.append("verify reported FAIL")
        return reasons, digest.hexdigest(), {}
    if rc != 0:
        return reasons, "", {}

    outputs = {}
    for name in ("trace.csv", "spectrum.csv"):
        path = out_dir / name
        digest.update(path.read_bytes())
        header, rows = _read_csv(path)
        if not all(math.isfinite(x) for row in rows for x in row):
            reasons.append(f"non-finite value in {name}")
        if name == "trace.csv":
            outputs["trace"] = {col: [row[i] for row in rows] for i, col in enumerate(header)}
        else:
            outputs["spectrum_rows"] = len(rows)
            outputs["spectrum_max_abs"] = max((math.hypot(r[2], r[3]) for r in rows), default=0.0)

    report = json.loads((out_dir / "report.json").read_text())
    gap = report["error_measurement_consistency"]
    if not gap <= CONSISTENCY_TOL:
        reasons.append(f"consistency gap {gap:.3e} > {CONSISTENCY_TOL:.0e}")
    if "tc" in report["config"]["blocks"]:
        for key in ("strategy4_tc_exact", "bound_chain_2norm"):
            if report["checks"][key] is False:
                reasons.append(f"{key} false")
    return reasons, digest.hexdigest(), outputs


def compare(outputs: dict, ref: dict) -> list[str]:
    """Differences between an analysis's outputs and its stored reference."""
    reasons = []
    if outputs.get("spectrum_rows") != ref.get("spectrum_rows"):
        reasons.append("spectrum row count differs from reference")
    elif not math.isclose(outputs["spectrum_max_abs"], ref["spectrum_max_abs"], rel_tol=REFERENCE_RTOL_RHO):
        reasons.append("spectrum max modulus differs from reference")
    trace, ref_trace = outputs.get("trace", {}), ref.get("trace", {})
    if sorted(trace) != sorted(ref_trace):
        return reasons + ["trace.csv columns differ from reference"]
    for col, ref_vals in ref_trace.items():
        rtol = REFERENCE_RTOL_RHO if col.startswith("pred_rho_") else REFERENCE_RTOL
        atol = REFERENCE_ATOL * abs(ref_vals[0])
        vals = trace[col]
        if len(vals) != len(ref_vals) or any(abs(a - b) > rtol * abs(b) + atol for a, b in zip(vals, ref_vals)):
            reasons.append(f"trace.csv {col} differs from reference (rtol {rtol:.0e}, atol {atol:.1e})")
    return reasons
