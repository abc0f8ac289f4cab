"""Benchmark of pfasst-lfa's three error routes, driven through the public CLI.

    python3 perfbench/run.py --workload tc-sweep --seed 0 --seconds 20 --trace 0

Each workload is a closed loop with one client: it calls
``pfasst_lfa.cli.main([...])`` in this process, checks the artifacts the call
wrote, and only then issues the next call.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same calls once untraced and once
traced and reports the per-layer metrics.  The last line of standard output
is one JSON object; a full record (environment, configurations, per-call
times, digests) goes to perfbench/_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402  (benchmark-local modules, importable without numpy)
import workloads  # noqa: E402
import tracing  # noqa: E402

BLAS_THREADS = 1  # the single-threaded baseline; capped at nproc
SETUP_PROBES = 9
DEFAULT_SEED = 0


def pin_blas() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_cli():
    """Import pfasst_lfa.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pfasst_lfa" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {src}")
    sys.path.insert(0, str(src))
    import pfasst_lfa.cli

    if Path(pfasst_lfa.cli.__file__).resolve().parent != src / "pfasst_lfa":
        raise SystemExit(f"benchmark: imported pfasst_lfa from {pfasst_lfa.cli.__file__}, not {src}")
    return pfasst_lfa.cli


def setup_probe(args) -> float:
    """Interpreter start to first analysis ready, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(args, threads: int, configs: list[list[str]]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "configs": configs,
    }


def call(cli, argv: list[str]) -> dict:
    """One analysis: the timed CLI call, then the correctness gate."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        full = argv + ["--out", tmp] if argv[0] == "analyze" else argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(full)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # keep the loop running; the gate counts it
                rc = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        reasons, digest, outputs = gate.check(argv, rc, Path(tmp), out.getvalue())
    if rc != 0 and err.getvalue().strip():
        reasons.append(err.getvalue().strip()[-500:])
    return {"argv": argv, "seconds": seconds, "digest": digest, "failures": reasons, "outputs": outputs}


def run_pass(cli, configs, tracer=None, before=None) -> list[dict]:
    results = []
    for aid, argv in enumerate(configs):
        if before is not None:
            before(aid)
        if tracer is not None:
            tracer.aid = aid
        results.append(call(cli, argv))
    return results


def warm_up(cli, configs) -> None:
    """Load lazily imported modules and first-call state before timing."""
    call(cli, ["analyze", "--problem", "diffusion", "--mu", "10", "--n", "16", "--m", "3", "--l", "2",
               "--iterations", "2", "--blocks", "tc,c,full"])
    if any(argv[0] == "verify" for argv in configs):
        call(cli, ["verify", "--scale", "small"])


def check_reference(args, results) -> None:
    """At the default seed, compare outputs with the stored reference (or store them).

    The reference holds every analysis of a run of the stored length; at that
    length an analysis without a reference entry fails, so a stale reference
    cannot pass silently.
    """
    if args.smoke or args.seed != DEFAULT_SEED:
        return
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.write_reference:
        outputs = {" ".join(r["argv"]): r["outputs"] for r in results if r["outputs"]}
        refs[args.workload] = {"seconds": args.seconds, "outputs": outputs}
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return
    mine = refs.get(args.workload, {})
    if mine.get("seconds") != args.seconds:
        return
    for r in results:
        if r["argv"][0] == "verify":
            continue
        ref = mine["outputs"].get(" ".join(r["argv"]))
        r["failures"] += ["no stored reference"] if ref is None else gate.compare(r["outputs"], ref)


def end_to_end(results, setup) -> dict:
    seconds = [r["seconds"] for r in results]
    passed = sum(1 for r in results if not r["failures"])
    return {
        "analyses_per_s": passed / sum(seconds),
        "analysis_s_p50": statistics.median(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(tracer, configs, untraced, traced) -> dict:
    analyze_ids = {i for i, argv in enumerate(configs) if argv[0] == "analyze"}
    modes = sum(
        sum(1 for m in argv[argv.index("--blocks") + 1].split(",") if m != "full")
        for argv in configs if argv[0] == "analyze"
    )
    metrics = tracer.metrics(analyze_ids, modes)
    t_untraced = sum(r["seconds"] for r in untraced)
    t_traced = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_s"] = t_traced - t_untraced
    metrics["trace.overhead_share"] = (t_traced - t_untraced) / t_untraced
    both = untraced + traced
    metrics["fail_ratio"] = sum(1 for r in both if r["failures"]) / len(both)
    return metrics


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="nominal run length; sets the sweep count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configurations, one set-up probe")
    parser.add_argument("--write-reference", action="store_true", help="store this run's outputs (default seed)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_blas()
    if args.setup_probe:
        import_cli()
        workloads.generate(args.workload, args.seed, args.seconds, args.smoke)
        print(repr(time.monotonic()))
        return 0

    cli = import_cli()
    configs = workloads.generate(args.workload, args.seed, args.seconds, args.smoke)
    OUT.mkdir(exist_ok=True)
    env = environment(args, threads, configs)
    warm_up(cli, configs)

    # Set-up probes are spread over the loop, between analyses, so that they
    # see the same machine load as the analyses they are reported with.
    setup = []
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    probe_at = [i * len(configs) // probes for i in range(probes)]

    def before(aid):
        setup.extend(setup_probe(args) for _ in range(probe_at.count(aid)))

    results = run_pass(cli, configs, before=before)
    record = {"environment": env, "setup_s_samples": setup, "untraced": results}
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, configs, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        record["traced"] = traced
    check_reference(args, results + traced)
    metrics = per_layer(tracer, configs, results, traced) if args.trace else end_to_end(results, setup)
    results = results + traced

    units = declared_metrics(args.trace)
    if sorted(metrics) != sorted(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    failed = sum(1 for r in results if r["failures"])
    record["metrics"] = metrics
    for r in results:
        r.pop("outputs", None)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, BLAS threads {threads}, seed {args.seed}")
    for r in results:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"# {r['seconds']:8.3f} s  {' '.join(r['argv'])}  {status}")
    samples = {"analysis_s_p50": len(results), "setup_s": len(setup)}
    for name, value in metrics.items():
        n = f"  (median of {samples[name]})" if name in samples else ""
        print(f"# {name:45s} {value:.6g} {units[name]}{n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
