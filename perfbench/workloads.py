"""Seeded workload generators for the pfasst-lfa benchmark.

A workload is a fixed sequence of CLI calls ("analyses"), built from a
repeating sweep.  The seed draws only the physical parameters (mu, the
advection speed and the initial wavenumber); the sizes, block modes and
strategies of every slot are fixed, so two seeds do the same amount of
linear algebra and their timings can be compared.

This module uses only the standard library: the set-up probe imports it
before timing how long the package import takes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DT = 0.1
ITERATIONS = 20


def _draw_physics(rng: random.Random, problem: str, n: int) -> list[str]:
    """Problem flags plus a wavenumber, drawn from the seeded generator.

    mu is log-uniform on [1, 100]; the advection speed is chosen so the CFL
    number c*dt/dx is log-uniform on [0.01, 1].  The wavenumber is uniform on
    n/16 <= k < n/2.  Both ends of the resolvable band are left out because
    the program's tc exactness check fails there on round-off, not on a wrong
    prediction (see perfbench/README.md, "Excluded inputs"):
    the Nyquist mode k = n/2 samples sin(pi j), i.e. round-off initial data,
    and smooth diffusion modes k < n/16 converge to round-off within K = 20,
    where the check's absolute 1e-13 mask compares round-off tails.
    """
    if problem == "diffusion":
        coeff = ["--mu", repr(10.0 ** (2.0 * rng.random()))]
    else:
        cfl = 10.0 ** (2.0 * rng.random() - 2.0)
        coeff = ["--coefficient", repr(cfl / (n * DT))]
    wavenumber = n // 16 + int(rng.random() * (n // 2 - n // 16))
    return ["--problem", problem, *coeff, "--wavenumber", str(wavenumber)]


def _analyze(rng, problem, n, l, blocks, strategies=None, m=5, iterations=ITERATIONS):
    argv = ["analyze", *_draw_physics(rng, problem, n)]
    argv += ["--n", str(n), "--m", str(m), "--l", str(l), "--dt", repr(DT)]
    argv += ["--iterations", str(iterations), "--blocks", blocks]
    if strategies:
        argv += ["--strategies", strategies]
    return argv


def _flip(problem: str, sweep: int) -> str:
    """Alternate the problem of a slot between consecutive sweeps."""
    if sweep % 2 == 0:
        return problem
    return "advection" if problem == "diffusion" else "diffusion"


def _tc_sweep(rng, sweep, smoke):
    if smoke:
        return [_analyze(rng, "diffusion", 16, 2, "tc", m=3, iterations=4)]
    # two L=8 slots between one L=4 and one L=16 put the median on the two
    # L=8 analyses, away from the extremes
    slots = [(4, "advection"), (8, "diffusion"), (8, "advection"), (16, "diffusion")]
    return [_analyze(rng, _flip(p, sweep), 128, l, "tc") for l, p in slots]


def _c_sweep(rng, sweep, smoke):
    if smoke:
        return [_analyze(rng, "advection", 16, 2, "c", m=3, iterations=4)]
    # two L=8 slots: over the two sweeps of a 20 s run the median falls on L=8 analyses
    slots = [(4, "diffusion"), (8, "advection"), (8, "diffusion"), (16, "diffusion")]
    return [_analyze(rng, _flip(p, sweep), 128, l, "c") for l, p in slots]


def _fine_run(rng, sweep, smoke):
    if smoke:
        return [_analyze(rng, "diffusion", 32, 2, "tc", "rho,apply", m=3, iterations=4)]
    return [_analyze(rng, p, 512, 4, "tc", "rho,apply") for p in ("diffusion", "advection")]


def _dense_verify(rng, sweep, smoke):
    if smoke:
        return [_analyze(rng, "diffusion", 16, 2, "tc,full", m=3, iterations=4), ["verify", "--scale", "small"]]
    return [
        _analyze(rng, "diffusion", 32, 4, "tc,full"),
        _analyze(rng, "advection", 32, 4, "tc,full"),
        ["verify", "--scale", "large"],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: Callable[[random.Random, int, bool], list[list[str]]]
    sweep_seconds: float  # nominal single-thread sweep time on the reference machine


# Same order as BENCHMARK.json, which holds each workload's description.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tc-sweep", _tc_sweep, 30.0),
        Workload("c-sweep", _c_sweep, 9.0),
        Workload("fine-run", _fine_run, 16.5),
        Workload("dense-verify", _dense_verify, 21.5),
    )
}


def generate(workload: str, seed: int, seconds: float, smoke: bool = False) -> list[list[str]]:
    """The argv list of every analysis of one run, in the order they are issued.

    The number of sweeps is fixed by ``seconds`` and the nominal sweep time,
    never by a clock, so every run of a given length does the same work.
    """
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    sweeps = 1 if smoke else max(1, round(seconds / w.sweep_seconds))
    return [argv for s in range(sweeps) for argv in w.sweep(rng, s, smoke)]
