"""Outside-in tracing of pfasst_lfa: spans around public functions, kernel counters.

The tracer wraps every public function of every package module, at every
module that imported it by name (``cli.build_context`` is the same object as
``analysis.build_context``), so no call escapes the trace.  Each call records
a span (name, layer, start, end, parent, analysis id) in memory.

Dense numpy/scipy calls are counted and timed as kernels.  Kernel time is not
subtracted from the calling layer's self time: it is an attribution by call
type across all layers, not a layer of its own.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field

MODULES = (
    "cli",
    "analysis",
    "lfa",
    "solvers",
    "collocation",
    "transfer",
    "space_operators",
    "quadrature",
    "linalg",
)
METHODS = (("solvers", "Preconditioner", "solve"),)

# Inclusive-time and call-count metrics, in the order they are reported.
TIMED = (
    "lfa.tc_decompose",
    "lfa.c_decompose",
    "lfa.block_spectra",
    "lfa.block_power_norm",
    "lfa.transform_vector",
    "lfa.apply_blocks",
    "lfa.spectral_components",
    "lfa.matched_cluster_distance",
    "solvers.pfasst_run_algorithmic",
    "solvers.build_two_level_setup",
    "solvers.build_iteration_matrix",
    "analysis.run_and_compare",
    "analysis.build_context",
    "analysis.predict.rho",
    "analysis.predict.norm",
    "analysis.predict.norm-power",
    "analysis.predict.apply",
    "analysis.detect_phases",
    "collocation.collocation_matrix",
    "collocation.composite_system",
    "transfer.build_ci_pair",
    "transfer.harmonic_diagonals",
    "transfer.check_restriction_condition",
    "cli.cmd_verify",
)
COUNTED = (
    "lfa.tc_decompose",
    "lfa.c_decompose",
    "lfa.block_spectra",
    "lfa.block_power_norm",
    "solvers.pfasst_run_algorithmic",
    "solvers.Preconditioner.solve",
    "solvers.build_iteration_matrix",
    "analysis.build_context",
    "analysis.exact_trajectory",
    "space_operators.exact_solution",
    "linalg.dft_matrix",
)
KERNELS = ("eigvals", "svd", "solve", "matrix_power", "lu_factor")
KERNELS_TIMED = ("eigvals", "svd")


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root
    name: str
    layer: str
    aid: int  # analysis id
    start: float
    end: float = math.nan


@dataclass
class Tracer:
    """Spans and kernel counters of one traced pass; install() patches, uninstall() restores."""

    spans: list[Span] = field(default_factory=list)
    kernel_calls: dict = field(default_factory=lambda: {k: 0 for k in KERNELS})
    kernel_s: dict = field(default_factory=lambda: {k: 0.0 for k in KERNELS_TIMED})
    op_count: float = 0.0  # computed sum of d^3 over kernel calls
    aid: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), parent, name, layer, self.aid, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name_of(args, kwargs) if name_of else name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    def _kernel(self, fn, kind: str, dims):
        timed = kind in KERNELS_TIMED

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            work = dims(args, kwargs)
            if work is None:  # not a dense matrix kernel (e.g. a vector norm)
                return fn(*args, **kwargs)
            self.kernel_calls[kind] += 1
            self.op_count += work
            if not timed:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kernel_s[kind] += time.perf_counter() - t0

        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy as np
        import scipy.linalg

        mods = {name: sys.modules[f"pfasst_lfa.{name}"] for name in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name_of = _predict_name if attr == "predict" else None  # one span name per strategy
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}", short, name_of)
        # rebind every module-level name that refers to a wrapped function
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            self._set(cls, meth, self._wrap(getattr(cls, meth), f"{short}.{cls_name}.{meth}", short))

        self._set(np.linalg, "eigvals", self._kernel(np.linalg.eigvals, "eigvals", _square_dims))
        self._set(np.linalg, "norm", self._kernel(np.linalg.norm, "svd", _norm2_dims))
        self._set(np.linalg, "solve", self._kernel(np.linalg.solve, "solve", _square_dims))
        self._set(np.linalg, "matrix_power", self._kernel(np.linalg.matrix_power, "matrix_power", _power_dims))
        self._set(scipy.linalg, "lu_factor", self._kernel(scipy.linalg.lu_factor, "lu_factor", _square_dims))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def metrics(self, analyze_ids: set[int], block_modes: int) -> dict:
        """Per-layer metrics; ``block_modes`` counts non-full block modes over analyze calls."""
        out = {}
        self_s = self.self_times()
        for name in TIMED:
            out[f"{name}.s"] = sum(s.end - s.start for s in self.spans if s.name == name)
        for name in COUNTED:
            out[f"{name}.calls"] = sum(1 for s in self.spans if s.name == name)
        for layer in MODULES:
            out[f"{layer}.self_s"] = sum(t for s, t in zip(self.spans, self_s) if s.layer == layer)
        out["cli.cmd_analyze.self_s"] = sum(t for s, t in zip(self.spans, self_s) if s.name == "cli.cmd_analyze")
        for k in KERNELS:
            out[f"kernel.{k}.calls"] = self.kernel_calls[k]
        for k in KERNELS_TIMED:
            out[f"kernel.{k}.s"] = self.kernel_s[k]
        out["kernel.op_count"] = self.op_count

        def in_analyze(name):
            return sum(1 for s in self.spans if s.name == name and s.aid in analyze_ids)

        n_analyze = max(len(analyze_ids), 1)
        n_modes = max(block_modes, 1)
        out["lfa.decompositions_per_mode"] = (in_analyze("lfa.tc_decompose") + in_analyze("lfa.c_decompose")) / n_modes
        out["lfa.block_spectra_per_mode"] = in_analyze("lfa.block_spectra") / n_modes
        out["analysis.build_context_per_analysis"] = in_analyze("analysis.build_context") / n_analyze
        out["analysis.exact_trajectory_per_analysis"] = in_analyze("analysis.exact_trajectory") / n_analyze
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                     "analysis": s.aid, "start": s.start, "end": s.end}
                ) + "\n")


def _predict_name(args, kwargs) -> str:
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "?")
    return f"analysis.predict.{strategy}"


def _shape(a):
    return getattr(a, "shape", None)


def _square_dims(args, kwargs):
    shape = _shape(args[0]) if args else None
    if not shape or len(shape) < 2:
        return None
    return math.prod(shape[:-2]) * shape[-1] ** 3


def _norm2_dims(args, kwargs):
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    shape = _shape(args[0])
    if ord_ != 2 or not shape or len(shape) != 2:
        return None
    return min(shape) ** 2 * max(shape)


def _power_dims(args, kwargs):
    shape, k = _shape(args[0]), int(args[1] if len(args) > 1 else kwargs["n"])
    # binary powering: one product per squaring and per further set bit
    products = max(abs(k).bit_length() - 1 + bin(abs(k)).count("1") - 1, 0)
    return products * shape[-1] ** 3
