"""Error prediction strategies, their comparison against actual PFASST runs, and the checks that they agree.

Four estimation strategies are supported, all reported in the 2-norm (the
norm in which the block decomposition is exact and the bound chain
||e^k|| <= ||T^k|| ||e^0|| <= ||T||^k ||e^0|| holds):

  rho         ||e^0|| * rho(T)^k      (asymptotic rate)
  norm        ||e^0|| * ||T||^k       (a priori upper bound)
  norm-power  ||T^k|| * ||e^0||       (sharper a priori upper bound)
  apply       ||T^k e^0||             (a posteriori; exact block-wise)

The actual run integrates a single Fourier mode sin(2*pi*k*x) with a
manufactured right-hand side chosen so the discrete solution coincides with
the analytic PDE solution at every space-time node; the "apply" strategy in
tc mode then reproduces the actual error to round-off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .collocation import CollocationProblem, spread_initial
from .errors import ConfigurationError
from .linalg import norm2
from .quadrature import MAX_NODES, QDELTA_KINDS, QuadratureRule, build_qdelta
from .space_operators import ModelProblem, coarsen, exact_solution, make_advection, make_diffusion
from .solvers import TwoLevelSetup, mlsdc_step, pfasst_run_algorithmic
from .transfer import (
    INTERP_EXACTNESS, RESTR_EXACTNESS, build_ci_pair, check_restriction_condition, harmonic_diagonals,
    midpoint_stencil_points, transfer_structure_residual,
)
from . import lfa

STRATEGIES = ("rho", "norm", "norm-power", "apply")
BLOCK_MODES = ("tc", "c", "full")

# detect_phases: each segment has at least PHASE_MIN_LEN points; an extra
# segment must shrink the fit residual by more than PHASE_IMPROVEMENT; errors
# at or below PHASE_REL_FLOOR times the initial error are left out; a residual
# at or below PHASE_NOISE_SSE is a straight line, and splitting it further
# would only chase noise.
PHASE_MIN_LEN = 3
PHASE_IMPROVEMENT = 0.25
PHASE_REL_FLOOR = 1e-14
PHASE_NOISE_SSE = 1e-10
# Strategy 4 in tc mode must match the measured error to STRATEGY4_RTOL
# relative, on the iterations whose error exceeds STRATEGY4_FLOOR times the
# initial error.  The two differ by round-off of the initial error, at most
# 7e-15 ||e0|| over n = 32..128, L = 2..8, k in {1, 2, n/16}, mu = 0.5..100
# and CFL = 0.01..1; below the floor a relative comparison would test that
# round-off, not the prediction.  Kept iterations can deviate by at most 7e-9
# relative; the worst measured on that grid is 9e-12.
STRATEGY4_FLOOR = 1e-6
STRATEGY4_RTOL = 1e-8
# Verify check 2 and the analyze --blocks tc,full gate: tc_similarity_residual
# is round-off, 7.9e-16 (small) and 1.0e-15 (large), at most 1.4e-14 on small
# configs up to mu = 100 and 9.9e-15 on the n = 32 dense-verify benchmark
# configs of seeds 0-20; a negated Q_Delta reads 3.1e7 (small) and 3.2e16 (large).
TC_SIMILARITY_TOL = 1e-12
# The analyze --blocks tc,full gate: ||T^k|| by tc and by T's column, relative above CROSS_ROUTE_NORM_FLOOR ||T^0||
# (round-off below: M = 1).  At K = 20: at most 7.3e-14 on dense-verify seeds 0-20, 7.0e-12 on random small configs.
CROSS_ROUTE_NORM_TOL = 1e-9
CROSS_ROUTE_NORM_FLOOR = 1e-13


@dataclass(frozen=True)
class ExperimentConfig:
    """A two-level PFASST experiment on one Fourier mode, and the strategies and block modes to predict it by."""

    problem: str
    n: int = 128
    m: int = 5
    l: int = 4
    dt: float = 0.1
    coefficient: float | None = None
    mu: float | None = None
    wavenumber: int = 1
    iterations: int = 10
    qdelta_kind: str | None = None
    strategies: tuple[str, ...] = STRATEGIES
    blocks: tuple[str, ...] = ("tc",)

    def __post_init__(self):
        if self.problem not in ("diffusion", "advection"):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.mu is not None and self.problem != "diffusion":
            raise ConfigurationError("the mesh ratio mu applies to diffusion only")
        if (self.coefficient is None) == (self.mu is None):
            raise ConfigurationError("give exactly one of coefficient and mu")
        for name in ("n", "m", "l", "wavenumber", "iterations"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is kept as an int
        for name in ("dt", "mu", "coefficient"):
            value = getattr(self, name)
            if value is None and name != "dt":  # the one of mu and coefficient not given
                continue
            if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if self.iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {self.iterations}")
        if self.l < 1:
            raise ConfigurationError(f"l (time intervals) must be >= 1, got {self.l}")
        if not 1 <= self.m <= MAX_NODES:
            raise ConfigurationError(f"m (quadrature nodes) must lie in 1..{MAX_NODES}, got {self.m}")
        # the coarse level is a model problem on n/2 points, which needs an even grid itself
        width = max(map(midpoint_stencil_points, (INTERP_EXACTNESS, RESTR_EXACTNESS)))
        if self.n % 4 or self.n // 2 < width:
            raise ConfigurationError(
                f"n must be a multiple of 4 with n/2 >= {width}, the transfer stencil width, got n = {self.n}"
            )
        nu = self.resolved_coefficient()
        if not (np.isfinite(nu) and nu > 0):  # mu*dx^2/dt can overflow or underflow
            raise ConfigurationError(f"mu = {self.mu} gives the coefficient {nu} at n = {self.n}, dt = {self.dt}")
        if not 1 <= self.wavenumber < self.n:
            raise ConfigurationError(f"wavenumber must lie in 1..n-1 = {self.n - 1}, got {self.wavenumber}")
        if 2 * self.wavenumber == self.n:
            raise ConfigurationError(
                f"wavenumber must not be the Nyquist mode n/2 = {self.wavenumber}: "
                "sin(2 pi k x) samples to round-off there"
            )
        if self.qdelta_kind is not None and self.qdelta_kind not in QDELTA_KINDS:
            raise ConfigurationError(
                f"unknown qdelta_kind {self.qdelta_kind!r} (choose from {', '.join(QDELTA_KINDS)})"
            )
        for name, known in (("strategies", STRATEGIES), ("blocks", BLOCK_MODES)):
            value = getattr(self, name)
            if isinstance(value, str):  # a string would be read letter by letter
                raise ConfigurationError(f"{name} must be a tuple of names, got the string {value!r}")
            # a repeated name is computed once, so the report lists each once, in first-seen order
            try:
                names = tuple(dict.fromkeys(value))
            except TypeError:  # not iterable, or an unhashable entry
                raise ConfigurationError(f"{name} must be a tuple of names, got {value!r}") from None
            object.__setattr__(self, name, names)
            if not names or not set(names) <= set(known):
                raise ConfigurationError(f"{name} must be one or more of {', '.join(known)}, got {list(names)}")
        if "c" in self.blocks and self.l < 2:
            raise ConfigurationError(f"blocks: c mode needs l >= 2 (it builds no j = 0 block), got l={self.l}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def resolved_coefficient(self) -> float:
        """nu or c; mu is the parabolic mesh ratio nu*dt/dx^2."""
        if self.coefficient is not None:
            return self.coefficient
        return self.mu * self.dx**2 / self.dt

    def resolved_qdelta_kind(self) -> str:
        if self.qdelta_kind is not None:
            return self.qdelta_kind
        return "implicit-euler" if self.problem == "diffusion" else "lu"


@dataclass(frozen=True)
class ExperimentContext:
    """One configuration's model problem and two-level setup, shared by the three routes.

    What the strategies derive from them is built on first use and kept:
    the block decomposition of each mode (which keeps its own eigenvalues,
    spectral radius and norm), the analytic trajectory, the initial iterate
    and the initial error.  The runs, the predictions, the aggregates and
    the CLI's spectrum writer of one analysis thereby share one build.
    """

    cfg: ExperimentConfig
    fine: ModelProblem
    setup: TwoLevelSetup
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def decomposition(self, block_mode: str, worker=None) -> lfa.BlockDecomposition:
        """The block decomposition of one mode, built once by ``lfa.<mode>_decompose``.

        "tc" and "c" are the Fourier block families; "full" is T in the
        identity basis, one block held as its first block column.  A call that
        builds tc or c hands its eigenvalue chunks to ``worker``, if given.
        """
        if block_mode not in self._blocks:  # the builder is looked up on the module at call time
            build = getattr(lfa, f"{block_mode}_decompose")
            self._blocks[block_mode] = build(self.setup) if block_mode == "full" else build(self.setup, worker)
        return self._blocks[block_mode]

    @cached_property
    def trajectory(self) -> np.ndarray:
        """:func:`exact_trajectory`, computed once; treat as read-only."""
        return exact_trajectory(self)

    @cached_property
    def initial_iterate(self) -> np.ndarray:
        """The spread iterate, u0 on every node of every interval; treat as read-only."""
        return spread_initial(exact_solution(self.fine, self.cfg.wavenumber, 0.0), self.cfg.m, self.cfg.l)

    @cached_property
    def initial_error(self) -> np.ndarray:
        """Error of the spread initial iterate; treat as read-only."""
        return self.initial_iterate - self.trajectory


def build_context(cfg: ExperimentConfig) -> ExperimentContext:
    """The model problem, its coarsening to n/2 points, their transfers and the one Q_Delta of both levels."""
    fine = (make_diffusion if cfg.problem == "diffusion" else make_advection)(cfg.n, cfg.resolved_coefficient())
    rule = QuadratureRule.radau_right(cfg.m)
    setup = TwoLevelSetup(
        fine=CollocationProblem(fine.operator, rule, cfg.dt),
        coarse=CollocationProblem(coarsen(fine).operator, rule, cfg.dt),
        pair=build_ci_pair(cfg.n),
        l=cfg.l,
        qdelta=build_qdelta(rule, cfg.resolved_qdelta_kind()),
    )
    return ExperimentContext(cfg=cfg, fine=fine, setup=setup)


def node_times(cfg: ExperimentConfig, rule: QuadratureRule) -> np.ndarray:
    """Absolute times t_l + dt*tau_m, shaped (L, M)."""
    starts = cfg.dt * np.arange(cfg.l)
    return starts[:, None] + cfg.dt * rule.nodes[None, :]


def exact_trajectory(ctx: ExperimentContext) -> np.ndarray:
    """Analytic PDE solution sampled at every (interval, node, grid point)."""
    cfg = ctx.cfg
    times = node_times(cfg, ctx.setup.fine.rule)
    out = np.empty((cfg.l, cfg.m, cfg.n))
    for i in range(cfg.l):
        for j in range(cfg.m):
            out[i, j] = exact_solution(ctx.fine, cfg.wavenumber, times[i, j])
    return out.ravel()


def manufactured_rhs(ctx: ExperimentContext) -> np.ndarray:
    """Per-interval right-hand sides whose discrete solution is the analytic one.

    Applying the composite operator block row by block row to the sampled
    analytic trajectory gives a right-hand side for which the collocation
    solution equals the analytic samples exactly; the iteration error is then
    exactly iterate minus analytic samples, which the block analysis can
    reproduce.  Row l of the (L, M*N) result belongs to interval l.
    """
    cfg = ctx.cfg
    u_ex = ctx.trajectory.reshape(cfg.l, cfg.m, cfg.n)
    rhs = ctx.setup.fine.apply(u_ex)
    rhs[1:] -= u_ex[:-1, -1:]  # node propagation: the previous interval's last node
    return rhs.reshape(cfg.l, -1)


def excited_blocks(cfg: ExperimentConfig) -> set[int]:
    """Spatial-harmonic block indices carrying energy for sin(2 pi k x) data.

    The mode excites harmonics k and N-k; coarse-grid correction mixes each
    with its +N/2 alias, which lives in the same paired block, so the set
    stays invariant under the iteration.
    """
    n, k = cfg.n, cfg.wavenumber % cfg.n
    half = n // 2
    out = set()
    for h in (k, (n - k) % n):
        out.add(h if h < half else h - half)
    return out


def predict(ctx: ExperimentContext, strategy: str, block_mode: str) -> np.ndarray:
    """Predicted 2-norm error for iterations 0..K, K+1 values; ``apply`` propagates only the ``excited_blocks``."""
    d = ctx.decomposition(block_mode)
    k_max = ctx.cfg.iterations
    e0 = ctx.initial_error
    e0_norm = norm2(e0)
    values = np.empty(k_max + 1)
    values[0] = e0_norm

    if strategy in ("rho", "norm"):
        rate = d.spectral_radius if strategy == "rho" else d.norm
        values[1:] = e0_norm * rate ** np.arange(1, k_max + 1)
    elif strategy == "norm-power":
        values[1:] = lfa.block_power_norms(d, k_max)[1:] * e0_norm
    else:
        # only the excited rows are multiplied (the others carry no energy for single-mode
        # data), but the norm keeps every row in place: its round-off depends on their positions;
        # full mode's one block, T's first block column, multiplies by block convolution
        rows, full = d.meta.rows(excited_blocks(ctx.cfg)), d.meta.mode == "full"
        blocks = d.blocks[rows]
        vhat = lfa.transform_vector(e0, d.meta)
        ehat, padded = vhat[rows], np.zeros_like(vhat)
        for k in range(1, k_max + 1):
            ehat = lfa._convolved(blocks, ehat) if full else np.matmul(blocks, ehat[:, :, None])[:, :, 0]
            padded[rows] = ehat
            values[k] = norm2(padded)
    return values


@dataclass
class PhaseSegmentation:
    """Piecewise-linear segmentation of log10(error) vs. iteration."""

    boundaries: list[int]  # segment start indices, first is 0
    slopes: list[float]

    @property
    def count(self) -> int:
        return len(self.boundaries)


def _segment_sse(y: np.ndarray) -> tuple[float, float]:
    """Least-squares line fit of y against its index; (sse, slope)."""
    x = np.arange(len(y), dtype=float)
    if len(y) < 2:
        return 0.0, 0.0
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return float(resid @ resid), float(coeffs[0])


def _segment_sses(y: np.ndarray) -> tuple[np.ndarray, float]:
    """The least-squares line SSE of every segment y[a:b] in closed form, an (n+1, n+1) array, and its round-off.

    S_yy - S_y^2/c - S_xy^2/S_xx for c points, from prefix sums of y, y^2
    and i*y, with x centered on the segment and y on its mean (which
    changes no SSE).  The round-off is below 8 n^3 eps sum(y^2); a
    non-finite y gives NaN.
    """
    n = len(y)
    with np.errstate(all="ignore"):
        y_c = y - y.mean()
        s_y, s_yy, s_iy = (np.concatenate([[0.0], np.cumsum(v)]) for v in (y_c, y_c * y_c, np.arange(n) * y_c))
        a, b = np.ogrid[: n + 1, : n + 1]
        c = (b - a).astype(float)
        sy = s_y[b] - s_y[a]
        sxy = s_iy[b] - s_iy[a] - 0.5 * (a + b - 1) * sy
        sse = s_yy[b] - s_yy[a] - sy**2 / c - sxy**2 / (c * (c**2 - 1) / 12)
    return sse, 8 * n**3 * np.finfo(float).eps * s_yy[-1]


def _best_split(y: np.ndarray, splits: list[tuple[int, ...]], seg: np.ndarray, margin: float):
    """(sse, boundaries, slopes) of the split that ``_segment_sse`` fits best, the first on a tie; None without splits.

    ``splits`` lists each split's inner boundaries.  Only the splits whose
    closed-form SSE from ``seg`` lies within ``margin`` of the least are
    refitted, so the choice and its numbers are those of refitting every
    split.  NaN SSEs refit every split.
    """
    if not splits:
        return None
    edges = np.array([(0, *split, len(y)) for split in splits])
    totals = seg[edges[:, :-1], edges[:, 1:]].sum(axis=1)
    best = None
    for row in edges[~(totals > np.min(totals) + margin)].tolist():
        fits = [_segment_sse(y[lo:hi]) for lo, hi in zip(row, row[1:])]
        total = sum(sse for sse, _ in fits)
        if best is None or total < best[0]:
            best = (total, row[:-1], [slope for _, slope in fits])
    return best


def detect_phases(errors: np.ndarray) -> PhaseSegmentation:
    """Segment log10(error) into 1-3 linear pieces.

    An extra segment is accepted only when it shrinks the fit residual by
    more than ``PHASE_IMPROVEMENT``.  Values at or below ``PHASE_REL_FLOOR``
    times the initial error are excluded: they sit outside the observable
    range of a double-precision run and carry no slope information.  The
    best 2- and 3-segment splits are found from closed-form segment
    residuals.
    """
    errors = np.asarray(errors, dtype=float)
    y = np.log10(errors[errors > PHASE_REL_FLOOR * errors[0]])
    n = len(y)
    sse1, slope1 = _segment_sse(y)
    if n < 2 * PHASE_MIN_LEN or sse1 <= PHASE_NOISE_SSE:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1])

    seg, margin = _segment_sses(y)
    starts = range(PHASE_MIN_LEN, n - PHASE_MIN_LEN + 1)
    best2 = _best_split(y, [(b,) for b in starts], seg, margin)
    best3 = _best_split(y, [(b1, b2) for b1 in starts for b2 in starts if b2 - b1 >= PHASE_MIN_LEN], seg, margin)

    if best2[0] >= (1.0 - PHASE_IMPROVEMENT) * sse1:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1])
    if best3 is None or best2[0] <= PHASE_NOISE_SSE or best3[0] >= (1.0 - PHASE_IMPROVEMENT) * best2[0]:
        return PhaseSegmentation(boundaries=best2[1], slopes=best2[2])
    return PhaseSegmentation(boundaries=best3[1], slopes=best3[2])


def strategy4_exact(actual_2: np.ndarray, apply_2: np.ndarray) -> bool:
    """Whether the apply prediction matches the measured error above the round-off floor; NaN or inf fails."""
    if not (np.all(np.isfinite(actual_2)) and np.all(np.isfinite(apply_2))):
        return False
    mask = actual_2 > STRATEGY4_FLOOR * actual_2[0]
    rel = np.abs(apply_2[mask] - actual_2[mask]) / actual_2[mask]
    return bool(np.all(rel < STRATEGY4_RTOL))


def bound_chain_holds(actual_2: np.ndarray, norm_power: np.ndarray, norm: np.ndarray) -> bool:
    """||e^k|| <= ||T^k|| ||e^0|| <= ||T||^k ||e^0|| to 1e-12 relative, the first link above the round-off floor.

    Below ``STRATEGY4_FLOOR`` ||e^0|| the measured error is round-off and can
    exceed a prediction that is exactly 0 (T = 0 at M = L = 1); NaN fails.
    """
    first = (actual_2 <= norm_power * (1 + 1e-12)) | (actual_2 <= STRATEGY4_FLOOR * actual_2[0])
    return bool(np.all(first) and np.all(norm_power <= norm * (1 + 1e-12)))


def tc_similarity_residual(column: np.ndarray, d: lfa.BlockDecomposition) -> float:
    """max |F C F^H - the tc blocks' first block column| / max(max |C|, 1): the tc similarity entry by entry.

    C is T's first block column, which fixes the block Toeplitz T.  F is the
    unitary FFT on the grid axis of the (L, M, N) layout (the basis of
    :func:`lfa.transform_vector`), one fft/ifft pair over C.  The scale is at
    least 1 because T can be round-off itself: T = 0 in exact arithmetic
    when M = L = 1, where Q_Delta = Q.
    """
    meta = d.meta
    n, l, m, h = meta.n, meta.l, meta.m, meta.n // 2
    hat = np.fft.ifft(np.fft.fft(column.reshape(l, m, n, m, n), axis=2, norm="ortho"), axis=4, norm="ortho")
    hat = hat.reshape(l, m, 2, h, m, 2, h)
    # axes (pair k, half s, interval, node, half s', node) of column interval 0: harmonics s*N/2 + k, s'*N/2 + k
    blocks = d.blocks.reshape(h, 2, l, m, 2, l, m)[:, :, :, :, :, 0]
    pairs = np.arange(h)
    # every entry off the pair blocks must be 0; the pair entries are indexed (k, interval, node, s, node', s')
    hat[:, :, :, pairs, :, :, pairs] -= blocks.transpose(0, 2, 3, 1, 5, 4)
    return float(np.max(np.abs(hat))) / max(float(np.max(np.abs(column))), 1.0)


@dataclass
class ErrorTrace:
    """Actual and predicted error history of one experiment.

    The actual error is measured by propagating the initial error through
    the homogeneous PFASST iteration (linearity makes this identical to the
    error of the inhomogeneous run, but free of the cancellation that caps
    the directly subtracted error at round-off level).  The subtracted
    errors of the inhomogeneous run are kept as u_run_2 and cross-checked
    against the propagated ones.
    """

    actual_inf: np.ndarray
    actual_2: np.ndarray
    u_run_2: np.ndarray
    predictions: dict  # (strategy, block mode) -> K+1 values, in request order
    phases: PhaseSegmentation
    aggregates: dict  # per block mode: {"rho": float, "norm": float}
    context: ExperimentContext = field(repr=False)  # shared operators and block decompositions

    def consistency_gap(self) -> float:
        """Max abs deviation between propagated and subtracted error norms."""
        return float(np.max(np.abs(self.actual_2 - self.u_run_2)))

    def checks(self) -> tuple[dict, list[str]]:
        """The report's checks of this analysis, and the failures among them as messages.

        ``bound_chain_2norm`` (with norm and norm-power) is taken in tc mode whenever tc is analyzed, else in the
        first block mode; ``strategy4_tc_exact`` needs apply in tc mode.  Either is None without its columns.
        ``tc_similarity_residual`` and ``cross_route_norm`` are added when tc and full are analyzed.  With tc
        analyzed a false check fails, and so does a residual above ``TC_SIMILARITY_TOL`` or ``CROSS_ROUTE_NORM_TOL``.
        """
        cfg, pred, actual = self.context.cfg, self.predictions, self.actual_2
        checks = {"bound_chain_2norm": None, "strategy4_tc_exact": None}
        chain = "tc" if "tc" in cfg.blocks else cfg.blocks[0]  # c's chain can fail where tc's holds
        if {"norm", "norm-power"} <= set(cfg.strategies):
            checks["bound_chain_2norm"] = bound_chain_holds(actual, pred["norm-power", chain], pred["norm", chain])
        if ("apply", "tc") in pred:
            checks["strategy4_tc_exact"] = strategy4_exact(actual, pred["apply", "tc"])
        if {"tc", "full"} <= set(cfg.blocks):
            column, blocks = self.context.setup.iteration_column, self.context.decomposition("tc")
            checks["tc_similarity_residual"] = tc_similarity_residual(column, blocks)
            tc, full = (pred.get(("norm-power", m), np.r_[1.0, self.aggregates[m]["norm"]]) for m in ("tc", "full"))
            top = np.maximum(tc[1:], full[1:])  # entry k >= 1: ||T^k|| ||e^0||, or ||T|| alone without norm-power
            kept = ~(top <= CROSS_ROUTE_NORM_FLOOR * tc[0])  # a NaN is kept
            checks["cross_route_norm"] = float(np.max(np.abs(full[1:] - tc[1:])[kept] / top[kept], initial=0.0))
        # a false tc-mode check fails the analysis; a bound chain taken in c or full mode is only reported
        failed = [f"{name} is false" for name, value in checks.items() if value is False and chain == "tc"]
        for name, tol in (("tc_similarity_residual", TC_SIMILARITY_TOL), ("cross_route_norm", CROSS_ROUTE_NORM_TOL)):
            if not checks.get(name, 0.0) <= tol:
                failed.append(f"{name.replace('_', ' ')} {checks[name]:.3e} > {tol:.0e}")
        return checks, failed


def _spare_core() -> bool:
    """Whether the BLAS leaves a usable core idle; if not, a worker only slows its threads.

    The BLAS thread count is read from the first of the OpenBLAS, MKL and
    OpenMP variables that is set; unset (or 0), they use every core.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            return int(value) < cores
    return False


def run_and_compare(cfg: ExperimentConfig) -> ErrorTrace:
    """Run algorithmic PFASST and attach the predictions of every strategy and block mode of ``cfg``.

    Given a :func:`_spare_core`, the tc and c decompositions hand their eigenvalue chunks to a worker thread as
    they are built; ``rho`` is predicted last, after the join.  The worker runs only numpy's eigvals, each on a
    whole stack, so every result is that of a serial run.
    """
    ctx = build_context(cfg)
    requested = [(strategy, mode) for mode in cfg.blocks for strategy in cfg.strategies]
    from concurrent.futures import ThreadPoolExecutor  # not at import time: the CLI's cold start skips it

    with ThreadPoolExecutor(1) as pool:
        worker = pool if _spare_core() else None
        try:
            decompositions = {mode: ctx.decomposition(mode, worker) for mode in cfg.blocks}
            u_ex = ctx.trajectory
            e0 = ctx.initial_error
            # the propagated error (zero rhs) and the manufactured run, stacked into one run
            rhs = np.stack([np.zeros_like(e0), manufactured_rhs(ctx).ravel()])
            trace = pfasst_run_algorithmic(ctx.setup, rhs, np.stack([e0, ctx.initial_iterate]), cfg.iterations)
            actual_inf = np.array([np.max(np.abs(e)) for e, _ in trace])
            actual_2 = np.array([norm2(e) for e, _ in trace])
            u_run_2 = np.array([norm2(u - u_ex) for _, u in trace])
            # rho reads the spectra; it waits for the join below
            predictions = {key: predict(ctx, *key) for key in requested if key[0] != "rho"}
            norms = {mode: d.norm for mode, d in decompositions.items()}
            for d in reversed(decompositions.values()):  # the worker takes the chunks in build order
                d.eigenvalues  # the join
        except BaseException:  # the first error raised here, the worker's LinAlgError too, is the one reported
            pool.shutdown(cancel_futures=True)  # the queued solves do not run first
            raise

    predictions = {key: predictions[key] if key in predictions else predict(ctx, *key) for key in requested}
    aggregates = {mode: {"rho": d.spectral_radius, "norm": norms[mode]} for mode, d in decompositions.items()}

    return ErrorTrace(
        actual_inf=actual_inf,
        actual_2=actual_2,
        u_run_2=u_run_2,
        predictions=predictions,
        phases=detect_phases(actual_2),
        aggregates=aggregates,
        context=ctx,
    )


def verify_checks(scale: str):
    """Yield (name, residual, tolerance) for each check of ``pfasst-lfa verify``, at ``scale`` small or large."""
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
        u = mlsdc_step(p_j, p_gs, pair, setup.composite_matrix, rhs.ravel(), u)
        dev = max(dev, float(np.max(np.abs(u - trace[k]))))
    yield "pfasst matrix vs algorithmic", dev, 1e-10

    # 2: the tc blocks against T's first block column in the same Fourier coordinates, entry by entry
    residual = tc_similarity_residual(setup.iteration_column, lfa.tc_decompose(setup))
    yield "tc blocks vs transformed T column", residual, TC_SIMILARITY_TOL

    # 3: transfer operators transform to two-diagonal form, with the k = 0 pair {0, sqrt(2)}
    diags = harmonic_diagonals(pair)
    pair_vals = sorted([abs(diags.d[0]), abs(diags.d_hat[0])])
    k0_dev = max(abs(pair_vals[0] - 0.0), abs(pair_vals[1] - np.sqrt(2.0)))
    yield "transfer transform structure", max(transfer_structure_residual(pair, diags), k0_dev), 1e-12

    # 4: the restriction condition holds exactly (a broken temporal restriction is a tier-1 test)
    yield "restriction condition", float(np.max(np.abs(check_restriction_condition(pair, m)[1]))), 0.0
