"""Error prediction strategies and comparison against actual PFASST runs.

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
time-collocation mode then reproduces the actual error to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .collocation import collocation_matrix, spread_initial
from .errors import ConfigurationError, RangeError
from .quadrature import MAX_NODES, QDELTA_KINDS, QuadratureRule
from .space_operators import ModelProblem, coarsen, exact_solution, make_advection, make_diffusion
from .solvers import TwoLevelSetup, build_two_level_setup, pfasst_run_algorithmic
from .transfer import build_ci_pair, midpoint_stencil_points
from . import lfa

STRATEGIES = ("rho", "norm", "norm-power", "apply")
BLOCK_MODES = ("tc", "c", "full")


@dataclass(frozen=True)
class ExperimentConfig:
    """One two-level PFASST experiment on a single Fourier mode."""

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
    interp_exactness: int = 6
    restr_exactness: int = 2

    def __post_init__(self):
        if self.problem not in ("diffusion", "advection"):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.mu is not None and self.problem != "diffusion":
            raise ConfigurationError("the mesh ratio mu applies to diffusion only")
        if (self.coefficient is None) == (self.mu is None):
            raise ConfigurationError("give exactly one of coefficient and mu")
        for name in ("dt", "mu", "coefficient"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise RangeError(f"{name} must be finite and positive, got {value}")
        if self.iterations < 0:
            raise RangeError(f"iteration count must be >= 0, got {self.iterations}")
        if self.l < 1:
            raise RangeError(f"l (time intervals) must be >= 1, got {self.l}")
        if not 1 <= self.m <= MAX_NODES:
            raise RangeError(f"m (quadrature nodes) must lie in 1..{MAX_NODES}, got {self.m}")
        if self.interp_exactness < 1 or self.restr_exactness < 1:
            raise RangeError(
                "interp_exactness and restr_exactness must be >= 1, got "
                f"{self.interp_exactness} and {self.restr_exactness}"
            )
        width = max(map(midpoint_stencil_points, (self.interp_exactness, self.restr_exactness)))
        if self.n % 2 or self.n // 2 < width:
            raise RangeError(
                f"n must be even with n/2 >= {width}, the transfer stencil width, got {self.n}"
            )
        nu = self.resolved_coefficient()
        if not (np.isfinite(nu) and nu > 0):  # mu*dx^2/dt can overflow or underflow
            raise RangeError(f"mu = {self.mu} gives the coefficient {nu} at n = {self.n}, dt = {self.dt}")
        if not 1 <= self.wavenumber < self.n:
            raise RangeError(f"wavenumber must lie in 1..n-1 = {self.n - 1}, got {self.wavenumber}")
        if 2 * self.wavenumber == self.n:
            raise RangeError(
                f"wavenumber must not be the Nyquist mode n/2 = {self.wavenumber}: "
                "sin(2 pi k x) samples to round-off there"
            )
        if self.qdelta_kind is not None and self.qdelta_kind not in QDELTA_KINDS:
            raise ConfigurationError(
                f"unknown qdelta_kind {self.qdelta_kind!r} (choose from {', '.join(QDELTA_KINDS)})"
            )

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

    def make_problem(self) -> ModelProblem:
        maker = make_diffusion if self.problem == "diffusion" else make_advection
        return maker(self.n, self.resolved_coefficient())


@dataclass(frozen=True)
class ExperimentContext:
    """One configuration's model problem and two-level setup, shared by the three routes.

    What the strategies derive from them is built on first use and kept:
    the spectral components, the block decomposition and block spectra of
    each mode, the analytic trajectory, the initial iterate and the initial
    error.  The runs, the predictions, the aggregates and the CLI's spectrum
    writer of one analysis thereby share one build.
    """

    cfg: ExperimentConfig
    fine: ModelProblem
    setup: TwoLevelSetup
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def decomposition(self, block_mode: str) -> lfa.BlockDecomposition:
        """The block decomposition of one mode, built once.

        "tc" and "c" are the Fourier block families; "full" is the iteration
        matrix itself, one block in the identity basis.
        """
        key = ("decomposition", block_mode)
        if key not in self._blocks:
            if block_mode == "tc":
                self._blocks[key] = lfa.tc_decompose(self.components)
            elif block_mode == "c":
                self._blocks[key] = lfa.c_decompose(self.components)
            elif block_mode == "full":
                t, cfg = self.setup.iteration_matrix, self.cfg
                self._blocks[key] = lfa.identity_decompose(t, cfg.n, cfg.l, cfg.m)
            else:
                raise ConfigurationError(f"no block decomposition for mode {block_mode!r}")
        return self._blocks[key]

    def spectra(self, block_mode: str) -> lfa.BlockSpectra:
        """Eigenvalues of every block of one mode, computed once."""
        key = ("spectra", block_mode)
        if key not in self._blocks:
            self._blocks[key] = lfa.block_spectra(self.decomposition(block_mode))
        return self._blocks[key]

    @cached_property
    def components(self) -> lfa.SpectralComponents:
        """The symbols of the setup, from which the tc and c blocks are built."""
        return lfa.spectral_components(self.setup)

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
    fine = cfg.make_problem()
    rule = QuadratureRule.radau_right(cfg.m)
    setup = build_two_level_setup(
        collocation_matrix(fine.operator, rule, cfg.dt),
        collocation_matrix(coarsen(fine).operator, rule, cfg.dt),
        build_ci_pair(cfg.n, cfg.interp_exactness, cfg.restr_exactness),
        cfg.l,
        cfg.resolved_qdelta_kind(),
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


def error_vector(ctx: ExperimentContext, iterate: np.ndarray) -> np.ndarray:
    """Difference between a space-time iterate and the analytic solution."""
    return np.asarray(iterate) - ctx.trajectory


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


@dataclass
class Prediction:
    """K+1 predicted error values for one strategy and block mode."""

    strategy: str
    block_mode: str
    values: np.ndarray


def predict(
    ctx: ExperimentContext,
    strategy: str,
    block_mode: str,
    restrict_harmonics: bool = True,
) -> Prediction:
    """Predicted 2-norm error for iterations 0..K."""
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    d = ctx.decomposition(block_mode)
    k_max = ctx.cfg.iterations
    e0 = ctx.initial_error
    e0_norm = float(np.linalg.norm(e0))
    values = np.empty(k_max + 1)
    values[0] = e0_norm

    if strategy in ("rho", "norm"):
        bs = ctx.spectra(block_mode)
        rate = bs.spectral_radius if strategy == "rho" else bs.norm
        values[1:] = e0_norm * rate ** np.arange(1, k_max + 1)
    elif strategy == "norm-power":
        values[1:] = lfa.block_power_norms(d, k_max)[1:] * e0_norm
    else:
        harmonics = excited_blocks(ctx.cfg) if restrict_harmonics else None
        ehat = lfa.transform_vector(e0, d.meta)
        for k in range(1, k_max + 1):
            ehat = lfa.apply_blocks(d, ehat, harmonics=harmonics)
            values[k] = float(np.linalg.norm(ehat))
    return Prediction(strategy=strategy, block_mode=block_mode, values=values)


@dataclass
class PhaseSegmentation:
    """Piecewise-linear segmentation of log10(error) vs. iteration."""

    boundaries: list[int]  # segment start indices, first is 0
    slopes: list[float]
    residuals: list[float]  # sum of squares for the 1-, 2-, 3-segment fits

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


def detect_phases(errors: np.ndarray, min_len: int = 3, improvement: float = 0.25, rel_floor: float = 1e-14) -> PhaseSegmentation:
    """Segment log10(error) into 1-3 linear pieces.

    An extra segment is accepted only when it shrinks the fit residual by
    more than the improvement fraction.  Values below rel_floor times the
    initial error are excluded: they sit outside the observable range of a
    double-precision run and carry no slope information.
    """
    errors = np.asarray(errors, dtype=float)
    mask = errors > rel_floor * errors[0]
    y = np.log10(errors[mask])
    n = len(y)
    if n < 2 * min_len:
        sse, slope = _segment_sse(y)
        return PhaseSegmentation(boundaries=[0], slopes=[slope], residuals=[sse])

    sse1, slope1 = _segment_sse(y)
    # a residual this small is indistinguishable from a straight line;
    # splitting it further would only chase noise
    noise_sse = 1e-10
    if sse1 <= noise_sse:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1], residuals=[sse1])

    best2 = None
    for b in range(min_len, n - min_len + 1):
        s_a, sl_a = _segment_sse(y[:b])
        s_b, sl_b = _segment_sse(y[b:])
        if best2 is None or s_a + s_b < best2[0]:
            best2 = (s_a + s_b, [0, b], [sl_a, sl_b])

    best3 = None
    for b1 in range(min_len, n - 2 * min_len + 1):
        s_a, sl_a = _segment_sse(y[:b1])
        for b2 in range(b1 + min_len, n - min_len + 1):
            s_b, sl_b = _segment_sse(y[b1:b2])
            s_c, sl_c = _segment_sse(y[b2:])
            total = s_a + s_b + s_c
            if best3 is None or total < best3[0]:
                best3 = (total, [0, b1, b2], [sl_a, sl_b, sl_c])

    residuals = [sse1, best2[0], best3[0] if best3 else best2[0]]
    if best2[0] >= (1.0 - improvement) * sse1:
        return PhaseSegmentation(boundaries=[0], slopes=[slope1], residuals=residuals)
    if best3 is None or best2[0] <= noise_sse or best3[0] >= (1.0 - improvement) * best2[0]:
        return PhaseSegmentation(boundaries=best2[1], slopes=best2[2], residuals=residuals)
    return PhaseSegmentation(boundaries=best3[1], slopes=best3[2], residuals=residuals)


@dataclass
class ErrorTrace:
    """Actual and predicted error history of one experiment.

    The actual error is measured by propagating the initial error through
    the homogeneous PFASST iteration (linearity makes this identical to the
    error of the inhomogeneous run, but free of the cancellation that caps
    the directly subtracted error at round-off level).  The subtracted
    errors of the inhomogeneous run are kept as u_run_inf / u_run_2 and
    cross-checked against the propagated ones.
    """

    cfg: ExperimentConfig
    actual_inf: np.ndarray
    actual_2: np.ndarray
    u_run_inf: np.ndarray
    u_run_2: np.ndarray
    predictions: list[Prediction]
    phases: PhaseSegmentation
    aggregates: dict  # per block mode: {"rho": float, "norm": float}
    context: ExperimentContext = field(repr=False)  # shared operators, blocks and spectra

    def prediction(self, strategy: str, block_mode: str) -> Prediction:
        for p in self.predictions:
            if p.strategy == strategy and p.block_mode == block_mode:
                return p
        raise KeyError((strategy, block_mode))

    def consistency_gap(self) -> float:
        """Max abs deviation between propagated and subtracted error norms."""
        return float(np.max(np.abs(self.actual_2 - self.u_run_2)))


def run_and_compare(
    cfg: ExperimentConfig,
    strategies: tuple[str, ...] = STRATEGIES,
    block_modes: tuple[str, ...] = ("tc",),
) -> ErrorTrace:
    """Run algorithmic PFASST and attach all requested predictions."""
    ctx = build_context(cfg)
    u_ex = ctx.trajectory
    e0 = ctx.initial_error
    error_trace = pfasst_run_algorithmic(ctx.setup, np.zeros_like(e0), e0, cfg.iterations)
    actual_inf = np.array([np.max(np.abs(e)) for e in error_trace])
    actual_2 = np.array([np.linalg.norm(e) for e in error_trace])
    u_trace = pfasst_run_algorithmic(ctx.setup, manufactured_rhs(ctx), ctx.initial_iterate, cfg.iterations)
    u_run_inf = np.array([np.max(np.abs(u - u_ex)) for u in u_trace])
    u_run_2 = np.array([np.linalg.norm(u - u_ex) for u in u_trace])

    predictions = [
        predict(ctx, strategy, mode)
        for mode in block_modes
        for strategy in strategies
    ]
    aggregates = {}
    for mode in block_modes:
        bs = ctx.spectra(mode)
        aggregates[mode] = {"rho": bs.spectral_radius, "norm": bs.norm}

    return ErrorTrace(
        cfg=cfg,
        actual_inf=actual_inf,
        actual_2=actual_2,
        u_run_inf=u_run_inf,
        u_run_2=u_run_2,
        predictions=predictions,
        phases=detect_phases(actual_2),
        aggregates=aggregates,
        context=ctx,
    )


def asymptotic_ratio(errors: np.ndarray, rel_floor: float = 1e-14) -> float:
    """Geometric-mean contraction ratio over the final third of the trace."""
    errors = np.asarray(errors, dtype=float)
    mask = errors > rel_floor * errors[0]
    e = errors[mask]
    if len(e) < 3:
        raise RangeError("too few usable error values for an asymptotic ratio")
    start = 2 * len(e) // 3
    ratios = e[start + 1 :] / e[start:-1]
    return float(np.exp(np.mean(np.log(ratios))))
