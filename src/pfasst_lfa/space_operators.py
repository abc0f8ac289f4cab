"""Periodic spatial operators as circulants with analytic spectra.

Covers the two model problems: second-order central diffusion and
third-order upwind-biased advection on the periodic unit interval with N
equispaced points x_j = j/N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CirculantOperator:
    """scale * circulant built from a periodic stencil {offset: coefficient}.

    The materialized matrix has entry (i, j) = scale * stencil[(j - i) mod n].
    """

    n: int
    stencil: dict = field(default_factory=dict)
    scale: float = 1.0

    def materialize(self) -> np.ndarray:
        return np.ascontiguousarray(self.apply(np.eye(self.n)).T)

    def first_column(self) -> np.ndarray:
        """Column 0 of the materialized matrix, bit for bit: A e_0."""
        return self.apply(np.eye(1, self.n)[0])

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u along the last (grid) axis: sum_o scale * c_o * u_{j+o}, no n x n product.

        The rows of u, wrap-padded and laid end to end, make one copy in which each offset's term is one slice for
        all rows; the terms add onto zeros in the stencil's order, bitwise the sum of ``np.roll(u, -o)`` terms.
        """
        lo = min([0, *self.stencil])
        width = max([0, *self.stencil]) - lo + self.n
        padded = np.take(u, np.arange(lo, lo + width), axis=-1, mode="wrap").ravel()
        body = padded.size - width + self.n  # through the last row's n-th value
        out = np.zeros(padded.size, np.result_type(self.scale, padded))
        for off, coeff in self.stencil.items():
            out[:body] += self.scale * coeff * padded[off - lo : off - lo + body]
        return out.reshape(-1, width)[:, : self.n].reshape(np.shape(u))

    def symbol(self, k) -> np.ndarray:
        """Eigenvalue(s) lambda_k = scale * sum_j c_j exp(i 2 pi k j / n)."""
        k = np.asarray(k)
        lam = np.zeros(k.shape, dtype=complex)
        for off, coeff in self.stencil.items():
            lam += coeff * np.exp(2j * np.pi * k * off / self.n)
        return self.scale * lam


@dataclass(frozen=True)
class ModelProblem:
    """A semi-discretized PDE: U_t = A U with a circulant A."""

    kind: str  # "diffusion" or "advection"
    n: int
    coefficient: float  # nu or c
    operator: CirculantOperator

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    def grid(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def cfl(self, dt: float) -> float:
        return self.coefficient * dt / self.dx


def make_diffusion(n: int, nu: float) -> ModelProblem:
    """Second-order central diffusion, negative semi-definite convention."""
    dx = 1.0 / n
    op = CirculantOperator(n=n, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=nu / dx**2)
    return ModelProblem(kind="diffusion", n=n, coefficient=nu, operator=op)


def make_advection(n: int, c: float) -> ModelProblem:
    """Third-order upwind-biased advection transporting rightwards at speed c."""
    dx = 1.0 / n
    op = CirculantOperator(
        n=n,
        stencil={-2: 1.0, -1: -6.0, 0: 3.0, 1: 2.0},
        scale=-c / (6.0 * dx),
    )
    return ModelProblem(kind="advection", n=n, coefficient=c, operator=op)


def exact_solution(p: ModelProblem, k: int, t: float) -> np.ndarray:
    """PDE solution for initial data sin(2 pi k x), sampled on the grid."""
    x = p.grid()
    if p.kind == "diffusion":
        return np.exp(-p.coefficient * (2 * np.pi * k) ** 2 * t) * np.sin(2 * np.pi * k * x)
    return np.sin(2 * np.pi * k * (x - p.coefficient * t))


def coarsen(p: ModelProblem) -> ModelProblem:
    """The same model problem on the grid with half the points."""
    maker = make_diffusion if p.kind == "diffusion" else make_advection
    return maker(p.n // 2, p.coefficient)
