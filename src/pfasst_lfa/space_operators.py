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


def make_diffusion(n: int, nu: float) -> CirculantOperator:
    """Second-order central diffusion, negative semi-definite convention."""
    dx = 1.0 / n
    return CirculantOperator(n=n, stencil={-1: 1.0, 0: -2.0, 1: 1.0}, scale=nu / dx**2)


def make_advection(n: int, c: float) -> CirculantOperator:
    """Third-order upwind-biased advection transporting rightwards at speed c."""
    dx = 1.0 / n
    return CirculantOperator(
        n=n,
        stencil={-2: 1.0, -1: -6.0, 0: 3.0, 1: 2.0},
        scale=-c / (6.0 * dx),
    )


def exact_solution(problem: str, n: int, coefficient: float, k: int, t: float) -> np.ndarray:
    """PDE solution for initial data sin(2 pi k x), sampled on the grid x_j = j/n; coefficient is nu or c."""
    x = np.arange(n) / n
    if problem == "diffusion":
        return np.exp(-coefficient * (2 * np.pi * k) ** 2 * t) * np.sin(2 * np.pi * k * x)
    return np.sin(2 * np.pi * k * (x - coefficient * t))
