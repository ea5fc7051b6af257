"""Torsion problems -Δφ = 1 with zero Dirichlet data.

The torsion function of the full domain weights the sup norm that encodes
linear decay toward the boundary (the solver takes that norm on its positive
set); torsion functions of concentric sub-boxes drive the interior estimates.
Each system is mesh's Dirichlet Laplacian, solved directly on the interior
nodes by a sparse LU factorization with the minimum-degree ordering the 2D
time step also uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .config import margin_problem, subbox_nodes
from .mesh import Field, Grid, dirichlet_laplacian, trapezoid_weights

__all__ = [
    "TorsionSolution",
    "solve_torsion",
    "solve_torsion_subdomain",
    "measure_poincare_constant",
]

@dataclass
class TorsionSolution:
    """Torsion function of the full domain or of a concentric sub-box.

    ``phi`` lives on the full grid (zero outside its own domain),
    ``weights`` are the trapezoid quadrature weights of that domain
    (zero outside), and ``c_subdomain`` is the integral of phi over it.
    """

    phi: Field
    c_subdomain: float
    weights: np.ndarray

    def integrate(self, f: Field) -> float:
        """Integral of f over this solution's own domain."""
        return float(np.sum(self.weights * f.values))

    @property
    def max_phi(self) -> float:
        return float(self.phi.values.max())

    @functools.cached_property
    def positive_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the nodes where phi is positive, and phi there."""
        index = np.flatnonzero(self.phi.values > 0.0)
        return index, self.phi.values.take(index)


@functools.lru_cache(maxsize=16)
def _solve_poisson_unit_rhs(shape, h) -> np.ndarray:
    """Solve -Δφ = 1 on the interior of a box with zero boundary data, once
    per (shape, h) and process; the shared array is read-only."""
    a, _ = dirichlet_laplacian(shape, h)
    b = np.ones(a.shape[0])
    x = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    interior_shape = tuple(k - 2 for k in shape)
    full = np.zeros(shape)
    core = tuple(slice(1, -1) for _ in shape)
    full[core] = x.reshape(interior_shape)
    full.flags.writeable = False
    return full


def solve_torsion(grid: Grid) -> TorsionSolution:
    """Torsion function of the full domain."""
    phi = _solve_poisson_unit_rhs(grid.shape, grid.h)
    weights = grid.quad_weights
    return TorsionSolution(Field(grid, phi), float(np.sum(weights * phi)), weights)


def solve_torsion_subdomain(grid: Grid, margin: float) -> TorsionSolution:
    """Torsion function of the concentric box shrunk by ``margin`` per side.

    Nodes outside the sub-box carry zero; refuses, naming ``margin``, what
    config.margin_problem names.
    """
    if reason := margin_problem(grid.extents, grid.n, margin):
        raise ValueError(f"margin {margin}: {reason}")
    axes_idx = subbox_nodes(grid.extents, grid.n, margin)
    sub_shape = tuple(len(idx) for idx in axes_idx)
    box = np.ix_(*axes_idx)
    full = np.zeros(grid.shape)
    full[box] = _solve_poisson_unit_rhs(sub_shape, grid.h)
    weights = np.zeros(grid.shape)
    weights[box] = trapezoid_weights(sub_shape, grid.h)
    return TorsionSolution(Field(grid, full), float(np.sum(weights * full)), weights)


def measure_poincare_constant(grid: Grid) -> float:
    """Smallest-eigenvalue reciprocal of the discrete Dirichlet Laplacian.

    The 5-point Laplacian of a box is a sum of 1D second differences, so its
    smallest eigenvalue is  sum_k (4/h_k^2) sin^2(pi h_k / (2 L_k))  in closed
    form; the returned C_P satisfies  ∫|grad u|^2 >= (1/C_P) ∫u^2  on the grid.
    """
    lam = sum(4.0 / step**2 * math.sin(math.pi * step / (2.0 * ext)) ** 2
              for step, ext in zip(grid.h, grid.extents))
    return 1.0 / lam
