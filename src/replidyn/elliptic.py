"""Torsion problems -Δφ = 1 with zero Dirichlet data, and the φ-weighted sup norm.

The torsion function of the full domain weights the sup norm that encodes
linear decay toward the boundary; torsion functions of concentric sub-boxes
drive the interior estimates.  Systems are solved directly on the interior
nodes by a sparse LU factorization with the minimum-degree ordering the 2D
time step also uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Field, Grid, trapezoid_weights

__all__ = [
    "TorsionSolution",
    "solve_torsion",
    "solve_torsion_subdomain",
    "phi_weighted_sup",
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


def _interior_laplacian(shape: tuple[int, ...], h: tuple[float, ...]) -> sp.csr_matrix:
    """Negative of the Dirichlet Laplacian (SPD) on the interior nodes."""
    blocks = []
    for k, step in zip(shape, h):
        m = k - 2
        main = np.full(m, 2.0 / step**2)
        off = np.full(m - 1, -1.0 / step**2)
        blocks.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if len(blocks) == 1:
        return blocks[0].tocsr()
    ax, ay = blocks
    ix = sp.identity(ax.shape[0], format="csr")
    iy = sp.identity(ay.shape[0], format="csr")
    return (sp.kron(ax, iy) + sp.kron(ix, ay)).tocsr()


@functools.lru_cache(maxsize=16)
def _solve_poisson_unit_rhs(shape, h) -> np.ndarray:
    """Solve -Δφ = 1 on the interior of a box with zero boundary data, once
    per (shape, h) and process; the shared array is read-only."""
    a = _interior_laplacian(shape, h)
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

    Nodes outside the sub-box carry zero.  The margin must leave at least
    three nodes per axis.
    """
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    axes_idx = []
    for ax, ext in zip(grid.axes, grid.extents):
        keep = np.where((ax >= margin - 1e-12) & (ax <= ext - margin + 1e-12))[0]
        if len(keep) < 3:
            raise ValueError(
                f"margin {margin} leaves {len(keep)} nodes on an axis; need >= 3"
            )
        axes_idx.append(keep)
    sub_shape = tuple(len(idx) for idx in axes_idx)
    box = np.ix_(*axes_idx)
    full = np.zeros(grid.shape)
    full[box] = _solve_poisson_unit_rhs(sub_shape, grid.h)
    weights = np.zeros(grid.shape)
    weights[box] = trapezoid_weights(sub_shape, grid.h)
    return TorsionSolution(Field(grid, full), float(np.sum(weights * full)), weights)


def phi_weighted_sup(v: Field | np.ndarray, torsion: TorsionSolution) -> float:
    """max |v/phi| over the nodes where phi is positive (the essential sup
    ignores the measure-zero boundary, where phi vanishes).  ``v`` is a field
    or its full-grid values."""
    index, phi = torsion.positive_set
    if not index.size:
        raise ValueError("torsion solution has no positive interior values")
    values = v.values if isinstance(v, Field) else v
    return float(np.max(np.abs(values.take(index) / phi)))


def measure_poincare_constant(grid: Grid) -> float:
    """Smallest-eigenvalue reciprocal of the discrete Dirichlet Laplacian.

    The 5-point Laplacian of a box is a sum of 1D second differences, so its
    smallest eigenvalue is  sum_k (4/h_k^2) sin^2(pi h_k / (2 L_k))  in closed
    form; the returned C_P satisfies  ∫|grad u|^2 >= (1/C_P) ∫u^2  on the grid.
    """
    lam = sum(4.0 / step**2 * math.sin(math.pi * step / (2.0 * ext)) ** 2
              for step, ext in zip(grid.h, grid.extents))
    return 1.0 / lam
