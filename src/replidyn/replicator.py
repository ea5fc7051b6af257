"""Finite-strategy replicator dynamics, and the method of lines as a game.

The simplex ODE  p_i' = ((Ap)_i - p.Ap) p_i  is integrated with classical RK4
plus renormalization.  The semi-discrete PDE is such a game, exactly: on the
interior nodes of a grid take  p_i = w_i u_i  (w the trapezoid weights, so p
lies on the simplex at mass 1) and the payoff  a = -A W^-1,  A = -Δ_h from
``mesh.dirichlet_laplacian``.  Then  a p = Δ_h u,  summation by parts gives
p.ap = -E_h(u),  and the replicator field is  w u (Δ_h u + E_h(u)),  the
right-hand side of  u_t = u (Δu + ∫|∇u|²)  at ε = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Grid, dirichlet_laplacian

__all__ = [
    "SimplexState",
    "PayoffMatrix",
    "replicator_rhs",
    "integrate_replicator",
    "payoff_matrix_from_laplacian",
]

SIMPLEX_TOL = 1e-9
CLIP_LIMIT = 1e-6


@dataclass
class SimplexState:
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.validate()

    def validate(self) -> None:
        if self.p.ndim != 1:
            raise ValueError(f"frequencies must be a 1-D array, not {self.p.shape}")
        if not np.all(np.isfinite(self.p)):  # NaN fails both checks below
            raise ValueError("frequencies must be finite")
        if np.any(self.p < -SIMPLEX_TOL):
            raise ValueError("frequencies must be nonnegative")
        if abs(self.p.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"frequencies must sum to 1, got {self.p.sum()!r}")


@dataclass
class PayoffMatrix:
    a: np.ndarray  # or a scipy sparse matrix

    def __post_init__(self):
        sparse = sp.issparse(self.a)
        self.a = self.a.astype(float) if sparse else np.asarray(self.a, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("payoff matrix must be square")
        if not np.all(np.isfinite(self.a.data if sparse else self.a)):
            raise ValueError("payoff matrix must be finite")


def _rhs(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    ap = a @ p
    return (ap - p @ ap) * p


def replicator_rhs(state: SimplexState, payoff: PayoffMatrix) -> np.ndarray:
    """Componentwise growth from payoff advantage over the population average."""
    return _rhs(state.p, payoff.a)


def integrate_replicator(p0: SimplexState, payoff: PayoffMatrix,
                         t_end: float, dt: float):
    """Fixed-step RK4 with per-step renormalization, to exactly t_end.

    ``dt`` must divide ``t_end`` to rounding.  Negative components are
    clipped to zero before renormalizing; the clipped magnitude is accounted
    per step and a step that clips more than 1e-6 aborts with "dt too large".
    Returns (times, states array, total clip).
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got t_end={t_end}, dt={dt}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * abs(t_end):
        raise ValueError(f"dt={dt} does not divide t_end={t_end} into whole steps")
    a = payoff.a
    p = p0.p.copy()
    times = [0.0]
    states = [p.copy()]
    clip_total = 0.0
    for k in range(n_steps):
        k1 = _rhs(p, a)
        k2 = _rhs(p + 0.5 * dt * k1, a)
        k3 = _rhs(p + 0.5 * dt * k2, a)
        k4 = _rhs(p + dt * k3, a)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clipped = float(-np.minimum(p, 0.0).sum())
        if clipped > CLIP_LIMIT:
            raise ValueError(
                f"dt too large: clipped {clipped:.3e} of probability in one step"
            )
        clip_total += clipped
        p = np.maximum(p, 0.0)
        p /= p.sum()
        times.append((k + 1) * dt)
        states.append(p.copy())
    return np.asarray(times), np.asarray(states), clip_total


def payoff_matrix_from_laplacian(grid: Grid) -> PayoffMatrix:
    """The sparse (CSR) payoff  -A W^-1  on the interior nodes of ``grid``,
    in row-major order: A = -Δ_h from ``mesh.dirichlet_laplacian`` and W the
    interior trapezoid weights.  Its game with  p = w u  is the semi-discrete
    PDE at ε = 0 (see the module docstring)."""
    a, _ = dirichlet_laplacian(grid.shape, grid.h)
    core = (slice(1, -1),) * grid.dimension
    return PayoffMatrix((a @ sp.diags(-1.0 / grid.quad_weights[core].ravel())).tocsr())
