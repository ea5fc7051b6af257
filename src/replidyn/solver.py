"""Adaptive time stepper for the regularized problem

    u_t = u * (Lap u + min(E(u), 1/eps)),   u = eps on the boundary,

where E(u) is the Dirichlet energy of u.  The default scheme freezes the
degenerate coefficient at the current step and treats the diffusion
implicitly,

    (I - dt * diag(u^n) * Lap_h) u^{n+1} = u^n * (1 + dt * rho_eps(E^n)),

with boundary nodes pinned to eps and the result floored at eps; an explicit
forward-Euler mode is kept for cross-validation.

In 1D the semi-implicit system, multiplied through by diag(1/u^n), is
tridiagonal and solved directly by LAPACK gtsv, called without a wrapper; it
is the routine scipy.linalg.solve_banded runs for a tridiagonal band, so the
solution is bitwise the same.  In 2D the same SPD system
(diag(1/u^n) - dt*Lap_h) u^{n+1} = rhs is solved by conjugate gradients,
applied matrix-free and preconditioned by a sparse LU factor (minimum-degree
ordering) that the run holds across steps; CG starts from the factor's own
solution and stops at ||r|| <= CG_RTOL * ||rhs||.  Only the diagonal and dt
change from step to step, so one factor usually serves a whole run.  When
there is no factor yet, or CG needs more than CG_MAX_ITER iterations, the
matrix of the current step is factored and solved directly.  A solve thus
depends on which factor is held only below the CG tolerance, and a run is
deterministic.

The step size halves when the sup norm moves by more than 10% per step and
grows by 1.2x when it moves by less than 1%, capped by the reaction scale
0.5 / rho_eps so the nonlocal term stays resolved near blow-up.  The last
step is clamped to t_end, below dt_min if need be, and does not count as
starvation.

A run ends in one of three outcomes: Decayed (corrected mass fell below a
fraction of its initial value), RanToEnd, or BlowUp (sup norm crossed the cap,
or the controller starved below dt_min while the sup norm was growing).  Note
the regularized dynamics are globally bounded by  eps + max(Phi)/eps  (the
capped nonlocal term admits that stationary supersolution), so the default
sup cap is clamped below this ceiling; otherwise a cap of 1e4 x the initial
sup norm could never trigger at moderate eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.sparse.linalg import splu

from .diagnostics import Trace
from .elliptic import TorsionSolution, _interior_laplacian, phi_weighted_sup, solve_torsion
from .mesh import Field, Grid, dirichlet_energy, integrate

__all__ = [
    "SolverParams",
    "SolverState",
    "SimulationResult",
    "rho_eps",
    "step",
    "run",
    "comparison_upper_bound",
]

# The 2D semi-implicit solve: conjugate gradients stop at this residual
# relative to the right-hand side, and a held LU factor that needs more than
# CG_MAX_ITER iterations to get there is replaced by a fresh one.
CG_RTOL = 1e-13
CG_MAX_ITER = 20


def rho_eps(z: float, epsilon: float) -> float:
    """Capped nonlocal coefficient min(z, 1/epsilon); 1-Lipschitz, nondecreasing."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if z < 0.0:
        raise ValueError(f"rho_eps expects a nonnegative argument, got {z}")
    return min(z, 1.0 / epsilon)


@dataclass
class SolverParams:
    epsilon: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 5e-2
    cfl_c: float = 0.9
    t_end: float = 5.0
    sup_cap: float | None = None  # None: min(1e4 * initial sup, 0.8 * max(Phi)/eps)
    scheme: str = "semi-implicit"
    snapshot_stride: int = 10
    trace_stride: int = 1
    decay_threshold: float = 0.05
    # dt <= reaction_cap_c / max(rho, 1); 0.5 suffices for stability, smaller
    # values resolve the energy growth for tight identity checks near blow-up.
    reaction_cap_c: float = 0.5

    def validate(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not (0.0 < self.cfl_c <= 1.0):
            raise ValueError(f"cfl_c must lie in (0,1], got {self.cfl_c}")
        if self.scheme not in ("semi-implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.sup_cap is not None and self.sup_cap <= self.epsilon:
            raise ValueError("sup_cap must exceed epsilon")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1 or self.trace_stride < 1:
            raise ValueError("strides must be positive integers")
        if not (0.0 < self.reaction_cap_c <= 0.5):
            raise ValueError("reaction_cap_c must lie in (0, 0.5]")


@dataclass
class SolverState:
    t: float
    u: Field
    dt: float
    energy: float
    rho_value: float
    floored: int = 0
    starved: bool = False


@dataclass
class SimulationResult:
    outcome: str  # "Decayed" | "RanToEnd" | "BlowUp"
    t_last: float
    t_max_estimate: float
    fit_residual: float
    trace: Trace
    snapshots: list
    params: SolverParams
    sup_cap: float
    final: Field
    max_floored_fraction: float
    floor_flagged: bool
    factorizations: int  # sparse LU factorizations of the 2D solve (0 in 1D)
    cg_iterations: int   # preconditioned CG iterations of the 2D solve (0 in 1D)


class _Workspace:
    """Per-grid sparse pieces reused across steps, and in 2D the held LU
    factor that preconditions the semi-implicit solve."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.interior = grid.interior_mask
        self.n_interior = int(self.interior.sum())
        self.neg_lap = _interior_laplacian(grid.shape, grid.h)
        self.bc = self._boundary_coupling(grid)
        self.lu = None
        self.factorizations = 0
        self.cg_iterations = 0
        if grid.dimension == 1:
            self.gtsv, = get_lapack_funcs(("gtsv",), (self.bc,))

    @staticmethod
    def _boundary_coupling(grid: Grid) -> np.ndarray:
        """The vector bc with Lap_h u |interior = -neg_lap @ u_int + boundary_value * bc."""
        ones_bc = np.zeros(tuple(k - 2 for k in grid.shape))
        for axis, step in enumerate(grid.h):
            sl = [slice(None)] * grid.dimension
            sl[axis] = 0
            ones_bc[tuple(sl)] += 1.0 / step**2
            sl[axis] = -1
            ones_bc[tuple(sl)] += 1.0 / step**2
        return ones_bc.ravel()

    def laplacian_interior(self, u_int: np.ndarray, boundary_value: float) -> np.ndarray:
        return boundary_value * self.bc - self.neg_lap @ u_int

    def solve_semi_implicit(self, u_int: np.ndarray, dt: float, f: float,
                            eps: float) -> np.ndarray:
        """Solve (diag(1/u) - dt*Lap) u_new = (1 + dt*f) + dt*eps*bc (SPD)."""
        rhs = (1.0 + dt * f) + dt * eps * self.bc
        inv_u = 1.0 / u_int
        if self.grid.dimension == 1:
            if not (np.isfinite(inv_u).all() and np.isfinite(rhs).all()):
                raise ValueError("semi-implicit solve got non-finite data")
            h2 = self.grid.h[0] ** 2
            off = np.full(self.n_interior - 1, -dt * (1.0 / h2))
            x, info = self.gtsv(off, inv_u + 2.0 * dt / h2, off, rhs)[3:]
            if info > 0:
                raise LinAlgError("singular matrix")
            return x
        if self.lu is not None:
            x = self._preconditioned_cg(inv_u, dt, rhs)
            if x is not None:
                return x
        a = sp.diags(inv_u) + dt * self.neg_lap
        self.lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        return self.lu.solve(rhs)

    def _preconditioned_cg(self, inv_u: np.ndarray, dt: float,
                           rhs: np.ndarray) -> np.ndarray | None:
        """Conjugate gradients from the held factor's solution, preconditioned
        by that factor; None when CG_MAX_ITER iterations do not reach
        ||r|| <= CG_RTOL * ||rhs||."""
        lu, neg_lap = self.lu, self.neg_lap
        tol = CG_RTOL * np.linalg.norm(rhs)
        x = lu.solve(rhs)
        r = rhs - (inv_u * x + dt * (neg_lap @ x))
        p = rz = None
        for iteration in range(CG_MAX_ITER + 1):
            if np.linalg.norm(r) <= tol:
                self.cg_iterations += iteration
                return x
            if iteration == CG_MAX_ITER:
                break
            z = lu.solve(r)
            rz_new = r @ z
            p = z if p is None else z + (rz_new / rz) * p
            rz = rz_new
            q = inv_u * p + dt * (neg_lap @ p)
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
        self.cg_iterations += CG_MAX_ITER
        return None


def _default_sup_cap(u0: Field, epsilon: float, torsion: TorsionSolution) -> float:
    sup0 = float(np.max(u0.values))
    ceiling = 0.8 * torsion.max_phi / epsilon
    return min(1e4 * sup0, ceiling)


def step(state: SolverState, params: SolverParams,
         workspace: _Workspace | None = None) -> SolverState:
    """Advance one step; the returned state carries the controller's next dt
    proposal and flags dt starvation instead of raising.  The step never
    passes params.t_end: the last one is clamped to it, below dt_min if need
    be, and that clamp is not starvation."""
    remaining = params.t_end - state.t
    if remaining <= 0.0:
        raise ValueError(f"state at t={state.t} has reached t_end={params.t_end}")
    grid = state.u.grid
    if workspace is None:
        workspace = _Workspace(grid)
    eps = params.epsilon
    interior = workspace.interior
    u = state.u.values
    u_int = u[interior]

    f = state.rho_value
    want = min(state.dt, params.dt_max, params.reaction_cap_c / max(f, 1.0))
    if params.scheme == "explicit":
        cfl = params.cfl_c * min(grid.h) ** 2 / (2.0 * grid.dimension * float(u.max()))
        want = min(want, cfl)
    starved = want < params.dt_min
    dt = min(max(want, params.dt_min), remaining)

    if params.scheme == "explicit":
        lap_int = workspace.laplacian_interior(u_int, eps)
        new_int = u_int + dt * (u_int * lap_int + u_int * f)
    else:
        new_int = workspace.solve_semi_implicit(u_int, dt, f, eps)

    floored = int((new_int < eps - 1e-15).sum())
    new_int = np.maximum(new_int, eps)
    new_values = np.full(grid.shape, eps)
    new_values[interior] = new_int

    rel = float(np.abs(new_values - u).max()) / max(float(np.abs(u).max()), eps)
    next_dt = dt
    if rel > 0.10:
        next_dt = dt * 0.5
    elif rel < 0.01:
        next_dt = dt * 1.2
    next_dt = min(max(next_dt, params.dt_min), params.dt_max)

    new_field = Field(grid, new_values)
    energy = dirichlet_energy(new_field, eps)
    return SolverState(t=state.t + dt, u=new_field, dt=next_dt, energy=energy,
                       rho_value=rho_eps(energy, eps), floored=floored,
                       starved=starved)


class _TraceBuilder:
    def __init__(self, epsilon: float, omega: float):
        self.rows = []
        self.epsilon = epsilon
        self.omega = omega

    def add(self, state: SolverState, mass: float, sup: float,
            torsion: TorsionSolution) -> None:
        lifted = Field(state.u.grid, state.u.values - self.epsilon)
        self.rows.append((state.t, state.dt, mass, state.energy, sup,
                          phi_weighted_sup(lifted, torsion),
                          state.rho_value, state.floored))

    def build(self) -> Trace:
        data = np.asarray([r[:7] for r in self.rows], dtype=float)
        floored = np.asarray([r[7] for r in self.rows], dtype=int)
        return Trace(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4],
                     data[:, 5], data[:, 6], floored, self.epsilon, self.omega)


def run(u0eps: Field, params: SolverParams,
        torsion: TorsionSolution | None = None) -> SimulationResult:
    """Integrate from u0eps until t_end, decay, or blow-up."""
    params.validate()
    grid = u0eps.grid
    eps = params.epsilon
    if np.min(u0eps.values) < eps - 1e-12:
        raise ValueError("initial data must respect the positivity floor")
    if np.max(np.abs(u0eps.values[grid.boundary_mask] - eps)) > 1e-12:
        raise ValueError("initial data must equal epsilon on the boundary")
    if torsion is None:
        torsion = solve_torsion(grid)
    sup_cap = params.sup_cap if params.sup_cap is not None else \
        _default_sup_cap(u0eps, eps, torsion)

    workspace = _Workspace(grid)
    e0 = dirichlet_energy(u0eps, eps)
    state = SolverState(t=0.0, u=u0eps.copy(), dt=params.dt_init, energy=e0,
                        rho_value=rho_eps(e0, eps))
    # mass and sup of the current state, computed once per state
    mass = integrate(state.u)
    sup = float(state.u.values.max())
    builder = _TraceBuilder(eps, grid.volume)
    snapshots = [(0.0, state.u.copy())]
    builder.add(state, mass, sup, torsion)

    eps_offset = eps * grid.volume
    initial_corrected = mass - eps_offset
    n_interior = int(grid.interior_mask.sum())
    max_floor_frac = 0.0
    outcome = None
    step_index = 0
    last_recorded_t = 0.0
    last_snapshot_t = 0.0

    while True:
        if sup >= sup_cap:
            outcome = "BlowUp"
            break
        corrected = mass - eps_offset
        if state.t >= params.t_end - 1e-12:
            outcome = "Decayed" if corrected < params.decay_threshold * initial_corrected \
                else "RanToEnd"
            break
        if initial_corrected > 0 and corrected < params.decay_threshold * initial_corrected:
            outcome = "Decayed"
            break

        prev_sup = sup
        stepped = step(state, params, workspace)
        mass = integrate(stepped.u)
        sup = float(stepped.u.values.max())
        step_index += 1
        max_floor_frac = max(max_floor_frac, stepped.floored / max(n_interior, 1))

        if step_index % params.trace_stride == 0:
            builder.add(stepped, mass, sup, torsion)
            last_recorded_t = stepped.t
        if step_index % params.snapshot_stride == 0:
            snapshots.append((stepped.t, stepped.u.copy()))
            last_snapshot_t = stepped.t

        state = stepped
        if stepped.starved and sup > prev_sup:
            outcome = "BlowUp"
            break

    if state.t > last_recorded_t:
        builder.add(state, mass, sup, torsion)
    if state.t > last_snapshot_t:
        snapshots.append((state.t, state.u.copy()))
    trace = builder.build()

    t_max_estimate = math.nan
    fit_residual = math.nan
    if outcome == "BlowUp":
        from .blowup import estimate_tmax
        try:
            t_max_estimate, fit_residual = estimate_tmax(trace)
        except (ValueError, RuntimeError):
            pass

    return SimulationResult(
        outcome=outcome, t_last=state.t, t_max_estimate=t_max_estimate,
        fit_residual=fit_residual, trace=trace, snapshots=snapshots,
        params=params, sup_cap=sup_cap, final=state.u,
        max_floored_fraction=max_floor_frac,
        floor_flagged=max_floor_frac > 1e-3,
        factorizations=workspace.factorizations,
        cg_iterations=workspace.cg_iterations,
    )


def comparison_upper_bound(m_bound: float, b_bound: float,
                           torsion: TorsionSolution) -> float:
    """A-priori sup bound e^(B+1) * (M + max Phi) valid whenever the initial
    data is below M and the space-time energy integral is below B."""
    if m_bound <= 0:
        raise ValueError("M must be positive")
    if b_bound < 0:
        raise ValueError("B must be nonnegative")
    with np.errstate(over="ignore"):
        return float(np.exp(b_bound + 1.0) * (m_bound + torsion.max_phi))
