"""Adaptive time stepper for the regularized problem

    u_t = u * (Lap u + min(E(u), 1/eps)),   u = eps on the boundary,

where E(u) is the Dirichlet energy of u.  The scheme freezes the degenerate
coefficient at the current step and treats the diffusion implicitly,

    (I - dt * diag(u^n) * Lap_h) u^{n+1} = u^n * (1 + dt * rho_eps(E^n)),

with boundary nodes pinned to eps and the result floored at eps.

In 1D the semi-implicit system, multiplied through by diag(1/u^n), is
tridiagonal and solved directly by LAPACK gtsv, called without a wrapper; it
is the routine scipy.linalg.solve_banded runs for a tridiagonal band, so the
solution is bitwise the same.  In 2D the same SPD system
(diag(1/u^n) - dt*Lap_h) u^{n+1} = rhs is solved by conjugate gradients,
applied matrix-free and preconditioned by a sparse LU factor (minimum-degree
ordering) that the run holds across steps; CG stops at
||r|| <= CG_RTOL * ||rhs||.  It starts from the linear extrapolation
u^n + (dt/dt_prev) (u^n - u^{n-1}) of the last two states, whose residual is
O(dt^2), so a good factor needs about four iterations.  Only the diagonal and
dt change from step to step, so one factor serves many steps.  When there is
no factor yet, or CG needs more than CG_MAX_ITER (5) iterations, the matrix
of the current step is factored and solved directly: a fresh factor costs
about as much as 25 (81^2) to 40 (41^2) preconditioner solves, so a factor
that has gone stale is cheaper to replace than to iterate with.  The held
factor is released before the new one is built, so two are never alive at
once.  A solve thus depends on which factor is held only below the CG
tolerance, and a run is deterministic.

The step size halves when the sup norm moves by more than 10% per step and
grows by 1.2x when it moves by less than 1%, capped by the reaction scale
reaction_cap_c / max(rho_eps, 1) so the nonlocal term stays resolved near
blow-up.  The last step is clamped to t_end, below dt_min if need be, and
does not count as starvation.

A run ends in one of three outcomes: Decayed (corrected mass fell below
DECAY_THRESHOLD of its initial value), RanToEnd, or BlowUp (sup norm crossed
the cap, or the controller starved below dt_min while the sup norm was growing).
Note the regularized dynamics are globally bounded by  eps + max(Phi)/eps  (the
capped nonlocal term admits that stationary supersolution), so the default sup
cap is clamped below this ceiling; otherwise a cap of 1e4 x the initial sup
norm could never trigger at moderate eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.sparse.linalg import splu

from .diagnostics import Trace
from .elliptic import TorsionSolution, solve_torsion
from .mesh import Field, Grid, dirichlet_energy, dirichlet_laplacian, edge_energy

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
CG_MAX_ITER = 5
DECAY_THRESHOLD = 0.05  # Decayed: corrected mass below this fraction of its start


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
    t_end: float = 5.0
    sup_cap: float | None = None  # None: min(1e4 * initial sup, 0.8 * max(Phi)/eps)
    snapshot_stride: int = 10
    trace_stride: int = 1
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
    u: np.ndarray  # full grid, boundary nodes at eps; never changed in place
    dt: float
    energy: float
    rho_value: float
    floored: int = 0
    starved: bool = False


@dataclass
class SimulationResult:
    outcome: str  # "Decayed" | "RanToEnd" | "BlowUp"
    t_last: float
    trace: Trace
    snapshots: list
    params: SolverParams
    sup_cap: float
    final: Field
    max_floored_fraction: float
    floor_flagged: bool
    steps: int
    factorizations: int  # sparse LU factorizations of the 2D solve (0 in 1D)
    cg_iterations: int   # preconditioned CG iterations of the 2D solve (0 in 1D)


class _Workspace:
    """Per-grid sparse pieces reused across steps, and in 2D the held LU
    factor that preconditions the semi-implicit solve."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.interior = (slice(1, -1),) * grid.dimension
        self.interior_shape = tuple(k - 2 for k in grid.shape)
        self.n_interior = math.prod(self.interior_shape)
        # Lap_h u |interior = boundary_value * bc - neg_lap @ u_int
        self.neg_lap, self.bc = dirichlet_laplacian(grid.shape, grid.h)
        self.lu = None
        self.previous = None  # (u_int, dt) of the last 2D solve
        self.factorizations = 0
        self.cg_iterations = 0
        if grid.dimension == 1:
            self.gtsv, = get_lapack_funcs(("gtsv",), (self.bc,))

    def solve_semi_implicit(self, u_int: np.ndarray, dt: float, f: float,
                            eps: float) -> np.ndarray:
        """Solve (diag(1/u) - dt*Lap) u_new = (1 + dt*f) + dt*eps*bc (SPD)."""
        rhs = (1.0 + dt * f) + dt * eps * self.bc
        inv_u = 1.0 / u_int
        if self.grid.dimension == 1:
            # gtsv would turn non-finite data into a NaN solution without error
            if not np.isfinite(inv_u).all():
                raise ValueError("semi-implicit solve got non-finite data")
            h2 = self.grid.h[0] ** 2
            off = np.full(self.n_interior - 1, -dt * (1.0 / h2))
            x, info = self.gtsv(off, inv_u + 2.0 * dt / h2, off, rhs)[3:]
            if info > 0:
                raise LinAlgError("singular matrix")
            return x
        previous, self.previous = self.previous, (u_int, dt)
        if self.lu is not None:  # held factors come from earlier 2D solves
            u_prev, dt_prev = previous
            x0 = u_int + (dt / dt_prev) * (u_int - u_prev)
            x = self._preconditioned_cg(inv_u, dt, rhs, x0)
            if x is not None:
                return x
        a = sp.diags(inv_u) + dt * self.neg_lap
        self.lu = None  # free the stale factor before the new one is built
        self.lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        return self.lu.solve(rhs)

    def _preconditioned_cg(self, inv_u: np.ndarray, dt: float, rhs: np.ndarray,
                           x: np.ndarray) -> np.ndarray | None:
        """Conjugate gradients from the start x (updated in place),
        preconditioned by the held factor; None when CG_MAX_ITER iterations
        do not reach ||r|| <= CG_RTOL * ||rhs||."""
        lu, neg_lap = self.lu, self.neg_lap
        tol = CG_RTOL * np.linalg.norm(rhs)
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


def step(state: SolverState, params: SolverParams,
         workspace: _Workspace) -> SolverState:
    """Advance one step; the returned state carries a fresh array, the
    controller's next dt proposal and a dt starvation flag instead of raising.
    The step never passes params.t_end: the last one is clamped to it, below
    dt_min if need be, and that clamp is not starvation."""
    remaining = params.t_end - state.t
    if remaining <= 0.0:
        raise ValueError(f"state at t={state.t} has reached t_end={params.t_end}")
    eps = params.epsilon
    u_int = state.u[workspace.interior].ravel()

    f = state.rho_value
    want = min(state.dt, params.dt_max, params.reaction_cap_c / max(f, 1.0))
    starved = want < params.dt_min
    dt = min(max(want, params.dt_min), remaining)
    new_int = workspace.solve_semi_implicit(u_int, dt, f, eps)

    floored = np.count_nonzero(new_int < eps - 1e-15)
    np.maximum(new_int, eps, out=new_int)  # the solve's output is a fresh array
    u = np.full(state.u.shape, eps)
    u[workspace.interior] = new_int.reshape(workspace.interior_shape)

    # boundary nodes never move, so the interior decides the relative change;
    # states are >= eps > 0, so the old sup norm is the interior maximum
    rel = float(np.abs(new_int - u_int).max()) / max(float(u_int.max()), eps)
    next_dt = dt
    if rel > 0.10:
        next_dt = dt * 0.5
    elif rel < 0.01:
        next_dt = dt * 1.2
    next_dt = min(max(next_dt, params.dt_min), params.dt_max)

    energy = edge_energy(u, workspace.grid)
    return SolverState(t=state.t + dt, u=u, dt=next_dt, energy=energy,
                       rho_value=rho_eps(energy, eps), floored=floored,
                       starved=starved)


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
        min(1e4 * float(np.max(u0eps.values)), 0.8 * torsion.max_phi / eps)

    workspace = _Workspace(grid)
    weights = grid.quad_weights
    index, phi = torsion.positive_set
    e0 = dirichlet_energy(u0eps, eps)
    state = SolverState(t=0.0, u=u0eps.values.copy(), dt=params.dt_init, energy=e0,
                        rho_value=rho_eps(e0, eps))
    rows = []

    # Each state's reductions are taken once, from its plain array: the mass
    # is the expression integrate() evaluates, the phi-norm the one
    # phi_weighted_sup() evaluates on u - eps, restricted to the positive set
    # first.  The energy's finiteness check in step() covers every state, and
    # a Field is built only for a snapshot.
    def mass_and_sup(state: SolverState) -> tuple[float, float]:
        return float((weights * state.u).sum()), float(state.u.max())

    def record(state: SolverState, mass: float, sup: float) -> None:
        phi_norm = float(abs((state.u.take(index) - eps) / phi).max())
        rows.append((state.t, state.dt, mass, state.energy, sup, phi_norm,
                     state.rho_value, state.floored))

    mass, sup = mass_and_sup(state)
    record(state, mass, sup)
    snapshots = [(0.0, Field(grid, state.u))]
    eps_offset = eps * grid.volume
    initial_corrected = mass - eps_offset
    max_floored = 0
    outcome = None
    step_index = 0

    while True:
        if sup >= sup_cap:
            outcome = "BlowUp"
            break
        corrected = mass - eps_offset
        if state.t >= params.t_end - 1e-12:
            outcome = "Decayed" if corrected < DECAY_THRESHOLD * initial_corrected \
                else "RanToEnd"
            break
        if initial_corrected > 0 and corrected < DECAY_THRESHOLD * initial_corrected:
            outcome = "Decayed"
            break

        prev_sup = sup
        state = step(state, params, workspace)
        mass, sup = mass_and_sup(state)
        step_index += 1
        max_floored = max(max_floored, state.floored)

        if step_index % params.trace_stride == 0:
            record(state, mass, sup)
        if step_index % params.snapshot_stride == 0:
            snapshots.append((state.t, Field(grid, state.u)))
        if state.starved and sup > prev_sup:
            outcome = "BlowUp"
            break

    if state.t > rows[-1][0]:
        record(state, mass, sup)
    if state.t > snapshots[-1][0]:
        snapshots.append((state.t, Field(grid, state.u)))

    data = np.asarray(rows, dtype=float)
    trace = Trace(*data[:, :7].T, data[:, 7].astype(int), eps, grid.volume)
    max_floor_frac = max_floored / max(workspace.n_interior, 1)
    return SimulationResult(
        outcome=outcome, t_last=state.t, trace=trace, snapshots=snapshots,
        params=params, sup_cap=sup_cap, final=snapshots[-1][1],
        max_floored_fraction=max_floor_frac,
        floor_flagged=max_floor_frac > 1e-3,
        steps=step_index,
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
