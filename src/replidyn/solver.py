"""Adaptive time stepper for the regularized problem

    u_t = u * (Lap u + min(E(u), 1/eps)),   u = eps on the boundary,

where E(u) is the Dirichlet energy of u.  The scheme freezes the degenerate
coefficient at the current step and treats the diffusion implicitly,

    (I - dt * diag(u^n) * Lap_h) u^{n+1} = u^n * (1 + dt * rho_eps(E^n)),

with boundary nodes pinned to eps and the result floored at eps.

In 1D the semi-implicit system, multiplied through by diag(1/u^n), is
tridiagonal and solved directly by LAPACK gtsv, called without a wrapper; it
is the routine scipy.linalg.solve_banded runs for a tridiagonal band, so the
solution is bitwise the same.  A 1D step costs numpy calls more than
arithmetic, so it makes few: the right-hand side is a fill plus two end
entries, the diagonal goes into a buffer the workspace holds, gtsv
overwrites both, and the old sup norm is the one the state carries.  In 2D
the same SPD system (diag(1/u^n) - dt*Lap_h) u^{n+1} = rhs is solved by
conjugate gradients, applied matrix-free and preconditioned by a sparse LU
factor (minimum-degree ordering) that the run holds across steps; CG stops at
||r|| <= CG_RTOL * ||rhs||, and CG_RTOL = 1e-9 sits about seven orders below
the scheme's time error (2e-2 in t_max on canonical settings).  It starts
from the least-residual combination (Fischer 1998) of the newest state and
the last HISTORY - 1 differences of consecutive states, which span what the
states span but are far better scaled.  At most HISTORY coefficients are
fitted, so the residual is minimized on a fixed sample of 16 * HISTORY
to 32 * HISTORY evenly spread interior rows (sketch-and-solve least squares;
Drineas, Mahoney, Muthukrishnan & Sarlos 2011), every row of a smaller
interior; each difference keeps its own neg_lap product on those rows, and
the newest state its full product.  LAPACK gelsd (lstsq's routine, at its
cutoff) fits the sampled images to the sampled rhs, without the differences
whose images are roundoff next to the newest state's.  The start's full
residual is computed once and handed to CG; where the best multiple of the
newest state leaves a smaller one, CG starts from that multiple instead (a
start fallback), so the start is never worse than u^n alone.  A canonical run
needs 0.24 (41^2) to 0.33 (81^2) iterations a step from there (0.87 to 1.11
at CG_RTOL 1e-13), against 3.5 (41^2) from u^n alone, and one factor serves
it whole.  When there is no factor yet, or CG needs more than CG_MAX_ITER
(5) iterations, the matrix of the current step is factored and solved
directly: a fresh factor costs about as much as 25 (81^2) to 40 (41^2)
preconditioner solves, so a factor that has gone stale is cheaper to
replace than to iterate with.  The held factor is released before the new
one is built, so two are never alive at once.  A solve thus depends on
which factor is held only below the CG tolerance, and a run is
deterministic.

The step size halves when the sup norm moves by more than 10% per step and
grows by 1.2x when it moves by less than 1%, capped by the reaction scale
reaction_cap_c / max(rho_eps, 1) so the nonlocal term stays resolved near
blow-up.  The last step is clamped to t_end, below dt_min if need be, and
does not count as starvation.

A run ends in one of three outcomes: Decayed (a positive initial corrected
mass fell below DECAY_THRESHOLD of itself), RanToEnd (t_end reached without
decay), or BlowUp (sup norm crossed the cap, or the controller starved below
dt_min while the sup norm was growing).
Note the regularized dynamics are globally bounded by  eps + max(Phi)/eps  (the
capped nonlocal term admits that stationary supersolution), so the default sup
cap is clamped below this ceiling; otherwise a cap of 1e4 x the initial sup
norm could never trigger at moderate eps.  A cap at or below the initial sup
norm, which would end the run before its first step, is refused.  SolverParams
takes its defaults and rules from config (solver_default, solver_problems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.sparse.linalg import splu

from .config import epsilon_problems, refuse, solver_default, solver_problems
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
]

# The 2D semi-implicit solve: conjugate gradients stop at this residual
# relative to the right-hand side, and a held LU factor that needs more than
# CG_MAX_ITER iterations to get there is replaced by a fresh one.  Against
# 1e-13, 1e-9 moves a canonical 2D trace by at most 4.3e-8 relative.
CG_RTOL = 1e-9
CG_MAX_ITER = 5
HISTORY = 8  # CG starts from the newest state and HISTORY - 1 differences
DECAY_THRESHOLD = 0.05  # Decayed: corrected mass below this fraction of its start


def rho_eps(z: float, epsilon: float) -> float:
    """Capped nonlocal coefficient min(z, 1/epsilon); 1-Lipschitz, nondecreasing."""
    refuse(epsilon_problems(epsilon))
    if z < 0.0:
        raise ValueError(f"rho_eps expects a nonnegative argument, got {z}")
    return min(z, 1.0 / epsilon)


@dataclass
class SolverParams:
    """A run's settings, with config's defaults and rules (solver_problems)."""
    epsilon: float
    dt_init: float = solver_default("dt_init")
    dt_min: float = solver_default("dt_min")
    dt_max: float = solver_default("dt_max")
    t_end: float = solver_default("t_end")
    sup_cap: float = solver_default("sup_cap")  # 0: the automatic cap, see run
    snapshot_stride: int = solver_default("snapshot_stride")
    # dt <= reaction_cap_c / max(rho, 1); 0.5 suffices for stability, smaller
    # values resolve the energy growth for tight identity checks near blow-up.
    reaction_cap_c: float = solver_default("reaction_cap_c")

    def validate(self) -> None:
        refuse(solver_problems(vars(self)))


@dataclass
class SolverState:
    t: float
    u: np.ndarray  # full grid, boundary nodes at eps; never changed in place
    dt: float
    energy: float
    rho_value: float
    floored: int = 0
    starved: bool = False
    sup: float | None = None  # max of u, set by step; the next step reads it


@dataclass
class SimulationResult:
    outcome: str  # "Decayed" | "RanToEnd" | "BlowUp"
    t_last: float
    trace: Trace
    snapshots: list
    sup_cap: float
    max_floored_fraction: float
    floor_flagged: bool
    steps: int
    factorizations: int  # sparse LU factorizations of the 2D solve (0 in 1D)
    cg_iterations: int   # preconditioned CG iterations of the 2D solve (0 in 1D)
    start_fallbacks: int  # 2D CG starts from the newest state alone (0 in 1D)


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
        self.factorizations = 0
        self.cg_iterations = 0
        self.start_fallbacks = 0
        self.gtsv, self.gelsd, self.gelsd_lwork = get_lapack_funcs(
            ("gtsv", "gelsd", "gelsd_lwork"), (self.bc,))
        if grid.dimension == 1:
            self.h2 = grid.h[0] ** 2
            self.diag = np.empty(self.n_interior)  # gtsv overwrites it
            self.off = np.empty(max(self.n_interior - 1, 1))  # gtsv copies it
        else:  # row 0 the newest state, then a ring of the last HISTORY - 1
            # differences of consecutive states.  The start fits their
            # coefficients on every stride-th interior row, 16 * HISTORY to
            # 32 * HISTORY rows (every row of a smaller interior), so their
            # neg_lap products are kept on those rows only; the newest state
            # keeps its full product as well.
            self.rows = slice(0, None, max(1, self.n_interior // (16 * HISTORY)))
            self.neg_lap_rows = self.neg_lap[self.rows]
            self.basis = np.empty((HISTORY, self.n_interior))
            self.products = np.empty((HISTORY, self.neg_lap_rows.shape[0]))
            self.product = None  # neg_lap @ basis[0]
            self.entered = 0

    def solve_semi_implicit(self, u_int: np.ndarray, dt: float, f: float,
                            eps: float) -> np.ndarray:
        """Solve (diag(1/u) - dt*Lap) u_new = (1 + dt*f) + dt*eps*bc (SPD)."""
        if self.grid.dimension == 1:
            # bc is zero but at the two end nodes, so rhs is 1 + dt*f elsewhere
            c = 1.0 + dt * f
            rhs = np.empty(self.n_interior)  # np.empty + fill beats np.full
            rhs.fill(c)
            rhs[0] = c + dt * eps * self.bc[0]
            rhs[-1] = c + dt * eps * self.bc[-1]
            diag = np.divide(1.0, u_int, out=self.diag)
            diag += 2.0 * dt / self.h2
            # gtsv would turn non-finite data into a NaN solution without error
            if not math.isfinite(np.add.reduce(diag)):
                raise ValueError("semi-implicit solve got non-finite data")
            off = self.off  # of gtsv's minimum length 1
            off.fill(-dt * (1.0 / self.h2))
            x, info = self.gtsv(off, diag, off, rhs, overwrite_d=1, overwrite_b=1)[3:]
            if info > 0:
                raise LinAlgError("singular matrix")
            return x
        rhs = (1.0 + dt * f) + dt * eps * self.bc
        inv_u = 1.0 / u_int
        if self.entered:  # the ring's oldest difference, or an empty row
            slot = 1 + (self.entered - 1) % (HISTORY - 1)
            d = u_int - self.basis[0]
            self.basis[slot] = d
            # a difference of products would carry the newest product's
            # roundoff, large next to the product of a small difference
            self.products[slot] = self.neg_lap_rows @ d
        self.basis[0] = u_int
        self.product = self.neg_lap @ u_int
        self.products[0] = self.product[self.rows]
        self.entered += 1
        if self.lu is not None:  # held factors come from earlier 2D solves
            x = self._preconditioned_cg(inv_u, dt, rhs, *self._start(inv_u, dt, rhs))
            if x is not None:
                return x
        a = sp.diags(inv_u) + dt * self.neg_lap
        self.lu = None  # free the stale factor before the new one is built
        self.lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        return self.lu.solve(rhs)

    def _start(self, inv_u: np.ndarray, dt: float,
               rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x0 = c @ basis and its residual rhs - A x0, A = diag(inv_u) +
        dt*neg_lap, with c fitted by _fit on the sampled rows.  A sample
        minimizes the full residual only nearly, so where the best multiple
        of the newest state leaves a smaller one, x0 is that multiple (a
        fallback).  The fallback also holds a 2D run of critical mass on the
        unit-mass manifold: without it, |y - 1| reached 2.2e-8 by t = 0.5."""
        k = min(self.entered, HISTORY)
        rows = self.rows
        # the images (dt*u*neg_lap b + b)/u on the rows
        images = self.products[:k] * (dt * self.basis[0, rows])
        images += self.basis[:k, rows]
        images *= inv_u[rows]
        y = self._fit(images, rhs[rows])
        x = y @ self.basis[:k]
        residual = rhs - (inv_u * x + dt * (self.neg_lap @ x))
        image = inv_u * self.basis[0] + dt * self.product
        c = (image @ rhs) / (image @ image)
        alone = rhs - c * image
        if alone @ alone < residual @ residual:
            self.start_fallbacks += 1
            return c * self.basis[0], alone
        return x, residual

    def _fit(self, images: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.linalg.lstsq(images[keep].T, b) by the gelsd it runs, called
        directly, where keep drops the images that are roundoff next to
        images[0]; their coefficients are 0."""
        norms = np.linalg.norm(images, axis=1)
        keep = norms > 1e-12 * norms[0]
        a = images[keep].T
        m, n = a.shape
        cond = np.finfo(float).eps * max(m, n)
        x = np.zeros(max(m, n))  # gelsd returns the solution in its first n entries
        x[:m] = b
        work, iwork, _ = self.gelsd_lwork(m, n, 1, cond)
        x, _, _, info = self.gelsd(a, x, int(work), iwork, cond,
                                   overwrite_a=1, overwrite_b=1)
        y = np.zeros(len(images))
        if info == 0:  # else gelsd's SVD failed; a zero fit leaves it to the fallback
            y[keep] = x[:n]
        return y

    def _preconditioned_cg(self, inv_u: np.ndarray, dt: float, rhs: np.ndarray,
                           x: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """Conjugate gradients from the start x and its residual r (both
        updated in place), preconditioned by the held factor; None when
        CG_MAX_ITER iterations do not reach ||r|| <= CG_RTOL * ||rhs||."""
        lu, neg_lap = self.lu, self.neg_lap
        tol = CG_RTOL * np.linalg.norm(rhs)
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

    floored = 0
    if not np.minimum.reduce(new_int) >= eps:  # else flooring would change nothing
        floored = np.count_nonzero(new_int < eps - 1e-15)
        np.maximum(new_int, eps, out=new_int)  # the solve's output is a fresh array
    u = np.empty(state.u.shape)
    u.fill(eps)
    u[workspace.interior] = new_int.reshape(workspace.interior_shape)

    # boundary nodes never move, so the interior decides the relative change;
    # the old sup norm is max(interior max, eps): step records it in sup, and
    # a caller's state without one gets it recomputed
    old_sup = state.sup or max(float(np.maximum.reduce(u_int)), eps)
    change = np.subtract(new_int, u_int)
    rel = float(np.maximum.reduce(np.abs(change, out=change))) / old_sup
    next_dt = dt
    if rel > 0.10:
        next_dt = dt * 0.5
    elif rel < 0.01:
        next_dt = dt * 1.2
    next_dt = min(max(next_dt, params.dt_min), params.dt_max)

    energy = edge_energy(u, workspace.grid)
    return SolverState(t=state.t + dt, u=u, dt=next_dt, energy=energy,
                       rho_value=min(energy, 1.0 / eps), floored=floored,
                       starved=starved, sup=max(float(np.maximum.reduce(new_int)), eps))


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
    sup0 = float(np.max(u0eps.values))
    sup_cap = params.sup_cap or min(1e4 * sup0, 0.8 * torsion.max_phi / eps)
    if sup_cap <= sup0:  # the run would end BlowUp before its first step
        raise ValueError(
            f"sup cap {sup_cap:.6g} does not exceed the initial sup norm "
            f"{sup0:.6g}; lower solver.epsilon or set solver.sup_cap above it")

    workspace = _Workspace(grid)
    weights = grid.quad_weights
    index, phi = torsion.positive_set
    e0 = dirichlet_energy(u0eps, eps)
    state = SolverState(t=0.0, u=u0eps.values.copy(), dt=params.dt_init, energy=e0,
                        rho_value=rho_eps(e0, eps), sup=sup0)
    rows = []

    # Each state's reductions are taken once, from its plain array: the mass
    # is the expression integrate() evaluates, the phi-norm the one
    # phi_weighted_sup() evaluates on u - eps, restricted to the positive set
    # first, and the sup norm comes with the state.  The energy's finiteness
    # check in step() covers every state; a Field is built only for a snapshot.
    def record(state: SolverState) -> tuple[float, float]:
        mass = float(np.add.reduce(weights * state.u, axis=None))
        v = state.u.take(index)
        v -= eps
        v /= phi
        phi_norm = float(np.maximum.reduce(np.abs(v, out=v)))
        rows.append((state.t, state.dt, mass, state.energy, state.sup, phi_norm,
                     state.rho_value, state.floored))
        return mass, state.sup

    mass, sup = record(state)
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
        if initial_corrected > 0 and mass - eps_offset < DECAY_THRESHOLD * initial_corrected:
            outcome = "Decayed"
            break
        if state.t >= params.t_end - 1e-12:
            outcome = "RanToEnd"
            break

        prev_sup = sup
        state = step(state, params, workspace)
        mass, sup = record(state)
        step_index += 1
        max_floored = max(max_floored, state.floored)
        if step_index % params.snapshot_stride == 0:
            snapshots.append((state.t, Field(grid, state.u)))
        if state.starved and sup > prev_sup:
            outcome = "BlowUp"
            break

    if state.t > snapshots[-1][0]:
        snapshots.append((state.t, Field(grid, state.u)))

    data = np.asarray(rows, dtype=float)
    trace = Trace(*data[:, :7].T, data[:, 7].astype(int), eps, grid.volume)
    max_floor_frac = max_floored / max(workspace.n_interior, 1)
    return SimulationResult(
        outcome=outcome, t_last=state.t, trace=trace, snapshots=snapshots,
        sup_cap=sup_cap,
        max_floored_fraction=max_floor_frac,
        floor_flagged=max_floor_frac > 1e-3,
        steps=step_index,
        factorizations=workspace.factorizations,
        cg_iterations=workspace.cg_iterations,
        start_fallbacks=workspace.start_fallbacks,
    )
