"""Audits of running or completed simulations against the analytical estimates.

All checks are pure functions of trace rows and snapshots.  Statements about
the unregularized limit problem are evaluated on the lifted quantities
(u - eps, mass - eps*|Omega|); inequality checks carry explicit multiplicative
slack because discrete solutions satisfy continuous inequalities only up to
consistency error.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import mesh
from .elliptic import TorsionSolution
from .mesh import Field, dirichlet_energy, integrate

__all__ = [
    "Trace",
    "TRACE_COLUMNS",
    "mass_ode_residual",
    "h_identity_check",
    "gradient_bound_check",
    "boundary_concentration",
    "phi_norm_bound_check",
    "weak_form_residual",
    "mass_monotonicity_check",
    "decay_rate_check",
    "supercritical_rate_check",
    "time_weighted_median",
]

TRACE_COLUMNS = ["t", "dt", "mass", "dirichlet_energy", "sup_norm",
                 "phi_norm", "rho_eps_value", "floored_nodes"]


@dataclass
class Trace:
    """Time series of a run: one row per recorded step.

    ``epsilon`` and ``omega_measure`` are metadata (not CSV columns) used to
    form the offset-corrected mass and to detect saturation of the capped
    nonlocal coefficient.
    """

    t: np.ndarray
    dt: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    sup_norm: np.ndarray
    phi_norm: np.ndarray
    rho_value: np.ndarray
    floored: np.ndarray
    epsilon: float | None = None
    omega_measure: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trace times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def eps_offset(self) -> float:
        if self.epsilon is None or self.omega_measure is None:
            return 0.0
        return self.epsilon * self.omega_measure

    @property
    def corrected_mass(self) -> np.ndarray:
        return self.mass - self.eps_offset

    def saturated(self) -> np.ndarray:
        """Rows where the capped nonlocal coefficient has hit its ceiling."""
        if self.epsilon is None:
            return np.zeros(len(self), dtype=bool)
        return self.rho_value >= (1.0 / self.epsilon) * (1.0 - 1e-9)

    def precap_mask(self, sup_cap: float | None = None, frac: float = 0.5) -> np.ndarray:
        """Rows before saturation and (optionally) below frac * sup_cap."""
        ok = ~self.saturated()
        if sup_cap is not None:
            ok &= self.sup_norm < frac * sup_cap
        return ok

    def sliced(self, mask: np.ndarray) -> "Trace":
        return Trace(self.t[mask], self.dt[mask], self.mass[mask],
                     self.energy[mask], self.sup_norm[mask], self.phi_norm[mask],
                     self.rho_value[mask], self.floored[mask],
                     self.epsilon, self.omega_measure)

    def to_csv(self, fh) -> None:
        """Write the trace to an open text file (csv-module rows, CRLF)."""
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for i in range(len(self)):
            writer.writerow([repr(float(self.t[i])), repr(float(self.dt[i])),
                             repr(float(self.mass[i])), repr(float(self.energy[i])),
                             repr(float(self.sup_norm[i])), repr(float(self.phi_norm[i])),
                             repr(float(self.rho_value[i])), int(self.floored[i])])

    @classmethod
    def from_csv(cls, path, epsilon: float | None = None,
                 omega_measure: float | None = None) -> "Trace":
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace columns {header}")
            body = fh.read()
        if not body.strip():
            raise ValueError("empty trace")
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                          usecols=range(len(TRACE_COLUMNS)))
        return cls(*data[:, :7].T, data[:, 7].astype(int), epsilon, omega_measure)


def mass_ode_residual(trace: Trace):
    """Residual of  y' = (y-1) * E  on the corrected mass.

    Central differences over interior rows; the first and last rows are
    excluded (one-sided differences are order-inconsistent).  Returns the
    residual series and its maximum.
    """
    if len(trace) < 3:
        raise ValueError("mass ODE residual needs at least 3 trace rows")
    y = trace.corrected_mass
    t = trace.t
    e = trace.energy
    dy = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    residuals = np.abs(dy - (y[1:-1] - 1.0) * e[1:-1])
    return residuals, float(residuals.max())


def h_identity_check(trace: Trace):
    """Accumulated energy integral against the log of the excess mass ratio.

    Valid for supercritical corrected mass only.  Returns the trapezoid
    accumulation H_k, the log-ratio series, and their absolute gap.
    """
    y = trace.corrected_mass
    if y[0] <= 1.0:
        raise ValueError("identity only valid for supercritical mass")
    h_acc = _trapz_accum(trace.energy, trace.t)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_ratio = np.log((y - 1.0) / (y[0] - 1.0))
    return h_acc, log_ratio, np.abs(h_acc - log_ratio)


def _trapz_accum(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integral of a sampled series from the first time to each time."""
    return np.concatenate([[0.0], np.cumsum(
        0.5 * (series[1:] + series[:-1]) * np.diff(times))])


def _match_rows(trace: Trace, times) -> np.ndarray:
    """Nearest trace-row index for each snapshot time."""
    return np.argmin(np.abs(trace.t - np.asarray(times)[:, None]), axis=1)


def _row_sums(stack: np.ndarray) -> np.ndarray:
    """Per-snapshot sums, each bitwise equal to np.sum over that snapshot alone
    (a masked gather a[:, mask] comes back F-ordered, so it is made contiguous)."""
    return np.ascontiguousarray(stack).reshape(len(stack), -1).sum(axis=1)


def gradient_bound_check(trace: Trace, snapshots, subdomain_torsion: TorsionSolution,
                         u0eps: Field, tol: float = 0.1):
    """Energy against its interior-log-functional exponential bound.

    For each snapshot time t the right side is
        E(0) * exp[ (sup_{tau<=t} mass) / (2 C') *
                    ( ∫' phi ln u(t) - ∫' phi ln u0 + ∫_0^t ∫' u ) ]
    with all primed integrals over the subdomain of ``subdomain_torsion``.
    Returns (times, ok, lhs, rhs).
    """
    grid = u0eps.grid
    phi = subdomain_torsion.phi
    weights = subdomain_torsion.weights
    inside = weights > 0
    times = np.array([t for t, _ in snapshots])
    rows = _match_rows(trace, times)

    if np.min(u0eps.values[inside]) <= 0:
        raise ValueError("nonpositive values inside the subdomain; log undefined")
    log_u0_term = subdomain_torsion.integrate(
        Field(grid, phi.values * np.where(inside, np.log(np.clip(u0eps.values, 1e-300, None)), 0.0)))

    values = np.stack([f.values for _, f in snapshots])
    if np.min(values[:, inside]) <= 0:
        raise ValueError("nonpositive snapshot values inside the subdomain")
    sub_mass = _row_sums(weights * values)
    log_terms = _row_sums(weights * (phi.values * np.where(
        inside, np.log(np.clip(values, 1e-300, None)), 0.0)))

    time_int = _trapz_accum(sub_mass, times)
    sup_mass = np.maximum.accumulate(trace.mass)[rows]
    e0 = trace.energy[rows[0]]

    with np.errstate(over="ignore"):
        rhs = e0 * np.exp((sup_mass / (2.0 * subdomain_torsion.c_subdomain))
                          * (log_terms - log_u0_term + time_int))
    lhs = trace.energy[rows]
    ok = lhs <= rhs * (1.0 + tol) + 1e-12
    return times, ok, lhs, rhs


@dataclass
class ConcentrationResult:
    lhs: float
    bound: float
    collar_energy: float
    collar_bound: float
    eta: float
    bound_series: np.ndarray
    accumulated_series: np.ndarray


def boundary_concentration(snapshots, q: float, margin: float, u0eps: Field,
                           trace: Trace) -> ConcentrationResult:
    """Weighted space-time gradient integral against its endpoint bound.

    lhs accumulates  q * u^(q-1) |grad u|^2  over the grid edges and time, with
    u^(q-1) taken at edge midpoints; the bound is
        -(1/q) ∫u(T)^q + (1/q) ∫u0^q + ∫_0^T ( ∫u^q ) E dt .
    Also returns the energy on the collar edges, those whose midpoint lies
    within ``margin`` of the boundary, and its  (2 eta)^(1-q) * bound / q
    estimate, with eta the largest value at a node within ``margin``.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0,1), got {q}")
    grid = u0eps.grid
    cellvol = float(np.prod(grid.h))
    # edge midpoints are the edge means of the node coordinates
    coords = np.stack(grid.coordinate_arrays())
    extents = np.reshape(grid.extents, (-1,) + (1,) * grid.dimension)
    collar_edges = [np.min(np.minimum(mid, extents - mid), axis=0) < margin
                    for mid in mesh.edge_means(coords, grid)]
    node_dist = mesh.distance_to_boundary(grid)
    collar_nodes = node_dist < margin

    times = np.array([t for t, _ in snapshots])
    rows = _match_rows(trace, times)
    energies = trace.energy[rows]

    values = np.stack([f.values for _, f in snapshots])
    gsq = [g * g for g in mesh.edge_differences(values, grid)]
    uedge = [np.clip(m, 1e-300, None) for m in mesh.edge_means(values, grid)]
    weighted = cellvol * sum(_row_sums(w ** (q - 1.0) * g2) for w, g2 in zip(uedge, gsq))
    collar_e = cellvol * sum(_row_sums(g2[:, c]) for g2, c in zip(gsq, collar_edges))
    uq = values ** q
    if not np.isfinite(uq).all():
        raise ValueError("cannot integrate a field with non-finite values")
    uq_int = _row_sums(grid.quad_weights * uq)
    eta = max(0.0, float(values[:, collar_nodes].max()))

    lhs_series = q * _trapz_accum(weighted, times)
    accumulated = _trapz_accum(uq_int * energies, times)
    u0q = uq_int[0]
    bound_series = -(1.0 / q) * uq_int + (1.0 / q) * u0q + accumulated

    collar_series = _trapz_accum(collar_e, times)
    bound = float(bound_series[-1])
    collar_bound = (2.0 * eta) ** (1.0 - q) * bound / q
    return ConcentrationResult(float(lhs_series[-1]), bound, float(collar_series[-1]),
                               collar_bound, eta, bound_series, accumulated)


def phi_norm_bound_check(trace: Trace, tol: float = 0.05) -> np.ndarray:
    """Row-wise: torsion-weighted norm <= max(initial norm, running max energy)."""
    run_max_e = np.maximum.accumulate(trace.energy)
    bound = np.maximum(trace.phi_norm[0], run_max_e)
    return trace.phi_norm <= bound * (1.0 + tol) + 1e-12


def weak_form_residual(snapshots, test_fn, test_fn_dt, epsilon: float,
                       t_support: tuple[float, float] | None = None) -> float:
    """Normalized defect of the weak formulation on the lifted field u - eps.

    ``test_fn(t)`` and ``test_fn_dt(t)`` return the test function and its time
    derivative as Fields; it must vanish near the spatial boundary and at the
    final snapshot time.  Integrals are trapezoid in time over the snapshots.
    Returns |LHS - RHS| normalized by the largest term magnitude.
    """
    times = np.array([t for t, _ in snapshots])
    grid = snapshots[0][1].grid
    adj = mesh.distance_to_boundary(grid) <= 1.5 * max(grid.h)

    if t_support is not None:
        lo, hi = t_support
        if lo < times[0] - 1e-12 or hi > times[-1] + 1e-12:
            raise ValueError("test function time support exceeds the run horizon")
    final_test = test_fn(times[-1])
    if float(np.max(np.abs(final_test.values))) > 1e-12:
        raise ValueError("test function must vanish at the final time")

    mass_term = []     # ∫ (u-eps) d/dt(test)
    grad_term = []     # ∫ grad(u-eps) . grad((u-eps) test)
    nonlocal_term = []  # ( ∫ (u-eps) test ) * E
    for t, f in snapshots:
        test = test_fn(t)
        test_dt = test_fn_dt(t)
        if float(np.max(np.abs(test.values[adj]))) > 1e-12:
            raise ValueError("test function must vanish on a boundary collar")
        v = f.values - epsilon
        vfield = Field(grid, v)
        mass_term.append(integrate(Field(grid, v * test_dt.values)))
        product = Field(grid, v * test.values)
        grad_term.append(mesh.gradient_inner(vfield, product, 0.0, 0.0))
        e_val = dirichlet_energy(f, epsilon)
        nonlocal_term.append(integrate(Field(grid, v * test.values)) * e_val)

    def trapz(series):
        return float(_trapz_accum(np.asarray(series), times)[-1])

    term_dt = -trapz(mass_term)
    term_grad = trapz(grad_term)
    term_init = integrate(Field(grid, (snapshots[0][1].values - epsilon)
                                * test_fn(times[0]).values))
    term_nonlocal = trapz(nonlocal_term)

    residual = abs(term_dt + term_grad - term_init - term_nonlocal)
    scale = max(abs(term_dt), abs(term_grad), abs(term_init), abs(term_nonlocal))
    if scale == 0.0:
        return 0.0
    return residual / scale


def mass_monotonicity_check(trace: Trace, tol: float = 1e-6) -> bool:
    """Corrected mass below one never increases, above one never decreases
    (up to tol * scale per row pair), on unsaturated rows."""
    ok = True
    y = trace.corrected_mass
    scale = max(1.0, float(np.max(np.abs(y))))
    unsat = ~trace.saturated()
    for k in range(len(trace) - 1):
        if not (unsat[k] and unsat[k + 1]):
            continue
        if y[k] < 1.0 and y[k + 1] > y[k] + tol * scale:
            ok = False
        if y[k] > 1.0 and y[k + 1] < y[k] - tol * scale:
            ok = False
    return ok


def _central_dy(trace: Trace):
    y = trace.corrected_mass
    return (y[2:] - y[:-2]) / (trace.t[2:] - trace.t[:-2])


def decay_rate_check(trace: Trace, c_p: float, omega_measure: float,
                     slack: float = 0.1) -> bool:
    """Subcritical decay rate  y' <= -((1 - y0)/(C_P |Omega|)) y^2  with slack."""
    y = trace.corrected_mass
    if y[0] >= 1.0:
        raise ValueError("decay rate check applies to subcritical runs only")
    rate = (1.0 - y[0]) / (c_p * omega_measure)
    dy = _central_dy(trace)
    yk = y[1:-1]
    return bool(np.all(dy <= -rate * yk**2 * (1.0 - slack) + slack * rate))


def supercritical_rate_check(trace: Trace, c_p: float, omega_measure: float,
                             slack: float = 0.1) -> bool:
    """Supercritical growth rate  y' >= ((y0 - 1)/(C_P |Omega|)) y^2  with slack,
    on unsaturated interior rows."""
    y = trace.corrected_mass
    if y[0] <= 1.0:
        raise ValueError("growth rate check applies to supercritical runs only")
    rate = (y[0] - 1.0) / (c_p * omega_measure)
    dy = _central_dy(trace)
    unsat = ~trace.saturated()
    keep = unsat[1:-1] & unsat[2:] & unsat[:-2]
    yk = y[1:-1][keep]
    return bool(np.all(dy[keep] >= rate * yk**2 * (1.0 - slack) - slack * rate))


def time_weighted_median(values: np.ndarray, times: np.ndarray) -> float:
    """Median of a sampled time series under the time measure (each row
    weighted by the interval it represents), not the row count."""
    if len(values) != len(times) or len(values) == 0:
        raise ValueError("values and times must be equal-length and nonempty")
    if len(values) == 1:
        return float(values[0])
    w = np.zeros(len(times))
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    order = np.argsort(values)
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(values[order][min(idx, len(values) - 1)])
