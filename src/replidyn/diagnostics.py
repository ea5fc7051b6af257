"""Audits of running or completed simulations against the analytical estimates.

All checks are pure functions of trace rows and snapshots.  Every snapshot
time is a trace row (``Trace.rows_at`` refuses any other), and the first
snapshot a check is given is its initial data.  Statements about
the unregularized limit problem are evaluated on the lifted quantities
(u - eps, mass - eps*|Omega|); inequality checks carry explicit multiplicative
slack, which the caller states, because discrete solutions satisfy continuous
inequalities only up to consistency error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh
from .elliptic import TorsionSolution

__all__ = [
    "Trace",
    "TRACE_COLUMNS",
    "mass_ode_residual",
    "h_identity_check",
    "gradient_bound_check",
    "boundary_concentration",
    "phi_norm_bound_check",
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
        # a NaN compares false either way, so finiteness is checked first
        if not (np.isfinite(self.t).all() and np.all(np.diff(self.t) > 0)):
            raise ValueError("trace times must be finite and strictly increasing")

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

    def rows_at(self, times) -> np.ndarray:
        """The index of the row at each of ``times``; a time that is not a
        row's is refused, naming the first such."""
        times = np.asarray(times, dtype=float)
        rows = np.minimum(np.searchsorted(self.t, times), len(self) - 1)
        missing = self.t[rows] != times
        if missing.any():
            raise ValueError(f"snapshot time {float(times[missing][0])} is not a trace row")
        return rows

    def precap_mask(self, sup_cap: float) -> np.ndarray:
        """Rows before saturation and below half the blow-up cap ``sup_cap``."""
        return ~self.saturated() & (self.sup_norm < 0.5 * sup_cap)

    def sliced(self, mask: np.ndarray) -> "Trace":
        return Trace(self.t[mask], self.dt[mask], self.mass[mask],
                     self.energy[mask], self.sup_norm[mask], self.phi_norm[mask],
                     self.rho_value[mask], self.floored[mask],
                     self.epsilon, self.omega_measure)

    def to_csv(self, fh) -> None:
        """Write the trace to an open text file in one join: comma-joined
        reprs and counts in CRLF rows, the bytes csv.writer would write."""
        floats = [np.asarray(column, dtype=float).tolist()
                  for column in (self.t, self.dt, self.mass, self.energy,
                                 self.sup_norm, self.phi_norm, self.rho_value)]
        floored = map(str, map(int, np.asarray(self.floored).tolist()))
        rows = map(",".join, zip(*(map(repr, column) for column in floats), floored))
        fh.write("\r\n".join([",".join(TRACE_COLUMNS), *rows, ""]))

    @classmethod
    def from_csv(cls, path, epsilon: float | None = None,
                 omega_measure: float | None = None) -> "Trace":
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace columns {header}")
            start = fh.tell()  # loadtxt warns on a blank body, so look first
            if not any(map(str.strip, iter(fh.readline, ""))):
                raise ValueError("empty trace")
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", ndmin=2,
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


def _row_sums(stack: np.ndarray) -> np.ndarray:
    """Per-snapshot sums, each bitwise equal to np.sum over that snapshot alone
    (a masked gather a[:, mask] comes back F-ordered, so it is made contiguous)."""
    return np.ascontiguousarray(stack).reshape(len(stack), -1).sum(axis=1)


def gradient_bound_check(trace: Trace, snapshots, subdomain_torsion: TorsionSolution,
                         *, tol: float):
    """Energy against its interior-log-functional exponential bound.

    The first snapshot, at time t0, is the initial data u0.  For each snapshot
    time t the right side is
        E(t0) * exp[ (sup_{tau<=t} mass) / (2 C') *
                     ( ∫' phi ln u(t) - ∫' phi ln u0 + ∫_t0^t ∫' u ) ]
    with all primed integrals over the subdomain of ``subdomain_torsion``;
    at t0 it equals the left side E(t0).  Returns (times, ok, lhs, rhs).
    """
    phi = subdomain_torsion.phi
    weights = subdomain_torsion.weights
    inside = weights > 0
    times = np.array([t for t, _ in snapshots])
    rows = trace.rows_at(times)

    values = np.stack([f.values for _, f in snapshots])
    if np.min(values[:, inside]) <= 0:
        raise ValueError("nonpositive snapshot values inside the subdomain")
    sub_mass = _row_sums(weights * values)
    log_terms = _row_sums(weights * (phi.values * np.where(
        inside, np.log(np.clip(values, 1e-300, None)), 0.0)))

    time_int = _trapz_accum(sub_mass, times)
    sup_mass = np.maximum.accumulate(trace.mass)[rows]
    lhs = trace.energy[rows]
    with np.errstate(over="ignore"):
        rhs = lhs[0] * np.exp((sup_mass / (2.0 * subdomain_torsion.c_subdomain))
                              * (log_terms - log_terms[0] + time_int))
    ok = lhs <= rhs * (1.0 + tol) + 1e-12
    return times, ok, lhs, rhs


@dataclass
class ConcentrationResult:
    lhs: float
    bound: float
    collar_energy: float
    collar_bound: float
    bound_series: np.ndarray
    accumulated_series: np.ndarray


def boundary_concentration(snapshots, q: float, margin: float,
                           trace: Trace) -> ConcentrationResult:
    """Weighted space-time gradient integral against its endpoint bound.

    The first snapshot, at time t0, is the initial data u0.  lhs accumulates
    q * u^(q-1) |grad u|^2  over the grid edges and time, with u^(q-1) taken
    at edge midpoints; the bound is
        -(1/q) ∫u(T)^q + (1/q) ∫u0^q + ∫_t0^T ( ∫u^q ) E dt .
    Also returns the energy on the collar edges, those whose midpoint lies
    within ``margin`` of the boundary, and its  (2 eta)^(1-q) * bound / q
    estimate, with eta the largest value at a node within ``margin``.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0,1), got {q}")
    grid = snapshots[0][1].grid
    cellvol = float(np.prod(grid.h))
    # edge midpoints are the edge means of the node coordinates
    coords = np.stack(grid.coordinate_arrays())
    extents = np.reshape(grid.extents, (-1,) + (1,) * grid.dimension)
    collar_edges = [np.min(np.minimum(mid, extents - mid), axis=0) < margin
                    for mid in mesh.edge_means(coords, grid)]
    node_dist = mesh.distance_to_boundary(grid)
    collar_nodes = node_dist < margin

    times = np.array([t for t, _ in snapshots])
    energies = trace.energy[trace.rows_at(times)]

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
    bound_series = -(1.0 / q) * uq_int + (1.0 / q) * uq_int[0] + accumulated

    collar_series = _trapz_accum(collar_e, times)
    bound = float(bound_series[-1])
    collar_bound = (2.0 * eta) ** (1.0 - q) * bound / q
    return ConcentrationResult(float(lhs_series[-1]), bound, float(collar_series[-1]),
                               collar_bound, bound_series, accumulated)


def phi_norm_bound_check(trace: Trace, *, tol: float) -> np.ndarray:
    """Row-wise: torsion-weighted norm <= max(initial norm, running max energy)."""
    run_max_e = np.maximum.accumulate(trace.energy)
    bound = np.maximum(trace.phi_norm[0], run_max_e)
    return trace.phi_norm <= bound * (1.0 + tol) + 1e-12
