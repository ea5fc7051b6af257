"""Shared fixtures: grids, torsion solutions, and the canonical runs.

The three mass-trichotomy runs (epsilon 1e-3) and the deep blow-up run
(epsilon 1e-9, where the capped nonlocal coefficient never saturates below
the blow-up cap) are expensive enough to share across test modules.  The
closed-form blow-up and decay times of torsion data are the oracle the runs
are judged against.  The oracles that only the tests apply live here too:
the weak-form residual, the sharp mass-rate check, the time-weighted median,
the a-priori comparison bound on the sup norm, and the config serializer.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import replidyn as rd
from replidyn import config
from replidyn import diagnostics as diag
from replidyn import mesh
from replidyn.diagnostics import Trace, _trapz_accum
from replidyn.elliptic import TorsionSolution
from replidyn.mesh import Field, dirichlet_energy, integrate

EPS = 1e-3
DEEP_EPS = 1e-9
# criterion 1b: the drift |y - 1| that counts as leaving the unit-mass manifold,
# and the largest roundoff seed max |y - 1| exp(-int_0^t E) accepted before that
DRIFT_TOL = 1e-3
ROUNDOFF_SEED = 1e-11
# torsion_rate_check: the shortfall of the mass-rate ratio below 1 admitted
RATE_SLACK = 0.05


@pytest.fixture(scope="session")
def grid201():
    return rd.build_grid(1, [1.0], [201])


@pytest.fixture(scope="session")
def torsion201(grid201):
    return rd.solve_torsion(grid201)


@pytest.fixture(scope="session")
def subdomain201(grid201):
    return rd.solve_torsion_subdomain(grid201, 0.25)


def trichotomy_params(**overrides):
    base = dict(epsilon=EPS, dt_init=1e-4, dt_max=0.05, t_end=5.0,
                snapshot_stride=20, reaction_cap_c=0.015)
    base.update(overrides)
    return rd.SolverParams(**base)


def deep_params(**overrides):
    base = dict(epsilon=DEEP_EPS, dt_init=1e-5, dt_max=0.05, t_end=5.0,
                sup_cap=1e4, snapshot_stride=20, reaction_cap_c=0.015)
    base.update(overrides)
    return rd.SolverParams(**base)


@pytest.fixture(scope="session")
def run_decay(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 0.5, EPS, torsion201)
    return rd.run(u0, trichotomy_params(t_end=50.0), torsion201)


@pytest.fixture(scope="session")
def run_critical(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 1.0, EPS, torsion201)
    return rd.run(u0, trichotomy_params(t_end=5.0), torsion201)


@pytest.fixture(scope="session")
def run_blowup(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    return rd.run(u0, trichotomy_params(t_end=5.0), torsion201)


@pytest.fixture(scope="session")
def run_deep(grid201, torsion201):
    """Blow-up run at epsilon 1e-9: the nonlocal cap stays unsaturated up to
    the sup cap 1e4, so the growth identities hold all the way there."""
    u0 = rd.torsion_profile(grid201, 1.5, DEEP_EPS, torsion201)
    return rd.run(u0, deep_params(), torsion201)


def continuum_torsion_constant(extents):
    """C, the integral of the torsion function (-Lap phi = 1, phi = 0 on the
    boundary) of the interval (0, a) or of the box (0, a) x (0, b): a^3 / 12,
    and on the box the series solution
    a^3 b / 12 - (16 a^4 / pi^5) sum_{k odd} tanh(k pi b / (2a)) / k^5,
    summed until a term falls below 1e-17.  The PDE's own constant, where
    C_h = integral of phi_h is the grid's."""
    a, *rest = (float(e) for e in extents)
    if not rest:
        return a**3 / 12.0
    b, = rest
    series, k = 0.0, 1
    while True:
        term = math.tanh(k * math.pi * b / (2.0 * a)) / k**5
        series += term
        if term < 1e-17:
            break
        k += 2
    return a**3 * b / 12.0 - 16.0 * a**4 / math.pi**5 * series


def torsion_blowup_time(y0, c):
    """T(y0): torsion data of corrected mass y0 > 1 obeys y' = (y - 1) y^2 / C
    (C the integral of the torsion function, E = y^2 / C), and blows up at
    C [ln(y0 / (y0 - 1)) - 1 / y0]."""
    return c * (np.log(y0 / (y0 - 1.0)) - 1.0 / y0)


def torsion_decay_time(y0, y1, c):
    """The time torsion data takes to decay from corrected mass y0 < 1 to
    y1 < y0: F(y1) - F(y0) with F(y) = C [ln(|y - 1| / y) + 1 / y]."""
    def f(y):
        return c * (np.log(abs(y - 1.0) / y) + 1.0 / y)
    return f(y1) - f(y0)


def precap_trace(result):
    trace = result.trace
    mask = trace.precap_mask(result.sup_cap)
    return trace.sliced(mask) if int(mask.sum()) >= 3 else trace


def normalized_mass_residual(result):
    """Max mass-ODE residual normalized by the scale of the equation terms,
    evaluated on unsaturated rows below half the blow-up cap."""
    trace = precap_trace(result)
    residuals, mx = diag.mass_ode_residual(trace)
    y = trace.corrected_mass
    scale = max(float(np.max(np.abs(np.gradient(y, trace.t)))),
                float(np.max(np.abs((y - 1.0) * trace.energy))), 1e-12)
    return mx / scale


@dataclass
class CriticalDrift:
    """How a run started at mass 1 leaves the unstable manifold y = 1.

    The mass identity y' = (y - 1) E makes |y - 1| exp(-int_0^t E) constant,
    so on the rows before the drift reaches ``DRIFT_TOL`` that normalized
    drift measures the perturbation the run was seeded with."""
    seed: float         # max normalized drift before the crossing
    t_cross: float      # first trace time with |y - 1| > DRIFT_TOL (nan: never)
    sign: int           # sign of y - 1 at the crossing (0: never crossed)
    growth_rate: float  # least-squares slope of log|y - 1| above the roundoff floor
    mean_energy: float  # time average of E up to the crossing (or the last row)

    @property
    def held_to_roundoff(self) -> bool:
        return self.seed <= ROUNDOFF_SEED


def critical_drift(result) -> CriticalDrift:
    trace = result.trace
    t, e = trace.t, trace.energy
    dev = trace.corrected_mass - 1.0
    drift = np.abs(dev)
    acc_e = np.concatenate([[0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(t))])
    over = np.flatnonzero(drift > DRIFT_TOL)
    k = int(over[0]) if over.size else len(t)
    before = slice(0, max(k, 1))
    seed = float(np.max(drift[before] * np.exp(-acc_e[before])))
    grown = drift[before] > 1e-10
    growth = (float(np.polyfit(t[before][grown], np.log(drift[before][grown]), 1)[0])
              if int(grown.sum()) >= 3 else float("nan"))
    last = min(k, len(t) - 1)
    mean_e = float(acc_e[last] / t[last]) if t[last] > 0 else float(e[0])
    t_cross, sign = ((float(t[k]), int(np.sign(dev[k]))) if over.size
                     else (float("nan"), 0))
    return CriticalDrift(seed, t_cross, sign, growth, mean_e)


def weak_form_residual(snapshots, test_fn, test_fn_dt, epsilon: float) -> float:
    """Normalized defect of the weak formulation on the lifted field u - eps.

    ``test_fn(t)`` and ``test_fn_dt(t)`` return the test function and its time
    derivative as Fields; it must vanish near the spatial boundary and at the
    final snapshot time.  Integrals are trapezoid in time over the snapshots.
    Returns |LHS - RHS| normalized by the largest term magnitude.
    """
    times = np.array([t for t, _ in snapshots])
    grid = snapshots[0][1].grid
    adj = mesh.distance_to_boundary(grid) <= 1.5 * max(grid.h)

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
        grad_term.append(mesh.gradient_inner(vfield, product))
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


def torsion_rate_check(trace: Trace, c: float) -> bool:
    """The sharp mass rate  y' / ((y - 1) y^2 / C) >= 1 - RATE_SLACK  on
    unsaturated interior rows, for either sign of y - 1, with y' the central
    difference.

    Summation by parts and Cauchy-Schwarz give E >= y^2 / C, with C the
    integral of the torsion function and equality for torsion data, so the
    mass law y' = (y - 1) E puts this ratio at or above 1: mass above one
    grows, and mass below one decays, at least as fast as for torsion data.
    The canonical 1D runs (n=201, reaction_cap_c 0.015) fall short of 1 by
    their first-order time error: ratios 0.978-0.997 at mass 1.5 and
    0.987-1.038 at mass 0.5.  The slack 0.05 admits that 2.2% with room,
    while a constant 5% too small scales every ratio by 0.95 (down to 0.929
    and 0.938) and fails.
    """
    y = trace.corrected_mass
    dy = (y[2:] - y[:-2]) / (trace.t[2:] - trace.t[:-2])
    unsat = ~trace.saturated()
    keep = unsat[1:-1] & unsat[2:] & unsat[:-2]
    if not keep.any():
        raise ValueError("rate check needs three consecutive unsaturated rows")
    yk = y[1:-1][keep]
    return bool(np.all(dy[keep] * c / ((yk - 1.0) * yk**2) >= 1.0 - RATE_SLACK))


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


def config_to_text(cfg: config.ExperimentConfig) -> str:
    """Serialize back to the flat format (stable key order)."""
    out = []
    for key in config._SCHEMA:
        val = cfg.values[key]
        if isinstance(val, list):
            rendered = " ".join(repr(x) if isinstance(x, float) else str(x) for x in val)
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        out.append(f"{key} = {rendered}")
    return "\n".join(out) + "\n"
