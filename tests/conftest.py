"""Shared fixtures: grids, torsion solutions, and the canonical runs.

The three mass-trichotomy runs (epsilon 1e-3) and the deep blow-up run
(epsilon 1e-9, where the capped nonlocal coefficient never saturates below
the blow-up cap) are expensive enough to share across test modules.  The
closed-form blow-up and decay times of torsion data are the oracle the runs
are judged against.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import replidyn as rd
from replidyn import diagnostics as diag

EPS = 1e-3
DEEP_EPS = 1e-9
# criterion 1b: the drift |y - 1| that counts as leaving the unit-mass manifold,
# and the largest roundoff seed max |y - 1| exp(-int_0^t E) accepted before that
DRIFT_TOL = 1e-3
ROUNDOFF_SEED = 1e-11


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


def precap_trace(result, frac=0.5):
    trace = result.trace
    mask = trace.precap_mask(result.sup_cap, frac=frac)
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
