"""Runs judged against the closed forms of the torsion reduction.

Torsion data u = y phi / C (C the integral of the torsion function phi) has
E = y^2 / C, so the mass law y' = (y - 1) E closes: the blow-up time T(y0)
and the decay time F(y1) - F(y0) are known exactly (conftest).  The solver's
explicit nonlocal coefficient makes a first-order time error in the step
bound reaction_cap_c.  Measured on the deep 1D run (eps 1e-9, n = 201, mass
1.5), the estimate exceeds T(y0) by 7.79e-4, 2.67e-4 and 8.08e-5 at
reaction_cap_c = 0.015, 0.005 and 0.0015: about 1.5 c T(y0), at observed
orders 0.97 and 1.09 per factor 3.  The bounds below are derived from these
numbers.
"""

import numpy as np
import pytest

import replidyn as rd
from replidyn import blowup
from replidyn.mesh import Field, dirichlet_energy, integrate

from conftest import (DEEP_EPS, deep_params, torsion_blowup_time,
                      torsion_decay_time, trichotomy_params)

# relative error of the singular time per unit reaction_cap_c: twice the
# measured 1.5, which leaves a 2D grid its own constant
ERROR_PER_C = 3.0
# observed order of convergence within 1 +- ORDER_SLACK: over twice the
# largest measured deviation from 1 (0.09)
ORDER_SLACK = 0.2


def test_deep_estimate_converges_at_first_order(run_deep, grid201, torsion201):
    t_exact = torsion_blowup_time(1.5, integrate(torsion201.phi))
    u0 = rd.torsion_profile(grid201, 1.5, DEEP_EPS, torsion201)
    c_values = (0.015, 0.005, 0.0015)
    runs = [run_deep] + [rd.run(u0, deep_params(reaction_cap_c=c), torsion201)
                         for c in c_values[1:]]
    errors = np.array([blowup.estimate_tmax(r.trace)[0] - t_exact for r in runs])
    assert np.all(errors > 0.0)
    assert np.all(errors <= ERROR_PER_C * np.array(c_values) * t_exact)
    orders = np.log(errors[:-1] / errors[1:]) / np.log(3.0)
    assert np.all(np.abs(orders - 1.0) <= ORDER_SLACK), orders


def test_2d_estimate_within_first_order_bound():
    # canonical settings at 41^2: measured +2.1%, as in 1D, against a bound of
    # ERROR_PER_C * 0.015 = 4.5% (the two-model fit it replaces was at +7.1%)
    grid = rd.build_grid(2, [1.0, 1.0], [41, 41])
    torsion = rd.solve_torsion(grid)
    # the torsion law's one constant: E(phi) = integral of phi, to roundoff
    c = integrate(torsion.phi)
    assert abs(dirichlet_energy(torsion.phi, 0.0) - c) <= 1e-13 * c
    u0 = rd.torsion_profile(grid, 1.5, 1e-3, torsion)
    result = rd.run(u0, trichotomy_params(), torsion)
    assert result.outcome == "BlowUp"
    t_exact = torsion_blowup_time(1.5, c)
    rel = blowup.estimate_tmax(result.trace)[0] / t_exact - 1.0
    assert 0.0 < rel <= ERROR_PER_C * 0.015


def test_deep_run_keeps_the_torsion_shape(run_deep, torsion201):
    # the profile stays a multiple of phi up to the regularization: the
    # measured relative spread of (u - eps) / phi is 9.5e-10, about eps
    inner = torsion201.phi.grid.interior_mask
    phi = torsion201.phi.values[inner]
    for _, snap in run_deep.snapshots:
        ratio = (snap.values[inner] - DEEP_EPS) / phi
        assert np.ptp(ratio) <= 10.0 * DEEP_EPS * np.mean(ratio)


def test_per_row_estimate_on_non_torsion_data(grid201, torsion201):
    # away from torsion data kappa = y^2 / E is not constant (it moves by 0.4%
    # over the second half of the usable rows), and the estimate rests on its
    # freezing near blow-up.  Each row's T_row is the estimate of the trace
    # cut after that row.  Measured: within 3.4e-7 of t_last (the torsion
    # time T(1.5) is 0.036, against t_last 0.024); the bound is three times that.
    x = grid201.axes[0]
    shape = np.sin(np.pi * x) ** 3 * (1.0 + 2.0 * x)
    values = DEEP_EPS + 1.5 / integrate(Field(grid201, shape)) * shape
    values[grid201.boundary_mask] = DEEP_EPS
    result = rd.run(Field(grid201, values), deep_params(), torsion201)
    assert result.outcome == "BlowUp"
    trace = result.trace
    rows = np.flatnonzero((trace.corrected_mass > 1.0) & ~trace.saturated())
    t_rows = [blowup.estimate_tmax(trace.sliced(np.arange(len(trace)) <= i))[0]
              for i in rows[len(rows) // 2:]]
    assert np.max(np.abs(np.array(t_rows) - result.t_last)) <= 1e-6


@pytest.mark.parametrize("c, measured", [(0.015, 1.7e-3), (0.0015, 3.3e-4)])
def test_decay_time_converges_to_closed_form(grid201, torsion201, c, measured):
    # mass 0.5 decays to 5% (y = 0.025); the run reaches it late by a time
    # error that shrinks with c; the bound is twice the measured error
    u0 = rd.torsion_profile(grid201, 0.5, DEEP_EPS, torsion201)
    result = rd.run(u0, trichotomy_params(epsilon=DEEP_EPS, t_end=50.0,
                                          reaction_cap_c=c), torsion201)
    assert result.outcome == "Decayed"
    y = result.trace.corrected_mass
    t_reached = np.interp(0.025, y[::-1], result.trace.t[::-1])
    t_exact = torsion_decay_time(0.5, 0.025, integrate(torsion201.phi))
    assert 0.0 < t_reached / t_exact - 1.0 <= 2.0 * measured
