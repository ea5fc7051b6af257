"""Identity and estimate checks on traces and snapshots."""

import numpy as np
import pytest

import replidyn as rd
from replidyn import diagnostics as diag
from replidyn.diagnostics import Trace
from replidyn.experiment import atomic_write_text
from replidyn.mesh import Field

from conftest import EPS, normalized_mass_residual, precap_trace


def synthetic_trace(t, mass, energy, epsilon=None, omega=None):
    n = len(t)
    ones = np.ones(n)
    return Trace(np.asarray(t, float), ones * 1e-3, np.asarray(mass, float),
                 np.asarray(energy, float), ones, ones,
                 np.asarray(energy, float), np.zeros(n, dtype=int),
                 epsilon=epsilon, omega_measure=omega)


def test_mass_ode_residual_constant_state(grid201, torsion201):
    u = Field(grid201, np.full(grid201.shape, EPS))
    params = rd.SolverParams(epsilon=EPS, t_end=0.05, dt_init=1e-3)
    result = rd.run(u, params, torsion201)
    residuals, mx = diag.mass_ode_residual(result.trace)
    assert mx <= 1e-12


def test_mass_ode_residual_unit_mass_branch():
    t = np.linspace(0.0, 1.0, 50)
    energy = 1.0 + np.sin(3 * t)
    trace = synthetic_trace(t, np.ones_like(t), energy)
    residuals, mx = diag.mass_ode_residual(trace)
    assert mx == 0.0


def test_mass_ode_residual_needs_three_rows():
    t = np.array([0.0, 0.1])
    with pytest.raises(ValueError):
        diag.mass_ode_residual(synthetic_trace(t, np.ones(2), np.ones(2)))


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_mass_ode_residual_small_on_runs(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert normalized_mass_residual(result) <= 0.05


def test_h_identity_manufactured_solution():
    # y = 1 + 0.5 e^t solves y' = (y-1) E with E = 1: H(t) = t = ln-ratio
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    y = 1.0 + 0.5 * np.exp(t)
    trace = synthetic_trace(t, y, np.ones_like(t))
    h_acc, log_ratio, gap = diag.h_identity_check(trace)
    assert gap[0] == 0.0
    assert np.max(gap) <= 1e-6


def test_h_identity_rejects_subcritical_start():
    t = np.linspace(0.0, 1.0, 20)
    trace = synthetic_trace(t, np.full_like(t, 0.5), np.ones_like(t))
    with pytest.raises(ValueError, match="supercritical"):
        diag.h_identity_check(trace)


def test_h_identity_on_deep_run(run_deep):
    trace = precap_trace(run_deep)
    h_acc, log_ratio, gap = diag.h_identity_check(trace)
    rel = gap[1:] / np.maximum(np.abs(log_ratio[1:]), 1e-2)
    assert np.max(rel) <= 0.05


def test_gradient_bound_equality_at_start(run_decay, subdomain201):
    u0 = run_decay.snapshots[0][1]
    times, ok, lhs, rhs = diag.gradient_bound_check(
        run_decay.trace, run_decay.snapshots[:1], subdomain201, u0)
    assert ok[0]
    assert lhs[0] <= rhs[0] * 1.0 + 1e-9


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_gradient_bound_on_runs(fixture_name, subdomain201, request):
    result = request.getfixturevalue(fixture_name)
    u0 = result.snapshots[0][1]
    keep = [(t, f) for (t, f) in result.snapshots
            if float(np.max(f.values)) < 0.5 * result.sup_cap]
    times, ok, lhs, rhs = diag.gradient_bound_check(
        result.trace, keep, subdomain201, u0, tol=0.1)
    assert np.all(ok)


def constant_state_snapshots(grid, times):
    flat = Field(grid, np.full(grid.shape, EPS))
    snaps = [(t, flat.copy()) for t in times]
    n = len(times)
    trace = Trace(np.asarray(times, float), np.full(n, 1e-3), np.full(n, EPS),
                  np.zeros(n), np.full(n, EPS), np.zeros(n), np.zeros(n),
                  np.zeros(n, dtype=int), epsilon=EPS, omega_measure=grid.volume)
    return snaps, trace


def test_boundary_concentration_constant_state(grid201):
    snaps, trace = constant_state_snapshots(grid201, [0.0, 0.1, 0.2])
    conc = diag.boundary_concentration(snaps, 0.5, 0.25, snaps[0][1], trace)
    assert conc.lhs == 0.0
    assert conc.bound >= conc.lhs


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_boundary_concentration_on_runs(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    conc = diag.boundary_concentration(result.snapshots, 0.5, 0.25,
                                       result.snapshots[0][1], result.trace)
    assert conc.lhs <= conc.bound * 1.1 + 1e-12
    assert conc.collar_energy <= conc.collar_bound * 1.1 + 1e-12
    # the accumulated part of the bound never decreases with the horizon
    assert np.all(np.diff(conc.accumulated_series) >= -1e-12)


def test_boundary_concentration_rejects_bad_exponent(run_decay):
    with pytest.raises(ValueError):
        diag.boundary_concentration(run_decay.snapshots, 1.5, 0.25,
                                    run_decay.snapshots[0][1], run_decay.trace)


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_phi_norm_bounded_by_energy_history(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert np.all(diag.phi_norm_bound_check(precap_trace(result), tol=0.05))


def test_weak_form_zero_test_function(run_decay):
    grid = run_decay.snapshots[0][1].grid
    zero = lambda t: Field(grid, np.zeros(grid.shape))
    assert diag.weak_form_residual(run_decay.snapshots, zero, zero, EPS) == 0.0


def test_weak_form_constant_state(grid201):
    snaps, _ = constant_state_snapshots(grid201, [0.0, 0.025, 0.05])
    x = grid201.axes[0]
    prof = np.where((x > 0.3) & (x < 0.7), np.sin(np.pi * (x - 0.3) / 0.4) ** 2, 0.0)
    T = 0.05
    test = lambda t: Field(grid201, prof * np.sin(np.pi * t / T) ** 2)
    test_dt = lambda t: Field(
        grid201, prof * 2 * np.sin(np.pi * t / T) * np.cos(np.pi * t / T) * np.pi / T)
    assert diag.weak_form_residual(snaps, test, test_dt, EPS) == 0.0


def test_weak_form_rejects_boundary_support(run_decay):
    grid = run_decay.snapshots[0][1].grid
    bad = lambda t: Field(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="vanish"):
        diag.weak_form_residual(run_decay.snapshots, bad, bad, EPS)


def test_mass_monotone_by_regime(run_decay, run_blowup):
    assert diag.mass_monotonicity_check(run_decay.trace)
    assert diag.mass_monotonicity_check(run_blowup.trace)


def test_decay_rate_check(run_decay, grid201):
    c_p = rd.measure_poincare_constant(grid201)
    assert diag.decay_rate_check(run_decay.trace, c_p, grid201.volume, slack=0.1)


def test_supercritical_rate_check(run_blowup, grid201):
    c_p = rd.measure_poincare_constant(grid201)
    assert diag.supercritical_rate_check(precap_trace(run_blowup), c_p,
                                         grid201.volume, slack=0.1)


def test_trace_csv_roundtrip_bytes(run_decay, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    atomic_write_text(str(p1), run_decay.trace.to_csv)
    back = Trace.from_csv(p1, epsilon=EPS, omega_measure=1.0)
    atomic_write_text(str(p2), back.to_csv)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.t, run_decay.trace.t)


def test_time_weighted_median_weights_by_interval():
    # value 1 held for 9 time units, value 100 for 1: the median is 1
    t = np.array([0.0, 9.0, 10.0])
    v = np.array([1.0, 1.0, 100.0])
    assert diag.time_weighted_median(v, t) == 1.0
