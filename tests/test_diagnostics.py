"""Identity and estimate checks on traces and snapshots."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import replidyn as rd
from replidyn import diagnostics as diag
from replidyn import mesh
from replidyn.diagnostics import TRACE_COLUMNS, ConcentrationResult, Trace
from replidyn.experiment import atomic_write_text
from replidyn.mesh import Field, integrate

from conftest import (EPS, normalized_mass_residual, precap_trace, time_weighted_median,
                      torsion_rate_check, trichotomy_params, weak_form_residual)


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
    times, ok, lhs, rhs = diag.gradient_bound_check(
        run_decay.trace, run_decay.snapshots[:1], subdomain201, tol=0.1)
    assert ok[0]
    assert lhs[0] <= rhs[0] * 1.0 + 1e-9


@pytest.mark.parametrize("start", [0, 1, 3])
def test_gradient_bound_starts_at_the_first_snapshot_it_is_given(run_decay, subdomain201,
                                                                 start):
    # E, ∫'φ ln u and the time integral all start there, so the bound is met
    # with equality at that snapshot, whichever it is
    snaps = run_decay.snapshots[start:]
    times, ok, lhs, rhs = diag.gradient_bound_check(run_decay.trace, snaps, subdomain201,
                                                    tol=0.1)
    assert times[0] == snaps[0][0]
    assert rhs[0] == lhs[0]
    assert np.all(ok)


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_gradient_bound_on_runs(fixture_name, subdomain201, request):
    result = request.getfixturevalue(fixture_name)
    keep = [(t, f) for (t, f) in result.snapshots
            if float(np.max(f.values)) < 0.5 * result.sup_cap]
    times, ok, lhs, rhs = diag.gradient_bound_check(
        result.trace, keep, subdomain201, tol=0.1)
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
    conc = diag.boundary_concentration(snaps, 0.5, 0.25, trace)
    assert conc.lhs == 0.0
    assert conc.bound >= conc.lhs


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_boundary_concentration_on_runs(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    conc = diag.boundary_concentration(result.snapshots, 0.5, 0.25, result.trace)
    assert conc.lhs <= conc.bound * 1.1 + 1e-12
    assert conc.collar_energy <= conc.collar_bound * 1.1 + 1e-12
    # the accumulated part of the bound never decreases with the horizon
    assert np.all(np.diff(conc.accumulated_series) >= -1e-12)


def test_boundary_concentration_rejects_bad_exponent(run_decay):
    with pytest.raises(ValueError):
        diag.boundary_concentration(run_decay.snapshots, 1.5, 0.25, run_decay.trace)


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_phi_norm_bounded_by_energy_history(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    assert np.all(diag.phi_norm_bound_check(precap_trace(result), tol=0.05))


def test_weak_form_zero_test_function(run_decay):
    grid = run_decay.snapshots[0][1].grid
    zero = lambda t: Field(grid, np.zeros(grid.shape))
    assert weak_form_residual(run_decay.snapshots, zero, zero, EPS) == 0.0


def test_weak_form_constant_state(grid201):
    snaps, _ = constant_state_snapshots(grid201, [0.0, 0.025, 0.05])
    x = grid201.axes[0]
    prof = np.where((x > 0.3) & (x < 0.7), np.sin(np.pi * (x - 0.3) / 0.4) ** 2, 0.0)
    T = 0.05
    test = lambda t: Field(grid201, prof * np.sin(np.pi * t / T) ** 2)
    test_dt = lambda t: Field(
        grid201, prof * 2 * np.sin(np.pi * t / T) * np.cos(np.pi * t / T) * np.pi / T)
    assert weak_form_residual(snaps, test, test_dt, EPS) == 0.0


def test_weak_form_rejects_boundary_support(run_decay):
    grid = run_decay.snapshots[0][1].grid
    bad = lambda t: Field(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="vanish"):
        weak_form_residual(run_decay.snapshots, bad, bad, EPS)


def test_mass_monotone_by_regime(run_decay, run_blowup):
    # corrected mass below one never increases, above one never decreases
    # (up to 1e-6 of its scale per row pair), on unsaturated rows
    for trace in (run_decay.trace, run_blowup.trace):
        y = trace.corrected_mass
        scale = max(1.0, float(np.max(np.abs(y))))
        unsat = ~trace.saturated()
        pair = unsat[:-1] & unsat[1:]
        dy = np.diff(y)
        assert not np.any(pair & (y[:-1] < 1.0) & (dy > 1e-6 * scale))
        assert not np.any(pair & (y[:-1] > 1.0) & (dy < -1e-6 * scale))


def test_decay_rate_check(run_decay, torsion201):
    # the sharp rate with C = ∫φ_h holds on the decay run; 5% too small fails
    c = torsion201.c_subdomain
    assert torsion_rate_check(run_decay.trace, c)
    assert not torsion_rate_check(run_decay.trace, 0.95 * c)


def test_supercritical_rate_check(run_blowup, torsion201):
    # the same on the pre-cap blow-up run, where the mass grows
    c = torsion201.c_subdomain
    trace = precap_trace(run_blowup)
    assert torsion_rate_check(trace, c)
    assert not torsion_rate_check(trace, 0.95 * c)


def test_torsion_rate_check_rejects_a_saturated_trace(torsion201):
    saturated = synthetic_trace([0.0, 0.1, 0.2], [0.5] * 3, [1.0 / EPS] * 3, EPS, 1.0)
    with pytest.raises(ValueError, match="unsaturated"):
        torsion_rate_check(saturated, torsion201.c_subdomain)


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]],
                         ids=["nan", "inf-last"])
def test_trace_refuses_non_finite_times(times):
    # neither a NaN time nor a last infinite one makes a time difference <= 0
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        synthetic_trace(times, [1.0] * 3, [1.0] * 3)


def test_trace_csv_roundtrip_bytes(run_decay, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    atomic_write_text(str(p1), run_decay.trace.to_csv)
    back = Trace.from_csv(p1, epsilon=EPS, omega_measure=1.0)
    atomic_write_text(str(p2), back.to_csv)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.t, run_decay.trace.t)


def test_trace_csv_bytes_equal_the_per_row_rendering():
    # the writer converts whole columns; it must print every value as the
    # per-element repr(float()) and int() rendering it replaced did
    values = np.array([0.1, 1.0 / 3.0, 5e-324, 1e300, -0.0])
    trace = Trace(np.array([0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300]), values,
                  values[::-1], -values, values * 2, values[::-1] / 3, values,
                  np.array([0, 3, 7, 0, 12]))
    fh = io.StringIO(newline="")
    trace.to_csv(fh)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(TRACE_COLUMNS)
    for i in range(len(trace)):
        writer.writerow([repr(float(trace.t[i])), repr(float(trace.dt[i])),
                         repr(float(trace.mass[i])), repr(float(trace.energy[i])),
                         repr(float(trace.sup_norm[i])), repr(float(trace.phi_norm[i])),
                         repr(float(trace.rho_value[i])), int(trace.floored[i])])
    assert fh.getvalue() == expected.getvalue()
    lines = fh.getvalue().split("\r\n")
    assert lines[1] == "0.0,0.1,-0.0,-0.1,0.2,-0.0,0.1,0"
    assert lines[3] == "0.1,5e-324,5e-324,-5e-324,1e-323,0.0,5e-324,7"
    assert lines[5] == "1e+300,-0.0,0.1,0.0,-0.0,0.03333333333333333,-0.0,12"
    assert lines[6] == ""


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    times = draw(st.lists(FINITE, min_size=1, max_size=40, unique=True))
    n = len(times)
    columns = [draw(st.lists(FINITE, min_size=n, max_size=n)) for _ in range(6)]
    floored = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    return Trace(np.sort(np.array(times)), *map(np.array, columns),
                 np.array(floored, dtype=int))


@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_trace_csv_roundtrip_is_exact(trace, tmp_path_factory):
    # random finite float64 columns (subnormals, -0.0, the largest doubles) and
    # floored counts come back with every bit, and write back the same bytes
    d = tmp_path_factory.mktemp("trace")
    atomic_write_text(str(d / "a.csv"), trace.to_csv)
    back = Trace.from_csv(d / "a.csv")
    for name in ("t", "dt", "mass", "energy", "sup_norm", "phi_norm", "rho_value"):
        assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
    assert back.floored.tolist() == trace.floored.tolist()
    atomic_write_text(str(d / "b.csv"), back.to_csv)
    assert (d / "b.csv").read_bytes() == (d / "a.csv").read_bytes()


@st.composite
def trace_times_and_queries(draw):
    # queries mix the trace's own times, the midpoints between them, and
    # arbitrary finite floats, inside the trace and far outside it
    values = st.one_of(st.integers(-50, 50).map(float), FINITE)
    t = np.sort(np.array(draw(st.lists(values, min_size=1, max_size=30, unique=True))))
    mids = (t[:-1] / 2 + t[1:] / 2).tolist() or t.tolist()
    queries = draw(st.lists(st.one_of(st.sampled_from(t.tolist()), st.sampled_from(mids),
                                      values), min_size=1, max_size=20))
    return t, np.array(queries)


@settings(max_examples=300, deadline=None)
@given(case=trace_times_and_queries())
@example(case=(np.array([0.5]), np.array([0.5, 7.0])))  # a one-row trace
@example(case=(np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.5, np.nan, 1e20])))
def test_rows_at_finds_each_rows_own_time_and_refuses_any_other(case):
    t, queries = case
    trace = synthetic_trace(t, np.ones(len(t)), np.ones(len(t)))
    assert trace.rows_at(t).tolist() == list(range(len(t)))
    missing = [float(q) for q in queries if q not in t]
    if missing:
        with pytest.raises(ValueError) as err:
            trace.rows_at(queries)
        assert str(err.value) == f"snapshot time {missing[0]} is not a trace row"
    else:
        assert trace.rows_at(queries).tolist() == [t.tolist().index(q) for q in queries]


HEADER = ",".join(TRACE_COLUMNS) + "\r\n"


@pytest.mark.parametrize("text, message", [
    (HEADER, "empty trace"),
    (HEADER + "\r\n", "empty trace"),
    (HEADER.replace("mass", "m") + "0.0,1,1,1,1,1,1,0\r\n", "unexpected trace columns"),
    (HEADER + "0.0,1,1,1,1,1,1,0\r\n0.1,1,1,1,1,1\r\n", "column"),
], ids=["header-only", "blank-body", "wrong-header", "short-row"])
def test_trace_reader_rejects_malformed_files(text, message, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(ValueError, match=message):
            Trace.from_csv(path)


# -- the per-snapshot loops the stacked checks replaced, kept as oracles --------

def gradient_bound_loop(trace, snapshots, subdomain_torsion, tol=0.1):
    # the first snapshot is the initial data: E, ∫'φ ln u and the time
    # integral all start there
    u0eps = snapshots[0][1]
    grid = u0eps.grid
    phi = subdomain_torsion.phi
    inside = subdomain_torsion.weights > 0
    times = np.array([t for t, _ in snapshots])
    rows = np.array([int(np.flatnonzero(trace.t == t)[0]) for t in times])
    log_u0_term = subdomain_torsion.integrate(
        Field(grid, phi.values * np.where(inside, np.log(np.clip(u0eps.values, 1e-300, None)), 0.0)))
    sub_mass, log_terms = [], []
    for t, f in snapshots:
        sub_mass.append(subdomain_torsion.integrate(f))
        log_terms.append(subdomain_torsion.integrate(
            Field(grid, phi.values * np.where(inside, np.log(np.clip(f.values, 1e-300, None)), 0.0))))
    sub_mass = np.asarray(sub_mass)
    log_terms = np.asarray(log_terms)
    time_int = np.concatenate([[0.0], np.cumsum(
        0.5 * (sub_mass[1:] + sub_mass[:-1]) * np.diff(times))])
    sup_mass = np.maximum.accumulate(trace.mass)[rows]
    e0 = trace.energy[rows[0]]
    with np.errstate(over="ignore"):
        rhs = e0 * np.exp((sup_mass / (2.0 * subdomain_torsion.c_subdomain))
                          * (log_terms - log_u0_term + time_int))
    lhs = trace.energy[rows]
    return times, lhs <= rhs * (1.0 + tol) + 1e-12, lhs, rhs


def boundary_concentration_loop(snapshots, q, margin, trace):
    grid = snapshots[0][1].grid
    cellvol = float(np.prod(grid.h))
    edges = []  # per axis: (upper end, lower end, collar mask) of its edges
    for axis in range(grid.dimension):
        hi = tuple(slice(1, None) if k == axis else slice(None) for k in range(grid.dimension))
        lo = tuple(slice(None, -1) if k == axis else slice(None) for k in range(grid.dimension))
        mids = np.meshgrid(*[0.5 * (x[1:] + x[:-1]) if k == axis else x
                             for k, x in enumerate(grid.axes)], indexing="ij")
        dist = np.min([np.minimum(x, ext - x) for x, ext in zip(mids, grid.extents)], axis=0)
        edges.append((hi, lo, dist < margin))
    collar_nodes = mesh.distance_to_boundary(grid) < margin
    times = np.array([t for t, _ in snapshots])
    rows = np.array([int(np.flatnonzero(trace.t == t)[0]) for t in times])
    energies = trace.energy[rows]
    weighted, collar_e, uq_int = [], [], []
    eta = 0.0
    for t, f in snapshots:
        v = f.values
        w_sum, c_sum = 0, 0
        for axis, (hi, lo, collar) in enumerate(edges):
            g = np.diff(v, axis=axis) / grid.h[axis]
            uedge = np.clip(0.5 * (v[hi] + v[lo]), 1e-300, None)
            w_sum += np.sum(uedge ** (q - 1.0) * (g * g))
            c_sum += np.sum((g * g)[collar])
        weighted.append(cellvol * float(w_sum))
        collar_e.append(cellvol * float(c_sum))
        uq_int.append(integrate(Field(grid, v ** q)))
        eta = max(eta, float(v[collar_nodes].max()))
    weighted, collar_e, uq_int = map(np.asarray, (weighted, collar_e, uq_int))

    def trapz_accum(series):
        return np.concatenate([[0.0], np.cumsum(
            0.5 * (series[1:] + series[:-1]) * np.diff(times))])

    lhs_series = q * trapz_accum(weighted)
    accumulated = trapz_accum(uq_int * energies)
    bound_series = -(1.0 / q) * uq_int + (1.0 / q) * uq_int[0] + accumulated
    bound = float(bound_series[-1])
    return ConcentrationResult(float(lhs_series[-1]), bound,
                               float(trapz_accum(collar_e)[-1]),
                               (2.0 * eta) ** (1.0 - q) * bound / q,
                               bound_series, accumulated)


@pytest.fixture(scope="module")
def run_2d21():
    grid = rd.build_grid(2, [1.0, 1.0], [21, 21])
    torsion = rd.solve_torsion(grid)
    u0 = rd.torsion_profile(grid, 1.5, EPS, torsion)
    return rd.run(u0, trichotomy_params(), torsion)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fixture_name", ["run_blowup", "run_2d21", "run_deep"])
def test_stacked_checks_equal_the_per_snapshot_loops(fixture_name, request):
    result = request.getfixturevalue(fixture_name)
    grid = result.snapshots[0][1].grid
    sub = rd.solve_torsion_subdomain(grid, 0.25)
    keep = [(t, f) for (t, f) in result.snapshots
            if float(np.max(f.values)) < 0.5 * result.sup_cap]
    assert 2 <= len(keep) < len(result.snapshots)
    for snaps in (keep, result.snapshots, result.snapshots[1:]):
        assert_same_bits(diag.gradient_bound_check(result.trace, snaps, sub, tol=0.1),
                         gradient_bound_loop(result.trace, snaps, sub))
        for q in (0.5, 0.3):  # u**0.5 takes numpy's sqrt path, u**0.3 its pow path
            got = diag.boundary_concentration(snaps, q, 0.25, result.trace)
            want = boundary_concentration_loop(snaps, q, 0.25, result.trace)
            assert_same_bits(list(vars(got).values()), list(vars(want).values()))


def test_time_weighted_median_weights_by_interval():
    # value 1 held for 9 time units, value 100 for 1: the median is 1
    t = np.array([0.0, 9.0, 10.0])
    v = np.array([1.0, 1.0, 100.0])
    assert time_weighted_median(v, t) == 1.0
