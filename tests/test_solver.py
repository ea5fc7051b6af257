"""Time stepper: scheme definitions, invariants, outcomes, and a-priori bounds."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import spsolve

import replidyn as rd
import replidyn.solver as solver_mod
from conftest import trichotomy_params
from replidyn.mesh import Field, build_grid, dirichlet_energy, integrate, laplacian
from replidyn.solver import CG_RTOL, SolverState, _Workspace, rho_eps, step

EPS = 1e-3


def make_state(u0eps, params):
    e = dirichlet_energy(u0eps, params.epsilon)
    return SolverState(0.0, u0eps.copy(), params.dt_init, e,
                       rho_eps(e, params.epsilon))


def test_rho_eps_values():
    assert rho_eps(1.0, 0.5) == 1.0
    assert rho_eps(3.0, 0.5) == 2.0
    assert rho_eps(0.0, 0.1) == 0.0


def test_rho_eps_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rho_eps(-1.0, 0.5)
    with pytest.raises(ValueError):
        rho_eps(1.0, 0.0)


def test_rho_eps_lipschitz_and_monotone():
    zs = np.linspace(0.0, 5.0, 200)
    vals = [rho_eps(z, 0.5) for z in zs]
    diffs = np.diff(vals) / np.diff(zs)
    assert np.all(diffs >= 0.0)
    assert np.all(diffs <= 1.0 + 1e-12)


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit"])
def test_constant_floor_state_is_fixed(scheme, grid201):
    params = rd.SolverParams(epsilon=EPS, scheme=scheme, dt_init=1e-3)
    u = Field(grid201, np.full(grid201.shape, EPS))
    new = step(make_state(u, params), params)
    assert np.max(np.abs(new.u.values - EPS)) <= 1e-14


def test_explicit_step_is_the_definition(grid201, torsion201):
    params = rd.SolverParams(epsilon=EPS, scheme="explicit",
                             dt_init=1e-5, dt_min=1e-5, dt_max=1e-5)
    u0 = rd.torsion_profile(grid201, 0.8, EPS, torsion201)
    state = make_state(u0, params)
    new = step(state, params)
    lap = laplacian(u0, EPS).values
    expected = u0.values + 1e-5 * (u0.values * lap + u0.values * state.rho_value)
    inner = grid201.interior_mask
    assert np.max(np.abs(new.u.values[inner] - expected[inner])) <= 1e-14


def test_energy_and_mass_grow_on_supercritical_data(grid201, torsion201):
    # cross-check of sign: corrected mass above one forces growth
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-4, dt_max=1e-4, dt_min=1e-4)
    ws = _Workspace(grid201)
    state = make_state(u0, params)
    energies, masses = [state.energy], [integrate(state.u)]
    for _ in range(10):
        state = step(state, params, ws)
        energies.append(state.energy)
        masses.append(integrate(state.u))
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_positivity_floor_and_boundary_pin(run_decay):
    assert np.min(run_decay.final.values) >= EPS - 1e-12
    grid = run_decay.final.grid
    assert np.max(np.abs(run_decay.final.values[grid.boundary_mask] - EPS)) == 0.0


def test_run_is_deterministic(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 0.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, t_end=1.0, dt_max=0.02)
    a = rd.run(u0, params, torsion201)
    b = rd.run(u0, params, torsion201)
    for col in ("t", "mass", "energy", "sup_norm", "phi_norm"):
        assert np.array_equal(getattr(a.trace, col), getattr(b.trace, col))


def test_dt_stays_within_bounds(run_decay):
    params = run_decay.params
    assert np.all(run_decay.trace.dt >= params.dt_min)
    assert np.all(run_decay.trace.dt <= params.dt_max + 1e-15)


def test_comparison_upper_bound_formula(torsion201):
    # e^(0+1) * (1 + 1/8)
    val = rd.comparison_upper_bound(1.0, 0.0, torsion201)
    assert val == pytest.approx(np.e * 1.125, rel=1e-12)


def test_comparison_upper_bound_monotone(torsion201):
    base = rd.comparison_upper_bound(1.0, 1.0, torsion201)
    assert rd.comparison_upper_bound(2.0, 1.0, torsion201) > base
    assert rd.comparison_upper_bound(1.0, 2.0, torsion201) > base


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical"])
def test_sup_norm_below_comparison_bound(fixture_name, torsion201, request):
    # measured hypotheses: initial sup M, space-time energy B from the trace
    result = request.getfixturevalue(fixture_name)
    trace = result.trace
    m_bound = float(trace.sup_norm[0])
    b_bound = float(np.sum(0.5 * (trace.energy[1:] + trace.energy[:-1])
                           * np.diff(trace.t)))
    bound = rd.comparison_upper_bound(m_bound, b_bound, torsion201)
    assert float(np.max(trace.sup_norm)) <= bound + 1e-6


def test_interior_lower_barrier(run_decay, subdomain201):
    # min over the core of u(t) stays above the decaying barrier c3*phi/(1+c3*t)
    inside = subdomain201.weights > 0
    u0 = run_decay.snapshots[0][1]
    c3 = float(np.min(u0.values[inside]
                      / np.maximum(subdomain201.phi.values[inside], 1e-300)))
    assert c3 > 0
    for t, f in run_decay.snapshots:
        barrier = (c3 / (1.0 + c3 * t)) * subdomain201.phi.values[inside]
        assert np.min(f.values[inside] - barrier) >= -1e-8


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical", "run_blowup"])
def test_energy_growth_inequality_rowwise(fixture_name, request):
    # between consecutive rows: dE/dt <= mass * E^2 up to slack
    trace = request.getfixturevalue(fixture_name).trace
    de = np.diff(trace.energy) / np.diff(trace.t)
    rhs = trace.mass[:-1] * trace.energy[:-1] ** 2
    assert np.all(de <= rhs + 0.05 * (1.0 + trace.energy[:-1] ** 2))


def test_floored_nodes_counted(run_decay, run_blowup):
    assert run_decay.max_floored_fraction <= 1e-3
    assert not run_decay.floor_flagged
    assert run_blowup.trace.floored.min() >= 0


def test_starvation_classified_as_blowup(grid201, torsion201):
    # a dt floor far above what the dynamics need, with growing sup norm
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=5e-3, dt_min=5e-3,
                             dt_max=5e-3)
    result = rd.run(u0, params, torsion201)
    assert result.outcome == "BlowUp"


def test_run_rejects_data_below_floor(grid201):
    params = rd.SolverParams(epsilon=EPS)
    bad = Field(grid201, np.zeros(grid201.shape))
    with pytest.raises(ValueError):
        rd.run(bad, params)


def test_params_validation():
    with pytest.raises(ValueError):
        rd.SolverParams(epsilon=-1.0).validate()
    with pytest.raises(ValueError):
        rd.SolverParams(epsilon=EPS, dt_init=1.0, dt_max=0.1).validate()
    with pytest.raises(ValueError):
        rd.SolverParams(epsilon=EPS, scheme="magic").validate()
    with pytest.raises(ValueError):
        rd.SolverParams(epsilon=EPS, sup_cap=EPS / 2).validate()


def test_small_2d_run_completes():
    g = build_grid(2, [1.0, 1.0], [21, 21])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 0.5, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, t_end=0.3, dt_max=0.01)
    result = rd.run(u0, params, tor)
    assert result.outcome in ("RanToEnd", "Decayed")
    assert np.min(result.final.values) >= EPS - 1e-12


def _direct_solve(ws, u_int, dt, f, eps):
    """Oracle for the 2D semi-implicit solve: the assembled SPD matrix
    diag(1/u) - dt*Lap_h, solved from scratch."""
    rhs = (1.0 + dt * f) + dt * eps * ws.bc
    a = (sp.diags(1.0 / u_int) + dt * ws.neg_lap).tocsr()
    return a, rhs, spsolve(a, rhs)


@pytest.fixture(scope="module")
def grid21():
    return build_grid(2, [1.0, 1.0], [21, 21])


def _blowup_21(grid21, **overrides):
    tor = rd.solve_torsion(grid21)
    u0 = rd.torsion_profile(grid21, 1.5, EPS, tor)
    params = rd.SolverParams(**{"epsilon": EPS, "t_end": 5.0, **overrides})
    return rd.run(u0, params, tor)


def _record_solves(monkeypatch):
    calls = []
    solve = _Workspace.solve_semi_implicit

    def recording(self, u_int, dt, f, eps):
        x = solve(self, u_int, dt, f, eps)
        calls.append((self, u_int.copy(), dt, f, eps, x.copy()))
        return x

    monkeypatch.setattr(_Workspace, "solve_semi_implicit", recording)
    return calls


def test_2d_solve_matches_direct_solve_on_every_step(grid21, monkeypatch):
    calls = _record_solves(monkeypatch)
    result = _blowup_21(grid21, dt_init=1e-4, reaction_cap_c=0.015)
    assert result.outcome == "BlowUp"
    assert len(calls) > 100
    assert result.cg_iterations > 0
    for ws, u_int, dt, f, eps, x in calls:
        a, rhs, expected = _direct_solve(ws, u_int, dt, f, eps)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
        assert np.linalg.norm(a @ x - rhs) <= CG_RTOL * np.linalg.norm(rhs)


def test_2d_solve_refactors_a_stale_factor(grid21):
    tor = rd.solve_torsion(grid21)
    ws = _Workspace(grid21)
    n = ws.n_interior
    ws.solve_semi_implicit(np.full(n, EPS), 1e-7, 0.0, EPS)
    assert ws.factorizations == 1
    u_int = rd.torsion_profile(grid21, 1.5, EPS, tor).values[ws.interior]
    x = ws.solve_semi_implicit(u_int, 0.05, 20.0, EPS)
    assert ws.factorizations == 2
    _, _, expected = _direct_solve(ws, u_int, 0.05, 20.0, EPS)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_2d_run_trace_is_deterministic(grid21, tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        _blowup_21(grid21).trace.to_csv(tmp_path / name)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_2d_canonical_run_reuses_one_factorization():
    g = build_grid(2, [1.0, 1.0], [41, 41])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 1.5, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=1e-4,
                             reaction_cap_c=0.015, snapshot_stride=20)
    result = rd.run(u0, params, tor)
    assert result.outcome == "BlowUp"
    assert 1 <= result.factorizations <= 2
    assert result.cg_iterations > 0


def test_solve_counters_are_zero_in_1d(run_decay):
    assert run_decay.factorizations == 0
    assert run_decay.cg_iterations == 0


def test_explicit_and_semi_implicit_agree_on_smooth_run(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 0.5, EPS, torsion201)
    common = dict(epsilon=EPS, t_end=0.1, dt_init=1e-5, dt_min=1e-5, dt_max=1e-5)
    a = rd.run(u0, rd.SolverParams(scheme="semi-implicit", **common), torsion201)
    b = rd.run(u0, rd.SolverParams(scheme="explicit", **common), torsion201)
    diff = np.max(np.abs(a.final.values - b.final.values))
    assert diff <= 1e-4 * float(np.max(a.final.values))


def test_final_step_clamped_to_t_end_is_not_starvation():
    # the last step, shorter than dt_min, must land on t_end instead of being
    # stretched past it and read as starvation of a growing run
    g = build_grid(1, [1.0], [101])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 1.2, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-2, dt_min=1e-2, dt_max=1e-2,
                             t_end=0.025)
    result = rd.run(u0, params, tor)
    assert result.outcome == "RanToEnd"
    assert result.t_last == params.t_end
    assert result.trace.t[-1] == params.t_end
    assert float(np.max(result.trace.sup_norm)) < result.sup_cap
    at_end = SolverState(params.t_end, result.final, 1e-2, 0.0, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        step(at_end, params)


def _banded_solve(ws, u_int, dt, f, eps):
    """Oracle for the 1D semi-implicit solve: scipy's banded solver on the
    assembled tridiagonal matrix diag(1/u) - dt*Lap_h."""
    h2 = ws.grid.h[0] ** 2
    off = np.full(ws.n_interior, 1.0 / h2)
    ab = np.vstack([-dt * off, 1.0 / u_int + 2.0 * dt / h2, -dt * off])
    rhs = (1.0 + dt * f) + dt * eps * ws.bc
    return solve_banded((1, 1), ab, rhs)


def test_1d_solve_matches_banded_solve_bitwise(grid201, torsion201, monkeypatch):
    calls = _record_solves(monkeypatch)
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    result = rd.run(u0, trichotomy_params(), torsion201)
    assert result.outcome == "BlowUp"
    assert len(calls) == len(result.trace) - 1
    for ws, u_int, dt, f, eps, x in calls:
        assert np.array_equal(x, _banded_solve(ws, u_int, dt, f, eps))


def test_1d_solve_rejects_non_finite_data(grid201):
    ws = _Workspace(grid201)
    u_int = np.full(ws.n_interior, 0.5)
    u_int[7] = np.nan
    with pytest.raises(ValueError):
        ws.solve_semi_implicit(u_int, 1e-3, 0.0, EPS)


# SHA-256 of Trace.to_csv for n=201 runs: the canonical settings of the
# acceptance suite at masses 0.5 and 1.5, and the default settings at 1.5.
GOLDEN_TRACES = {
    "canonical-0.5": "8f6230413d092e5f7a62c82e263f7236872354b3fb6ff5ed4cfaa773a239bb33",
    "canonical-1.5": "c9f9945e437bd8ba5e8ce463fcd81396d2546c8ba3549f39af4a3795f2def90c",
    "default-1.5": "bf6d051fcba4c47da7f59ddc039eb65f61f15af3de76f62fda9fb2c7c78e7b52",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_1d_trace_bytes_are_golden(name, grid201, torsion201, run_blowup, tmp_path):
    settings, mass = name.split("-")
    if settings == "canonical" and mass == "1.5":
        result = run_blowup
    else:
        params = (trichotomy_params() if settings == "canonical"
                  else rd.SolverParams(epsilon=EPS, t_end=5.0))
        u0 = rd.torsion_profile(grid201, float(mass), EPS, torsion201)
        result = rd.run(u0, params, torsion201)
    path = tmp_path / "trace.csv"
    result.trace.to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACES[name], (
        f"trace.csv of the {name} run changed ({digest}). Update GOLDEN_TRACES "
        "only together with a CHANGES.md note that gives the size of the drift "
        "and its reason.")


def test_run_integrates_once_per_trace_row(grid201, torsion201, monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return integrate(f)

    monkeypatch.setattr(solver_mod, "integrate", counting)
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    result = rd.run(u0, rd.SolverParams(epsilon=EPS, t_end=5.0, trace_stride=1),
                    torsion201)
    assert len(result.trace) > 50
    assert len(calls) == len(result.trace)
