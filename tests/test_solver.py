"""Time stepper: scheme definitions, invariants, outcomes, and a-priori bounds."""

import hashlib
import re
from dataclasses import fields, replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.sparse.linalg import spsolve

import replidyn as rd
import replidyn.solver as solver_mod
from conftest import comparison_upper_bound, phi_weighted_sup, trichotomy_params
from replidyn.config import parse_config
from replidyn.experiment import atomic_write_text, run_experiment
from replidyn.mesh import Field, build_grid, dirichlet_energy, integrate, laplacian
from replidyn.solver import CG_RTOL, HISTORY, SolverState, _Workspace, rho_eps, step

EPS = 1e-3


class _ForwardEuler(_Workspace):
    """Forward Euler in place of the semi-implicit solve: the explicit scheme
    the solver is cross-checked against."""

    def solve_semi_implicit(self, u_int, dt, f, eps):
        lap_int = eps * self.bc - self.neg_lap @ u_int
        return u_int + dt * (u_int * lap_int + u_int * f)


def forward_euler_step(state, params, workspace):
    """One explicit step: ``step``'s controller with the CFL limit
    dt <= 0.9 h^2 / (2 d max u) on top, and the forward-Euler update of a
    ``_ForwardEuler`` workspace."""
    grid = workspace.grid
    cfl = 0.9 * min(grid.h) ** 2 / (2.0 * grid.dimension * float(state.u.max()))
    return step(replace(state, dt=min(state.dt, cfl)), params, workspace)


def run_forward_euler(u0, params, torsion, monkeypatch):
    """``rd.run`` stepping with the forward-Euler oracle (the solver stays
    patched for the rest of the test)."""
    monkeypatch.setattr(solver_mod, "_Workspace", _ForwardEuler)
    monkeypatch.setattr(solver_mod, "step", forward_euler_step)
    return rd.run(u0, params, torsion)


def make_state(u0eps, params):
    e = dirichlet_energy(u0eps, params.epsilon)
    return SolverState(0.0, u0eps.values.copy(), params.dt_init, e,
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
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-3)
    u = Field(grid201, np.full(grid201.shape, EPS))
    advance, workspace = ((forward_euler_step, _ForwardEuler) if scheme == "explicit"
                          else (step, _Workspace))
    new = advance(make_state(u, params), params, workspace(grid201))
    assert np.max(np.abs(new.u - EPS)) <= 1e-14


def test_explicit_step_is_the_definition(grid201, torsion201):
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-5, dt_min=1e-5, dt_max=1e-5)
    u0 = rd.torsion_profile(grid201, 0.8, EPS, torsion201)
    state = make_state(u0, params)
    new = forward_euler_step(state, params, _ForwardEuler(grid201))
    lap = laplacian(u0, EPS).values
    expected = u0.values + 1e-5 * (u0.values * lap + u0.values * state.rho_value)
    inner = grid201.interior_mask
    assert np.max(np.abs(new.u[inner] - expected[inner])) <= 1e-14


def test_energy_and_mass_grow_on_supercritical_data(grid201, torsion201):
    # cross-check of sign: corrected mass above one forces growth
    u0 = rd.torsion_profile(grid201, 1.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-4, dt_max=1e-4, dt_min=1e-4)
    ws = _Workspace(grid201)
    state = make_state(u0, params)
    energies, masses = [state.energy], [integrate(u0)]
    for _ in range(10):
        state = step(state, params, ws)
        energies.append(state.energy)
        masses.append(integrate(Field(grid201, state.u)))
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_positivity_floor_and_boundary_pin(run_decay):
    final = run_decay.snapshots[-1][1]
    assert np.min(final.values) >= EPS - 1e-12
    grid = final.grid
    assert np.max(np.abs(final.values[grid.boundary_mask] - EPS)) == 0.0


def _held_arrays(workspace):
    """Every array a workspace holds: its attributes, the arrays in its
    tuples, and the buffers of its sparse matrices."""
    arrays = []
    for value in vars(workspace).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif sp.issparse(item):
                arrays += [item.data, item.indices, item.indptr]
    return arrays


def _assert_fresh_floored_step(state, params, workspace):
    """Take one step and check what the run and the snapshots rely on: the
    input state is untouched, the new u is an array of its own, pinned to
    eps on the boundary and floored at eps inside, and the new state's sup is
    its maximum."""
    grid, eps = workspace.grid, params.epsilon
    before = state.u.copy()
    new = step(state, params, workspace)
    assert np.array_equal(state.u, before)
    assert not np.shares_memory(new.u, state.u)
    assert not any(np.shares_memory(new.u, a) for a in _held_arrays(workspace))
    assert np.all(new.u[grid.boundary_mask] == eps)
    assert np.all(new.u[grid.interior_mask] >= eps)
    assert new.sup == new.u.max()
    return new


@pytest.mark.parametrize("dimension, n", [(1, 201), (1, 3), (2, 21)])
def test_step_returns_a_fresh_floored_state_and_leaves_its_input(dimension, n):
    # in 2D the first step factors and the later ones run CG on the held
    # factor from the history start, so both solve paths are covered;
    # n = 3 leaves one interior node and no off-diagonal entry in 1D
    grid = build_grid(dimension, [1.0] * dimension, [n] * dimension)
    params = rd.SolverParams(epsilon=EPS, t_end=5.0)
    state = make_state(rd.torsion_profile(grid, 1.5, EPS, rd.solve_torsion(grid)), params)
    workspace = _Workspace(grid)
    for _ in range(6):
        state = _assert_fresh_floored_step(state, params, workspace)
    if dimension == 2:
        assert workspace.factorizations >= 1 and workspace.cg_iterations > 0


@st.composite
def positive_states(draw):
    """A state of random positive interior data on a small 1D or 2D grid,
    with eps on the boundary, and its step parameters."""
    dimension = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 40 if dimension == 1 else 9))
    grid = build_grid(dimension, [1.0] * dimension, [n] * dimension)
    u = np.full(grid.shape, EPS)
    u[grid.interior_mask] = draw(hnp.arrays(float, int(grid.interior_mask.sum()),
                                            elements=st.floats(EPS, 10.0)))
    params = rd.SolverParams(epsilon=EPS, dt_init=draw(st.floats(1e-6, 0.05)),
                             reaction_cap_c=0.5)
    return grid, make_state(Field(grid, u), params), params


@settings(max_examples=80, deadline=None)
@given(case=positive_states(), scheme=st.sampled_from([_Workspace, _ForwardEuler]))
def test_step_floors_random_positive_data(case, scheme):
    # the step counts exactly the solve's undershoots below eps and lifts
    # them to eps; the semi-implicit solve stays above eps up to roundoff,
    # and forward Euler past its CFL limit undershoots
    grid, state, params = case
    workspace = scheme(grid)
    solve, raw = workspace.solve_semi_implicit, []

    def recording(*args):
        x = solve(*args)
        raw.append(x.copy())
        return x

    workspace.solve_semi_implicit = recording
    new = _assert_fresh_floored_step(state, params, workspace)
    assert new.floored == np.count_nonzero(raw[0] < EPS - 1e-15)
    assert np.array_equal(new.u[workspace.interior].ravel(), np.maximum(raw[0], EPS))


@settings(max_examples=80, deadline=None)
@given(case=positive_states())
def test_step_reads_the_recorded_sup(case):
    # step records sup = max(interior max, eps) and reads the old sup norm
    # from it; a state without one falls back to that same expression, so the
    # two states step to the same bits in every field
    grid, state, params = case
    assert state.sup is None
    recorded = replace(state, sup=max(float(state.u[grid.interior_mask].max()), EPS))
    a = step(state, params, _Workspace(grid))
    b = step(recorded, params, _Workspace(grid))
    for name in (f.name for f in fields(SolverState)):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_run_is_deterministic(grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 0.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, t_end=1.0, dt_max=0.02)
    a = rd.run(u0, params, torsion201)
    b = rd.run(u0, params, torsion201)
    for col in ("t", "mass", "energy", "sup_norm", "phi_norm"):
        assert np.array_equal(getattr(a.trace, col), getattr(b.trace, col))


def test_dt_stays_within_bounds(run_decay):
    params = trichotomy_params(t_end=50.0)  # the parameters of run_decay
    assert np.all(run_decay.trace.dt >= params.dt_min)
    assert np.all(run_decay.trace.dt <= params.dt_max + 1e-15)


def test_comparison_upper_bound_formula(torsion201):
    # e^(0+1) * (1 + 1/8)
    val = comparison_upper_bound(1.0, 0.0, torsion201)
    assert val == pytest.approx(np.e * 1.125, rel=1e-12)


def test_comparison_upper_bound_monotone(torsion201):
    base = comparison_upper_bound(1.0, 1.0, torsion201)
    assert comparison_upper_bound(2.0, 1.0, torsion201) > base
    assert comparison_upper_bound(1.0, 2.0, torsion201) > base


@pytest.mark.parametrize("fixture_name", ["run_decay", "run_critical"])
def test_sup_norm_below_comparison_bound(fixture_name, torsion201, request):
    # measured hypotheses: initial sup M, space-time energy B from the trace
    result = request.getfixturevalue(fixture_name)
    trace = result.trace
    m_bound = float(trace.sup_norm[0])
    b_bound = float(np.sum(0.5 * (trace.energy[1:] + trace.energy[:-1])
                           * np.diff(trace.t)))
    bound = comparison_upper_bound(m_bound, b_bound, torsion201)
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
        rd.SolverParams(epsilon=EPS, sup_cap=EPS / 2).validate()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["epsilon", "sup_cap", "t_end"])
def test_params_refuse_non_finite_values_by_name(name, value):
    # every comparison with NaN is false and inf passes a sign check, so a
    # sup_cap of NaN once let a blow-up run end RanToEnd at t_end
    params = replace(rd.SolverParams(epsilon=EPS), **{name: value})
    with pytest.raises(ValueError, match=name):
        params.validate()


def test_run_refuses_a_nan_sup_cap():
    g = build_grid(1, [1.0], [51])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 1.5, EPS, tor)
    with pytest.raises(ValueError, match="sup_cap"):
        rd.run(u0, rd.SolverParams(epsilon=EPS, sup_cap=np.nan), tor)


@pytest.mark.parametrize("dimension, n, mass, eps, sup_cap, cap, sup0", [
    (1, 201, 0.5, 0.3, 0.0, 0.333, 1.05),  # sup_cap 0: the automatic cap
    (2, 41, 0.5, 0.1, 0.0, 0.589, 1.15),
    (1, 201, 1.5, 0.05, 0.0, 2.0, 2.30),
    (1, 51, 1.5, EPS, 2.0, 2.0, 2.25),
])
def test_run_refuses_a_sup_cap_that_does_not_exceed_the_initial_sup(
        dimension, n, mass, eps, sup_cap, cap, sup0):
    # the run used to end BlowUp after 0 steps
    g = build_grid(dimension, [1.0] * dimension, [n] * dimension)
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, mass, eps, tor)
    with pytest.raises(ValueError) as err:
        rd.run(u0, rd.SolverParams(epsilon=eps, sup_cap=sup_cap), tor)
    message = str(err.value)
    numbers = re.match(r"sup cap (\S+) does not exceed the initial sup norm "
                       r"(\S+); lower solver\.epsilon or set solver\.sup_cap", message)
    assert [float(x) for x in numbers.groups()] == pytest.approx([cap, sup0], abs=5e-3)


def test_small_2d_run_completes():
    g = build_grid(2, [1.0, 1.0], [21, 21])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 0.5, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, t_end=0.3, dt_max=0.01)
    result = rd.run(u0, params, tor)
    assert result.outcome in ("RanToEnd", "Decayed")
    assert np.min(result.snapshots[-1][1].values) >= EPS - 1e-12


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


def _force_refactors(monkeypatch):
    """Let CG take one iteration before the held factor is replaced.  At
    CG_RTOL one factor serves every 21^2 run tried (dt_init 1e-8 to 5e-2);
    with one iteration the blow-up from dt_init=1e-2 refactors twice (3
    factorizations) and still solves most steps by CG."""
    monkeypatch.setattr(solver_mod, "CG_MAX_ITER", 1)


def _assert_solves(a, rhs, x, expected, u_int):
    """x solves a x = rhs to CG_RTOL, so it lies within the distance that
    residual implies from spsolve's solution: a = diag(1/u) + dt*neg_lap is
    SPD and no smaller than min(1/u) I, so ||x - x*|| <= max(u) ||a x - rhs||,
    plus 1e-14 ||x*|| for the direct solve's own roundoff."""
    assert np.linalg.norm(a @ x - rhs) <= CG_RTOL * np.linalg.norm(rhs)
    bound = u_int.max() * CG_RTOL * np.linalg.norm(rhs)
    assert np.linalg.norm(x - expected) <= bound + 1e-14 * np.linalg.norm(expected)


# The canonical 21^2 blow-up holds one factor for the whole run.  The default
# run from dt_init=1e-2 does too, so it is run with refactors forced, and the
# direct solves after a refactor are checked as well.
@pytest.mark.parametrize("overrides, min_steps, refactor", [
    (dict(dt_init=1e-4, reaction_cap_c=0.015), 100, False),
    (dict(dt_init=1e-2), 40, True),
], ids=["canonical", "default"])
def test_2d_solve_matches_direct_solve_on_every_step(overrides, min_steps, refactor,
                                                     grid21, monkeypatch):
    if refactor:
        _force_refactors(monkeypatch)
    calls = _record_solves(monkeypatch)
    result = _blowup_21(grid21, **overrides)
    assert result.outcome == "BlowUp"
    assert len(calls) > min_steps
    assert result.cg_iterations > 0
    assert result.factorizations >= (2 if refactor else 1)
    for ws, u_int, dt, f, eps, x in calls:
        _assert_solves(*_direct_solve(ws, u_int, dt, f, eps), x, u_int)


def test_2d_refactor_frees_the_stale_factor_first(grid21, monkeypatch):
    # a held factor still alive during splu doubles the factor memory
    workspaces, held = [], []
    real_splu = solver_mod.splu

    class Recording(_Workspace):
        def __init__(self, grid):
            super().__init__(grid)
            workspaces.append(self)

    def splu(*args, **kwargs):
        held.extend(ws.lu for ws in workspaces)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_Workspace", Recording)
    monkeypatch.setattr(solver_mod, "splu", splu)
    _force_refactors(monkeypatch)
    result = _blowup_21(grid21, dt_init=1e-2)
    assert len(workspaces) == 1
    assert result.factorizations >= 2
    assert len(held) == result.factorizations
    assert all(lu is None for lu in held)


def test_2d_solve_refactors_a_stale_factor(grid21):
    tor = rd.solve_torsion(grid21)
    ws = _Workspace(grid21)
    n = ws.n_interior
    ws.solve_semi_implicit(np.full(n, EPS), 1e-7, 0.0, EPS)
    assert ws.factorizations == 1
    u_int = rd.torsion_profile(grid21, 1.5, EPS, tor).values[ws.interior].ravel()
    x = ws.solve_semi_implicit(u_int, 0.05, 20.0, EPS)
    assert ws.factorizations == 2
    _, _, expected = _direct_solve(ws, u_int, 0.05, 20.0, EPS)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def _solve_from_history(ws, u_int, dt, f):
    """One 2D solve, checked against the assembled system (``_assert_solves``),
    and the history holding a copy of u_int as its newest state with its full
    product, each ring entry's product on the sampled rows, and no ring array
    shared with the returned state."""
    x = ws.solve_semi_implicit(u_int, dt, f, EPS)
    _assert_solves(*_direct_solve(ws, u_int, dt, f, EPS), x, u_int)
    rings = (ws.basis, ws.products, ws.product)
    assert not any(np.shares_memory(x, ring) for ring in rings)
    assert np.array_equal(ws.basis[0], u_int)
    assert np.array_equal(ws.product, ws.neg_lap @ u_int)
    for b, product in zip(ws.basis[:min(ws.entered, HISTORY)], ws.products):
        assert np.array_equal(product, (ws.neg_lap @ b)[ws.rows])
    return x


def test_2d_history_start_survives_a_repeated_state(grid21):
    # the same state in every solve leaves every difference in the ring zero;
    # the start drops them, and CG runs on the one held factor.  The start then
    # fits the newest state on every second row of the 21^2 interior, which
    # its best multiple over every row beats: each CG start falls back to it.
    tor = rd.solve_torsion(grid21)
    ws = _Workspace(grid21)
    u_int = rd.torsion_profile(grid21, 1.5, EPS, tor).values[ws.interior].ravel()
    for _ in range(HISTORY + 2):
        _solve_from_history(ws, u_int, 1e-3, 20.0)
    assert ws.products.shape == (HISTORY, 181)  # every second of 361 rows
    assert not ws.basis[1:].any() and not ws.products[1:].any()
    assert ws.factorizations == 1 and ws.cg_iterations > 0
    assert ws.start_fallbacks == HISTORY + 1


def test_2d_history_start_spans_a_refactor(grid21):
    # three small steps, then a 500x larger dt that the held factor cannot
    # precondition; the two CG solves after the refactor start from a ring
    # that still holds the differences from before it
    tor = rd.solve_torsion(grid21)
    ws = _Workspace(grid21)
    u_int = rd.torsion_profile(grid21, 1.5, EPS, tor).values[ws.interior].ravel()
    for dt in (1e-4, 1e-4, 1e-4, 0.05):
        u_int = np.maximum(_solve_from_history(ws, u_int, dt, 20.0), EPS)
    assert ws.factorizations == 2
    iterations = ws.cg_iterations
    for _ in range(2):
        u_int = np.maximum(_solve_from_history(ws, u_int, 0.05, 20.0), EPS)
    assert ws.factorizations == 2 and ws.cg_iterations > iterations
    assert ws.entered <= HISTORY  # no pre-refactor difference has left the ring


@st.composite
def solve_sequences(draw):
    """A small 2D grid and a sequence of solves on random positive data: each
    next state is the floored solution, the same state again, the same state
    moved by at most 1e-15 relative, or fresh data, each solved at a random dt
    and nonlocal coefficient."""
    n = draw(st.integers(4, 45))  # the start fits on a sample of rows from n = 18
    grid = build_grid(2, [1.0, 1.0], [n, n])
    n_int = (n - 2) ** 2
    values = hnp.arrays(float, n_int, elements=st.floats(EPS, 10.0))
    kinds = ["solution", "repeat", "near", "fresh"]
    solves = draw(st.lists(st.tuples(st.sampled_from(kinds),
                                     st.floats(1e-6, 0.05), st.floats(0.0, 50.0),
                                     values),
                           min_size=2, max_size=HISTORY + 4))
    return grid, draw(values), solves


def _next_state(kind, u_int, x, fresh):
    if kind == "solution":
        return np.maximum(x, EPS)
    if kind == "near":  # fresh / 10 <= 1, so each node moves by 0 to 5 ulps
        return u_int * (1.0 + 1e-15 * fresh / 10.0)
    return fresh if kind == "fresh" else u_int


@settings(max_examples=60, deadline=None)
@given(case=solve_sequences())
def test_2d_history_start_solves_random_sequences(case):
    grid, u_int, solves = case
    ws = _Workspace(grid)
    for kind, dt, f, fresh in solves:
        x = _solve_from_history(ws, u_int, dt, f)
        u_int = _next_state(kind, u_int, x, fresh)


@settings(max_examples=200, deadline=None)
@given(case=solve_sequences())
@example(case=(build_grid(2, [1.0, 1.0], [4, 4]), np.full(4, 0.125),
               [("solution", 1e-6, 0.5, np.ones(4)), ("solution", 0.03125, 0.0, np.ones(4))]))
def test_2d_start_is_no_worse_than_the_newest_state_alone(case):
    # The start minimizes ||rhs - A x0|| over the newest state and the
    # differences on a sample of rows, and falls back to the best multiple of
    # u^n alone where that leaves a smaller full residual.  So it can lose to
    # that multiple only by roundoff, also where a difference is itself
    # roundoff (a repeat, a 1e-15 near-repeat) and where the basis has more
    # columns than the grid has interior nodes (4x4).  The floor is
    # 1e-14 ||rhs||, about 45 ulps: where u^n is a fixed point (constant data
    # on 4x4), its multiple fits rhs to 0 and a start summed from several
    # columns reads up to 1.4e-15 ||rhs||.  The example is such a fixed point
    # after a small step: with the difference's product taken as a difference
    # of products, the start read 1.4e-12 ||rhs||.  CG goes on from the
    # residual the start returns, so that is the start's own to the roundoff
    # of A x0.
    grid, u_int, solves = case
    ws = _Workspace(grid)
    for kind, dt, f, fresh in solves:
        x = ws.solve_semi_implicit(u_int, dt, f, EPS)
        a, rhs, _ = _direct_solve(ws, u_int, dt, f, EPS)
        image = a @ u_int
        alone = np.linalg.norm(rhs - (image @ rhs) / (image @ image) * image)
        x0, r0 = ws._start(1.0 / u_int, dt, rhs)
        start = np.linalg.norm(rhs - a @ x0)
        assert start <= (1 + 1e-9) * alone + 1e-14 * np.linalg.norm(rhs)
        assert np.linalg.norm(r0 - (rhs - a @ x0)) <= 1e-14 * np.linalg.norm(abs(a) @ abs(x0))
        u_int = _next_state(kind, u_int, x, fresh)


def test_2d_critical_run_stays_on_the_unit_mass_manifold(grid21):
    # torsion data of mass 1 is a rest point of y' = (y - 1) E.  Measured: max
    # |y - 1| 1.4e-15 over 962 steps to t = 0.5.  The start's fallback to the
    # best multiple of the newest state is what holds it there: without it the
    # drift read 2.2e-8 at t = 0.5 and 2.8e-2 at t = 1.0.
    torsion = rd.solve_torsion(grid21)
    u0 = rd.torsion_profile(grid21, 1.0, EPS, torsion)
    params = rd.SolverParams(epsilon=EPS, dt_init=1e-4, reaction_cap_c=0.015, t_end=0.5)
    result = rd.run(u0, params, torsion)
    assert result.outcome == "RanToEnd"
    assert np.max(np.abs(result.trace.corrected_mass - 1.0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 5, 21, 45]), k=st.integers(1, HISTORY),
       dropped=st.integers(0, HISTORY - 1), seed=st.integers(0, 2**32 - 1))
@example(n=4, k=HISTORY, dropped=3, seed=0)
def test_2d_start_fit_matches_lstsq(n, k, dropped, seed):
    # _fit calls the gelsd that np.linalg.lstsq runs, at lstsq's cutoff, on
    # the sampled images it keeps.  Random blocks of a workspace's sampled
    # rows, with more kept columns than rows on the 4x4 grid (4 rows, up to 8
    # columns) and, where dropped is a column past the first, that column at
    # roundoff (1e-14 of the first), which the fit drops and gives 0.  Bitwise
    # equality across LAPACK builds is not promised, so the bound is 1e-13.
    ws = _Workspace(build_grid(2, [1.0, 1.0], [n, n]))
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((k, ws.products.shape[1]))
    b = rng.standard_normal(ws.products.shape[1])
    if 0 < dropped < k:
        images[dropped] *= 1e-14 * np.linalg.norm(images[0]) / np.linalg.norm(images[dropped])
    keep = np.linalg.norm(images, axis=1) > 1e-12 * np.linalg.norm(images[0])
    assert keep.sum() == k - (0 < dropped < k)
    expected = np.zeros(k)
    expected[keep] = np.linalg.lstsq(images[keep].T, b)[0]
    given_images, given_b = images.copy(), b.copy()
    y = ws._fit(images, b)
    assert np.array_equal(images, given_images) and np.array_equal(b, given_b)
    assert np.all(y[~keep] == 0.0)
    np.testing.assert_allclose(y, expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max())


def test_2d_run_trace_is_deterministic(grid21, tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        atomic_write_text(str(tmp_path / name), _blowup_21(grid21).trace.to_csv)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_2d_looser_cg_tolerance_moves_the_run_far_below_its_time_error(grid21,
                                                                       monkeypatch):
    # The canonical run's time error is about 2e-2 (t_max 2% above T_h).  Against
    # CG_RTOL 1e-13, the largest relative drift of a trace column is 4.0e-8 at
    # 21^2, 3.1e-8 at 41^2 and 4.3e-8 at 81^2 (phi_norm each); a 1e-7 bound
    # holds the solve seven orders below the time error.
    canonical = dict(dt_init=1e-4, reaction_cap_c=0.015)
    shipped = _blowup_21(grid21, **canonical)
    monkeypatch.setattr(solver_mod, "CG_RTOL", 1e-13)
    tight = _blowup_21(grid21, **canonical)
    assert shipped.cg_iterations < tight.cg_iterations
    assert (shipped.outcome, shipped.steps) == (tight.outcome, tight.steps)
    for column in ("t", "dt", "mass", "energy", "sup_norm", "phi_norm", "rho_value"):
        np.testing.assert_allclose(getattr(shipped.trace, column),
                                   getattr(tight.trace, column), rtol=1e-7, atol=0,
                                   err_msg=column)
    assert np.array_equal(shipped.trace.floored, tight.trace.floored)


def test_2d_canonical_run_reuses_its_factorizations():
    # measured: 1 factorization and 85 CG iterations in 357 steps (0.24 a
    # step, as with the start fitted on every row; 311 at CG_RTOL 1e-13), and
    # no start fell back to the newest state alone.  A factor per step fails
    # the first bound; starting CG from the newest state and five
    # differences (HISTORY 6: 0.33 iterations a step), three (0.42), two
    # (0.66) or one (1.05), from u^n (3.5) or from the held factor's solution
    # (2 factorizations, 4.2) fails the second.
    g = build_grid(2, [1.0, 1.0], [41, 41])
    tor = rd.solve_torsion(g)
    u0 = rd.torsion_profile(g, 1.5, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=1e-4,
                             reaction_cap_c=0.015, snapshot_stride=20)
    result = rd.run(u0, params, tor)
    steps = len(result.trace) - 1
    assert result.outcome == "BlowUp"
    assert 1 <= result.factorizations <= steps // 20
    assert 0 < result.cg_iterations <= 0.3 * steps
    assert result.start_fallbacks == 0


def _asymmetric_data(grid, mass):
    """sin^3(pi x) (1 + 2x) sin^3(pi y) at the given corrected mass: no
    symmetry of the square, and far from the torsion profile's shape."""
    x, y = np.meshgrid(*grid.axes, indexing="ij")
    shape = np.sin(np.pi * x) ** 3 * (1.0 + 2.0 * x) * np.sin(np.pi * y) ** 3
    values = EPS + mass / integrate(Field(grid, shape)) * shape
    values[grid.boundary_mask] = EPS
    return Field(grid, values)


# Canonical mass-1.5 blow-ups whose CG start fits on every 13th (33x57), every
# 11th (41^2) and every 48th (81^2) interior row.  Measured: 357 steps, 1
# factorization and 96 CG iterations on the torsion profile at 33x57; 364
# steps on the asymmetric data, with 5 factorizations and 1015 iterations at
# 41^2 (974 with the start fitted on every row) and 8 and 1059 at 81^2.  The
# pins are the counts measured when the start was fitted through a QR of the
# sampled rows, 1 to 4 above these.  No start fell back to the newest state.
@pytest.mark.parametrize("shape, asymmetric, factorizations, iterations", [
    ((33, 57), False, 1, 97),
    ((41, 41), True, 5, 1019),
    ((81, 81), True, 8, 1060),
], ids=["torsion-33x57", "asymmetric-41", "asymmetric-81"])
def test_2d_canonical_run_holds_its_cg_iterations_on_a_sampled_start(
        shape, asymmetric, factorizations, iterations):
    g = build_grid(2, [1.0, 1.0], list(shape))
    tor = rd.solve_torsion(g)
    u0 = _asymmetric_data(g, 1.5) if asymmetric else rd.torsion_profile(g, 1.5, EPS, tor)
    params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=1e-4,
                             reaction_cap_c=0.015, snapshot_stride=20)
    result = rd.run(u0, params, tor)
    assert result.outcome == "BlowUp"
    assert result.factorizations <= factorizations
    assert 0 < result.cg_iterations <= iterations
    assert result.start_fallbacks == 0


def test_solve_counters_are_zero_in_1d(run_decay):
    assert run_decay.factorizations == 0
    assert run_decay.cg_iterations == 0
    assert run_decay.start_fallbacks == 0


def test_explicit_and_semi_implicit_agree_on_smooth_run(grid201, torsion201,
                                                       monkeypatch):
    u0 = rd.torsion_profile(grid201, 0.5, EPS, torsion201)
    params = rd.SolverParams(epsilon=EPS, t_end=0.1, dt_init=1e-5, dt_min=1e-5,
                             dt_max=1e-5)
    a = rd.run(u0, params, torsion201)
    b = run_forward_euler(u0, params, torsion201, monkeypatch)
    a_final, b_final = a.snapshots[-1][1].values, b.snapshots[-1][1].values
    diff = np.max(np.abs(a_final - b_final))
    assert diff <= 1e-4 * float(np.max(a_final))


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
    at_end = SolverState(params.t_end, result.snapshots[-1][1].values, 1e-2, 0.0, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        step(at_end, params, _Workspace(g))


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
    "canonical-0.5": "60a2005d3946f555c6a5376dced229fda703377ae7786f71b79bbbc6ffc90a5c",
    "canonical-1.5": "b76d01341e1ba949b1ba85e9c2c7d63e0913577b1adb8855bfdc08f66c775b09",
    "default-1.5": "15c0c0f0ea1bd51c7528863445bc6bd85c2d37303c533262b9d07b6a2138cc77",
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
    atomic_write_text(str(path), result.trace.to_csv)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACES[name], (
        f"trace.csv of the {name} run changed ({digest}). Update GOLDEN_TRACES "
        "only together with a CHANGES.md note that gives the size of the drift "
        "and its reason.")


class _CountingWeights(np.ndarray):
    """Quadrature weights that record every ufunc applied to them."""

    uses: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.uses.append(ufunc.__name__)
        inputs = [x.view(np.ndarray) if isinstance(x, _CountingWeights) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_run_integrates_once_per_trace_row(grid201, torsion201):
    # run takes the mass from the grid's quadrature weights, once per state
    weights = grid201.quad_weights.copy().view(_CountingWeights)
    weights.uses = []
    grid = replace(grid201, quad_weights=weights)
    u0 = Field(grid, rd.torsion_profile(grid201, 1.5, EPS, torsion201).values)
    result = rd.run(u0, rd.SolverParams(epsilon=EPS, t_end=5.0), torsion201)
    assert len(result.trace) > 50
    assert weights.uses == ["multiply"] * len(result.trace)
    assert len(result.trace) == result.steps + 1


@pytest.mark.parametrize("dimension, n", [(1, 201), (2, 21)])
def test_trace_rows_are_the_reductions_of_the_stored_states(dimension, n):
    # with a snapshot per state, every row is bitwise the mesh and elliptic
    # reductions of the state stored beside it
    grid = build_grid(dimension, [1.0] * dimension, [n] * dimension)
    tor = rd.solve_torsion(grid)
    u0 = rd.torsion_profile(grid, 1.5, EPS, tor)
    result = rd.run(u0, rd.SolverParams(epsilon=EPS, t_end=5.0, snapshot_stride=1),
                    tor)
    trace = result.trace
    assert result.outcome == "BlowUp"
    assert len(result.snapshots) == len(trace) > 30
    for i, (t, field) in enumerate(result.snapshots):
        assert t == trace.t[i]
        assert trace.mass[i] == integrate(field)
        assert trace.energy[i] == dirichlet_energy(field, EPS)
        assert trace.sup_norm[i] == float(field.values.max())
        assert trace.phi_norm[i] == phi_weighted_sup(field.values - EPS, tor)


@pytest.mark.parametrize("config", [
    "grid.n = 201\ninit.mass = 1.5\n",
    "grid.dimension = 2\ngrid.n = 21 21\ninit.mass = 1.5\n",
], ids=["1d", "2d21"])
def test_run_calls_step_by_name_once_per_step(config, tmp_path, monkeypatch):
    # the benchmark's traced pass counts solver.step calls through the
    # module's global name and expects trace rows - 1 of them
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "step", counting)
    code, summary = run_experiment(parse_config(config), str(tmp_path))
    trace = rd.Trace.from_csv(tmp_path / "trace.csv")
    assert summary["outcome"] == "BlowUp"
    assert len(calls) == len(trace) - 1 == summary["steps"] > 30
