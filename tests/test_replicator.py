"""Replicator dynamics on the simplex, and the method of lines as a game."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import DEEP_EPS, deep_params
from scipy.integrate import solve_ivp

import replidyn as rd
from replidyn.mesh import Field, build_grid, dirichlet_energy, integrate, laplacian
from replidyn.replicator import (PayoffMatrix, SimplexState, integrate_replicator,
                                 payoff_matrix_from_laplacian, replicator_rhs)


def test_rhs_symmetric_fixed_point():
    rhs = replicator_rhs(SimplexState(np.array([0.5, 0.5])), PayoffMatrix(np.eye(2)))
    assert np.array_equal(rhs, np.zeros(2))


def test_rhs_hand_value():
    # (Ap) = (0.75, 0.25), average 0.625
    rhs = replicator_rhs(SimplexState(np.array([0.75, 0.25])), PayoffMatrix(np.eye(2)))
    assert np.array_equal(rhs, np.array([0.09375, -0.09375]))


def test_rhs_components_sum_to_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 8)
        p = rng.random(m)
        p /= p.sum()
        a = rng.standard_normal((m, m))
        rhs = replicator_rhs(SimplexState(p), PayoffMatrix(a))
        assert abs(rhs.sum()) <= 1e-14 * max(1.0, np.abs(rhs).max() * m)


def test_payoff_shift_invariance_exact():
    # dyadic payoffs and frequencies keep the cancellation bit-exact
    p = SimplexState(np.array([0.5, 0.25, 0.25]))
    a = PayoffMatrix(np.array([[1.0, 2.0, 0.0], [0.5, 1.5, 4.0], [2.0, 0.0, 1.0]]))
    shifted = PayoffMatrix(a.a + 2.0)
    assert np.array_equal(replicator_rhs(p, a), replicator_rhs(p, shifted))


def test_simplex_state_validation():
    with pytest.raises(ValueError):
        SimplexState(np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        SimplexState(np.array([1.2, -0.2]))
    # NaN fails both the sign and the sum comparison; a 2-D array is no state
    with pytest.raises(ValueError, match="finite"):
        SimplexState(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        SimplexState(np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="1-D"):
        SimplexState(np.array([[0.5, 0.5]]))


def test_uniform_point_of_constant_game_is_stationary():
    p0 = SimplexState(np.full(4, 0.25))
    payoff = PayoffMatrix(np.full((4, 4), 1.3))
    times, states, clip = integrate_replicator(p0, payoff, 2.0, 0.01)
    assert np.max(np.abs(states - 0.25)) <= 1e-12
    assert clip == 0.0


def test_simplex_invariance_random_games():
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        p0 = rng.random(m)
        p0 /= p0.sum()
        a = rng.standard_normal((m, m))
        times, states, clip = integrate_replicator(SimplexState(p0),
                                                   PayoffMatrix(a), 3.0, 0.005)
        sums = states.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        assert states.min() >= 0.0


def test_coordination_game_matches_scalar_ode_oracle():
    # p1' = p1 (1 - p1) (2 p1 - 1), the winner-take-all logistic mechanism
    p0 = SimplexState(np.array([0.6, 0.4]))
    payoff = PayoffMatrix(np.eye(2))
    times, states, _ = integrate_replicator(p0, payoff, 10.0, 0.01)
    oracle = solve_ivp(lambda t, p: [p[0] * (1 - p[0]) * (2 * p[0] - 1)],
                       [0.0, 10.0], [0.6], t_eval=times, rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(states[:, 0] - oracle.y[0])) <= 1e-4
    assert np.all(np.diff(states[:, 0]) >= -1e-15)  # monotone approach to 1


def test_integrator_rejects_bad_dt():
    p0 = SimplexState(np.array([0.6, 0.4]))
    with pytest.raises(ValueError):
        integrate_replicator(p0, PayoffMatrix(np.eye(2)), 1.0, 0.0)


@pytest.mark.parametrize("t_end, dt", [
    (1.0, 0.3),     # round(t_end/dt) steps ended at t = 0.9
    (1.0, 0.4),     # ... at t = 0.8
    (0.01, 0.03),   # ... took no step
    (1.0, np.nan),
    (np.inf, 0.1),
    (np.nan, 0.1),
])
def test_integrator_refuses_a_dt_that_does_not_reach_t_end(t_end, dt):
    p0 = SimplexState(np.array([0.6, 0.4]))
    with pytest.raises(ValueError) as refused:
        integrate_replicator(p0, PayoffMatrix(np.eye(2)), t_end, dt)
    assert f"t_end={t_end}" in str(refused.value)
    assert f"dt={dt}" in str(refused.value)


def test_integrator_ends_at_t_end_when_dt_divides_it_to_rounding():
    # 3 * 0.1 is 0.30000000000000004, not 0.3: rounding is not refused
    times, _, _ = integrate_replicator(SimplexState(np.array([0.6, 0.4])),
                                       PayoffMatrix(np.eye(2)), 0.3, 0.1)
    assert len(times) == 4 and times[-1] == pytest.approx(0.3, rel=1e-15)


def test_clip_limit_triggers_on_oversized_steps():
    # very stiff anti-coordination payoff with a huge step clips probability
    a = PayoffMatrix(200.0 * (np.ones((2, 2)) - np.eye(2)))
    p0 = SimplexState(np.array([0.999, 0.001]))
    with pytest.raises(ValueError, match="dt too large"):
        integrate_replicator(p0, a, 5.0, 0.5)


def _mass_one_game(grid, u):
    """The Laplacian game's state p = w u on the interior nodes of a full-grid
    u that is zero on the boundary, scaled to mass 1; and that u."""
    u = u / integrate(Field(grid, u))
    core = (slice(1, -1),) * grid.dimension
    return SimplexState((grid.quad_weights * u)[core].ravel()), u


GAME_GRIDS = {"1d-201": (1, [1.0], [201]), "2d-41x41": (2, [1.0, 1.0], [41, 41]),
              "2d-33x57": (2, [1.0, 2.0], [33, 57])}


@pytest.mark.parametrize("spec", GAME_GRIDS.values(), ids=GAME_GRIDS.keys())
def test_laplacian_game_is_the_semi_discrete_pde(spec):
    # p = w u and a = -A W^-1 give a p = Δ_h u and, by summation by parts,
    # p.ap = -E_h(u); so the replicator field is w u (Δ_h u + E_h(u)).
    # Measured: 4.9e-16, 4.8e-16 and 5.2e-16 relative; p.ap + E_h at most 3.5e-16
    grid = build_grid(*spec)
    core = (slice(1, -1),) * grid.dimension
    u = np.zeros(grid.shape)
    u[core] = 0.1 + np.random.default_rng(7).random(u[core].shape)
    p, u = _mass_one_game(grid, u)
    payoff = payoff_matrix_from_laplacian(grid)
    assert payoff.a.shape == (p.p.size, p.p.size)

    energy = dirichlet_energy(Field(grid, u), 0.0)
    pde = ((grid.quad_weights * u) * (laplacian(Field(grid, u), 0.0).values
                                      + energy))[core].ravel()
    rhs = replicator_rhs(p, payoff)
    assert np.max(np.abs(rhs - pde)) <= 1e-14 * np.max(np.abs(pde))
    assert abs(p.p @ payoff.a @ p.p + energy) <= 1e-14 * energy


def test_laplacian_payoff_is_sparse():
    # -A W^-1 has the stencil of A, at most 2d + 1 entries a strategy; held
    # dense at the default 2D grid (201^2) it would be 39,601^2 floats, 12.5 GB
    payoff = payoff_matrix_from_laplacian(build_grid(2, [1.0, 1.0], [41, 41]))
    assert sp.issparse(payoff.a)
    assert payoff.a.nnz <= 5 * payoff.a.shape[0]


@pytest.mark.parametrize("spec", [GAME_GRIDS["1d-201"], GAME_GRIDS["2d-41x41"]],
                         ids=["1d-201", "2d-41x41"])
def test_mass_one_torsion_profile_is_a_rest_point_of_the_laplacian_game(spec):
    # Δ_h φ_h = -1 and E_h(φ_h/C_h) = 1/C_h: every strategy earns the average.
    # Measured max |rhs| / max |p_i (ap)_i|: 3.0e-12 (1D) and 2.3e-13 (41²),
    # the accuracy of the torsion solve
    grid = build_grid(*spec)
    p, _ = _mass_one_game(grid, rd.solve_torsion(grid).phi.values)
    payoff = payoff_matrix_from_laplacian(grid)
    rhs = replicator_rhs(p, payoff)
    assert np.max(np.abs(rhs)) <= 1e-10 * np.max(np.abs(p.p * (payoff.a @ p.p)))


def test_solver_converges_at_first_order_to_the_laplacian_game():
    # mass-1 sin^3 data at eps = 1e-9 on 51 nodes, run to t = 0.05.  The RK4
    # game at dt = 2e-5 is the reference: dt = 4e-5 agrees with it to 7.8e-13
    # relative (dt = 1e-5 to 4.8e-14).  The solver's relative profile error,
    # measured: 1.39e-2, 5.11e-3, 1.58e-3 and 5.32e-4 at c = 0.015, 0.005,
    # 0.0015 and 0.0005, first order in reaction_cap_c
    grid = build_grid(1, [1.0], [51])
    p0, u0 = _mass_one_game(grid, np.sin(np.pi * grid.axes[0]) ** 3)
    payoff = payoff_matrix_from_laplacian(grid)
    w = grid.quad_weights[1:-1]
    _, fine, clip = integrate_replicator(p0, payoff, 0.05, 2e-5)
    _, coarse, _ = integrate_replicator(p0, payoff, 0.05, 4e-5)
    assert clip == 0.0
    assert np.max(np.abs(coarse[-1] - fine[-1])) <= 1e-11 * np.max(fine[-1])
    reference = fine[-1] / w

    torsion = rd.solve_torsion(grid)
    errors = {}
    for c, measured in [(0.015, 1.39e-2), (0.0015, 1.58e-3), (0.0005, 5.32e-4)]:
        result = rd.run(Field(grid, u0 + DEEP_EPS),
                        deep_params(t_end=0.05, reaction_cap_c=c), torsion)
        t, snap = result.snapshots[-1]
        assert result.outcome == "RanToEnd" and t == pytest.approx(0.05, abs=1e-12)
        errors[c] = (np.max(np.abs(snap.values[1:-1] - DEEP_EPS - reference))
                     / np.max(reference))
        assert errors[c] <= 1.25 * measured
    # measured orders: 0.94 from c = 0.015 to 0.0015, 0.99 from 0.0015 to 0.0005
    for big, small in [(0.015, 0.0015), (0.0015, 0.0005)]:
        order = np.log(errors[big] / errors[small]) / np.log(big / small)
        assert 0.85 <= order <= 1.15
