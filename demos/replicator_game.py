"""From finite games to degenerate diffusion.

The simplex ODE rewards strategies that beat the population average.  The
method of lines for  u_t = u (Δu + ∫|∇u|²)  is such a game, exactly: one
strategy per interior node, frequencies p = w u (w the trapezoid weights, so
p lies on the simplex at mass 1), and the payoff a = -A W^-1 built from the
discrete Laplacian.  Then p.ap = -E_h(u) by summation by parts, and the
replicator field equals the semi-discrete PDE  w u (Δ_h u + E_h(u))  to
roundoff.  The script exits 1 if it does not.

Run:  python demos/replicator_game.py
"""

import sys

import numpy as np

import replidyn as rd
from replidyn.mesh import Field

# a 2-strategy coordination game: the initially more popular strategy wins
p0 = rd.SimplexState(np.array([0.6, 0.4]))
payoff = rd.PayoffMatrix(np.eye(2))
times, states, clipped = rd.integrate_replicator(p0, payoff, 10.0, 0.01)
print("coordination game, p0 = (0.6, 0.4):")
for k in (0, 100, 300, 600, 1000):
    print(f"  t = {times[k]:5.2f}: p = ({states[k,0]:.4f}, {states[k,1]:.4f})")
print(f"  probability clipped during integration: {clipped:g}\n")

# payoff-shift invariance: adding a constant to every payoff changes nothing
p = rd.SimplexState(np.array([0.5, 0.25, 0.25]))
a = rd.PayoffMatrix(np.array([[1.0, 2.0, 0.0], [0.5, 1.5, 4.0], [2.0, 0.0, 1.0]]))
same = np.array_equal(rd.replicator_rhs(p, a),
                      rd.replicator_rhs(p, rd.PayoffMatrix(a.a + 7.0)))
print(f"payoff-shift invariance of the dynamics: {same}\n")

# the Laplacian game against the semi-discrete PDE, and the torsion rest point
rng = np.random.default_rng(0)
worst = 0.0
print("Laplacian game vs w u (Δ_h u + E_h(u)), random positive u at mass 1:")
for dimension, extents, n in [(1, [1.0], [201]), (2, [1.0, 1.0], [41, 41]),
                              (2, [1.0, 2.0], [33, 57])]:
    grid = rd.build_grid(dimension, extents, n)
    core = (slice(1, -1),) * dimension
    w = grid.quad_weights[core].ravel()
    game = rd.payoff_matrix_from_laplacian(grid)

    u = np.zeros(grid.shape)
    u[core] = 0.1 + rng.random(u[core].shape)
    u /= rd.integrate(Field(grid, u))
    state = rd.SimplexState(w * u[core].ravel())
    energy = rd.dirichlet_energy(Field(grid, u), 0.0)
    pde = state.p * (rd.laplacian(Field(grid, u), 0.0).values[core].ravel() + energy)
    defect = np.max(np.abs(rd.replicator_rhs(state, game) - pde)) / np.max(np.abs(pde))
    worst = max(worst, defect)

    phi = rd.solve_torsion(grid).phi
    rest = rd.SimplexState(w * (phi.values / rd.integrate(phi))[core].ravel())
    speed = np.max(np.abs(rd.replicator_rhs(rest, game)))
    print(f"  {' x '.join(map(str, n)):>7} nodes, {w.size:4d} strategies: "
          f"relative defect {defect:.1e}; torsion profile phi_h/C_h moves at "
          f"|p'| <= {speed:.1e}")

print("the replicator game is the method of lines at eps = 0."
      if worst <= 1e-14 else f"identity missed roundoff: {worst:.1e}")
sys.exit(0 if worst <= 1e-14 else 1)
