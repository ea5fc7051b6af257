"""Boundary-compatible regularized initial data.

The assembled field equals epsilon on the boundary, dominates epsilon
everywhere, matches the target mass exactly after the epsilon offset, and its
boundary Laplacian equals minus its own Dirichlet energy through the explicit
root C of a quadratic in the construction constants.  Refining epsilon pulls
C toward the Dirichlet energy of the target and the field toward the target
in the Sobolev distance.

Run:  python demos/initial_data.py
"""

import replidyn as rd
from replidyn import initdata as idt
from replidyn.mesh import Field, dirichlet_energy

grid = rd.build_grid(1, [1.0], [801])
torsion = rd.solve_torsion(grid)
u0 = Field(grid, 0.5 * torsion.phi.values)
target = dirichlet_energy(u0, 0.0)
print(f"target data: half the torsion profile, Dirichlet energy {target:.6f}\n")

results = []
for eps in (1e-2, 1e-3, 1e-4):
    res = idt.construct_initial(u0, eps)
    results.append(res)
    print(f"epsilon = {eps:g}: C = {res.C:.6f} "
          f"(gap to target {abs(res.C-target)/target:.2%}), "
          f"alpha = {res.alpha:.2e}, Sobolev distance {res.w12_distance:.4f}")
    for chk in res.report:
        mark = "ok " if chk.passed else "FAIL"
        print(f"    [{mark}] {chk.name:<24} measured {chk.measured:12.4e}")

seq = idt.verify_epsilon_sequence(results, u0)
print()
print(f"gap to the target energy shrinking : {seq['c_gap_decreasing']}")
print(f"mass-correction amplitude shrinking: {seq['alpha_decreasing']}")
print(f"Sobolev distance shrinking         : {seq['w12_decreasing']}")
