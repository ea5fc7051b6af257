"""Finite-time blow-up is global: every interior point explodes.

At epsilon = 1e-9 the capped nonlocal coefficient stays on its linear branch
all the way to a sup norm of 1e4, so the run traverses the genuine blow-up
regime.  The script estimates the singular time from the mass law at the
last unsaturated trace row, compares it against the Poincare-based upper
bound, and classifies the blow-up set from snapshot growth factors.

Run:  python demos/global_blowup.py
"""

import replidyn as rd
from replidyn import blowup
from replidyn.config import SUBBOX_MARGIN

grid = rd.build_grid(1, [1.0], [201])
torsion = rd.solve_torsion(grid)

u0 = rd.torsion_profile(grid, 1.5, 1e-9, torsion)
params = rd.SolverParams(epsilon=1e-9, dt_init=1e-5, dt_max=0.05, t_end=5.0,
                         sup_cap=1e4, snapshot_stride=20, reaction_cap_c=0.015)
result = rd.run(u0, params, torsion)

print(f"outcome: {result.outcome} at t_last = {result.t_last:.6f}")
t_max, spread = blowup.estimate_tmax(result.trace)
print(f"singular time estimate: {t_max:.6f} "
      f"(relative spread over the last quartile of rows {spread:.2e})")

c_p = rd.measure_poincare_constant(grid)
bound = blowup.poincare_blowup_bound(1.5, c_p, grid.volume)
print(f"Poincare upper bound on the blow-up time: {bound:.4f} "
      f"(estimate below it: {t_max <= bound})")

report = blowup.blowup_set_estimate(result.snapshots)
print(f"fraction of interior nodes blowing up: {report.blowup_set_fraction:.4f}")
print(f"minimum growth factor over the margin-{SUBBOX_MARGIN:g} core: "
      f"{report.core_min_growth[SUBBOX_MARGIN]:.1f}")
print()
print("Growth factors by position (boundary-adjacent nodes grow too -- the")
print("blow-up set is the whole domain):")
x = grid.axes[0]
for i in (1, 5, 20, 50, 100):
    print(f"  x = {x[i]:.3f}: u grew {report.growth_factors[i]:10.1f}x "
          f"over the checkpoint window")
