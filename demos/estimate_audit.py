"""Audit a completed run against the analytical estimates.

Every run can be checked after the fact: the mass obeys y' = (y-1) E, the
accumulated energy integral equals the log of the excess-mass ratio, the
torsion-weighted norm never beats the energy history, the gradient energy
respects its interior-log bound, and the space-time gradient mass near the
boundary is controlled by the weighted estimate.  The script prints the rows
``replidyn run`` writes to diagnostics.csv and ``replidyn verify`` recomputes,
with the windows, scales and slacks those commands judge with.

Run:  python demos/estimate_audit.py
"""

import replidyn as rd
from replidyn.experiment import diagnostics_rows

EPS = 1e-3

grid = rd.build_grid(1, [1.0], [201])
torsion = rd.solve_torsion(grid)

u0 = rd.torsion_profile(grid, 1.5, EPS, torsion)
params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=1e-4, dt_max=0.05,
                         snapshot_stride=20, reaction_cap_c=0.015)
result = rd.run(u0, params, torsion)
print(f"run: {result.outcome}, {len(result.trace)} rows, "
      f"{int(result.trace.saturated().sum())} rows with the nonlocal term saturated")

rows, passed = diagnostics_rows(result.trace, result.snapshots, result.sup_cap)
for check, t, value, bound, ok in rows:
    print(f"{check:<23}: value {value:.4g} against {bound:.4g} at t = {t:.4g} "
          f"({'pass' if ok else 'FAIL'})")
print(f"all checks pass: {passed}")
