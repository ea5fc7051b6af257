"""Audit a completed run against the analytical estimates.

Every run can be checked after the fact: the mass obeys y' = (y-1) E, the
accumulated energy integral equals the log of the excess-mass ratio, the
torsion-weighted norm never beats the energy history, the gradient energy
respects its interior-log bound, and the space-time gradient mass near the
boundary is controlled by the weighted estimate.  The snapshot checks take
their initial data from the first snapshot they are given, and the slacks are
the ones ``replidyn run`` and ``replidyn verify`` judge with.

Run:  python demos/estimate_audit.py
"""

import numpy as np

import replidyn as rd
from replidyn import diagnostics as diag
from replidyn.config import SUBBOX_MARGIN
from replidyn.experiment import BOUND_SLACK, PHI_NORM_SLACK

EPS = 1e-3

grid = rd.build_grid(1, [1.0], [201])
torsion = rd.solve_torsion(grid)
subdomain = rd.solve_torsion_subdomain(grid, SUBBOX_MARGIN)

u0 = rd.torsion_profile(grid, 1.5, EPS, torsion)
params = rd.SolverParams(epsilon=EPS, t_end=5.0, dt_init=1e-4, dt_max=0.05,
                         snapshot_stride=20, reaction_cap_c=0.015)
result = rd.run(u0, params, torsion)
trace = result.trace
pre = trace.sliced(trace.precap_mask(result.sup_cap))
print(f"run: {result.outcome}, {len(trace)} rows, "
      f"{int(trace.saturated().sum())} rows with the nonlocal term saturated")

residuals, mx = diag.mass_ode_residual(pre)
y = pre.corrected_mass
scale = max(np.max(np.abs(np.gradient(y, pre.t))),
            np.max(np.abs((y - 1) * pre.energy)))
print(f"mass growth law   : max residual {mx:.3e} ({mx/scale:.2%} of scale)")

h_acc, log_ratio, gap = diag.h_identity_check(pre)
rel = np.max(gap[1:] / np.maximum(np.abs(log_ratio[1:]), 1e-2))
print(f"log-mass identity : max relative gap {rel:.2%}")

ok = diag.phi_norm_bound_check(pre, tol=PHI_NORM_SLACK)
print(f"weighted-norm bound: {int(ok.sum())}/{len(ok)} rows pass")

keep = [(t, f) for (t, f) in result.snapshots
        if float(np.max(f.values)) < 0.5 * result.sup_cap]
times, ok, lhs, rhs = diag.gradient_bound_check(trace, keep, subdomain,
                                                tol=BOUND_SLACK)
print(f"gradient bound    : {int(np.sum(ok))}/{len(ok)} snapshots pass")

conc = diag.boundary_concentration(result.snapshots, 0.5, SUBBOX_MARGIN, trace)
print(f"boundary weight   : lhs {conc.lhs:.4g} <= bound {conc.bound:.4g}; "
      f"collar energy {conc.collar_energy:.4g} <= {conc.collar_bound:.4g}")
