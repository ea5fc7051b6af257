"""replidyn: degenerate diffusion with a nonlocal gradient source, at desk scale.

A numpy/scipy library for simulating

    u_t = u * (Lap u + ∫ |grad u|^2),   u = 0 on the boundary,

through its epsilon-regularization, together with a verification harness for
the analytical estimates that govern it: the mass trichotomy (decay,
conservation, finite-time blow-up by total initial mass), the torsion-weighted
sup bounds, the boundary-concentration and gradient-growth estimates, global
blow-up of supercritical solutions, and the finite-strategy replicator
dynamics the equation arises from.
"""

from .blowup import BlowupReport, blowup_set_estimate, estimate_tmax
from .config import ConfigError, ExperimentConfig, SweepSpec, parse_config
from .diagnostics import (Trace, boundary_concentration, gradient_bound_check,
                          h_identity_check, mass_ode_residual,
                          phi_norm_bound_check)
from .elliptic import (TorsionSolution, measure_poincare_constant,
                       solve_torsion, solve_torsion_subdomain)
from .experiment import run_experiment, run_sweep
from .initdata import torsion_profile
from .mesh import (Field, Grid, build_grid, dirichlet_energy, integrate,
                   laplacian, read_snapshots, write_snapshots)
from .replicator import (PayoffMatrix, SimplexState, integrate_replicator,
                         payoff_matrix_from_laplacian, replicator_rhs)
from .solver import (SimulationResult, SolverParams, SolverState, rho_eps, run,
                     step)

__version__ = "0.1.0"
