"""Regularized initial data: the torsion profile  eps + s*Phi.

Every run starts from ``torsion_profile``: the torsion function Phi scaled to
a given eps-offset-corrected mass and lifted by eps, which satisfies every
solver-facing invariant (boundary value eps, floor eps) exactly at any
resolution.  The paper's boundary-compatible approximation u0eps of general
data lives in the tests (``tests/conftest.py``), as the oracle of the
epsilon-sequence check.
"""

from __future__ import annotations

from .config import mass_problems, refuse
from .elliptic import TorsionSolution, solve_torsion
from .mesh import Field, Grid

__all__ = ["torsion_profile"]


def torsion_profile(grid: Grid, corrected_mass: float, epsilon: float,
                    torsion: TorsionSolution | None = None) -> Field:
    """Regularized torsion profile  eps + s*Phi  with exact corrected mass.

    This is the initial data of the trichotomy experiments: it satisfies the
    solver invariants (boundary value eps, floor eps) exactly, and its
    eps-offset-corrected mass equals ``corrected_mass`` to roundoff.
    """
    refuse(mass_problems(corrected_mass))
    if torsion is None:
        torsion = solve_torsion(grid)
    scale = corrected_mass / torsion.c_subdomain
    values = epsilon + scale * torsion.phi.values
    values[grid.boundary_mask] = epsilon
    return Field(grid, values)
