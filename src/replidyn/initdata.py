"""Regularized initial data: lifted, boundary-compatible approximations of u0.

Given target data u0 that vanishes on the boundary, is positive inside, and is
dominated by a multiple of the torsion function, ``construct_initial``
assembles

    u0eps = eps + C*(1-rho)*Phi + rho*(phi + alpha*theta)

where Phi is the torsion function, phi is an inward-shifted mollification of
u0, rho is a cutoff vanishing near the boundary and equal to one on the bulk,
and theta is a unit-mass interior bump.  The constant C is the explicit root
of a quadratic assembled from discrete integrals; it makes the Laplacian of
u0eps at the boundary match minus the Dirichlet energy of u0eps, and it
converges to the Dirichlet energy of u0 as the regularization is refined.
alpha is chosen so the assembled field carries mass  ∫u0 + eps*|Omega|,
i.e. its eps-offset-corrected mass equals the mass of u0 exactly.

The collar geometry follows from the grid and eps alone.  The construction
degrades on coarse grids: the cutoff collar cannot shrink below four mesh
cells, so a grid whose collar would exceed 1/16 of the domain is refused, and
for target data with large Dirichlet energy the quadratic loses its real
root.  ``torsion_profile`` provides the direct regularized profile
eps + s*Phi  used by the mass-trichotomy experiments, which satisfies every
solver-facing invariant exactly at any resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .elliptic import TorsionSolution, phi_weighted_sup, solve_torsion
from .mesh import Field, Grid, dirichlet_energy, gradient_inner, integrate

__all__ = [
    "InitDataError",
    "InitDataResult",
    "PropertyCheck",
    "mollify",
    "construct_initial",
    "verify_epsilon_sequence",
    "torsion_profile",
]


class InitDataError(ValueError):
    pass


@dataclass
class PropertyCheck:
    name: str
    measured: float
    threshold: float
    passed: bool


@dataclass
class InitDataResult:
    u0eps: Field
    C: float
    alpha: float
    report: list[PropertyCheck]
    epsilon: float
    w12_distance: float
    headroom: float
    energy: float

    def passed(self) -> bool:
        return all(chk.passed for chk in self.report)


def _hann_kernel(half_width: int) -> np.ndarray:
    j = np.arange(-half_width, half_width + 1)
    w = 1.0 + np.cos(np.pi * j / half_width) if half_width > 0 else np.array([2.0])
    return w / w.sum()


def _blend_weight(x: np.ndarray, band: float, width: float) -> np.ndarray:
    """1 on [0, band], cosine decay to 0 over [band, band+width]."""
    w = np.zeros_like(x)
    w[x <= band] = 1.0
    mid = (x > band) & (x < band + width)
    w[mid] = 0.5 * (1.0 + np.cos(np.pi * (x[mid] - band) / width))
    return w


def _shift_inward_axis(values: np.ndarray, axis: int, grid, shift: float) -> np.ndarray:
    """Blend of copies translated away from both ends of one axis.

    Translation keeps slopes intact, so the boundary-layer gradient energy is
    carried inward rather than destroyed; the blend weights decay to zero
    toward the middle of the axis, leaving the central region untouched.
    """
    ax = grid.axes[axis]
    ext = grid.extents[axis]
    n = grid.n[axis]
    h = grid.h[axis]
    # Small shifts blend deep in the bulk, where the commutator's energy cost
    # (squared slope at the blend location) is smallest; large shifts blend
    # close to the boundary so the translated zone, and with it the distance
    # to the original data, stays small.
    if shift <= 0.08 * ext:
        band, width = 0.25 * ext, 0.2 * ext
    else:
        band = min(1.5 * shift, 0.125 * ext)
        width = min(8.0 * shift, 0.125 * ext)

    k = int(round(shift / h))
    moved = np.moveaxis(values, axis, 0)
    fwd = np.zeros_like(moved)   # translated away from the left end
    bwd = np.zeros_like(moved)   # translated away from the right end
    fwd[k:] = moved[: n - k]
    bwd[: n - k] = moved[k:]

    shape = [1] * values.ndim
    shape[0] = n
    w_left = _blend_weight(ax, band, width).reshape(shape)
    w_right = w_left[::-1]
    out = w_left * fwd + w_right * bwd + (1.0 - w_left - w_right) * moved
    return np.moveaxis(out, 0, axis)


def mollify(u0: Field, radius: float) -> Field:
    """Shift mass inward, then convolve with a normalized raised-cosine bump.

    The inward shift (per-axis blended translation by 2*radius) leaves the
    intermediate field supported at distance >= 2*radius from the boundary;
    the convolution kernel has half-width <= radius, so the result stays
    supported at distance >= radius.  Mass of data supported away from the
    boundary bands is preserved exactly because the discrete kernel sums
    to one and the translation does not touch the bulk.
    """
    from scipy.ndimage import convolve1d  # slow import; only the constructed profile mollifies
    grid = u0.grid
    if radius < min(grid.h) * (1.0 - 1e-12):
        raise InitDataError(
            f"mollification radius {radius} is below the grid spacing {min(grid.h)}"
        )
    shift = 2.0 * radius
    # the blend band must cover the shift on both ends: radius <= extent/16
    if any(shift > 0.125 * ext for ext in grid.extents):
        raise InitDataError(
            f"mollification radius {radius} too large for the domain: "
            f"the inward shift would leave no usable support"
        )

    out = u0.values
    for axis in range(grid.dimension):
        # snap the shift to whole cells so translated values stay exact
        k = max(int(round(shift / grid.h[axis])), 1)
        out = _shift_inward_axis(out, axis, grid, k * grid.h[axis])
    for axis, h in enumerate(grid.h):
        half = int(radius / h + 1e-9)  # never wider than the contract radius
        out = convolve1d(out, _hann_kernel(half), axis=axis,
                         mode="constant", cval=0.0)
    out = np.clip(out, 0.0, None)
    out[grid.boundary_mask] = 0.0
    return Field(grid, out)


def _axis_ramp(d: np.ndarray, start: float, plateau: float) -> np.ndarray:
    """Cosine ramp: 0 for d <= start, 1 for d >= plateau, C^1 in between."""
    out = np.zeros_like(d)
    out[d >= plateau] = 1.0
    mid = (d > start) & (d < plateau)
    out[mid] = 0.5 * (1.0 - np.cos(np.pi * (d[mid] - start) / (plateau - start)))
    return out


def _cutoff_rho(grid: Grid, margin_rho: float) -> Field:
    """Product of per-axis ramps; identically zero within two cells of the
    boundary so boundary-adjacent stencils see the pure torsion profile."""
    values = np.ones(grid.shape)
    coords = grid.coordinate_arrays()
    for x, ext, h in zip(coords, grid.extents, grid.h):
        d = np.minimum(x, ext - x)
        values *= _axis_ramp(d, 2.0 * h, margin_rho)
    return Field(grid, values)


def _interior_bump(grid: Grid, margin: float) -> Field:
    """Product raised-cosine bump on the concentric core box, unit mass."""
    values = np.ones(grid.shape)
    coords = grid.coordinate_arrays()
    for x, ext in zip(coords, grid.extents):
        width = ext - 2.0 * margin
        inside = (x > margin) & (x < ext - margin)
        prof = np.zeros_like(x)
        prof[inside] = (1.0 + np.cos(2.0 * np.pi * (x[inside] - 0.5 * ext) / width)) / width
        values *= prof
    f = Field(grid, values)
    f.values /= integrate(f)
    return f


def _boundary_adjacent_mask(grid: Grid) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.dimension):
        sl = [slice(1, -1)] * grid.dimension
        sl[axis] = 1
        mask[tuple(sl)] = True
        sl[axis] = -2
        mask[tuple(sl)] = True
    return mask


def construct_initial(u0: Field, epsilon: float) -> InitDataResult:
    """Assemble the regularized initial data of u0 at ``epsilon`` and its
    property report.

    The collar geometry shrinks gently as epsilon decreases, down to a floor
    of four cells, so that epsilon-sequences of constructions converge toward
    the target data.  The margins nest: the cutoff rho reaches its plateau at
    ``margin_rho``, the mollified data stays at distance >= margin_rho from
    the boundary, clear of the cutoff ramp, and theta lives inside the
    ``margin_theta`` core.
    """
    grid = u0.grid
    if not (0.0 < epsilon < 1.0):
        raise InitDataError(f"epsilon must lie in (0,1), got {epsilon}")
    v = u0.values
    if np.any(v < 0):
        raise InitDataError("initial data must be nonnegative")
    if np.any(np.abs(v[grid.boundary_mask]) > 0):
        raise InitDataError("initial data must vanish on the boundary")
    if np.min(v[grid.interior_mask]) <= 0.0:
        raise InitDataError(
            "initial data must be strictly positive at interior nodes "
            "(its reciprocal must be locally bounded)"
        )
    scale = max(1.0, 1.0 + 0.25 * math.log10(epsilon / 1e-4))
    margin_rho = 4.0 * max(grid.h) * scale
    # mollify shifts by 2*margin_rho, which must stay within extent/8
    if any(2.0 * margin_rho > 0.125 * ext for ext in grid.extents):
        raise InitDataError(
            f"grid.n = {' '.join(map(str, grid.n))} is too coarse for the constructed "
            f"profile at solver.epsilon = {epsilon:g}: its collar of four cells, "
            f"widened {scale:g}x at this epsilon, must be at most 1/16 of the domain, "
            f"which needs a grid spacing of at most "
            f"{min(grid.extents) / (64.0 * scale):.6g}; raise grid.n, or lower "
            f"solver.epsilon toward 1e-4"
        )
    # the check above keeps margin_rho + 2h below 3/32 of the smallest extent
    margin_theta = 0.15 * min(grid.extents)
    torsion = solve_torsion(grid)
    bound_l = 1.25 * max(phi_weighted_sup(u0, torsion), dirichlet_energy(u0, 0.0))
    phi_t = torsion.phi

    phi = mollify(u0, margin_rho)
    rho = _cutoff_rho(grid, margin_rho)
    theta = _interior_bump(grid, margin_theta)

    one_minus_rho = 1.0 - rho.values
    collar = Field(grid, one_minus_rho * phi_t.values)

    n_theta = dirichlet_energy(theta, 0.0)
    inner_phi_theta = gradient_inner(phi, theta)
    e_phi = dirichlet_energy(phi, 0.0)
    s_collar = integrate(collar)
    mass_defect = integrate(u0) - integrate(phi)

    cellvol = float(np.prod(grid.h))

    def collar_term(factor: np.ndarray, field: np.ndarray) -> float:
        # ∫ factor^2 |grad field|^2 as an edge sum, like the Dirichlet energy,
        # with the factor at the edge midpoints
        return cellvol * float(sum(np.sum(m**2 * (g * g)) for m, g in zip(
            mesh.edge_means(factor, grid), mesh.edge_differences(field, grid))))

    # Quadratic for the boundary-compatibility constant.  The coefficients are
    # consistent with the mass normalization below (corrected mass of the
    # result equals the mass of u0), which removes the explicit epsilon terms
    # that a mass-preserving normalization would carry.
    a_coef = (collar_term(phi_t.values, rho.values)
              + collar_term(one_minus_rho, phi_t.values)
              + n_theta * s_collar**2)
    b_coef = -1.0 - 2.0 * s_collar * inner_phi_theta - 2.0 * s_collar * mass_defect * n_theta
    g_coef = e_phi + 2.0 * mass_defect * inner_phi_theta + mass_defect**2 * n_theta

    disc = b_coef**2 - 4.0 * a_coef * g_coef
    if disc < 0.0:
        raise InitDataError(
            "quadratic has no real root: the data's energy is too large for this "
            "resolution; refine the grid (grid.n) or shrink solver.epsilon"
        )
    c_const = -2.0 * g_coef / (b_coef - math.sqrt(disc))
    if c_const <= 0.0:
        raise InitDataError(f"compatibility constant must be positive, got {c_const:.6g}")

    alpha = mass_defect - c_const * s_collar

    values = (epsilon + c_const * one_minus_rho * phi_t.values
              + rho.values * (phi.values + alpha * theta.values))
    values[grid.boundary_mask] = epsilon
    u0eps = Field(grid, values)

    # the property report
    boundary_err = float(np.max(np.abs(u0eps.values[grid.boundary_mask] - epsilon)))
    floor_err = float(np.min(u0eps.values - epsilon))

    energy = dirichlet_energy(u0eps, epsilon)
    lap = mesh.laplacian(u0eps, epsilon)
    adj = _boundary_adjacent_mask(grid)
    compat = float(np.max(np.abs(lap.values[adj] + energy)) / energy)

    lifted = Field(grid, u0eps.values - epsilon)
    headroom = phi_weighted_sup(lifted, torsion) - bound_l

    core = mesh.distance_to_boundary(grid) >= margin_theta - 1e-12
    c_k = 0.5 * float(np.min(phi.values[core]))
    core_min = float(np.min(u0eps.values[core]))

    diff = Field(grid, u0eps.values - u0.values)
    w12 = math.sqrt(integrate(Field(grid, diff.values**2))
                    + dirichlet_energy(diff, epsilon))

    mass_err = abs(integrate(u0eps) - integrate(u0) - epsilon * grid.volume)
    energy_gap = abs(energy - c_const) / c_const

    report = [
        PropertyCheck("boundary_value", boundary_err, 1e-8, boundary_err <= 1e-8),
        PropertyCheck("positivity_floor", floor_err, -1e-12, floor_err >= -1e-12),
        PropertyCheck("boundary_compatibility", compat, 0.1, compat <= 0.1),
        PropertyCheck("weighted_norm_headroom", headroom, 0.1, headroom <= 0.1),
        PropertyCheck("core_lower_bound", core_min, c_k, core_min >= c_k > 0),
        PropertyCheck("sobolev_distance", w12, math.inf, True),
        PropertyCheck("mass_match", mass_err, 1e-10, mass_err <= 1e-10),
        PropertyCheck("energy_consistency", energy_gap, 0.05, energy_gap <= 0.05),
    ]
    return InitDataResult(u0eps=u0eps, C=c_const, alpha=alpha, report=report,
                          epsilon=epsilon, w12_distance=w12, headroom=headroom,
                          energy=energy)


def verify_epsilon_sequence(results: list[InitDataResult], u0: Field) -> dict:
    """Convergence along a decreasing-epsilon family of constructions.

    Expects results ordered by decreasing epsilon; reports whether the gap of
    C to the Dirichlet energy of u0, |alpha|, and the Sobolev distance to u0
    all shrink along the sequence.
    """
    if len(results) < 2:
        raise InitDataError("need at least two results to check a sequence")
    eps_list = [r.epsilon for r in results]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InitDataError("results must be ordered by strictly decreasing epsilon")
    target = dirichlet_energy(u0, 0.0)
    gaps = [abs(r.C - target) / target for r in results]
    alphas = [abs(r.alpha) for r in results]
    dists = [r.w12_distance for r in results]
    return {
        "epsilons": eps_list,
        "target_energy": target,
        "c_values": [r.C for r in results],
        "c_gaps": gaps,
        "alphas": alphas,
        "w12_distances": dists,
        "c_gap_decreasing": all(b < a for a, b in zip(gaps, gaps[1:])),
        "alpha_decreasing": all(b < a for a, b in zip(alphas, alphas[1:])),
        "w12_decreasing": all(b < a for a, b in zip(dists, dists[1:])),
    }


def torsion_profile(grid: Grid, corrected_mass: float, epsilon: float,
                    torsion: TorsionSolution | None = None) -> Field:
    """Regularized torsion profile  eps + s*Phi  with exact corrected mass.

    This is the initial data of the trichotomy experiments: it satisfies the
    solver invariants (boundary value eps, floor eps) exactly, and its
    eps-offset-corrected mass equals ``corrected_mass`` to roundoff.
    """
    if corrected_mass <= 0:
        raise InitDataError(f"corrected mass must be positive, got {corrected_mass}")
    if torsion is None:
        torsion = solve_torsion(grid)
    scale = corrected_mass / integrate(torsion.phi)
    values = epsilon + scale * torsion.phi.values
    values[grid.boundary_mask] = epsilon
    return Field(grid, values)
