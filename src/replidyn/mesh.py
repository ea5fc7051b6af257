"""Rectangular grids, finite-difference stencils, and quadrature.

Everything downstream (torsion solves, the time stepper, the verification
checks) runs on the uniform node grids built here.  Integrals use trapezoid
weights, the Laplacian is the second-order central stencil, and the Dirichlet
energy integral uses first-order forward differences per cell with midpoint
quadrature.  Gradients in the cells touching the boundary always use the known
boundary value, never extrapolation, so the energy near the boundary is not
under-counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "build_grid",
    "integrate",
    "laplacian",
    "dirichlet_energy",
    "gradient_inner",
    "distance_to_boundary",
    "cell_distance_to_boundary",
    "write_snapshots",
    "read_snapshots",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on an interval or an axis-aligned box.

    ``boundary_mask`` flags exactly the outermost node layer and
    ``quad_weights`` are product trapezoid weights (half weight on the
    boundary layer), so ``quad_weights.sum()`` equals the domain measure.
    """

    dimension: int
    extents: tuple[float, ...]
    n: tuple[int, ...]
    h: tuple[float, ...]
    axes: tuple[np.ndarray, ...]
    boundary_mask: np.ndarray
    quad_weights: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Node coordinates broadcast to the full grid shape, one per axis."""
        return list(np.meshgrid(*self.axes, indexing="ij"))


@dataclass
class Field:
    """Scalar nodal values on a grid (densities, cutoffs, torsion functions)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def build_grid(dimension: int, extents, n) -> Grid:
    """Build a uniform grid on (0, extents) per axis with n nodes per axis."""
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    extents = tuple(float(e) for e in np.atleast_1d(extents))
    n = tuple(int(k) for k in np.atleast_1d(n))
    if len(extents) != dimension or len(n) != dimension:
        raise ValueError(
            f"expected {dimension} extents and node counts, got {extents} and {n}"
        )
    if any(e <= 0.0 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if any(k < 3 for k in n):
        raise ValueError(f"need at least 3 nodes per axis, got {n}")

    h = tuple(e / (k - 1) for e, k in zip(extents, n))
    axes = tuple(np.linspace(0.0, e, k) for e, k in zip(extents, n))

    boundary = np.zeros(n, dtype=bool)
    for axis in range(dimension):
        sl = [slice(None)] * dimension
        sl[axis] = 0
        boundary[tuple(sl)] = True
        sl[axis] = -1
        boundary[tuple(sl)] = True

    weights_1d = []
    for k, step in zip(n, h):
        w = np.full(k, step)
        w[0] = w[-1] = 0.5 * step
        weights_1d.append(w)
    quad = weights_1d[0]
    for w in weights_1d[1:]:
        quad = np.multiply.outer(quad, w)

    return Grid(dimension, extents, n, h, axes, boundary, quad)


def integrate(f: Field) -> float:
    """Trapezoid-weighted integral over the domain."""
    if not np.isfinite(f.values).all():
        raise ValueError("cannot integrate a field with non-finite values")
    return float((f.grid.quad_weights * f.values).sum())


def _with_boundary(f: Field, boundary_value: float) -> np.ndarray:
    v = f.values.copy()
    v[f.grid.boundary_mask] = boundary_value
    return v


def laplacian(f: Field, boundary_value: float) -> Field:
    """Central-stencil Laplacian on interior nodes; boundary nodes of the
    output are zero (the time stepper pins them separately)."""
    grid = f.grid
    v = _with_boundary(f, boundary_value)
    out = np.zeros_like(v)
    core = tuple(slice(1, -1) for _ in range(grid.dimension))
    for axis, step in enumerate(grid.h):
        lo = [slice(1, -1)] * grid.dimension
        hi = [slice(1, -1)] * grid.dimension
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out[core] += (v[tuple(hi)] - 2.0 * v[core] + v[tuple(lo)]) / step**2
    return Field(grid, out)


def _cell_gradients(v: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Forward-difference gradient components at cell midpoints."""
    if grid.dimension == 1:
        return [(v[1:] - v[:-1]) / grid.h[0]]
    hx, hy = grid.h
    gx = 0.5 * ((v[1:, :-1] + v[1:, 1:]) - (v[:-1, :-1] + v[:-1, 1:])) / hx
    gy = 0.5 * ((v[:-1, 1:] + v[1:, 1:]) - (v[:-1, :-1] + v[1:, :-1])) / hy
    return [gx, gy]


def _cell_mean(v: np.ndarray, grid: Grid) -> np.ndarray:
    if grid.dimension == 1:
        return 0.5 * (v[1:] + v[:-1])
    return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


def _cell_volume(grid: Grid) -> float:
    return math.prod(grid.h)


def dirichlet_energy(f: Field, boundary_value: float) -> float:
    """Integral of |grad f|^2 from per-cell forward differences.

    The cells adjacent to the boundary are included, with the prescribed
    boundary value at boundary nodes.
    """
    grid = f.grid
    v = _with_boundary(f, boundary_value)
    if not np.isfinite(v).all():
        raise ValueError("cannot evaluate the energy of a non-finite field")
    grads = _cell_gradients(v, grid)
    total = sum((g * g).sum() for g in grads)
    return float(total * _cell_volume(grid))


def gradient_inner(f: Field, g: Field, bv_f: float = 0.0, bv_g: float = 0.0) -> float:
    """Integral of grad f . grad g with the same cell quadrature as
    :func:`dirichlet_energy`."""
    if f.grid is not g.grid and f.grid.shape != g.grid.shape:
        raise ValueError("fields live on different grids")
    vf = _with_boundary(f, bv_f)
    vg = _with_boundary(g, bv_g)
    gf = _cell_gradients(vf, f.grid)
    gg = _cell_gradients(vg, f.grid)
    total = sum(np.sum(a * b) for a, b in zip(gf, gg))
    return float(total * _cell_volume(f.grid))


def distance_to_boundary(grid: Grid) -> np.ndarray:
    """Per-node distance to the boundary of the box (min over axes)."""
    coords = grid.coordinate_arrays()
    dist = np.full(grid.shape, np.inf)
    for axis, (x, ext) in enumerate(zip(coords, grid.extents)):
        dist = np.minimum(dist, np.minimum(x, ext - x))
    return dist


def cell_distance_to_boundary(grid: Grid) -> np.ndarray:
    """Distance to the boundary evaluated at cell midpoints."""
    centers = [0.5 * (ax[1:] + ax[:-1]) for ax in grid.axes]
    if grid.dimension == 1:
        x = centers[0]
        return np.minimum(x, grid.extents[0] - x)
    cx, cy = np.meshgrid(*centers, indexing="ij")
    return np.minimum(
        np.minimum(cx, grid.extents[0] - cx), np.minimum(cy, grid.extents[1] - cy)
    )


def write_snapshots(path, snapshots, extra: dict | None = None) -> None:
    """Write (t, Field) pairs as NDJSON: one record per snapshot with keys
    t, shape, values (row-major)."""
    with open(path, "w") as fh:
        for t, field in snapshots:
            rec = {"t": float(t), "shape": list(field.grid.shape),
                   "values": [float(x) for x in field.values.ravel()]}
            if extra:
                rec.update(extra)
            fh.write(json.dumps(rec) + "\n")


def read_snapshots(path, grid: Grid | None = None):
    """Read NDJSON snapshots back as (t, Field|ndarray) pairs.

    With a grid the values are wrapped into Fields (shape validated);
    without one, raw arrays are returned.
    """
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            values = np.asarray(rec["values"], dtype=float).reshape(rec["shape"])
            if grid is not None:
                out.append((float(rec["t"]), Field(grid, values)))
            else:
                out.append((float(rec["t"]), values))
    return out
