"""Rectangular grids, the Dirichlet Laplacian, and quadrature.

Everything downstream (torsion solves, the time stepper, the verification
checks) runs on the uniform node grids built here.  Integrals use trapezoid
weights.  The Dirichlet Laplacian (3 points in 1D, 5 in 2D) is assembled
once, by ``dirichlet_laplacian``, as a sparse matrix on the interior nodes;
the torsion solve, the time step and ``laplacian`` all use that one matrix.
The discrete gradient lives on the grid edges: ``edge_differences`` gives the
forward difference along each axis and ``edge_means`` the value at each edge
midpoint.  The Dirichlet energy sums the squared edge differences over every
edge of every axis, times the cell volume; in 1D and in 2D that makes it the
exact summation-by-parts partner of the Laplacian under the trapezoid
weights, Σ w·u·Δ_h u = −E_h(u) for u constant on the boundary.  Edges
touching the boundary always use the known boundary value, never
extrapolation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# edge_differences, edge_means and trapezoid_weights are public but not listed:
# __all__ names the entry points of the grid layer, which bench/tracer.py wraps
# in one span per call, and a span inside every 1D energy evaluation would add
# about 5 us to its 7.5 us.
__all__ = [
    "Grid",
    "Field",
    "build_grid",
    "integrate",
    "dirichlet_laplacian",
    "laplacian",
    "dirichlet_energy",
    "edge_energy",
    "gradient_inner",
    "distance_to_boundary",
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

    return Grid(dimension, extents, n, h, axes, boundary, trapezoid_weights(n, h))


def trapezoid_weights(n, h) -> np.ndarray:
    """Product trapezoid weights of a box with n[k] nodes at spacing h[k] per
    axis: half weight on the outermost layer of each axis."""
    weights_1d = []
    for k, step in zip(n, h):
        w = np.full(k, step)
        w[0] = w[-1] = 0.5 * step
        weights_1d.append(w)
    return functools.reduce(np.multiply.outer, weights_1d)


def integrate(f: Field) -> float:
    """Trapezoid-weighted integral over the domain."""
    if not np.isfinite(f.values).all():
        raise ValueError("cannot integrate a field with non-finite values")
    return float((f.grid.quad_weights * f.values).sum())


def _with_boundary(f: Field, boundary_value: float) -> np.ndarray:
    v = f.values.copy()
    v[f.grid.boundary_mask] = boundary_value
    return v


# the cache wrapper is not a plain function, so bench/tracer.py leaves it
# unwrapped: a span recorded only on a cache miss would differ between passes
@functools.lru_cache(maxsize=16)
def dirichlet_laplacian(shape: tuple[int, ...],
                        h: tuple[float, ...]) -> tuple[sp.csr_matrix, np.ndarray]:
    """The Dirichlet Laplacian (3 points in 1D, 5 in 2D) of a box with
    ``shape`` nodes at spacing ``h``, as ``(A, bc)`` on the interior nodes in
    row-major order.

    ``A = -Δ_h`` is symmetric positive definite, and ``bc`` couples each
    interior node to the boundary: ``1/h_k²`` per boundary neighbour along
    axis k, so ``Δ_h u = b·bc - A @ u_int`` when u equals the constant b on
    the boundary.  ``bc`` is the row sum ``A @ 1`` taken per axis, where it is
    exact, so it is zero at every node with no boundary neighbour.  Built once
    per (shape, h) and process; the pair is shared, and ``bc`` is read-only.
    """
    blocks = []
    for k, step in zip(shape, h):
        m = k - 2
        main = np.full(m, 2.0 / step**2)
        off = np.full(m - 1, -1.0 / step**2)
        blocks.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    row_sums = [b @ np.ones(b.shape[0]) for b in blocks]
    bc = functools.reduce(np.add.outer, row_sums).ravel()
    bc.flags.writeable = False
    if len(blocks) == 1:
        return blocks[0], bc
    ax, ay = blocks
    ix = sp.identity(ax.shape[0], format="csr")
    iy = sp.identity(ay.shape[0], format="csr")
    return (sp.kron(ax, iy) + sp.kron(ix, ay)).tocsr(), bc


def laplacian(f: Field, boundary_value: float) -> Field:
    """Δ_h f on the interior nodes, with f equal to ``boundary_value`` on the
    boundary; boundary nodes of the output are zero (the time stepper pins
    them separately)."""
    grid = f.grid
    a, _ = dirichlet_laplacian(grid.shape, grid.h)
    core = (slice(1, -1),) * grid.dimension
    out = np.zeros(grid.shape)
    out[core] = (a @ (boundary_value - f.values[core].ravel())).reshape(out[core].shape)
    return Field(grid, out)


def _edge_ends(dimension: int, axis: int) -> tuple[tuple, tuple]:
    """Index tuples of the upper and lower end nodes of the edges along one
    axis, for one field or a stack of fields along leading axes."""
    hi = [Ellipsis] + [slice(None)] * dimension
    lo = list(hi)
    hi[axis + 1] = slice(1, None)
    lo[axis + 1] = slice(None, -1)
    return tuple(hi), tuple(lo)


# built once per dimension: the 1D time step evaluates the energy every step
_EDGE_ENDS = {d: [_edge_ends(d, axis) for axis in range(d)] for d in (1, 2)}


def edge_differences(v: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Forward difference along each axis, one array of edge values per axis,
    of one field or of a stack of fields along a leading axis."""
    return [(v[hi] - v[lo]) / step
            for (hi, lo), step in zip(_EDGE_ENDS[grid.dimension], grid.h)]


def edge_means(v: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Mean of the two end nodes of every edge, one array per axis, of one
    field or of a stack of fields along a leading axis."""
    return [0.5 * (v[hi] + v[lo]) for hi, lo in _EDGE_ENDS[grid.dimension]]


def dirichlet_energy(f: Field, boundary_value: float) -> float:
    """Integral of |grad f|^2: the squared edge differences summed over every
    edge of every axis, times the cell volume.

    The edges touching the boundary are included, with the prescribed
    boundary value at boundary nodes.
    """
    return edge_energy(_with_boundary(f, boundary_value), f.grid)


def edge_energy(v: np.ndarray, grid: Grid) -> float:
    """:func:`dirichlet_energy` of full-grid values whose boundary nodes
    already hold the boundary value, as the time stepper's states do."""
    if not np.isfinite(v).all():
        raise ValueError("cannot evaluate the energy of a non-finite field")
    total = sum((g * g).sum() for g in edge_differences(v, grid))
    return float(total * math.prod(grid.h))


def gradient_inner(f: Field, g: Field, bv_f: float = 0.0, bv_g: float = 0.0) -> float:
    """Integral of grad f . grad g with the same edge sum as
    :func:`dirichlet_energy`."""
    if f.grid is not g.grid and f.grid.shape != g.grid.shape:
        raise ValueError("fields live on different grids")
    gf = edge_differences(_with_boundary(f, bv_f), f.grid)
    gg = edge_differences(_with_boundary(g, bv_g), f.grid)
    total = sum(np.sum(a * b) for a, b in zip(gf, gg))
    return float(total * math.prod(f.grid.h))


def distance_to_boundary(grid: Grid) -> np.ndarray:
    """Per-node distance to the boundary of the box (min over axes)."""
    coords = grid.coordinate_arrays()
    dist = np.full(grid.shape, np.inf)
    for axis, (x, ext) in enumerate(zip(coords, grid.extents)):
        dist = np.minimum(dist, np.minimum(x, ext - x))
    return dist


def write_snapshots(fh, snapshots) -> None:
    """Write (t, Field) pairs to an open text file as NDJSON: one record per
    snapshot with keys t, shape, values (row-major)."""
    for t, field in snapshots:
        rec = {"t": float(t), "shape": list(field.grid.shape),
               "values": field.values.ravel().tolist()}
        fh.write(json.dumps(rec) + "\n")


def read_snapshots(path, grid: Grid):
    """Read NDJSON snapshots back as (t, Field) pairs on ``grid`` (shape
    validated)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            values = np.asarray(rec["values"], dtype=float).reshape(rec["shape"])
            out.append((float(rec["t"]), Field(grid, values)))
    return out
