"""Blow-up classification: the singular time from the mass law, and the blow-up set.

The corrected mass obeys y' = (y-1) E.  Near blow-up the profile stops
changing, so kappa = y^2/E freezes, and integrating y' = (y-1) y^2/kappa from
a trace row to y = infinity gives that row's singular time in closed form
(exact for torsion data, where kappa is the torsion constant throughout).
Rows where the capped nonlocal coefficient is saturated are excluded: past
saturation the regularized dynamics leave the law by construction (this is
also what makes the estimate insensitive to where the sup cap is placed).

With kappa = C_h, the torsion integral, at the first row it is blowup.csv's
torsion bound T_h(y0): exact for torsion data at eps = 0, and, as E C_h >= y^2
for every grid function, an upper bound of the limit problem for any data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SUBBOX_MARGIN, subbox_nodes
from .diagnostics import Trace
from .elliptic import measure_poincare_constant, solve_torsion

__all__ = [
    "BlowupReport",
    "estimate_tmax",
    "checkpoint_indices",
    "blowup_set_estimate",
    "blowup_metrics",
]

# estimate_tmax needs this many usable rows; blowup_set_estimate compares the
# snapshots nearest these fractions of the last snapshot time, counts a node
# as blowing up once it has grown by GROWTH_THRESHOLD, and reports the least
# growth over config's interior box, SUBBOX_MARGIN inside the boundary.
MIN_TMAX_ROWS = 10
CHECKPOINT_FRACTIONS = (0.5, 0.7, 0.85, 0.95, 1.0)
GROWTH_THRESHOLD = 10.0


def _singular_time(t, y, kappa):
    """t + kappa [ln(y/(y-1)) - 1/y]: where y' = (y-1) y^2/kappa, from corrected
    mass y > 1 at time t, reaches infinity."""
    return t + kappa * (-np.log1p(-1.0 / y) - 1.0 / y)


@dataclass
class BlowupReport:
    blowup_set_fraction: float
    core_min_growth: dict
    checkpoint_times: list
    growth_factors: np.ndarray


def estimate_tmax(trace: Trace):
    """The singular time T_row = t + kappa [ln(y/(y-1)) - 1/y], kappa = y^2/E,
    at the last usable row.

    Usable rows have supercritical corrected mass and an unsaturated nonlocal
    coefficient.  Returns (T_row at the last usable row, the spread of T_row
    over the last quartile of usable rows relative to that value).
    """
    y = trace.corrected_mass
    usable = (y > 1.0) & ~trace.saturated()
    n_usable = int(usable.sum())
    if n_usable < MIN_TMAX_ROWS:
        raise ValueError(f"need at least {MIN_TMAX_ROWS} supercritical "
                         f"unsaturated rows, got {n_usable}")
    k = max(MIN_TMAX_ROWS, n_usable // 4)
    t, y, energy = (a[usable][-k:] for a in (trace.t, y, trace.energy))
    if y[-1] <= y[0]:
        raise ValueError("no blow-up signature: y - 1 does not grow over the tail")
    t_row = _singular_time(t, y, y * y / energy)
    return float(t_row[-1]), float(np.ptp(t_row) / t_row[-1])


def checkpoint_indices(times) -> list[int]:
    """Sorted distinct indices of the first time nearest each checkpoint, the
    CHECKPOINT_FRACTIONS of the last time; on its own picks it keeps them all."""
    checkpoints = [f * t for t in times[-1:] for f in CHECKPOINT_FRACTIONS]
    return sorted({int(np.argmin(np.abs(times - c))) for c in checkpoints})


def blowup_set_estimate(snapshots) -> BlowupReport:
    """Classify interior nodes by their growth along checkpoint times.

    A node blows up when its value is increasing over the final checkpoints
    and its total growth factor reaches GROWTH_THRESHOLD.  Also reports the
    minimum growth factor over the core box SUBBOX_MARGIN inside the boundary
    (global blow-up means the fraction is ~1 and core growth is large).
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots to classify blow-up")
    times = np.array([t for t, _ in snapshots])
    idx = checkpoint_indices(times)
    if len(idx) < 3:
        raise ValueError("checkpoints collapse onto fewer than 3 distinct snapshots")

    grid = snapshots[0][1].grid
    interior = grid.interior_mask
    fields = [snapshots[i][1].values for i in idx]
    base = fields[0]
    growth = [f / base for f in fields]
    final_growth = growth[-1]

    tail = growth[-min(3, len(growth) - 1):]
    increasing = np.ones(grid.shape, dtype=bool)
    for a, b in zip(tail, tail[1:]):
        increasing &= b > a
    blowing = increasing & (final_growth >= GROWTH_THRESHOLD)
    fraction = float(blowing[interior].sum() / interior.sum())

    core = final_growth[np.ix_(*subbox_nodes(grid.extents, grid.n, SUBBOX_MARGIN))]
    core_min = {SUBBOX_MARGIN: float(core.min())} if core.size else {}

    return BlowupReport(
        blowup_set_fraction=fraction, core_min_growth=core_min,
        checkpoint_times=[float(times[i]) for i in idx],
        growth_factors=final_growth,
    )


def blowup_metrics(trace: Trace, snapshots, grid) -> list[tuple[str, float]]:
    """The (metric, value) rows of blowup.csv, for ``run`` and ``replidyn blowup``.

    The singular time and its spread (both left out when the estimate fails), the
    Poincare constant, the torsion bound T_h(y0) for supercritical corrected
    mass y0 at the first row, and the blow-up set fraction and core growth when
    the checkpoint times pick at least 3 distinct snapshots (left out otherwise).
    """
    metrics = []
    try:
        t_est, residual = estimate_tmax(trace)
        metrics += [("t_max_estimate", t_est), ("fit_residual", residual)]
    except ValueError:
        pass
    metrics.append(("poincare_constant", measure_poincare_constant(grid)))
    if (y0 := float(trace.corrected_mass[0])) > 1.0:
        metrics.append(("torsion_blowup_bound", float(_singular_time(
            trace.t[0], y0, solve_torsion(grid).c_subdomain))))
    try:
        report = blowup_set_estimate(snapshots)
    except ValueError:  # fewer than 3 distinct snapshots at the checkpoints
        return metrics
    metrics.append(("blowup_set_fraction", report.blowup_set_fraction))
    metrics += [(f"core_min_growth_{margin:g}", g)
                for margin, g in report.core_min_growth.items()]
    return metrics
