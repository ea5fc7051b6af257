"""Experiment orchestration: config -> pipeline -> artifacts on disk.

A run starts from the torsion profile of its mass, then executes the
solver, the estimate checks, and blow-up classification, writing

    trace.csv, snapshots.ndjson, diagnostics.csv, blowup.csv (blow-up runs),
    summary.json

into its output directory; every snapshot time is a row of trace.csv, and
the initial data is the first record of snapshots.ndjson, where the checks
read it.  Every file goes through
``atomic_write_text`` (a fresh file, then os.replace), and every LF-terminated
CSV is rendered by ``csv_text``.
Exit codes: 0 complete, 1 module error, 2 a diagnostic failed its tolerance.
Sweeps run their configurations one after another on the calling thread;
per-run outputs are deterministic and independent of the sweep's parallelism.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import uuid

import numpy as np

from . import diagnostics as diag
from .blowup import blowup_metrics
from .config import (SUBBOX_MARGIN, ExperimentConfig, SweepSpec, solver_settings,
                     sweep_tag)
from .elliptic import solve_torsion, solve_torsion_subdomain
from .initdata import torsion_profile
from .mesh import build_grid, write_snapshots
from .solver import SolverParams, run

__all__ = ["run_experiment", "run_sweep", "atomic_write_text", "csv_text",
           "output_dir", "diagnostics_rows"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
DIAGNOSTICS_HEADER = ["check", "t", "value", "bound", "pass"]
CHECKS = ("mass_ode", "h_identity", "phi_norm", "gradient_bound",
          "boundary_concentration")
# The audit's fixed tolerances and slacks, and the exponent q of the boundary
# concentration estimate: properties of the harness, not of a run.
MASS_ODE_TOL = 0.05
H_IDENTITY_TOL = 0.05
PHI_NORM_SLACK = 0.05
BOUND_SLACK = 0.1
CONCENTRATION_Q = 0.5


def output_dir(cfg: ExperimentConfig, suffix: str = "") -> str:
    """output.dir (plus ``suffix``) under REPLIDYN_OUT, else under the cwd."""
    return os.path.join(os.environ.get("REPLIDYN_OUT", "."), cfg["output.dir"] + suffix)


def atomic_write_text(path: str, content) -> None:
    """The one writer of artifacts: a fresh file beside ``path``, then os.replace.

    ``content`` is the text, or a function that writes it to the open file.
    The file is opened with newline="", so the bytes on disk are the text as
    given, and created with mode 0o666 less the umask, as open() would.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows) -> str:
    """The one renderer of the LF-terminated CSV artifacts: comma-joined
    str() of each cell, so Python floats print as their repr."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def diagnostics_rows(trace, snapshots, sup_cap: float, checks=None):
    """Evaluate the estimate checks; returns (rows, all_passed).

    Rows follow the verify CSV contract (DIAGNOSTICS_HEADER): check, t, value,
    bound as Python floats, and pass; all_passed is every row's pass.  Each
    snapshot time is a trace row, and the first snapshot a check is given is
    its initial data (for the gradient bound, the first below half the cap).
    Identity checks are evaluated on rows where the capped coefficient is
    unsaturated and the sup norm is below half the run's blow-up cap
    ``sup_cap``; past that window the regularized dynamics leave the regime
    the statements address.
    """
    checks = checks or CHECKS
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid checks: {list(CHECKS)}")
    rows: list[list] = []

    pre = trace.precap_mask(sup_cap)
    pre_trace = trace.sliced(pre) if pre.sum() >= 3 else trace

    if "mass_ode" in checks:
        residuals, _ = diag.mass_ode_residual(pre_trace)
        y = pre_trace.corrected_mass
        scale = max(float(np.max(np.abs(np.gradient(y, pre_trace.t)))),
                    float(np.max(np.abs((y - 1.0) * pre_trace.energy))), 1e-12)
        value = float(residuals.max()) / scale
        ok = value <= MASS_ODE_TOL
        rows.append(["mass_ode", pre_trace.t[-1], value, MASS_ODE_TOL, ok])

    if "h_identity" in checks and pre_trace.corrected_mass[0] > 1.0:
        h_acc, log_ratio, gap = diag.h_identity_check(pre_trace)
        denom = np.maximum(np.abs(log_ratio), 1e-2)
        value = float(np.max(gap[1:] / denom[1:])) if len(gap) > 1 else 0.0
        ok = value <= H_IDENTITY_TOL
        rows.append(["h_identity", pre_trace.t[-1], value, H_IDENTITY_TOL, ok])

    if "phi_norm" in checks:
        ok_rows = diag.phi_norm_bound_check(trace.sliced(pre) if pre.any() else trace,
                                            tol=PHI_NORM_SLACK)
        ok = bool(np.all(ok_rows))
        rows.append(["phi_norm", trace.t[-1], float(np.mean(ok_rows)), 1.0, ok])

    if "gradient_bound" in checks:
        sub = solve_torsion_subdomain(snapshots[0][1].grid, SUBBOX_MARGIN)
        keep = [(t, f) for (t, f) in snapshots
                if float(np.max(f.values)) < 0.5 * sup_cap]
        if len(keep) >= 2:
            times, ok_arr, lhs, rhs = diag.gradient_bound_check(
                trace, keep, sub, tol=BOUND_SLACK)
            ok = bool(np.all(ok_arr))
            rows.append(["gradient_bound", times[-1], float(np.mean(ok_arr)), 1.0, ok])

    if "boundary_concentration" in checks:
        conc = diag.boundary_concentration(snapshots, CONCENTRATION_Q,
                                           SUBBOX_MARGIN, trace)
        ok = (conc.lhs <= conc.bound * (1.0 + BOUND_SLACK) + 1e-12
              and conc.collar_energy <= conc.collar_bound * (1.0 + BOUND_SLACK) + 1e-12)
        rows.append(["boundary_concentration", trace.t[-1], conc.lhs, conc.bound, ok])

    return ([[r[0], float(r[1]), float(r[2]), float(r[3]), r[4]] for r in rows],
            all(r[4] for r in rows))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Execute the full pipeline; returns (exit_code, summary dict)."""
    out_dir = out_dir or output_dir(cfg)
    try:
        grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
        torsion = solve_torsion(grid)
        u0eps = torsion_profile(grid, cfg["init.mass"], cfg["solver.epsilon"], torsion)
        params = SolverParams(**solver_settings(cfg.values))  # dt_min: its default
        result = run(u0eps, params, torsion)

        atomic_write_text(os.path.join(out_dir, "trace.csv"), result.trace.to_csv)
        atomic_write_text(os.path.join(out_dir, "snapshots.ndjson"),
                          lambda fh: write_snapshots(fh, result.snapshots))

        exit_code = EXIT_OK
        summary = {
            "outcome": result.outcome,
            "t_last": result.t_last,
            "steps": result.steps,
            "sup_cap": result.sup_cap,
            "epsilon": params.epsilon,
            "omega_measure": grid.volume,
            "final_mass": float(result.trace.mass[-1]),
            "final_corrected_mass": float(result.trace.corrected_mass[-1]),
            "final_sup_norm": float(result.trace.sup_norm[-1]),
            "max_floored_fraction": result.max_floored_fraction,
            "floor_flagged": result.floor_flagged,
            "factorizations": result.factorizations,
            "cg_iterations": result.cg_iterations,
            "start_fallbacks": result.start_fallbacks,
        }
        rows, ok = diagnostics_rows(result.trace, result.snapshots, result.sup_cap)
        atomic_write_text(os.path.join(out_dir, "diagnostics.csv"),
                          csv_text(DIAGNOSTICS_HEADER, rows))
        summary["diagnostics_passed"] = ok
        for r in rows:
            summary[f"check_{r[0]}"] = r[2]
        if not ok:
            exit_code = EXIT_CHECK_FAILED

        if result.outcome == "BlowUp":
            metrics = blowup_metrics(result.trace, result.snapshots, grid)
            atomic_write_text(os.path.join(out_dir, "blowup.csv"),
                              csv_text(["metric", "value"], metrics))
            for key, value in metrics:
                if key in ("t_max_estimate", "fit_residual", "blowup_set_fraction"):
                    summary[key] = value

        summary["exit_code"] = exit_code
    except (ValueError, RuntimeError) as exc:
        exit_code = EXIT_ERROR
        summary = {"outcome": "Error", "error": str(exc), "exit_code": exit_code}
    atomic_write_text(os.path.join(out_dir, "summary.json"),
                      json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return exit_code, summary


def run_sweep(spec: SweepSpec, out_root_dir: str | None = None):
    """Run all sweep configurations; returns (exit_code, summary rows)."""
    out_root_dir = out_root_dir or output_dir(spec.base, "_sweep")
    rows = []
    worst = EXIT_OK
    # In order, on this thread, which meets any cap spec.parallelism puts on the
    # members in flight: threads would only contend for the interpreter lock.
    for value, cfg in zip(spec.values, spec.configs()):
        run_dir = os.path.join(out_root_dir, f"run_{spec.axis}_{sweep_tag(value)}")
        try:
            code, summary = run_experiment(cfg, run_dir)
        except Exception as exc:  # defensive: record, do not kill the sweep
            code, summary = EXIT_ERROR, {"outcome": "Error", "error": str(exc)}
        worst = max(worst, code)
        tme = summary.get("t_max_estimate", math.nan)
        resid = summary.get("check_mass_ode")
        rows.append([sweep_tag(value), summary.get("outcome", "Error"),
                     "" if math.isnan(tme) else repr(tme),
                     "" if resid is None else repr(resid)])
    atomic_write_text(os.path.join(out_root_dir, "sweep_summary.csv"),
                      csv_text(["axis_value", "outcome", "t_max_estimate",
                                "max_mass_ode_residual"], rows))
    return worst, rows
