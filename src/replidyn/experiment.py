"""Experiment orchestration: config -> pipeline -> artifacts on disk.

A run executes initial data construction, the solver, the estimate checks,
and blow-up classification, writing

    trace.csv, snapshots.ndjson, u0eps.ndjson, diagnostics.csv,
    blowup.csv (blow-up runs), summary.json

into its output directory.  Every file is written atomically (tmp + rename).
Exit codes: 0 complete, 1 module error, 2 a diagnostic failed its tolerance.
Sweeps run independent configurations with bounded parallelism; per-run
outputs are deterministic and independent of scheduling order.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blowup as blowup_mod
from . import diagnostics as diag
from .config import ExperimentConfig, SweepSpec
from .elliptic import measure_poincare_constant, solve_torsion, solve_torsion_subdomain
from .initdata import construct_initial, make_recipe, torsion_profile
from .mesh import Field, build_grid, integrate, write_snapshots
from .solver import SolverParams, run

__all__ = ["run_experiment", "run_sweep", "atomic_write_text", "output_root",
           "diagnostics_rows", "solver_params_from_config"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def output_root(default: str = ".") -> str:
    return os.environ.get("REPLIDYN_OUT", default)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def solver_params_from_config(cfg: ExperimentConfig) -> SolverParams:
    return SolverParams(
        epsilon=cfg["solver.epsilon"],
        dt_init=cfg["solver.dt_init"],
        dt_min=cfg["solver.dt_min"],
        dt_max=cfg["solver.dt_max"],
        cfl_c=cfg["solver.cfl_c"],
        t_end=cfg["solver.t_end"],
        sup_cap=cfg["solver.sup_cap"] or None,
        scheme=cfg["solver.scheme"],
        snapshot_stride=cfg["solver.snapshot_stride"],
        trace_stride=cfg["solver.trace_stride"],
        decay_threshold=cfg["solver.decay_threshold"],
        reaction_cap_c=cfg["solver.reaction_cap_c"],
    )


def build_initial_data(cfg: ExperimentConfig, grid, torsion):
    """Initial data per config: the direct regularized torsion profile, or the
    full boundary-compatible construction for moderate-energy targets."""
    eps = cfg["solver.epsilon"]
    mass = cfg["init.mass"]
    if cfg["init.profile"] == "torsion":
        return torsion_profile(grid, mass, eps, torsion), None
    scale = mass / integrate(torsion.phi)
    u0 = Field(grid, scale * torsion.phi.values)
    u0.values[grid.boundary_mask] = 0.0
    recipe = make_recipe(
        u0, eps,
        mollify_radius=cfg["init.mollify_radius"] or None,
        margin_rho=cfg["init.margin_rho"] or None,
        margin_theta=cfg["init.margin_theta"] or None,
        L=cfg["init.bound_l"] or None,
        torsion=torsion,
    )
    result = construct_initial(recipe, torsion)
    return result.u0eps, result


def diagnostics_rows(cfg: ExperimentConfig, trace, snapshots, sup_cap: float,
                     grid, u0eps, checks=None):
    """Evaluate the enabled estimate checks; returns (rows, all_passed).

    Rows follow the verify CSV contract: check, t, value, bound, pass.
    Identity checks are evaluated on rows where the capped coefficient is
    unsaturated and the sup norm is below half the run's blow-up cap
    ``sup_cap``; past that window the regularized dynamics leave the regime
    the statements address.
    """
    checks = checks or ["mass_ode", "h_identity", "phi_norm", "gradient_bound",
                        "boundary_concentration"]
    rows: list[list] = []
    all_ok = True

    pre = trace.precap_mask(sup_cap)
    pre_trace = trace.sliced(pre) if pre.sum() >= 3 else trace

    if "mass_ode" in checks:
        tol = cfg["diagnostics.mass_ode_tol"]
        residuals, _ = diag.mass_ode_residual(pre_trace)
        y = pre_trace.corrected_mass
        scale = max(float(np.max(np.abs(np.gradient(y, pre_trace.t)))),
                    float(np.max(np.abs((y - 1.0) * pre_trace.energy))), 1e-12)
        value = float(residuals.max()) / scale
        ok = value <= tol
        rows.append(["mass_ode", pre_trace.t[-1], value, tol, ok])
        all_ok &= ok

    if "h_identity" in checks and pre_trace.corrected_mass[0] > 1.0:
        tol = cfg["diagnostics.h_identity_tol"]
        h_acc, log_ratio, gap = diag.h_identity_check(pre_trace)
        denom = np.maximum(np.abs(log_ratio), 1e-2)
        value = float(np.max(gap[1:] / denom[1:])) if len(gap) > 1 else 0.0
        ok = value <= tol
        rows.append(["h_identity", pre_trace.t[-1], value, tol, ok])
        all_ok &= ok

    if "phi_norm" in checks:
        ok_rows = diag.phi_norm_bound_check(trace.sliced(pre) if pre.any() else trace,
                                            tol=cfg["diagnostics.phi_norm_slack"])
        ok = bool(np.all(ok_rows))
        rows.append(["phi_norm", trace.t[-1], float(np.mean(ok_rows)), 1.0, ok])
        all_ok &= ok

    margin = cfg["diagnostics.margin"]
    if "gradient_bound" in checks:
        sub = solve_torsion_subdomain(grid, margin)
        keep = [(t, f) for (t, f) in snapshots
                if float(np.max(f.values)) < 0.5 * sup_cap]
        if len(keep) >= 2:
            times, ok_arr, lhs, rhs = diag.gradient_bound_check(
                trace, keep, sub, u0eps, tol=cfg["diagnostics.bound_slack"])
            ok = bool(np.all(ok_arr))
            rows.append(["gradient_bound", times[-1], float(np.mean(ok_arr)), 1.0, ok])
            all_ok &= ok

    if "boundary_concentration" in checks:
        conc = diag.boundary_concentration(snapshots, cfg["diagnostics.q"],
                                           margin, u0eps, trace)
        ok = (conc.lhs <= conc.bound * (1.0 + cfg["diagnostics.bound_slack"]) + 1e-12
              and conc.collar_energy <= conc.collar_bound * (1.0 + cfg["diagnostics.bound_slack"]) + 1e-12)
        rows.append(["boundary_concentration", trace.t[-1], conc.lhs, conc.bound, ok])
        all_ok &= ok

    return rows, all_ok


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Execute the full pipeline; returns (exit_code, summary dict)."""
    out_dir = out_dir or os.path.join(output_root(), cfg["output.dir"])
    try:
        grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
        torsion = solve_torsion(grid)
        u0eps, init_result = build_initial_data(cfg, grid, torsion)
        params = solver_params_from_config(cfg)
        result = run(u0eps, params, torsion)

        os.makedirs(out_dir, exist_ok=True)
        result.trace.to_csv(os.path.join(out_dir, "trace.tmp.csv"))
        os.replace(os.path.join(out_dir, "trace.tmp.csv"),
                   os.path.join(out_dir, "trace.csv"))
        _write_snapshots_atomic(os.path.join(out_dir, "snapshots.ndjson"),
                                result.snapshots)
        _write_snapshots_atomic(os.path.join(out_dir, "u0eps.ndjson"),
                                [(0.0, u0eps)])
        if init_result is not None:
            _atomic_csv(os.path.join(out_dir, "initdata_report.csv"),
                        ["property", "measured", "threshold", "pass"],
                        [[c.name, repr(c.measured), repr(c.threshold), c.passed]
                         for c in init_result.report])

        exit_code = EXIT_OK
        summary = {
            "outcome": result.outcome,
            "t_last": result.t_last,
            "t_max_estimate": result.t_max_estimate,
            "fit_residual": result.fit_residual,
            "sup_cap": result.sup_cap,
            "final_mass": float(result.trace.mass[-1]),
            "final_corrected_mass": float(result.trace.corrected_mass[-1]),
            "final_sup_norm": float(result.trace.sup_norm[-1]),
            "max_floored_fraction": result.max_floored_fraction,
            "floor_flagged": result.floor_flagged,
        }

        if cfg["diagnostics.enabled"]:
            rows, ok = diagnostics_rows(cfg, result.trace, result.snapshots,
                                        result.sup_cap, grid, u0eps)
            _atomic_csv(os.path.join(out_dir, "diagnostics.csv"),
                        ["check", "t", "value", "bound", "pass"],
                        [[r[0], repr(float(r[1])), repr(float(r[2])),
                          repr(float(r[3])), r[4]] for r in rows])
            summary["diagnostics_passed"] = ok
            for r in rows:
                summary[f"check_{r[0]}"] = float(r[2])
            if not ok:
                exit_code = EXIT_CHECK_FAILED

        if result.outcome == "BlowUp":
            c_p = measure_poincare_constant(grid)
            y0 = float(result.trace.corrected_mass[0])
            metrics = [
                ["t_max_estimate", result.t_max_estimate],
                ["fit_residual", result.fit_residual],
                ["poincare_constant", c_p],
            ]
            if y0 > 1.0:
                metrics.append(["poincare_upper_bound",
                                blowup_mod.poincare_blowup_bound(y0, c_p, grid.volume)])
            if len(result.snapshots) >= 3:
                report = blowup_mod.blowup_set_estimate(result.snapshots)
                metrics.append(["blowup_set_fraction", report.blowup_set_fraction])
                for margin, g in report.core_min_growth.items():
                    metrics.append([f"core_min_growth_{margin:g}", g])
                summary["blowup_set_fraction"] = report.blowup_set_fraction
            _atomic_csv(os.path.join(out_dir, "blowup.csv"), ["metric", "value"],
                        [[name, repr(float(val))] for name, val in metrics])

        summary["exit_code"] = exit_code
        atomic_write_text(os.path.join(out_dir, "summary.json"),
                          json.dumps(summary, sort_keys=True, indent=2,
                                     default=_json_default) + "\n")
        return exit_code, summary
    except (ValueError, RuntimeError) as exc:
        os.makedirs(out_dir, exist_ok=True)
        summary = {"outcome": "Error", "error": str(exc), "exit_code": EXIT_ERROR}
        atomic_write_text(os.path.join(out_dir, "summary.json"),
                          json.dumps(summary, sort_keys=True, indent=2) + "\n")
        return EXIT_ERROR, summary


def _json_default(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    raise TypeError(f"not serializable: {x!r}")


def _write_snapshots_atomic(path: str, snapshots) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_snapshots(tmp, snapshots)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_axis_value(value) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def run_sweep(spec: SweepSpec, out_root_dir: str | None = None):
    """Run all sweep configurations; returns (exit_code, summary rows)."""
    out_root_dir = out_root_dir or os.path.join(output_root(),
                                                spec.base["output.dir"] + "_sweep")
    configs = spec.configs()

    def one(i_cfg):
        i, cfg = i_cfg
        tag = _format_axis_value(spec.values[i])
        run_dir = os.path.join(out_root_dir, f"run_{spec.axis}_{tag}")
        try:
            code, summary = run_experiment(cfg, run_dir)
        except Exception as exc:  # defensive: record, do not kill the sweep
            return i, EXIT_ERROR, {"outcome": "Error", "error": str(exc)}
        return i, code, summary

    results = [None] * len(configs)
    if spec.parallelism == 1:
        for item in enumerate(configs):
            i, code, summary = one(item)
            results[i] = (code, summary)
    else:
        with ThreadPoolExecutor(max_workers=spec.parallelism) as pool:
            for i, code, summary in pool.map(one, enumerate(configs)):
                results[i] = (code, summary)

    rows = []
    worst = EXIT_OK
    for value, (code, summary) in zip(spec.values, results):
        worst = max(worst, code)
        tme = summary.get("t_max_estimate")
        rows.append([
            _format_axis_value(value),
            summary.get("outcome", "Error"),
            "" if tme is None or (isinstance(tme, float) and math.isnan(tme))
            else repr(float(tme)),
            repr(float(summary.get("check_mass_ode", float("nan"))))
            if "check_mass_ode" in summary else "",
        ])
    _atomic_csv(os.path.join(out_root_dir, "sweep_summary.csv"),
                ["axis_value", "outcome", "t_max_estimate", "max_mass_ode_residual"],
                rows)
    return worst, rows
