"""Command-line surface: run, sweep, verify, initdata, blowup, replicator.

All subcommands read the flat key=value config format; the REPLIDYN_OUT
environment variable overrides the output root.  Exit codes: 0 success,
1 module error, 2 a verification check failed its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import diagnostics as diag
from .blowup import blowup_metrics
from .config import ConfigError, SweepSpec, parse_config
from .elliptic import solve_torsion
from .experiment import (DIAGNOSTICS_HEADER, EXIT_CHECK_FAILED, EXIT_ERROR,
                         EXIT_OK, atomic_write_text, build_initial_data,
                         csv_text, diagnostics_rows, initdata_report_csv,
                         output_root, run_experiment, run_sweep)
from .mesh import build_grid, read_snapshots, write_snapshots
from .replicator import (PayoffMatrix, SimplexState, integrate_replicator,
                         payoff_matrix_from_kernel)


def _load_config(path: str):
    with open(path) as fh:
        return parse_config(fh.read())


def _out_dir(cfg, override: str | None) -> str:
    if override:
        return override
    return os.path.join(output_root(), cfg["output.dir"])


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    code, summary = run_experiment(cfg, args.out)
    print(f"outcome={summary.get('outcome')} exit={code}")
    return code


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    spec = SweepSpec(base=cfg, axis=args.axis, values=values,
                     parallelism=args.parallel)
    code, rows = run_sweep(spec, args.out)
    for row in rows:
        print(",".join(str(x) for x in row))
    return code


def _recorded_run(trace_path: str) -> tuple[float, float, float]:
    """ε, |Ω| and the sup cap the run used, from the summary.json beside its trace."""
    keys = ("epsilon", "omega_measure", "sup_cap")
    path = os.path.join(os.path.dirname(os.path.abspath(trace_path)), "summary.json")
    if not os.path.exists(path):
        raise ValueError(f"{path} not found: the run's {', '.join(keys)} "
                         f"are read from the summary.json beside --trace")
    with open(path) as fh:
        summary = json.load(fh)
    for key in keys:
        if key not in summary:
            raise ValueError(f"{path} records no {key}")
    return tuple(float(summary[key]) for key in keys)


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
    eps, omega_measure, sup_cap = _recorded_run(args.trace)
    trace = diag.Trace.from_csv(args.trace, epsilon=eps, omega_measure=omega_measure)
    snapshots = read_snapshots(args.snapshots, grid)
    u0eps = snapshots[0][1]

    checks = args.checks.split(",") if args.checks else None
    rows, ok = diagnostics_rows(cfg, trace, snapshots, sup_cap, grid, u0eps,
                                checks=checks)
    text = csv_text(DIAGNOSTICS_HEADER, rows)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_initdata(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(cfg, args.out)
    grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
    torsion = solve_torsion(grid)
    u0eps, result = build_initial_data(cfg, grid, torsion)
    report = result.report if result is not None else []
    atomic_write_text(os.path.join(out, "u0eps.ndjson"),
                      lambda fh: write_snapshots(fh, [(0.0, u0eps)]))
    text = initdata_report_csv(report)
    atomic_write_text(os.path.join(out, "initdata_report.csv"), text)
    print(text, end="")
    if report and not all(c.passed for c in report):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_blowup(args) -> int:
    cfg = _load_config(args.config)
    grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
    eps, omega_measure, _ = _recorded_run(args.trace)
    trace = diag.Trace.from_csv(args.trace, epsilon=eps, omega_measure=omega_measure)
    snapshots = read_snapshots(args.snapshots, grid)

    text = csv_text(["metric", "value"], blowup_metrics(trace, snapshots, grid))
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK


def _cmd_replicator(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(cfg, args.out)
    payoff_kind = cfg["replicator.payoff"]
    if payoff_kind == "kernel":
        grid = build_grid(1, [1.0], [cfg["replicator.grid_n"]])
        payoff = payoff_matrix_from_kernel(grid, cfg["replicator.sigma"])
        m = grid.n[0]
    else:
        m = cfg["replicator.strategies"]
        payoff = PayoffMatrix(np.eye(m))
    p0_values = cfg["replicator.p0"]
    if p0_values:
        if len(p0_values) != m:
            raise ConfigError(
                f"replicator.p0 has {len(p0_values)} entries, expected {m}")
        p0 = SimplexState(np.asarray(p0_values))
    elif payoff_kind == "kernel":
        x = np.linspace(0.0, 1.0, m)
        raw = np.exp(-((x - 0.5) ** 2) / 0.02)
        p0 = SimplexState(raw / raw.sum())
    else:
        raw = np.linspace(1.0, 2.0, m)
        p0 = SimplexState(raw / raw.sum())

    times, states, clip_total = integrate_replicator(
        p0, payoff, cfg["replicator.t_end"], cfg["replicator.dt"])

    if m <= 64:
        atomic_write_text(os.path.join(out, "replicator_trace.csv"), csv_text(
            ["t"] + [f"p_{i+1}" for i in range(m)],
            [[float(t), *map(float, p)] for t, p in zip(times, states)]))
    else:
        lines = [json.dumps({"t": float(t), "p": [float(v) for v in p]})
                 for t, p in zip(times, states)]
        atomic_write_text(os.path.join(out, "replicator_trace.ndjson"),
                          "\n".join(lines) + "\n")
    print(f"steps={len(times)-1} clip_total={clip_total!r}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replidyn",
        description="Degenerate nonlocal diffusion simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment pipeline")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--parallel", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="re-check estimates on stored artifacts")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--snapshots", required=True)
    p_verify.add_argument("--checks", default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_init = sub.add_parser("initdata", help="build initial data and its report")
    p_init.add_argument("--config", required=True)
    p_init.add_argument("--out", default=None)
    p_init.set_defaults(func=_cmd_initdata)

    p_blow = sub.add_parser("blowup", help="blow-up metrics from stored artifacts")
    p_blow.add_argument("--config", required=True)
    p_blow.add_argument("--trace", required=True)
    p_blow.add_argument("--snapshots", required=True)
    p_blow.add_argument("--out", default=None)
    p_blow.set_defaults(func=_cmd_blowup)

    p_rep = sub.add_parser("replicator", help="integrate a replicator game")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_replicator)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
