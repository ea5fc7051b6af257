"""Command-line surface: run, sweep, verify, blowup, replicator.

All subcommands read the flat key=value config format (verify and blowup only
its grid: the rest comes from the stored run); the REPLIDYN_OUT environment
variable overrides the output root.  Exit codes: 0 success,
1 module error or usage error (argparse's message, as for an unknown
subcommand), 2 a verification check failed its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import diagnostics as diag
from .blowup import blowup_metrics, checkpoint_indices
from .config import ConfigError, SweepSpec, parse_config
from .experiment import (DIAGNOSTICS_HEADER, EXIT_CHECK_FAILED, EXIT_ERROR,
                         EXIT_OK, atomic_write_text, csv_text, diagnostics_rows,
                         output_dir, run_experiment, run_sweep)
from .mesh import build_grid, read_snapshots
from .replicator import (PayoffMatrix, SimplexState, integrate_replicator,
                         payoff_matrix_from_laplacian)


def _load_config(path: str):
    with open(path) as fh:
        return parse_config(fh.read())


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


def _stored_run(args, pick=None):
    """The run stored at --trace and --snapshots, as (trace, snapshots, grid,
    sup cap): the grid from --config, and ε, |Ω| and the sup cap the run used
    from the summary.json beside its trace; ``pick`` as in read_snapshots.
    Every record time must be a trace row, so files of two runs are refused."""
    cfg = _load_config(args.config)
    grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
    keys = ("epsilon", "omega_measure", "sup_cap")
    path = os.path.join(os.path.dirname(os.path.abspath(args.trace)), "summary.json")
    if not os.path.exists(path):
        raise ValueError(f"{path} not found: the run's {', '.join(keys)} "
                         f"are read from the summary.json beside --trace")
    with open(path) as fh:
        summary = json.load(fh)
    for key in keys:
        if key not in summary:
            raise ValueError(f"{path} records no {key}")
    eps, omega_measure, sup_cap = (float(summary[key]) for key in keys)
    trace = diag.Trace.from_csv(args.trace, epsilon=eps, omega_measure=omega_measure)

    def on_rows(times):  # all record times, read before any record is decoded
        trace.rows_at(times)
        return range(len(times)) if pick is None else pick(times)

    return trace, read_snapshots(args.snapshots, grid, pick=on_rows), grid, sup_cap


def _cmd_verify(args) -> int:
    trace, snapshots, _, sup_cap = _stored_run(args)
    if not snapshots:
        raise ValueError(f"{args.snapshots}: no records")
    checks = args.checks.split(",") if args.checks else None
    rows, ok = diagnostics_rows(trace, snapshots, sup_cap, checks=checks)
    text = csv_text(DIAGNOSTICS_HEADER, rows)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_blowup(args) -> int:
    trace, snapshots, grid, _ = _stored_run(args, pick=checkpoint_indices)
    text = csv_text(["metric", "value"], blowup_metrics(trace, snapshots, grid))
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return EXIT_OK


def _cmd_replicator(args) -> int:
    cfg = _load_config(args.config)
    out = args.out or output_dir(cfg)
    p0_values = cfg["replicator.p0"]
    if cfg["replicator.payoff"] == "laplacian":
        # one strategy per interior node; p0 defaults to a bump centred in the box
        grid = build_grid(cfg["grid.dimension"], cfg["grid.extents"], cfg["grid.n"])
        payoff = payoff_matrix_from_laplacian(grid)
        core = (slice(1, -1),) * grid.dimension
        r2 = sum((x - 0.5 * e) ** 2
                 for x, e in zip(grid.coordinate_arrays(), grid.extents))
        raw = np.exp(-r2[core].ravel() / 0.02)
    else:
        raw = np.linspace(1.0, 2.0, len(p0_values) or 2)
        payoff = PayoffMatrix(np.eye(len(raw)))
    if p0_values and len(p0_values) != len(raw):
        raise ConfigError(
            f"replicator.p0 has {len(p0_values)} entries, expected {len(raw)}")
    p0 = SimplexState(p0_values or raw / raw.sum())

    times, states, clip_total = integrate_replicator(
        p0, payoff, cfg["replicator.t_end"], cfg["replicator.dt"])

    atomic_write_text(os.path.join(out, "replicator_trace.csv"), csv_text(
        ["t"] + [f"p_{i+1}" for i in range(len(raw))],
        [[float(t), *map(float, p)] for t, p in zip(times, states)]))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (code 0) or its error
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
