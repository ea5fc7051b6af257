"""replidyn benchmark: one command, three workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep-1d --seed 0 --seconds 30 --trace 0

Every operation is a call of the public entry point ``replidyn.cli.main``,
made in this process.  The benchmark sets up once (import and inputs, timed
several times), then runs passes of the workload until ``--seconds`` have
gone by, checks what each operation wrote, and prints a report whose last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Before each pass and after every operation it times a
fixed reference kernel (reference.py), and it reports pass times in units of
that kernel's time in the same pass.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, from the traced passes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import reference_seconds
from tracer import Tracer, aggregate, ancestor_of, self_times
from workloads import Workload, check_op, tree_bytes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# At most nproc (2) busy threads: the sweep's two workers, and no BLAS pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

# name -> unit; the order is the order of the report.
END_TO_END = {
    "wall_ref": "1", "setup_s": "s", "peak_rss_mb": "MB",
    "artifact_mb": "MB", "mass_ode_resid": "1", "check_pass_frac": "1",
}
PER_LAYER = {
    "solver.step.calls": "count", "solver.step.self_s": "s",
    "solver.run.self_s": "s", "solver.accept_ratio": "1",
    "solver.step.self_us_1d": "us", "solver.step.self_us_2d81": "us",
    "mesh.dirichlet_energy.calls": "count", "mesh.dirichlet_energy.s": "s",
    "mesh.integrate.calls": "count", "mesh.integrate.s": "s",
    "mesh.write_snapshots.s": "s", "mesh.read_snapshots.s": "s",
    "elliptic.solve_torsion.calls": "count", "elliptic.solve_torsion.s": "s",
    "elliptic.solve_torsion_subdomain.s": "s",
    "elliptic.phi_weighted_sup.calls": "count", "elliptic.phi_weighted_sup.s": "s",
    "elliptic.measure_poincare_constant.s": "s",
    "initdata.torsion_profile.s": "s",
    "diagnostics.Trace.to_csv.s": "s", "diagnostics.Trace.from_csv.s": "s",
    "diagnostics.gradient_bound_check.s": "s",
    "diagnostics.boundary_concentration.s": "s",
    "diagnostics.mass_ode_residual.s": "s",
    "blowup.estimate_tmax.s": "s", "blowup.blowup_set_estimate.s": "s",
    "experiment.run_experiment.calls": "count", "experiment.run_experiment.self_s": "s",
    "experiment.diagnostics_rows.s": "s", "experiment.atomic_write_text.s": "s",
    "experiment.run_sweep.self_s": "s", "experiment.run_sweep.concurrency": "1",
    "cli.main.run.s": "s", "cli.main.sweep.s": "s", "cli.main.verify.s": "s",
    "cli.main.blowup.s": "s", "config.parse_config.s": "s",
    "check_fail_frac": "1", "verify_mismatch": "count", "mass_ode_resid_default": "1",
    "wall_s": "s", "wall_s_p90": "s", "ref_s": "s", "trace_overhead_s": "s",
}
# Per-layer metrics taken from the pass times rather than from the spans.
PASS_TIMES = ("wall_s", "wall_s_p90", "ref_s", "trace_overhead_s")
# Operation labels whose runs are 1D, and the 81x81 run, for time per step.
OPS_1D = {"sweep-canonical", "sweep-default", "deep"}
OP_2D81 = "2d-81"


def _import_replidyn():
    """Import replidyn from this checkout's src/, and nothing else."""
    if not (SRC / "replidyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no replidyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import replidyn
    import replidyn.cli
    if Path(replidyn.__file__).resolve().parent != (SRC / "replidyn").resolve():
        raise SystemExit(f"error: imported replidyn from {replidyn.__file__}, not {SRC}")
    return replidyn


def _child_import_seconds() -> float:
    """Import replidyn in a fresh interpreter; returns the import time."""
    code = ("import time; t = time.perf_counter(); import replidyn.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": _git_commit(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


@dataclass
class PassRecord:
    wall_s: float
    ref_s: float                   # median reference kernel time in the pass
    traced: bool
    ops: int
    failed: int
    reasons: list
    artifact_mb: float
    mass_ode_resid: float
    mass_ode_resid_default: float
    check_fail_frac: float
    verify_mismatch: int
    critical: list
    trace_rows: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _call_quietly(fn, argv):
    """Call a CLI entry point with its printing captured; returns (code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = fn(argv)
    return code, buf.getvalue()


def run_pass(workload, work_dir: Path, pass_no: int, replidyn, tracer=None) -> PassRecord:
    cli = sys.modules["replidyn.cli"]
    pass_dir = work_dir / f"pass{pass_no}"
    ops = workload.ops(str(pass_dir))
    results = []
    wall = 0.0
    refs = [reference_seconds(workload.reference)]   # then one after each operation
    if tracer is not None:
        tracer.install(replidyn)
    try:
        for op in ops:
            if tracer is not None:
                tracer.run_id = f"{pass_no}:{op.label}"
            output = ""
            start = perf_counter()
            try:
                code, output = _call_quietly(cli.main, list(op.argv))
            except Exception as exc:  # an operation that raises is a failed operation
                code = exc
                traceback.print_exc(file=sys.stderr)
            wall += perf_counter() - start
            results.append((op, code, output))
            refs.append(reference_seconds(workload.reference))
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks = []
    for op, code, output in results:
        res = check_op(op, code)
        if res.failed and output.strip():
            res.reasons.append(f"{op.label} printed: {output.strip()[-300:]}")
        checks.append(res)
    n_judged = sum(c.runs for c in checks) + sum(op.kind == "verify" for op in ops)
    rec = PassRecord(
        wall_s=wall, ref_s=statistics.median(refs), traced=tracer is not None, ops=len(ops),
        failed=sum(c.failed for c in checks),
        reasons=[r for c in checks for r in c.reasons],
        artifact_mb=tree_bytes(str(pass_dir)) / 1e6,
        mass_ode_resid=_max_resid(ops, checks, default_steps=False),
        mass_ode_resid_default=_max_resid(ops, checks, default_steps=True),
        check_fail_frac=sum(c.check_failed for c in checks) / max(n_judged, 1),
        verify_mismatch=sum(c.mismatch for c in checks),
        critical=[o for c in checks for o in c.critical_outcomes],
        trace_rows={k: v for c in checks for k, v in c.trace_rows.items()},
    )
    if tracer is not None:
        layer_metrics(rec, tracer.take())
    shutil.rmtree(pass_dir, ignore_errors=True)
    return rec


def _max_resid(ops, checks, default_steps: bool) -> float:
    """Largest normalized mass-ODE residual over the runs of a pass made at
    the canonical (or at the CLI default) step settings; 0 if there are none."""
    return max((v for op, c in zip(ops, checks) if op.default_steps == default_steps
                for v in c.mass_ode), default=0.0)


def layer_metrics(rec: PassRecord, spans: list) -> None:
    """Per-layer numbers of one traced pass, and its checks of the trace
    against the counters."""
    selfs = self_times(spans)
    agg = aggregate(spans, selfs)
    rec.counts = {name: row["calls"] for name, row in agg.items()}

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    lay = rec.layers
    for metric in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s"):
            lay[metric] = get(head, key)

    def step_us(labels) -> float:
        # run ids are "<pass>:<operation label>"
        row = aggregate(spans, selfs, lambda s: s[2].split(":", 1)[1] in labels).get("solver.step")
        return 1e6 * row["self_s"] / row["calls"] if row else 0.0

    lay["solver.step.self_us_1d"] = step_us(OPS_1D)
    lay["solver.step.self_us_2d81"] = step_us({OP_2D81})

    # Steps per run against the rows of its trace.csv (trace_stride = 1).
    owner = ancestor_of(spans, "experiment.run_experiment")
    notes = {s[0]: s[6] for s in spans if s[3] == "experiment.run_experiment"}
    steps_per_run: dict[str, int] = {}
    for s in spans:
        if s[3] == "solver.step" and s[0] in owner:
            out_dir = os.path.normpath(notes[owner[s[0]]])
            steps_per_run[out_dir] = steps_per_run.get(out_dir, 0) + 1
    for out_dir, rows in rec.trace_rows.items():
        steps = steps_per_run.get(out_dir, 0)
        if steps != rows - 1:
            rec.reasons.append(f"trace/counter mismatch in {out_dir}: "
                               f"{steps} step calls, {rows} trace rows")
    kept = sum(rows - 1 for rows in rec.trace_rows.values())
    n_steps = get("solver.step", "calls")
    lay["solver.accept_ratio"] = kept / n_steps if n_steps else 0.0

    sweep_wall = get("experiment.run_sweep", "s")
    sweeps = {s[0] for s in spans if s[3] == "experiment.run_sweep"}
    in_sweeps = sum(s[5] - s[4] for s in spans
                    if s[3] == "experiment.run_experiment" and s[1] in sweeps)
    lay["experiment.run_sweep.concurrency"] = in_sweeps / sweep_wall if sweep_wall else 0.0
    lay["check_fail_frac"] = rec.check_fail_frac
    lay["verify_mismatch"] = rec.verify_mismatch
    lay["mass_ode_resid_default"] = rec.mass_ode_resid_default


def _median(values):
    return statistics.median(values) if values else float("nan")


def _p90(values):
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = Workload(args.workload, args.seed)
    os.environ.update(THREAD_ENV)
    replidyn = _import_replidyn()
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    print(f"# replidyn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print("masses: " + json.dumps(workload.masses))

    try:
        return _measure(args, workload, work_dir, replidyn)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _measure(args, workload, work_dir: Path, replidyn) -> int:
    # -- set-up: import in fresh interpreters, then prepare the inputs -------
    import_s = [_child_import_seconds() for _ in range(IMPORT_REPEATS)]
    prep_s = []
    setup_reasons = []
    cli = sys.modules["replidyn.cli"]
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        done = workload.prepare(str(work_dir / f"setup{i}"),
                                lambda argv: _call_quietly(cli.main, argv)[0])
        prep_s.append(perf_counter() - start)
        for op, code in done:
            setup_reasons += [f"set-up: {r}" for r in check_op(op, code).reasons]
    for i in range(SETUP_REPEATS - 1):   # the last set-up feeds the passes
        shutil.rmtree(work_dir / f"setup{i}", ignore_errors=True)
    setup_s = _median(import_s) + _median(prep_s)
    print(f"set-up: import {', '.join(f'{t:.4f}' for t in import_s)} s; "
          f"inputs {', '.join(f'{t:.4f}' for t in prep_s)} s")

    # -- passes: a closed loop that starts a pass only if it should end in time
    tracer = Tracer() if args.trace else None
    records: list[PassRecord] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        t0 = perf_counter()
        rec = run_pass(workload, work_dir, len(records), replidyn, tracer if traced else None)
        records.append(rec)
        print(f"pass {len(records) - 1}: {'traced' if traced else 'untraced'} "
              f"{rec.wall_s:.4f} s, {rec.ops} ops, {rec.failed} failed", flush=True)
        pass_time = perf_counter() - t0
        enough = len(records) >= (2 if args.trace else 1)
        if enough and perf_counter() - start + pass_time > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    attempted = sum(r.ops for r in records)
    failed = sum(r.failed for r in records)
    reasons = setup_reasons + [x for r in records for x in r.reasons]
    walls = [r.wall_s for r in plain]

    e2e = {
        "wall_ref": _median([r.wall_s / r.ref_s for r in plain]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "artifact_mb": _median([r.artifact_mb for r in records]),
        "mass_ode_resid": _median([r.mass_ode_resid for r in records]),
        "check_pass_frac": 1.0 - _median([r.check_fail_frac for r in records]),
    }
    print(f"{len(walls)} untraced passes; wall_ref is the median of pass time / reference "
          f"kernel time ({'+'.join(workload.reference)}) in the same pass")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    print(f"  wall_s           {_median(walls):.6g} s (median pass time)")
    print(f"  wall_s_p90       {_p90(walls):.6g} s (inclusive method)")
    print(f"  ref_s            {_median([r.ref_s for r in plain]):.6g} s (median)")
    print(f"  fail_frac        {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    print(f"  check_fail_frac  {_median([r.check_fail_frac for r in records]):.6g}")
    print(f"  verify_mismatch  {_median([r.verify_mismatch for r in records]):.6g}")
    print(f"  mass_ode_resid_default {_median([r.mass_ode_resid_default for r in records]):.6g}"
          " (runs at the CLI default step settings)")
    for outcome, tmax in {c for r in records for c in r.critical}:
        print(f"  mass 1.0 run (recorded, not checked): {outcome}, t_max estimate {tmax}")

    if args.trace:
        # Counts must repeat exactly from one traced pass to the next.
        if any(r.counts != traced[0].counts for r in traced[1:]):
            reasons.append("span counts differ between traced passes")
        layers = {}
        for name in PER_LAYER:
            if name in PASS_TIMES:
                continue
            vals = [r.layers[name] for r in traced]
            layers[name] = vals[0] if PER_LAYER[name] == "count" else _median(vals)
        layers["wall_s"] = _median(walls)
        layers["wall_s_p90"] = _p90(walls)
        layers["ref_s"] = _median([r.ref_s for r in plain])
        layers["trace_overhead_s"] = _median([r.wall_s for r in traced]) - _median(walls)
        print(f"per layer: medians of {len(traced)} traced passes; tracing overhead "
              f"{layers['trace_overhead_s']:.4f} s per pass "
              f"(traced {_median([r.wall_s for r in traced]):.4f} s, "
              f"untraced {_median(walls):.4f} s)")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {layers[name]:.6g} {unit}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    for reason in reasons:
        print(f"CHECK FAILED: {reason}")
    result = {"correct": not reasons, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
