"""The benchmark's workloads: their inputs, their operations and the checks on
what each operation leaves behind.

An operation is one call of the public CLI entry point ``replidyn.cli.main``.
A pass is one list of operations; the benchmark times passes.

Inputs come from the workload seed.  Seed 0 gives the canonical masses and
operation order.  Any other seed multiplies each mass other than 1.0 by a
factor in [0.98, 1.02] (so no mass crosses 1) and shuffles the operations of
every pass.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field

SWEEP_MASSES = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
BLOWUP_MASS = 1.5
JITTER = 0.02
ALL_CHECKS = "mass_ode,h_identity,phi_norm,gradient_bound,boundary_concentration"

# The settings under which the trichotomy and blow-up estimates are resolved
# (the acceptance suite uses them); the CLI defaults are coarser.
CANONICAL = {"solver.dt_init": "1e-4", "solver.reaction_cap_c": "0.015",
             "solver.snapshot_stride": "20"}
BASE_1D = {"grid.dimension": "1", "grid.n": "201", "solver.epsilon": "1e-3",
           "solver.t_end": "5.0"}
# Deep blow-up: at epsilon 1e-9 the capped coefficient never saturates below
# the cap 1e4, so the run probes the uncapped regime.
DEEP = {**BASE_1D, **CANONICAL, "solver.epsilon": "1e-9", "solver.sup_cap": "1e4",
        "solver.dt_init": "1e-5"}


def base_2d(n: int) -> dict:
    return {"grid.dimension": "2", "grid.n": str(n), "solver.epsilon": "1e-3",
            "solver.t_end": "5.0"}


WORKLOADS = ("sweep-1d", "blowup-2d", "audit")

# The parts of the reference kernel (reference.py) that a workload's passes are
# measured against: the kinds of work the workload spends its time on.  Most of
# a blowup-2d pass is the sparse LU solve of the 81x81 steps; audit and
# sweep-1d mix pure-Python parsing and bookkeeping with small sparse solves.
REFERENCE = {"sweep-1d": ("parse", "splu"), "blowup-2d": ("splu81",),
             "audit": ("parse", "splu")}


@dataclass
class Run:
    """A run directory an operation writes, and the mass it started from."""
    out_dir: str
    mass: float


@dataclass
class Op:
    label: str
    argv: list
    runs: list = field(default_factory=list)     # for run and sweep
    artifact: Run | None = None                  # for verify and blowup
    out_file: str | None = None                  # for verify and blowup
    default_steps: bool = False                  # CLI default step settings

    @property
    def kind(self) -> str:
        return self.argv[0]


def draw_masses(seed: int) -> dict:
    """Masses of every run for this seed, the same in all workloads."""
    rng = random.Random(f"masses-{seed}")

    def jitter(m: float) -> float:
        if seed == 0 or m == 1.0:
            return m
        return round(m * (1.0 + rng.uniform(-JITTER, JITTER)), 4)

    return {"sweep": [jitter(m) for m in SWEEP_MASSES],
            "deep": jitter(BLOWUP_MASS),
            "2d-41": jitter(BLOWUP_MASS),
            "2d-81": jitter(BLOWUP_MASS),
            "2d-41-default": jitter(BLOWUP_MASS)}


def _write_config(path: str, keys: dict, mass: float | None = None) -> str:
    lines = [f"{k} = {v}" for k, v in keys.items()]
    if mass is not None:
        lines.append(f"init.mass = {mass!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _sweep_run_dir(out: str, mass: float) -> str:
    # run_sweep names each run directory run_<axis>_<value formatted with :g>
    return os.path.join(out, f"run_initial_mass_{mass:g}")


def _sweep_op(label: str, cfg: str, masses: list, out: str) -> Op:
    values = ",".join(repr(m) for m in masses)
    return Op(label, ["sweep", "--config", cfg, "--axis", "initial_mass",
                      "--values", values, "--parallel", "2", "--out", out],
              runs=[Run(_sweep_run_dir(out, m), m) for m in masses],
              default_steps=label.endswith("-default"))


def _run_op(label: str, cfg: str, mass: float, out: str) -> Op:
    return Op(label, ["run", "--config", cfg, "--out", out], runs=[Run(out, mass)],
              default_steps=label.endswith("-default"))


class Workload:
    """Inputs of one workload for one seed.

    ``prepare`` writes the configs (and, for ``audit``, produces the stored
    artifacts with the code under test); ``ops`` lists one pass.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.reference = REFERENCE[name]
        self.masses = draw_masses(seed)
        self._order = random.Random(f"order-{seed}")
        self.cfg: dict[str, str] = {}
        self.artifacts: list[tuple[str, Run]] = []

    def prepare(self, setup_dir: str, cli_main) -> list:
        """Write the pass inputs under ``setup_dir``; returns the set-up
        operations it ran, each with its exit code (only ``audit`` runs any)."""
        cfg_dir = os.path.join(setup_dir, "cfg")
        os.makedirs(cfg_dir, exist_ok=True)
        m = self.masses
        cfg = self.cfg
        cfg.clear()
        if self.name == "sweep-1d":
            cfg["sweep-canonical"] = _write_config(f"{cfg_dir}/canonical.cfg", {**BASE_1D, **CANONICAL})
            cfg["sweep-default"] = _write_config(f"{cfg_dir}/default.cfg", BASE_1D)
            cfg["deep"] = _write_config(f"{cfg_dir}/deep.cfg", DEEP, m["deep"])
            return []
        if self.name == "blowup-2d":
            cfg["2d-41"] = _write_config(f"{cfg_dir}/2d-41.cfg", {**base_2d(41), **CANONICAL}, m["2d-41"])
            cfg["2d-81"] = _write_config(f"{cfg_dir}/2d-81.cfg", {**base_2d(81), **CANONICAL}, m["2d-81"])
            cfg["2d-41-default"] = _write_config(f"{cfg_dir}/2d-41-default.cfg", base_2d(41),
                                                 m["2d-41-default"])
            return []

        # audit: produce the stored artifacts of the canonical 1D sweep, the deep
        # run and the 2D 41^2 run, and one verify config per artifact.
        art = os.path.join(setup_dir, "artifacts")
        canonical = _write_config(f"{cfg_dir}/canonical.cfg", {**BASE_1D, **CANONICAL})
        deep = _write_config(f"{cfg_dir}/deep.cfg", DEEP, m["deep"])
        b41 = _write_config(f"{cfg_dir}/2d-41.cfg", {**base_2d(41), **CANONICAL}, m["2d-41"])
        producers = [_sweep_op("sweep-canonical", canonical, m["sweep"], f"{art}/sweep"),
                     _run_op("deep", deep, m["deep"], f"{art}/deep"),
                     _run_op("2d-41", b41, m["2d-41"], f"{art}/2d-41")]
        done = [(op, cli_main(list(op.argv))) for op in producers]
        self.artifacts = []
        for run in producers[0].runs:
            label = f"sweep-{run.mass:g}"
            cfg[label] = _write_config(f"{cfg_dir}/{label}.cfg", {**BASE_1D, **CANONICAL}, run.mass)
            self.artifacts.append((label, run))
        cfg["deep"], cfg["2d-41"] = deep, b41
        self.artifacts += [("deep", producers[1].runs[0]), ("2d-41", producers[2].runs[0])]
        return done

    def ops(self, pass_dir: str) -> list[Op]:
        cfg, m = self.cfg, self.masses
        if self.name == "sweep-1d":
            ops = [_sweep_op("sweep-canonical", cfg["sweep-canonical"], m["sweep"],
                             f"{pass_dir}/sweep-canonical"),
                   _sweep_op("sweep-default", cfg["sweep-default"], m["sweep"],
                             f"{pass_dir}/sweep-default"),
                   _run_op("deep", cfg["deep"], m["deep"], f"{pass_dir}/deep")]
        elif self.name == "blowup-2d":
            ops = [_run_op(k, cfg[k], m[k], f"{pass_dir}/{k}")
                   for k in ("2d-41", "2d-81", "2d-41-default")]
        else:
            ops = []
            for label, run in self.artifacts:
                common = ["--config", cfg[label], "--trace", f"{run.out_dir}/trace.csv",
                          "--snapshots", f"{run.out_dir}/snapshots.ndjson"]
                vout = f"{pass_dir}/verify-{label}.csv"
                bout = f"{pass_dir}/blowup-{label}.csv"
                ops.append(Op(f"verify:{label}", ["verify", *common, "--checks", ALL_CHECKS,
                                                  "--out", vout], artifact=run, out_file=vout))
                ops.append(Op(f"blowup:{label}", ["blowup", *common, "--out", bout],
                              artifact=run, out_file=bout))
        if self.seed != 0:
            self._order.shuffle(ops)
        return ops


# -- output checks ------------------------------------------------------------

@dataclass
class OpCheck:
    """What one operation left behind, judged against the paper's trichotomy."""
    failed: bool = False
    reasons: list = field(default_factory=list)
    runs: int = 0
    check_failed: int = 0          # runs (or verify calls) that exited 2
    mass_ode: list = field(default_factory=list)
    mismatch: int = 0              # verify rows that disagree with diagnostics.csv
    critical_outcomes: list = field(default_factory=list)
    trace_rows: dict = field(default_factory=dict)   # run dir -> rows in trace.csv

    def fail(self, why: str) -> None:
        self.failed = True
        self.reasons.append(why)


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_op(op: Op, code) -> OpCheck:
    res = OpCheck()
    if isinstance(code, BaseException):
        res.fail(f"{op.label}: raised {type(code).__name__}: {code}")
        return res
    if not isinstance(code, int):
        res.fail(f"{op.label}: returned {code!r}, not an exit code")
        return res
    if code == 1:
        res.fail(f"{op.label}: exit code 1")

    for run in op.runs:
        res.runs += 1
        path = os.path.join(run.out_dir, "summary.json")
        if not os.path.exists(path):
            res.fail(f"{op.label}: no summary.json in {run.out_dir}")
            continue
        with open(path) as fh:
            summary = json.load(fh)
        outcome = summary.get("outcome")
        if run.mass < 1.0 and outcome != "Decayed":
            res.fail(f"{op.label}: mass {run.mass} ended {outcome}, expected Decayed")
        elif run.mass > 1.0 and outcome != "BlowUp":
            res.fail(f"{op.label}: mass {run.mass} ended {outcome}, expected BlowUp")
        elif run.mass == 1.0:
            res.critical_outcomes.append((outcome, summary.get("t_max_estimate")))
        if summary.get("exit_code") == 2:
            res.check_failed += 1
        if "check_mass_ode" in summary:
            res.mass_ode.append(float(summary["check_mass_ode"]))
        trace = os.path.join(run.out_dir, "trace.csv")
        if os.path.exists(trace):
            res.trace_rows[os.path.normpath(run.out_dir)] = len(_read_rows(trace)) - 1

    if op.kind == "verify":
        if code == 2:
            res.check_failed += 1
        if not os.path.exists(op.out_file):
            res.fail(f"{op.label}: verify wrote no {op.out_file}")
            return res
        got = {r[0]: r for r in _read_rows(op.out_file)[1:]}
        want = {r[0]: r for r in _read_rows(os.path.join(op.artifact.out_dir,
                                                          "diagnostics.csv"))[1:]}
        if not got:
            res.fail(f"{op.label}: verify reported no checks")
        res.mismatch = sum(got.get(k) != want.get(k) for k in set(got) | set(want))
        if "mass_ode" in got:
            res.mass_ode.append(float(got["mass_ode"][2]))
    elif op.kind == "blowup":
        if not os.path.exists(op.out_file):
            res.fail(f"{op.label}: blowup wrote no {op.out_file}")
            return res
        metrics = {r[0] for r in _read_rows(op.out_file)[1:]}
        if "poincare_constant" not in metrics:
            res.fail(f"{op.label}: no poincare_constant")
        if op.artifact.mass > 1.0 and "t_max_estimate" not in metrics:
            res.fail(f"{op.label}: no t_max_estimate for supercritical mass")
    return res


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
