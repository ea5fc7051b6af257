"""Tests of the benchmark itself: the trace agrees with the counters, span
counts repeat exactly, the tracer leaves replidyn as it found it, and
BENCHMARK.json names the metrics the benchmark prints.

Run with:  PYTHONPATH=src python -m pytest bench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import replidyn  # noqa: E402
import replidyn.cli  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


class TinyWorkload:
    """A small 1D pass: a two-worker sweep over a sub- and a supercritical
    mass, and one single run, at trace_stride = 1."""

    reference = ("splu",)

    def __init__(self, cfg_dir: Path):
        keys = {**wl.BASE_1D, **wl.CANONICAL, "grid.n": "41"}
        self.cfg = wl._write_config(str(cfg_dir / "tiny.cfg"), keys)
        self.run_cfg = wl._write_config(str(cfg_dir / "tiny-run.cfg"), keys, 1.3)

    def ops(self, pass_dir: str):
        return [wl._sweep_op("sweep-canonical", self.cfg, [0.5, 1.5], f"{pass_dir}/sweep"),
                wl._run_op("deep", self.run_cfg, 1.3, f"{pass_dir}/run")]


def _traced_pass(tmp_path, tracer, pass_no):
    workload = TinyWorkload(tmp_path)
    return bench.run_pass(workload, tmp_path, pass_no, replidyn, tracer)


def test_step_calls_equal_trace_rows_minus_one(tmp_path):
    rec = _traced_pass(tmp_path, Tracer(), 1)
    assert rec.failed == 0 and rec.reasons == []
    assert len(rec.trace_rows) == 3
    assert rec.layers["solver.step.calls"] == sum(r - 1 for r in rec.trace_rows.values())
    assert rec.layers["solver.accept_ratio"] == 1.0
    assert rec.layers["experiment.run_experiment.calls"] == 3
    assert rec.layers["experiment.run_sweep.concurrency"] > 0.0
    assert rec.layers["solver.step.self_us_1d"] > 0.0
    assert rec.layers["solver.step.self_us_2d81"] == 0.0


def test_span_counts_repeat_exactly(tmp_path):
    tracer = Tracer()
    first = _traced_pass(tmp_path, tracer, 1)
    second = _traced_pass(tmp_path, tracer, 3)
    assert first.counts == second.counts
    assert first.counts["solver.step"] > 0
    assert first.counts["cli.main.sweep"] == 1 and first.counts["cli.main.run"] == 1


def test_tracer_restores_every_original():
    solver = sys.modules["replidyn.solver"]
    experiment = sys.modules["replidyn.experiment"]
    before = (solver.step, experiment.run, replidyn.cli.main,
              replidyn.diagnostics.Trace.__dict__["from_csv"])
    tracer = Tracer()
    tracer.install(replidyn)
    assert solver.step is not before[0] and experiment.run is not before[1]
    tracer.uninstall()
    after = (solver.step, experiment.run, replidyn.cli.main,
             replidyn.diagnostics.Trace.__dict__["from_csv"])
    assert after == before


def test_seed_jitter_keeps_masses_on_their_side_of_one():
    assert wl.draw_masses(0)["sweep"] == list(wl.SWEEP_MASSES)
    for seed in range(1, 200):
        masses = wl.draw_masses(seed)
        assert wl.draw_masses(seed) == masses
        for base, m in zip(wl.SWEEP_MASSES, masses["sweep"]):
            assert abs(m / base - 1.0) <= wl.JITTER + 1e-4
            assert (m < 1.0) == (base < 1.0) and (m == 1.0) == (base == 1.0)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
