"""Configuration parsing, the experiment pipeline, sweeps, and the CLI surface."""

import json
import os
import re
import stat
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import replidyn as rd
import replidyn.blowup as blowup_mod
import replidyn.config as config_mod
import replidyn.elliptic as elliptic_mod
import replidyn.experiment as experiment_mod
import replidyn.mesh as mesh_mod
import replidyn.solver as solver_mod
from replidyn.cli import build_parser, main
from replidyn.config import SWEEP_AXES, ConfigError, SweepSpec, parse_config, solver_settings
from replidyn.experiment import diagnostics_rows, run_experiment, run_sweep

from conftest import config_to_text

FAST_RUN = """
grid.n = 101
init.mass = 0.5
solver.epsilon = 1e-3
solver.t_end = 5.0
solver.dt_max = 0.02
solver.reaction_cap_c = 0.015
solver.snapshot_stride = 20
output.dir = fast
"""


def test_minimal_config_applies_defaults():
    cfg = parse_config("grid.n = 201\ninit.mass = 1.5\n")
    assert cfg["grid.n"] == [201]
    assert cfg["init.mass"] == 1.5
    assert cfg["solver.epsilon"] == 1e-3
    assert cfg["output.dir"] == "out"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*solver.epsilonn"):
        parse_config("grid.n = 201\nsolver.epsilonn = 1e-3\n")


def test_invalid_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="solver.epsilon"):
        parse_config("solver.epsilon = -1\n")
    with pytest.raises(ConfigError, match="line 1.*grid.n"):
        parse_config("grid.n = twelve\n")


FLOAT_KEYS = [key for key, (kind, _) in config_mod._SCHEMA.items()
              if kind in ("float", "floats")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_refused_by_key_and_line(key, value):
    # nan passes every comparison-based range check, and inf some of them
    with pytest.raises(ConfigError, match=rf"line 2: key '{re.escape(key)}': must be finite"):
        parse_config(f"grid.n = 51\n{key} = {value}\n")


def test_two_dimensional_config():
    cfg = parse_config("grid.dimension = 2\ngrid.n = 65 65\n")
    assert cfg["grid.n"] == [65, 65]
    assert cfg["grid.extents"] == [1.0, 1.0]  # scalar default broadcast


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# banner\n\ngrid.n = 51  # inline\n")
    assert cfg["grid.n"] == [51]


def test_config_roundtrip():
    cfg = parse_config(FAST_RUN)
    again = parse_config(config_to_text(cfg))
    assert again.values == cfg.values


def test_sweep_spec_validation():
    cfg = parse_config(FAST_RUN)
    with pytest.raises(ConfigError, match="nonempty"):
        SweepSpec(base=cfg, axis="initial_mass", values=[])
    with pytest.raises(ConfigError, match="axis"):
        SweepSpec(base=cfg, axis="viscosity", values=[1.0])


def test_run_experiment_artifacts_and_summary(tmp_path):
    cfg = parse_config(FAST_RUN)
    out = tmp_path / "run"
    code, summary = run_experiment(cfg, str(out))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "snapshots.ndjson", "summary.json", "trace.csv"]
    stored = json.loads((out / "summary.json").read_text())
    assert stored["outcome"] == "Decayed"
    assert stored["diagnostics_passed"] is True
    assert not list(out.glob("*.tmp*"))


def test_run_experiment_blowup_artifacts(tmp_path):
    cfg = parse_config(FAST_RUN).with_value("init.mass", 1.5)
    code, summary = run_experiment(cfg, str(tmp_path / "bu"))
    assert summary["outcome"] == "BlowUp"
    assert (tmp_path / "bu" / "blowup.csv").exists()
    assert np.isfinite(summary["t_max_estimate"])


def _reject_constant(token):
    raise ValueError(f"summary.json holds the non-JSON constant {token}")


@pytest.mark.parametrize("mass", [0.5, 1.5])
def test_summary_json_is_strict_json(tmp_path, mass):
    # a decay run has no singular time, and its summary leaves the key out
    cfg = parse_config(FAST_RUN).with_value("init.mass", mass)
    run_experiment(cfg, str(tmp_path))
    text = (tmp_path / "summary.json").read_text()
    stored = json.loads(text, parse_constant=_reject_constant)
    assert ("t_max_estimate" in stored) == (mass > 1.0)


def test_summary_carries_the_2d_solver_counters(tmp_path, monkeypatch):
    results = []
    run = experiment_mod.run

    def recording(*args):
        results.append(run(*args))
        return results[-1]

    monkeypatch.setattr(experiment_mod, "run", recording)
    # one factor serves this run whole; allowed one CG iteration a step
    # before the held factor is replaced, it refactors (3 factorizations)
    monkeypatch.setattr(solver_mod, "CG_MAX_ITER", 1)
    cfg = parse_config("grid.dimension = 2\ngrid.n = 21 21\ninit.mass = 1.5\n"
                       "solver.dt_init = 1e-2\n")
    out = tmp_path / "2d"
    run_experiment(cfg, str(out))
    stored = json.loads((out / "summary.json").read_text())
    result, = results
    assert result.factorizations >= 2
    assert result.cg_iterations > 0
    assert stored["factorizations"] == result.factorizations
    assert stored["cg_iterations"] == result.cg_iterations
    assert stored["start_fallbacks"] == result.start_fallbacks


def test_diagnostics_rows_factor_each_subdomain_once(monkeypatch):
    cfg = parse_config(FAST_RUN)
    grid = rd.build_grid(1, [1.0], cfg["grid.n"])
    torsion = rd.solve_torsion(grid)
    u0 = rd.torsion_profile(grid, cfg["init.mass"], cfg["solver.epsilon"], torsion)
    result = rd.run(u0, rd.SolverParams(**solver_settings(cfg.values)), torsion)
    factorizations = []
    splu = elliptic_mod.splu

    def counting(*args, **kwargs):
        factorizations.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(elliptic_mod, "splu", counting)
    elliptic_mod._solve_poisson_unit_rhs.cache_clear()
    counts = []
    for _ in range(2):
        rows, ok = diagnostics_rows(result.trace, result.snapshots, result.sup_cap)
        assert ok and {r[0] for r in rows} >= {"gradient_bound", "boundary_concentration"}
        counts.append(len(factorizations))
    assert counts[0] >= 1
    assert counts[1] == counts[0]


def test_diagnostics_rows_take_the_initial_data_from_the_first_snapshot():
    # the trace checks need no snapshot; the others read the initial data there
    cfg = parse_config(FAST_RUN)
    grid = rd.build_grid(1, [1.0], cfg["grid.n"])
    u0 = rd.torsion_profile(grid, cfg["init.mass"], cfg["solver.epsilon"])
    result = rd.run(u0, rd.SolverParams(**solver_settings(cfg.values)))
    assert result.snapshots[0][1].values.tobytes() == u0.values.tobytes()
    trace_checks = ["mass_ode", "h_identity", "phi_norm"]
    rows, ok = diagnostics_rows(result.trace, [], result.sup_cap, trace_checks)
    assert rows == diagnostics_rows(result.trace, result.snapshots, result.sup_cap,
                                    trace_checks)[0]


# A decay run whose sup cap is 1.5 times its initial sup norm of 0.751: the
# first snapshot lies past half the cap, so the gradient bound starts at a
# later one.
LOW_CAP_DECAY = """
grid.n = 201
init.mass = 0.5
solver.dt_init = 1e-4
solver.reaction_cap_c = 0.015
solver.snapshot_stride = 20
solver.sup_cap = 1.125
"""


def test_gradient_bound_starts_at_the_first_snapshot_kept(tmp_path):
    # E, ∫'φ ln u0 and the time integral all start at the first snapshot
    # kept, so the bound holds there with equality, and on the later ones
    out = tmp_path / "run"
    code, summary = run_experiment(parse_config(LOW_CAP_DECAY), str(out))
    trace = rd.Trace.from_csv(out / "trace.csv")
    assert trace.sup_norm[0] >= 0.5 * summary["sup_cap"]
    assert (code, summary["outcome"]) == (0, "Decayed")
    assert summary["check_gradient_bound"] == 1.0


def test_failed_tolerance_gives_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment_mod, "MASS_ODE_TOL", 1e-18)
    code, summary = run_experiment(parse_config(FAST_RUN), str(tmp_path / "fail"))
    assert code == 2
    assert summary["diagnostics_passed"] is False


def test_module_error_gives_exit_1(tmp_path):
    # at epsilon 0.3 the automatic sup cap does not exceed the initial sup
    # norm, which run refuses
    cfg = parse_config(FAST_RUN).with_value("solver.epsilon", 0.3)
    code, summary = run_experiment(cfg, str(tmp_path / "err"))
    assert code == 1
    assert summary["outcome"] == "Error"


def test_repeated_runs_byte_identical(tmp_path):
    cfg = parse_config(FAST_RUN)
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    assert (tmp_path / "a" / "trace.csv").read_bytes() \
        == (tmp_path / "b" / "trace.csv").read_bytes()


def test_sweep_outputs_independent_of_parallelism(tmp_path):
    cfg = parse_config(FAST_RUN)
    spec1 = SweepSpec(base=cfg, axis="initial_mass", values=[0.5, 1.5],
                      parallelism=1)
    spec2 = SweepSpec(base=cfg, axis="initial_mass", values=[0.5, 1.5],
                      parallelism=2)
    code1, rows1 = run_sweep(spec1, str(tmp_path / "s1"))
    code2, rows2 = run_sweep(spec2, str(tmp_path / "s2"))
    assert code1 == code2 == 0
    assert rows1 == rows2
    for tag in ("0.5", "1.5"):
        a = tmp_path / "s1" / f"run_initial_mass_{tag}" / "trace.csv"
        b = tmp_path / "s2" / f"run_initial_mass_{tag}" / "trace.csv"
        assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "s1" / "sweep_summary.csv").exists()


def test_sweep_runs_members_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    # a thread pool only contends for the interpreter lock: whatever the
    # parallelism, each member runs on this thread, after the one before it,
    # and a member that raises leaves an Error row in its place
    seen = []

    def record(cfg, out_dir):
        seen.append((cfg["init.mass"], threading.get_ident(), threading.active_count()))
        if cfg["init.mass"] == 0.5:
            raise OSError("disk full")
        return 0, {"outcome": "Decay"}

    monkeypatch.setattr(experiment_mod, "run_experiment", record)
    threads = threading.active_count()
    spec = SweepSpec(base=parse_config(FAST_RUN), axis="initial_mass",
                     values=[1.5, 0.5, 0.8], parallelism=2)
    code, rows = run_sweep(spec, str(tmp_path / "sweep"))
    assert code == 1
    assert [row[:2] for row in rows] == [["1.5", "Decay"], ["0.5", "Error"], ["0.8", "Decay"]]
    assert seen == [(m, threading.get_ident(), threads) for m in (1.5, 0.5, 0.8)]


def test_sweep_refuses_values_that_share_a_run_directory(tmp_path, capsys):
    # each run writes run_<axis>_<value:g>; 0.5 and 0.5000001 share one
    # directory, and the later run would overwrite the earlier one's artifacts
    cfg = parse_config(FAST_RUN)
    with pytest.raises(ConfigError, match=r"0\.5, 0\.5000001.*run_initial_mass_0\.5"):
        SweepSpec(base=cfg, axis="initial_mass", values=[0.5, 0.8, 0.5000001])
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", _write_cfg(tmp_path, FAST_RUN),
                 "--axis", "initial_mass", "--values", "0.5,0.5000001",
                 "--parallel", "2", "--out", str(out)])
    assert code == 1
    assert "0.5000001" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_a_non_finite_value_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", _write_cfg(tmp_path, FAST_RUN),
                 "--axis", "initial_mass", "--values", "0.5,nan",
                 "--parallel", "2", "--out", str(out)])
    assert code == 1
    assert "key 'init.mass': must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_the_grid_size_axis(tmp_path, capsys):
    # a grid-size axis would truncate fractional values: 51.7 ran n=51
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", _write_cfg(tmp_path, FAST_RUN),
                 "--axis", "n", "--values", "51,51.7", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown sweep axis 'n'" in err
    assert all(axis in err for axis in SWEEP_AXES)
    assert not out.exists()


def test_sweep_records_individual_failures(tmp_path):
    cfg = parse_config(FAST_RUN).with_value("solver.epsilon", 0.3)
    spec = SweepSpec(base=cfg, axis="initial_mass", values=[0.5])
    code, rows = run_sweep(spec, str(tmp_path / "sf"))
    assert code == 1
    assert rows[0][1] == "Error"


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPLIDYN_OUT", str(tmp_path))
    cfg = parse_config(FAST_RUN)
    code, _ = run_experiment(cfg)
    assert code == 0
    assert (tmp_path / "fast" / "summary.json").exists()


def _write_cfg(tmp_path, text, name="cfg"):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_and_verify(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_RUN)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    code = main(["verify", "--config", cfg_path,
                 "--trace", os.path.join(out, "trace.csv"),
                 "--snapshots", os.path.join(out, "snapshots.ndjson"),
                 "--checks", "mass_ode,phi_norm",
                 "--out", str(tmp_path / "verify.csv")])
    assert code == 0
    text = (tmp_path / "verify.csv").read_text()
    assert text.splitlines()[0] == "check,t,value,bound,pass"
    assert "mass_ode" in text


def test_verify_rejects_an_unknown_check_name(tmp_path, capsys):
    # the names are checked before any check runs, so a short run will do
    cfg_path = _write_cfg(tmp_path, FAST_RUN.replace("solver.t_end = 5.0", "solver.t_end = 0.05"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson"), "--checks", "mass_od"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "['mass_od']" in captured.err and "gradient_bound" in captured.err


def test_verify_refuses_a_trace_with_a_nan_time(tmp_path, capsys):
    # a NaN time compares false with its neighbours, so the order check alone
    # let it through and verify matched snapshots to the NaN row
    cfg_path = _write_cfg(tmp_path, FAST_RUN.replace("solver.t_end = 5.0", "solver.t_end = 0.05"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_bytes().split(b"\r\n")
    lines[2] = b"nan" + lines[2][lines[2].index(b","):]
    (out / "trace.csv").write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    code = main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "finite and strictly increasing" in captured.err


CANONICAL_BLOWUP = """
grid.n = 201
init.mass = 1.5
solver.epsilon = 1e-3
solver.t_end = 5.0
solver.dt_init = 1e-4
solver.reaction_cap_c = 0.015
solver.snapshot_stride = 20
"""


DEEP_BLOWUP = CANONICAL_BLOWUP.replace("solver.epsilon = 1e-3", "solver.epsilon = 1e-9").replace(
    "solver.dt_init = 1e-4", "solver.dt_init = 1e-5\nsolver.sup_cap = 1e4")


@pytest.mark.parametrize("text", [
    CANONICAL_BLOWUP,
    "grid.dimension = 2\ngrid.n = 21 21\n" + CANONICAL_BLOWUP.replace("grid.n = 201\n", ""),
    DEEP_BLOWUP,
], ids=["1d-canonical", "2d-21", "eps-1e-9"])
def test_verify_reproduces_diagnostics_of_run(text, tmp_path, capsys):
    # verify must judge the stored artifacts against the run's own sup cap
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson"),
                 "--out", str(tmp_path / "verify.csv")]) == 0
    got = (tmp_path / "verify.csv").read_text().splitlines()
    want = (out / "diagnostics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in got][1:] == [
        "mass_ode", "h_identity", "phi_norm", "gradient_bound",
        "boundary_concentration"]
    assert got == want


# Configs on the grid of CANONICAL_BLOWUP that disagree with the run: on
# epsilon alone, and on every key but the grid's.
OTHER_RUNS = [
    CANONICAL_BLOWUP.replace("solver.epsilon = 1e-3", "solver.epsilon = 1e-2"),
    "grid.n = 201\ninit.mass = 0.5\nsolver.epsilon = 1e-2\nsolver.dt_init = 1e-3\n"
    "solver.dt_max = 0.01\nsolver.t_end = 1.0\nsolver.sup_cap = 50\n"
    "solver.snapshot_stride = 3\nsolver.reaction_cap_c = 0.4\n"
    "replicator.payoff = laplacian\nreplicator.t_end = 2.0\nreplicator.dt = 0.1\n"
    "replicator.p0 = 0.5 0.5\noutput.dir = elsewhere\n",
]


def _audit_with_other_configs(command: str, tmp_path) -> None:
    """``command`` on a run's artifacts, given each of OTHER_RUNS, writes
    the file the run wrote byte for byte."""
    run, other = (parse_config(text).values for text in (CANONICAL_BLOWUP, OTHER_RUNS[1]))
    assert [key for key in run if run[key] == other[key]] == [
        "grid.dimension", "grid.extents", "grid.n"]
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path, CANONICAL_BLOWUP),
                 "--out", str(out)]) == 0
    name = {"verify": "diagnostics.csv", "blowup": "blowup.csv"}[command]
    for k, text in enumerate(OTHER_RUNS):
        got = tmp_path / f"{command}-{k}.csv"
        assert main([command, "--config", _write_cfg(tmp_path, text, f"other{k}"),
                     "--trace", str(out / "trace.csv"),
                     "--snapshots", str(out / "snapshots.ndjson"),
                     "--out", str(got)]) == 0
        assert got.read_bytes() == (out / name).read_bytes(), text


def test_verify_reads_epsilon_from_the_run(tmp_path, capsys):
    # a config that disagrees with the run on anything but the grid must not
    # move the audit
    _audit_with_other_configs("verify", tmp_path)


def test_blowup_reads_epsilon_from_the_run(tmp_path, capsys):
    # read with a config that says epsilon 1e-2, the run's own blowup.csv comes
    # back byte for byte (taking epsilon from the config moved t_max_estimate
    # from 0.0367525 to 0.0366249), and so with every other non-grid key changed
    _audit_with_other_configs("blowup", tmp_path)


@pytest.mark.parametrize("command", ["verify", "blowup"])
def test_trace_and_snapshots_of_two_runs_are_refused(command, tmp_path, capsys):
    # snapshots of the mass-1.2 run beside the trace of the mass-1.5 run: the
    # two runs take different steps, so the audit of such a pair would judge
    # each snapshot against the energy and mass of some other time
    outs = []
    for mass in ("1.5", "1.2"):
        cfg_path = _write_cfg(tmp_path, FAST_RUN.replace("init.mass = 0.5",
                                                         f"init.mass = {mass}"))
        outs.append(tmp_path / mass)
        assert main(["run", "--config", cfg_path, "--out", str(outs[-1])]) == 0
    trace = rd.Trace.from_csv(outs[0] / "trace.csv")
    times = [t for t, _ in rd.read_snapshots(outs[1] / "snapshots.ndjson",
                                             rd.build_grid(1, [1.0], [101]))]
    first = next(t for t in times if t not in trace.t)
    capsys.readouterr()
    code = main([command, "--config", cfg_path, "--trace", str(outs[0] / "trace.csv"),
                 "--snapshots", str(outs[1] / "snapshots.ndjson")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"snapshot time {first} is not a trace row" in captured.err


@pytest.mark.parametrize("key", ["epsilon", "omega_measure", "sup_cap"])
def test_verify_names_a_key_the_summary_lacks(key, tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_RUN)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary[key]
    (out / "summary.json").write_text(json.dumps(summary))
    code = main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson")])
    assert code == 1
    assert f"records no {key}" in capsys.readouterr().err


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg_path = _write_cfg(tmp_path, FAST_RUN)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    common = ["--config", cfg_path, "--trace", str(out / "trace.csv"),
              "--snapshots", str(out / "snapshots.ndjson")]
    assert main(["verify", *common, "--checks", "mass_ode",
                 "--out", str(tmp_path / "one.csv")]) == 0
    capsys.readouterr()
    # neither the run's --out nor the first verify's --checks carries over
    assert main(["verify", *common]) == 0
    printed = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()]
    assert printed == ["check", "mass_ode", "phi_norm", "gradient_bound",
                       "boundary_concentration"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.cfg", "one.csv", "run"]


def test_verify_needs_the_run_summary(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_RUN)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    (out / "summary.json").unlink()
    code = main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson")])
    assert code == 1
    assert str(out / "summary.json") in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    CANONICAL_BLOWUP,
    "grid.dimension = 2\ngrid.n = 21 21\ninit.mass = 1.5\n",
], ids=["1d-canonical", "2d-21"])
def test_blowup_reproduces_blowup_csv_of_run(text, tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "run"
    main(["run", "--config", cfg_path, "--out", str(out)])
    assert json.loads((out / "summary.json").read_text())["outcome"] == "BlowUp"
    assert main(["blowup", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson"),
                 "--out", str(tmp_path / "blowup.csv")]) == 0
    assert (tmp_path / "blowup.csv").read_bytes() == (out / "blowup.csv").read_bytes()


def test_cli_blowup_subcommand(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_RUN.replace("init.mass = 0.5",
                                                     "init.mass = 1.5"))
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    code = main(["blowup", "--config", cfg_path,
                 "--trace", os.path.join(out, "trace.csv"),
                 "--snapshots", os.path.join(out, "snapshots.ndjson"),
                 "--out", str(tmp_path / "blowup.csv")])
    assert code == 0
    text = (tmp_path / "blowup.csv").read_text()
    assert "t_max_estimate" in text and "blowup_set_fraction" in text


FAST_BLOWUP = FAST_RUN.replace("init.mass = 0.5", "init.mass = 1.5")


def _count_snapshot_decodes(monkeypatch) -> list:
    """Record every full JSON decode the snapshot reader makes."""
    decoded = []
    monkeypatch.setattr(mesh_mod, "json", SimpleNamespace(
        loads=lambda s: decoded.append(s) or json.loads(s), dumps=json.dumps))
    return decoded


def test_blowup_decodes_only_the_checkpoint_snapshots(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_BLOWUP.replace(
        "solver.snapshot_stride = 20", "solver.snapshot_stride = 1"))
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    records = (out / "snapshots.ndjson").read_text().splitlines()
    assert len(records) > 30
    decoded = _count_snapshot_decodes(monkeypatch)
    assert main(["blowup", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson"),
                 "--out", str(tmp_path / "blowup.csv")]) == 0
    assert 3 <= len(decoded) <= len(blowup_mod.CHECKPOINT_FRACTIONS)
    assert decoded[-1].rstrip("\n") == records[-1]
    assert "blowup_set_fraction" in (tmp_path / "blowup.csv").read_text()
    assert (tmp_path / "blowup.csv").read_bytes() == (out / "blowup.csv").read_bytes()


@pytest.mark.parametrize("fixture", ["run_blowup", "run_deep"])
def test_blowup_set_estimate_on_the_checkpoint_subset_is_the_full_estimate(fixture, request):
    # each picked snapshot is the first nearest its checkpoint and the last is
    # picked, so classifying only the picked ones changes nothing
    snaps = request.getfixturevalue(fixture).snapshots
    idx = blowup_mod.checkpoint_indices(np.array([t for t, _ in snaps]))
    sub = [snaps[k] for k in idx]
    assert len(snaps) > len(sub) >= 3
    assert blowup_mod.checkpoint_indices(np.array([t for t, _ in sub])) == list(range(len(sub)))
    full, part = rd.blowup_set_estimate(snaps), rd.blowup_set_estimate(sub)
    assert part.blowup_set_fraction == full.blowup_set_fraction
    assert part.core_min_growth == full.core_min_growth
    assert part.checkpoint_times == full.checkpoint_times
    assert part.growth_factors.tobytes() == full.growth_factors.tobytes()


def test_verify_of_an_empty_snapshot_file_is_an_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_BLOWUP)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    empty = out / "empty.ndjson"
    empty.write_text("")
    capsys.readouterr()
    assert main(["verify", "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(empty)]) == 1
    assert f"{empty}: no records" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["blowup", "verify"])
@pytest.mark.parametrize("damage", ["cut-short", "other-grid"])
def test_snapshot_read_errors_name_the_file_and_record(command, damage, tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, FAST_BLOWUP)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    path = out / "snapshots.ndjson"
    records = path.read_text().splitlines()
    if damage == "cut-short":  # the last record, which blowup always decodes
        records[-1] = records[-1][: len(records[-1]) // 2]
        path.write_text("\n".join(records) + "\n")
        expected = f"{path}: record {len(records)}: "
    else:
        cfg_path = _write_cfg(tmp_path, FAST_BLOWUP.replace("grid.n = 101", "grid.n = 51"),
                              "other")
        expected = "does not match grid (51,)"
    capsys.readouterr()
    code = main([command, "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search(rf"{re.escape(str(path))}: record \d+: ", captured.err)
    assert expected in captured.err


@pytest.mark.parametrize("command", ["blowup", "verify"])
def test_snapshots_in_the_decimal_text_format_are_refused(command, tmp_path, capsys):
    # a record whose values are a JSON array of decimals, the format written
    # before the base64 payload, gives exit 1 and names the expected encoding
    cfg_path = _write_cfg(tmp_path, FAST_BLOWUP)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    path = out / "snapshots.ndjson"
    grid = rd.build_grid(1, [1.0], [101])
    records = [json.dumps({"t": t, "shape": [101], "values": f.values.tolist()})
               for t, f in rd.read_snapshots(path, grid)]
    path.write_text("\n".join(records) + "\n")
    capsys.readouterr()
    code = main([command, "--config", cfg_path, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search(rf"{re.escape(str(path))}: record \d+: values must be base64 of "
                     r"little-endian float64", captured.err)


def test_artifacts_get_the_mode_of_trace_csv(tmp_path, capsys):
    # every artifact is created as open() creates trace.csv: 0o666 less the umask
    cfg_path = _write_cfg(tmp_path, FAST_RUN.replace("init.mass = 0.5",
                                                     "init.mass = 1.5"))
    run = tmp_path / "out" / "run"
    assert main(["run", "--config", cfg_path, "--out", str(run)]) == 0
    common = ["--config", cfg_path, "--trace", str(run / "trace.csv"),
              "--snapshots", str(run / "snapshots.ndjson")]
    assert main(["verify", *common, "--out", str(tmp_path / "out" / "verify.csv")]) == 0
    assert main(["blowup", *common, "--out", str(tmp_path / "out" / "blowup.csv")]) == 0
    files = sorted(p for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert {p.name for p in files} >= {
        "trace.csv", "snapshots.ndjson", "diagnostics.csv",
        "blowup.csv", "summary.json", "verify.csv"}
    mode = stat.S_IMODE((run / "trace.csv").stat().st_mode)
    got = {str(p.relative_to(tmp_path)): oct(stat.S_IMODE(p.stat().st_mode))
           for p in files}
    assert got == {name: oct(mode) for name in got}


def test_cli_replicator_subcommand(tmp_path):
    cfg_path = _write_cfg(tmp_path, """
replicator.payoff = coordination
replicator.p0 = 0.6 0.4
replicator.t_end = 2.0
replicator.dt = 0.01
output.dir = rep
""")
    out = str(tmp_path / "rep")
    assert main(["replicator", "--config", cfg_path, "--out", out]) == 0
    lines = (tmp_path / "rep" / "replicator_trace.csv").read_text().splitlines()
    assert lines[0] == "t,p_1,p_2"
    assert len(lines) == 202


def test_cli_replicator_laplacian_payoff_writes_csv(tmp_path, capsys):
    # the Laplacian game plays one strategy per interior node of grid.*;
    # its trace is the same CSV
    cfg_path = _write_cfg(tmp_path, "replicator.payoff = laplacian\ngrid.n = 21\n"
                                    "replicator.t_end = 0.05\nreplicator.dt = 1e-4\n")
    out = tmp_path / "rep"
    assert main(["replicator", "--config", cfg_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "steps=500 clip_total=0.0\n"
    assert sorted(p.name for p in out.iterdir()) == ["replicator_trace.csv"]
    rows = np.loadtxt(out / "replicator_trace.csv", delimiter=",", skiprows=1)
    header = (out / "replicator_trace.csv").read_text().splitlines()[0].split(",")
    assert header == ["t"] + [f"p_{i}" for i in range(1, 20)]
    assert rows.shape == (501, 20)
    assert np.allclose(rows[:, 1:].sum(axis=1), 1.0)
    # the default p0 is a bump centred in the box: node 10 of 21 is x = 0.5
    assert np.argmax(rows[0, 1:]) == 9
    assert np.allclose(rows[0, 1:], rows[0, :0:-1], rtol=1e-12, atol=0.0)


def test_cli_replicator_laplacian_game_refuses_the_default_dt(tmp_path, capsys):
    # the game is stiff: RK4 needs dt·λ_max·max u ≲ 2.8, and dt = 0.01 on 201
    # nodes clips far more than the limit in its first step
    cfg_path = _write_cfg(tmp_path, "replicator.payoff = laplacian\n")
    out = tmp_path / "rep"
    assert main(["replicator", "--config", cfg_path, "--out", str(out)]) == 1
    assert "dt too large" in capsys.readouterr().err
    assert not out.exists()


def test_cli_replicator_laplacian_game_on_the_default_2d_grid_stays_sparse(tmp_path,
                                                                          capsys):
    # 201^2 nodes: the payoff is sparse, so the game reaches its first step
    # (measured: 1.0 s at a 72 MB peak) and refuses the default dt there; a
    # dense payoff would be 39,601^2 floats, 12.5 GB
    cfg_path = _write_cfg(tmp_path, "replicator.payoff = laplacian\n"
                                    "grid.dimension = 2\n")
    out = tmp_path / "rep"
    assert main(["replicator", "--config", cfg_path, "--out", str(out)]) == 1
    assert "dt too large" in capsys.readouterr().err
    assert not out.exists()


def test_cli_replicator_refuses_a_dt_that_does_not_divide_t_end(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "replicator.t_end = 1.0\nreplicator.dt = 0.3\n")
    out = tmp_path / "rep"
    assert main(["replicator", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "t_end=1.0" in err and "dt=0.3" in err
    assert not out.exists()


def test_replicator_p0_needs_two_entries(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"line 2: .*replicator\.p0"):
        parse_config("replicator.payoff = coordination\nreplicator.p0 = 1.0\n")
    cfg_path = _write_cfg(tmp_path, "replicator.p0 = 1.0\n")
    assert main(["replicator", "--config", cfg_path]) == 1
    assert "replicator.p0" in capsys.readouterr().err


def test_replicator_keys_validated_without_enabled_flag(tmp_path, capsys):
    with pytest.raises(ConfigError, match="replicator.payoff"):
        parse_config("replicator.payoff = bogus\n")
    cfg_path = _write_cfg(tmp_path, "replicator.payoff = bogus\n")
    assert main(["replicator", "--config", cfg_path]) == 1
    assert "replicator.payoff" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["replicator.dt", "replicator.t_end"])
def test_replicator_time_keys_reported_under_their_own_key(key):
    with pytest.raises(ConfigError, match=rf"line 2: key '{re.escape(key)}'"):
        parse_config(f"grid.n = 51\n{key} = -1\n")
    with pytest.raises(ConfigError, match=rf"line 3: key '{re.escape(key)}'"):
        parse_config(f"grid.n = 51\n\n{key} = 0\n")


@pytest.mark.parametrize("argv, code", [
    (["bogus"], 1), (["run"], 1), (["verify", "--config", "x"], 1),
    (["initdata", "--config", "x"], 1), (["--help"], 0),
], ids=["unknown-command", "run-without-config", "verify-without-trace",
        "retired-initdata", "help"])
def test_usage_errors_exit_1_and_help_exits_0(argv, code, capsys):
    # exit 2 means a check failed; a command line argparse refuses is an error
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err if code else captured.out).startswith("usage: replidyn")


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "solver.epsilon = -3\n")
    assert main(["run", "--config", cfg_path]) == 1
    assert "solver.epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["1e-4", "1e-3"])
def test_sup_cap_at_or_below_epsilon_is_a_config_error(cap, tmp_path, capsys):
    # a cap the floor already reaches used to pass parsing and fail in run
    # with no key and no line
    text = f"grid.n = 51\nsolver.sup_cap = {cap}\n"
    with pytest.raises(ConfigError, match=r"line 2: key 'solver.sup_cap'.*exceed"):
        parse_config(text)
    assert main(["run", "--config", _write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "run")]) == 1
    assert "line 2: key 'solver.sup_cap'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert parse_config("solver.sup_cap = 1.001e-3\n")["solver.sup_cap"] == 1.001e-3


def test_sup_cap_at_or_below_the_initial_sup_is_refused_by_run(tmp_path, capsys):
    # the automatic cap min(1e4 sup0, 0.8 max(phi)/eps) is 0.333 at epsilon
    # 0.3 and the initial sup norm 1.05; the run used to end BlowUp after 0
    # steps and exit 1 on "mass ODE residual needs at least 3 trace rows"
    text = FAST_RUN.replace("solver.epsilon = 1e-3", "solver.epsilon = 0.3")
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().out == "outcome=Error exit=1\n"
    error = json.loads((out / "summary.json").read_text())["error"]
    assert re.search(r"sup cap 0\.33\d* does not exceed the initial sup norm 1\.0", error)
    assert "solver.epsilon" in error and "solver.sup_cap" in error
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_margin_that_leaves_too_few_nodes_is_a_config_error(tmp_path, capsys):
    # at 4 nodes the box SUBBOX_MARGIN = 0.25 inside the boundary keeps 2 nodes
    # per axis, too few for its torsion solve; the grid is refused at its line
    # before any run, as a too-large margin was while margin was a key
    text = "init.mass = 0.5\ngrid.n = 4\n"
    with pytest.raises(ConfigError, match=r"line 2: key 'grid.n': .*"
                                          r"box 0\.25 inside .* keeps 2$"):
        parse_config(text)
    with pytest.raises(ConfigError, match="key 'grid.n'"):
        parse_config("grid.n = 11\n").with_value("grid.n", [4])
    assert main(["run", "--config", _write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "run")]) == 1
    assert "line 2: key 'grid.n'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert parse_config("init.mass = 0.5\ngrid.n = 5\n")


def test_extents_that_leave_too_few_sub_box_nodes_are_refused_at_their_line():
    # the config sets the extents and not grid.n, so the refusal names the
    # extents at their line, not the default grid.n the config never wrote
    with pytest.raises(ConfigError, match=r"^line 1: key 'grid.extents': .*"
                                          r"box 0\.25 inside .* keeps 1$"):
        parse_config("grid.extents = 0.5\n")
    with pytest.raises(ConfigError, match=r"^line 3: key 'grid.n': .* keeps 1$"):
        parse_config("init.mass = 0.5\ngrid.extents = 0.5\ngrid.n = 11\n")


def test_subdomain_solve_refusal_names_the_margin_it_was_given():
    # a library caller's margin is no config key
    with pytest.raises(ValueError, match=r"^margin 0\.45: .* keeps 1$") as err:
        rd.solve_torsion_subdomain(rd.build_grid(1, [1.0], [11]), 0.45)
    assert "grid." not in str(err.value)


# One value per side of each grid, solver and sub-box rule; the parser and the
# library must refuse the same ones.
GRID_VALUES = [
    ("grid.dimension", "3", False), ("grid.dimension", "2", True),
    ("grid.extents", "1.0 1.0", False), ("grid.extents", "0", False),
    ("grid.extents", "-1", False), ("grid.extents", "inf", False),
    ("grid.extents", "nan", False), ("grid.extents", "2.5", True),
    ("grid.n", "51 51", False), ("grid.n", "2", False), ("grid.n", "5", True),
]
SOLVER_VALUES = [
    ("solver.epsilon", "1.5", False), ("solver.epsilon", "1", False),
    ("solver.epsilon", "0", False), ("solver.epsilon", "-1", False),
    ("solver.epsilon", "nan", False), ("solver.epsilon", "0.99", True),
    ("solver.dt_init", "0", False), ("solver.dt_init", "1e-13", False),
    ("solver.dt_init", "0.06", False), ("solver.dt_init", "1e-12", True),
    ("solver.dt_max", "1e-4", False), ("solver.dt_max", "inf", False),
    ("solver.dt_max", "1e-3", True),
    ("solver.t_end", "0", False), ("solver.t_end", "-inf", False),
    ("solver.t_end", "1e-9", True),
    ("solver.sup_cap", "-1", False), ("solver.sup_cap", "1e-3", False),
    ("solver.sup_cap", "nan", False), ("solver.sup_cap", "0", True),
    ("solver.sup_cap", "1.001e-3", True),
    ("solver.snapshot_stride", "0", False), ("solver.snapshot_stride", "1", True),
    ("solver.reaction_cap_c", "0", False), ("solver.reaction_cap_c", "0.6", False),
    ("solver.reaction_cap_c", "0.5", True),
]
MARGIN_VALUES = [("0.45", False), ("0", False), ("-0.1", False), ("0.4", True)]
# the rule 0 < dt_min <= dt_init <= dt_max is reported under solver.dt_init
REPORTED_AS = {("solver.dt_max", "1e-4"): "solver.dt_init"}


def _parse_refuses(key: str, value: str, first_line: str = "grid.n = 51") -> bool:
    """Whether the parser refuses ``key = value`` on line 2, by key and line."""
    try:
        parse_config(f"{first_line}\n{key} = {value}\n")
    except ConfigError as exc:
        reported = REPORTED_AS.get((key, value), key)
        line = "line 2: " if reported == key else ""
        assert str(exc).startswith(f"{line}key '{reported}'"), exc
        return True
    return False


@pytest.mark.parametrize("key, value, usable", GRID_VALUES)
def test_parser_and_build_grid_refuse_the_same_grid_values(key, value, usable):
    assert _parse_refuses(key, value) is not usable
    settings = {"grid.dimension": 1, "grid.extents": [1.0], "grid.n": [51]}
    settings[key] = config_mod._convert(key, config_mod._SCHEMA[key][0], value, 0)
    if key == "grid.dimension":  # the parser's one value per axis
        settings["grid.extents"] *= settings[key]
        settings["grid.n"] *= settings[key]
    if usable:
        rd.build_grid(*settings.values())
    else:
        with pytest.raises(ValueError, match=re.escape(key)):
            rd.build_grid(*settings.values())


@pytest.mark.parametrize("key, value, usable", SOLVER_VALUES)
def test_parser_and_solver_params_refuse_the_same_solver_values(key, value, usable):
    assert _parse_refuses(key, value) is not usable
    field = key.removeprefix("solver.")
    params = rd.SolverParams(**solver_settings(parse_config("grid.n = 51\n").values))
    setattr(params, field, config_mod._convert(key, config_mod._SCHEMA[key][0], value, 0))
    if usable:
        params.validate()
    else:
        with pytest.raises(ValueError, match=re.escape(REPORTED_AS.get((key, value), key))):
            params.validate()


@pytest.mark.parametrize("value, usable", MARGIN_VALUES)
def test_parser_and_subdomain_solve_refuse_the_same_margins(value, usable, monkeypatch):
    # the parser applies the sub-box rule at SUBBOX_MARGIN and reports it at grid.n
    monkeypatch.setattr(config_mod, "SUBBOX_MARGIN", float(value))
    assert _parse_refuses("grid.n", "11", "init.mass = 0.5") is not usable
    grid = rd.build_grid(1, [1.0], [11])
    if usable:
        rd.solve_torsion_subdomain(grid, float(value))
    else:
        with pytest.raises(ValueError, match=f"^margin {float(value)}: "):
            rd.solve_torsion_subdomain(grid, float(value))


@pytest.mark.parametrize("key, value, usable", [
    ("solver.epsilon", "1.5", False), ("solver.epsilon", "1", False),
    ("solver.epsilon", "0", False), ("solver.epsilon", "nan", False),
    ("solver.epsilon", "0.99", True),
    ("init.mass", "0", False), ("init.mass", "-1", False),
    ("init.mass", "inf", False), ("init.mass", "nan", False),
    ("init.mass", "1e-9", True),
])
def test_parser_rho_eps_and_torsion_profile_refuse_the_same_values(key, value, usable):
    # rho_eps(0.5, 1.5) returned 0.5, and torsion_profile took an infinite mass
    assert _parse_refuses(key, value) is not usable
    grid = rd.build_grid(1, [1.0], [51])
    apply = {"solver.epsilon": lambda v: rd.rho_eps(0.5, v),
             "init.mass": lambda v: rd.torsion_profile(grid, v, 1e-3)}[key]
    if usable:
        apply(float(value))
    else:
        with pytest.raises(ValueError, match=re.escape(key)):
            apply(float(value))
