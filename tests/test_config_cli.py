"""Configuration parsing, the experiment pipeline, sweeps, and the CLI surface."""

import json
import os
import re
import stat

import numpy as np
import pytest

import replidyn as rd
import replidyn.elliptic as elliptic_mod
import replidyn.experiment as experiment_mod
from replidyn.cli import build_parser, main
from replidyn.config import (SWEEP_AXES, ConfigError, SweepSpec, config_to_text,
                             parse_config)
from replidyn.experiment import (diagnostics_rows, run_experiment, run_sweep,
                                 solver_params_from_config)

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
    cfg = parse_config("grid.dimension = 2\ngrid.n = 21 21\ninit.mass = 1.5\n")
    out = tmp_path / "2d"
    run_experiment(cfg, str(out))
    stored = json.loads((out / "summary.json").read_text())
    result, = results
    assert result.factorizations >= 2
    assert result.cg_iterations > 0
    assert stored["factorizations"] == result.factorizations
    assert stored["cg_iterations"] == result.cg_iterations


@pytest.mark.parametrize("stride", [1, 3])
def test_summary_steps_match_the_trace_rows(stride, tmp_path):
    # a row every stride steps, the initial state's, and the last state's
    cfg = parse_config(FAST_RUN).with_value("solver.trace_stride", stride)
    run_experiment(cfg, str(tmp_path))
    steps = json.loads((tmp_path / "summary.json").read_text())["steps"]
    rows = len((tmp_path / "trace.csv").read_text().splitlines()) - 1
    assert steps > 10 * stride
    assert rows == 1 + -(-steps // stride)


def test_diagnostics_rows_factor_each_subdomain_once(monkeypatch):
    cfg = parse_config(FAST_RUN)
    grid = rd.build_grid(1, [1.0], cfg["grid.n"])
    torsion = rd.solve_torsion(grid)
    u0 = rd.torsion_profile(grid, cfg["init.mass"], cfg["solver.epsilon"], torsion)
    result = rd.run(u0, solver_params_from_config(cfg), torsion)
    factorizations = []
    splu = elliptic_mod.splu

    def counting(*args, **kwargs):
        factorizations.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(elliptic_mod, "splu", counting)
    elliptic_mod._solve_poisson_unit_rhs.cache_clear()
    counts = []
    for _ in range(2):
        rows, ok = diagnostics_rows(cfg, result.trace, result.snapshots,
                                    result.sup_cap, grid, u0)
        assert ok and {r[0] for r in rows} >= {"gradient_bound", "boundary_concentration"}
        counts.append(len(factorizations))
    assert counts[0] >= 1
    assert counts[1] == counts[0]


def test_failed_tolerance_gives_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment_mod, "MASS_ODE_TOL", 1e-18)
    code, summary = run_experiment(parse_config(FAST_RUN), str(tmp_path / "fail"))
    assert code == 2
    assert summary["diagnostics_passed"] is False


def test_module_error_gives_exit_1(tmp_path):
    cfg = parse_config(FAST_RUN).with_value("diagnostics.margin", 0.499)
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


def test_sweep_refuses_values_that_share_a_run_directory(tmp_path, capsys):
    # each run writes run_<axis>_<value:g>; 0.5 and 0.5000001 share one
    # directory, and two workers would write it at the same time
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
    cfg = parse_config(FAST_RUN).with_value("diagnostics.margin", 0.499)
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


def test_verify_reads_epsilon_from_the_run(tmp_path, capsys):
    # a config that disagrees with the run on epsilon must not move the audit
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path, CANONICAL_BLOWUP),
                 "--out", str(out)]) == 0
    other = _write_cfg(tmp_path, CANONICAL_BLOWUP.replace(
        "solver.epsilon = 1e-3", "solver.epsilon = 1e-2"), "other")
    main(["verify", "--config", other, "--trace", str(out / "trace.csv"),
          "--snapshots", str(out / "snapshots.ndjson"),
          "--out", str(tmp_path / "verify.csv")])
    assert ((tmp_path / "verify.csv").read_text()
            == (out / "diagnostics.csv").read_text())


def test_blowup_reads_epsilon_from_the_run(tmp_path, capsys):
    # read with a config that says epsilon 1e-2, the run's own blowup.csv comes
    # back byte for byte (taking epsilon from the config moved t_max_estimate
    # from 0.0367525 to 0.0366249)
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path, CANONICAL_BLOWUP),
                 "--out", str(out)]) == 0
    other = _write_cfg(tmp_path, CANONICAL_BLOWUP.replace(
        "solver.epsilon = 1e-3", "solver.epsilon = 1e-2"), "other")
    assert main(["blowup", "--config", other, "--trace", str(out / "trace.csv"),
                 "--snapshots", str(out / "snapshots.ndjson"),
                 "--out", str(tmp_path / "blowup.csv")]) == 0
    assert (tmp_path / "blowup.csv").read_bytes() == (out / "blowup.csv").read_bytes()


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


CONSTRUCTED_INIT = """
grid.n = 201
init.profile = constructed
init.mass = 0.05
solver.epsilon = 1e-3
output.dir = init
"""


def test_cli_initdata_subcommand(tmp_path):
    cfg_path = _write_cfg(tmp_path, CONSTRUCTED_INIT)
    out = str(tmp_path / "init")
    assert main(["initdata", "--config", cfg_path, "--out", out]) == 0
    report = (tmp_path / "init" / "initdata_report.csv").read_text().splitlines()
    assert report[0] == "property,measured,threshold,pass"
    assert all(line.endswith("True") for line in report[1:])


@pytest.mark.parametrize("text", [
    "grid.n = 201\ninit.mass = 0.5\nsolver.epsilon = 1e-2\n",
    "grid.dimension = 2\ngrid.n = 81\ninit.mass = 0.05\nsolver.t_end = 0.05\n",
], ids=["1d", "2d-81"])
def test_run_exits_2_when_the_initial_data_fails_its_report(text, tmp_path, capsys):
    # weighted_norm_headroom fails here; run must say so as initdata does
    cfg_path = _write_cfg(tmp_path, "init.profile = constructed\n" + text)
    assert main(["initdata", "--config", cfg_path, "--out", str(tmp_path / "init")]) == 2
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initdata_passed"] is False
    assert summary["exit_code"] == 2
    assert ((out / "initdata_report.csv").read_text()
            == (tmp_path / "init" / "initdata_report.csv").read_text())


@pytest.mark.parametrize("text", [
    "grid.n = 41\n",
    "grid.dimension = 2\ngrid.n = 41\n",
], ids=["1d-41", "2d-41"])
def test_initdata_on_a_coarse_grid_names_the_settings_to_change(text, tmp_path, capsys):
    # the collar of the constructed profile is derived from the grid and
    # epsilon; the error names the keys that set them
    cfg_path = _write_cfg(tmp_path, "init.profile = constructed\ninit.mass = 0.02\n" + text)
    assert main(["initdata", "--config", cfg_path, "--out", str(tmp_path / "init")]) == 1
    err = capsys.readouterr().err
    assert "grid.n" in err and "solver.epsilon" in err


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
    init_cfg = _write_cfg(tmp_path, CONSTRUCTED_INIT, "init")
    assert main(["initdata", "--config", init_cfg,
                 "--out", str(tmp_path / "out" / "init")]) == 0
    files = sorted(p for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert {p.name for p in files} >= {
        "trace.csv", "snapshots.ndjson", "u0eps.ndjson", "diagnostics.csv",
        "blowup.csv", "summary.json", "verify.csv", "initdata_report.csv"}
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


def test_cli_replicator_kernel_payoff_writes_csv(tmp_path, capsys):
    # the kernel game has 201 strategies; its trace is the same CSV
    cfg_path = _write_cfg(tmp_path, "replicator.payoff = kernel\n"
                                    "replicator.t_end = 0.5\nreplicator.dt = 0.01\n")
    out = tmp_path / "rep"
    assert main(["replicator", "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["replicator_trace.csv"]
    rows = np.loadtxt(out / "replicator_trace.csv", delimiter=",", skiprows=1)
    header = (out / "replicator_trace.csv").read_text().splitlines()[0].split(",")
    assert header == ["t"] + [f"p_{i}" for i in range(1, 202)]
    assert rows.shape == (51, 202)
    assert np.allclose(rows[:, 1:].sum(axis=1), 1.0)


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
