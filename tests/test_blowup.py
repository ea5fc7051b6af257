"""Singular-time extrapolation and blow-up set classification."""

import csv
import math

import numpy as np
import pytest

import replidyn as rd
from replidyn import blowup
from replidyn.config import parse_config
from replidyn.experiment import run_experiment
from replidyn.mesh import Field

from conftest import (DEEP_EPS, deep_params, precap_trace, time_weighted_median,
                      torsion_blowup_time)
from test_diagnostics import synthetic_trace


def test_estimate_exact_on_torsion_law():
    # torsion data obeys y' = (y - 1) y^2 / C with E = y^2 / C, and reaches
    # corrected mass y at t(y) = T(y0) - T(y)
    c = 1.0 / 12.0
    y = np.geomspace(1.5, 1e3, 200)
    t = torsion_blowup_time(1.5, c) - torsion_blowup_time(y, c)
    est, spread = blowup.estimate_tmax(synthetic_trace(t, y, y * y / c))
    assert abs(est - torsion_blowup_time(1.5, c)) <= 1e-15
    assert spread <= 1e-13


def test_estimate_rejects_nondecreasing_tail(run_decay):
    with pytest.raises(ValueError):
        blowup.estimate_tmax(run_decay.trace)


def test_estimate_needs_enough_rows():
    t = np.linspace(0.0, 0.5, 5)
    y = 1.0 + 1.0 / (1.0 - t)
    with pytest.raises(ValueError, match="rows"):
        blowup.estimate_tmax(synthetic_trace(t, y, np.ones_like(t)))


def test_deep_run_estimate_quality(run_deep, grid201, torsion201):
    assert run_deep.outcome == "BlowUp"
    t_max, spread = blowup.estimate_tmax(run_deep.trace)
    assert math.isfinite(t_max)
    assert spread <= 1e-2
    assert t_max > 0.0


def test_estimate_stable_under_cap(run_deep, grid201, torsion201):
    u0 = rd.torsion_profile(grid201, 1.5, DEEP_EPS, torsion201)
    smaller_cap = rd.run(u0, deep_params(sup_cap=1e3), torsion201)
    t_max = blowup.estimate_tmax(run_deep.trace)[0]
    rel = abs(blowup.estimate_tmax(smaller_cap.trace)[0] - t_max) / t_max
    assert rel <= 0.10


def test_blowup_set_on_manufactured_global_profile(grid201, torsion201):
    # u = Phi / (T - t): every interior node grows by the same factor
    T = 1.0
    snaps = [(t, Field(grid201, torsion201.phi.values / (T - t) + 1e-9))
             for t in (0.0, 0.5, 0.9, 0.95, 0.99)]
    report = blowup.blowup_set_estimate(snaps)
    assert report.blowup_set_fraction == 1.0
    inner = grid201.interior_mask
    factors = report.growth_factors[inner]
    assert np.max(factors) - np.min(factors) <= 1e-4 * np.max(factors)


def test_blowup_set_on_decayed_run_is_empty(run_decay):
    report = blowup.blowup_set_estimate(run_decay.snapshots)
    assert report.blowup_set_fraction == 0.0


def test_blowup_set_needs_checkpoints(run_decay):
    with pytest.raises(ValueError):
        blowup.blowup_set_estimate(run_decay.snapshots[:2])
    with pytest.raises(ValueError):
        # every checkpoint time is nearest the snapshot at 0.01 or at 1
        blowup.blowup_set_estimate([(t, f) for t, (_, f)
                                    in zip((0.0, 0.01, 1.0), run_decay.snapshots)])


def test_blowup_set_global_on_deep_run(run_deep):
    report = blowup.blowup_set_estimate(run_deep.snapshots)
    assert report.blowup_set_fraction >= 0.99
    assert report.core_min_growth[0.25] >= 10.0


def test_torsion_bound_row_is_the_closed_form(run_deep, grid201, torsion201):
    metrics = dict(blowup.blowup_metrics(run_deep.trace, run_deep.snapshots, grid201))
    y0 = float(run_deep.trace.corrected_mass[0])
    t_h = torsion_blowup_time(y0, torsion201.c_subdomain)
    assert abs(metrics["torsion_blowup_bound"] / t_h - 1.0) <= 1e-14
    assert "poincare_constant" in metrics


def test_torsion_bound_lies_above_a_non_torsion_blowup(run_deep_asymmetric, grid201):
    # E C_h >= y^2 for every grid function, so y' >= (y - 1) y^2 / C_h and
    # torsion data of the same corrected mass blows up last: measured t_last
    # 0.024170 against T_h 0.035995
    result = run_deep_asymmetric
    assert result.outcome == "BlowUp"
    metrics = dict(blowup.blowup_metrics(result.trace, result.snapshots, grid201))
    assert result.t_last < metrics["torsion_blowup_bound"]
    assert metrics["t_max_estimate"] < metrics["torsion_blowup_bound"]


def test_blowup_outcome_invariants(run_blowup, run_deep):
    # a blow-up classification comes with the sup norm at the cap, and both
    # the energy and mass histories diverging together
    for result in (run_blowup, run_deep):
        assert result.outcome == "BlowUp"
        assert float(np.max(result.trace.sup_norm)) >= result.sup_cap * (1 - 1e-9)
        trace = precap_trace(result)
        assert trace.energy[-1] >= 10.0 * time_weighted_median(trace.energy, trace.t)
        assert trace.corrected_mass[-1] >= 2.0 * trace.corrected_mass[0]


def test_estimate_extrapolates_beyond_fit_window(run_deep):
    trace = run_deep.trace
    usable = (trace.corrected_mass > 1.0) & ~trace.saturated()
    last_used = trace.t[usable][-1]
    assert blowup.estimate_tmax(trace)[0] > last_used


def test_blowup_run_with_collapsed_checkpoints_reports_blowup(tmp_path):
    # at default steps the run blows up in 87 steps: a stride of 80 keeps the
    # snapshots at t = 0, 0.0421 and 0.0426, and every checkpoint time from
    # half the last one on is nearest to one of the last two
    cfg = parse_config("grid.n = 201\ninit.mass = 1.5\nsolver.snapshot_stride = 80\n")
    code, summary = run_experiment(cfg, str(tmp_path / "run"))
    assert summary["outcome"] == "BlowUp"
    assert code != 1
    assert (tmp_path / "run" / "trace.csv").exists()
    with open(tmp_path / "run" / "blowup.csv") as fh:
        metrics = {row[0] for row in csv.reader(fh)}
    assert {"t_max_estimate", "poincare_constant"} <= metrics
    assert "blowup_set_fraction" not in metrics
    assert "blowup_set_fraction" not in summary
