"""Regularized initial data: the torsion profile every run starts from, and
the oracle of the paper's approximation u0eps (conftest.py): mollification,
assembly, and the property report."""

import numpy as np
import pytest

import replidyn as rd
from replidyn import initdata as idt
from replidyn.mesh import Field, build_grid, dirichlet_energy, distance_to_boundary, integrate

from conftest import (InitDataError, construct_initial, mollify, phi_weighted_sup,
                      verify_epsilon_sequence)

EPS = 1e-3


def half_torsion(grid, torsion):
    return Field(grid, 0.5 * torsion.phi.values)


def dense_mollify_oracle(u0, radius):
    """Independent dense evaluation of the inward-shift + convolution:
    explicit loops, no scipy filters."""
    grid = u0.grid
    assert grid.dimension == 1
    h = grid.h[0]
    ext = grid.extents[0]
    n = grid.n[0]
    x = grid.axes[0]
    shift = 2.0 * radius
    k = max(int(round(shift / h)), 1)
    if shift <= 0.08 * ext:
        band, width = 0.25 * ext, 0.2 * ext
    else:
        band = min(1.5 * shift, 0.125 * ext)
        width = min(8.0 * shift, 0.125 * ext)

    def w_of(d):
        if d <= band:
            return 1.0
        if d >= band + width:
            return 0.0
        return 0.5 * (1.0 + np.cos(np.pi * (d - band) / width))

    shifted = np.zeros(n)
    for i in range(n):
        wl = w_of(x[i])
        wr = w_of(ext - x[i])
        fwd = u0.values[i - k] if i - k >= 0 else 0.0
        bwd = u0.values[i + k] if i + k < n else 0.0
        shifted[i] = wl * fwd + wr * bwd + (1.0 - wl - wr) * u0.values[i]

    half = int(radius / h + 1e-9)
    j = np.arange(-half, half + 1)
    kern = 1.0 + np.cos(np.pi * j / half) if half > 0 else np.array([2.0])
    kern = kern / kern.sum()
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for m, wk in zip(j, kern):
            if 0 <= i + m < n:
                acc += wk * shifted[i + m]
        out[i] = acc
    out = np.clip(out, 0.0, None)
    out[0] = out[-1] = 0.0
    return out


def test_mollify_of_zero_is_zero(grid201):
    out = mollify(Field(grid201, np.zeros(grid201.shape)), 0.05)
    assert np.max(np.abs(out.values)) == 0.0


def test_mollify_preserves_interior_mass(grid201):
    # bump supported well inside: the shift is the identity there and the
    # normalized kernel preserves the sum exactly
    x = grid201.axes[0]
    v = np.where((x > 0.47) & (x < 0.53), 1.0, 0.0)
    f = Field(grid201, v)
    out = mollify(f, grid201.h[0])
    assert abs(integrate(out) - integrate(f)) <= 1e-12


def test_mollify_matches_dense_oracle_and_stays_close(grid201, torsion201):
    out = mollify(torsion201.phi, 0.05)
    oracle = dense_mollify_oracle(torsion201.phi, 0.05)
    assert np.max(np.abs(out.values - oracle)) <= 1e-12
    l2 = np.sqrt(np.sum((out.values - torsion201.phi.values) ** 2) * grid201.h[0])
    assert l2 <= 0.02


def test_mollify_support_distance_and_sign(grid201, torsion201):
    radius = 0.03
    out = mollify(half_torsion(grid201, torsion201), radius)
    dist = distance_to_boundary(grid201)
    assert np.all(out.values[dist < radius - 1e-12] == 0.0)
    assert np.all(out.values >= 0.0)


def test_mollify_rejects_bad_radius(grid201, torsion201):
    u0 = half_torsion(grid201, torsion201)
    with pytest.raises(InitDataError):
        mollify(u0, 0.4)  # inward shift would swallow the domain
    with pytest.raises(InitDataError):
        mollify(u0, 0.3 * grid201.h[0])  # below the grid spacing


def test_mollify_keeps_energy_of_boundary_layer(grid201, torsion201):
    # translation carries the boundary slope inward: energy within a few
    # percent for small radii (a cut or compression would lose tens of %)
    u0 = half_torsion(grid201, torsion201)
    e0 = dirichlet_energy(u0, 0.0)
    out = mollify(u0, 2 * grid201.h[0])
    assert abs(dirichlet_energy(out, 0.0) - e0) / e0 <= 0.05


def test_construct_initial_boundary_and_report(grid201, torsion201):
    u0 = half_torsion(grid201, torsion201)
    result = construct_initial(u0, EPS)
    assert np.all(result.u0eps.values[grid201.boundary_mask] == EPS)
    assert np.min(result.u0eps.values) >= EPS - 1e-12
    assert result.passed(), [c.name for c in result.report if not c.passed]
    # the root reproduces the assembled field's energy
    assert abs(result.energy - result.C) / result.C <= 0.05


def test_constructed_field_under_weighted_envelope(grid201, torsion201):
    # pointwise: u0eps - eps <= (L + headroom) * Phi on interior nodes
    u0 = half_torsion(grid201, torsion201)
    result = construct_initial(u0, EPS)
    bound_l = 1.25 * max(phi_weighted_sup(u0, torsion201), dirichlet_energy(u0, 0.0))
    interior = grid201.interior_mask
    envelope = (bound_l + max(result.headroom, 0.0) + 1e-12) * torsion201.phi.values
    assert np.all(result.u0eps.values[interior] - EPS <= envelope[interior] + 1e-12)


def test_construct_initial_rejects_zero_data(grid201):
    with pytest.raises(InitDataError, match="strictly positive"):
        construct_initial(Field(grid201, np.zeros(grid201.shape)), EPS)


def test_construct_initial_rejects_high_energy_data(grid201, torsion201):
    # the collar floor of a 201-node grid makes the root complex for data
    # of supercritical energy; the error directs to smaller collars/finer grids
    scale = 1.5 / integrate(torsion201.phi)
    u0 = Field(grid201, scale * torsion201.phi.values)
    with pytest.raises(InitDataError, match="no real root"):
        construct_initial(u0, EPS)


def test_epsilon_sequence_converges(grid201, torsion201):
    u0 = half_torsion(grid201, torsion201)
    results = []
    for eps in (1e-2, 1e-3, 1e-4):
        results.append(construct_initial(u0, eps))
        assert results[-1].passed()
    seq = verify_epsilon_sequence(results, u0)
    assert seq["c_gap_decreasing"]
    assert seq["alpha_decreasing"]
    assert seq["w12_decreasing"]


def test_constant_approaches_target_energy_on_fine_grid():
    # on a fine grid the collar shrinks enough for the root to sit within
    # 10% of the Dirichlet energy of the target data
    g = build_grid(1, [1.0], [801])
    tor = rd.solve_torsion(g)
    u0 = Field(g, 0.5 * tor.phi.values)
    target = dirichlet_energy(u0, 0.0)
    result = construct_initial(u0, EPS)
    assert abs(result.C - target) / target <= 0.10
    assert result.passed()


def test_torsion_profile_exact_mass_and_floor(grid201, torsion201):
    u0eps = idt.torsion_profile(grid201, 1.5, EPS, torsion201)
    corrected = integrate(u0eps) - EPS * grid201.volume
    assert corrected == pytest.approx(1.5, abs=1e-12)
    assert np.all(u0eps.values[grid201.boundary_mask] == EPS)
    assert np.min(u0eps.values) >= EPS


@pytest.mark.parametrize("dimension", [1, 2])
def test_construct_initial_names_the_settings_a_coarse_grid_needs(dimension):
    # the collar is at least four cells wide and at most 1/16 of the domain,
    # so at epsilon 1e-3 a unit box needs 81 nodes per axis
    coarse = build_grid(dimension, [1.0] * dimension, [41] * dimension)
    u0 = half_torsion(coarse, rd.solve_torsion(coarse))
    with pytest.raises(InitDataError, match=r"grid\.n.*solver\.epsilon"):
        construct_initial(u0, EPS)
    fine = build_grid(dimension, [1.0] * dimension, [81] * dimension)
    construct_initial(half_torsion(fine, rd.solve_torsion(fine)), EPS)
