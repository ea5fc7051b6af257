"""Torsion solves, the weighted sup norm, and the closed-form Poincare constant."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import replidyn as rd
from replidyn.experiment import atomic_write_text
from replidyn.mesh import Field, build_grid, dirichlet_laplacian

from conftest import continuum_torsion_constant, phi_weighted_sup


def square_torsion_center_series(terms=200):
    """Classical eigenfunction series for the unit-square torsion function,
    evaluated at the center."""
    x = y = 0.5
    val = x * (1 - x) / 2.0
    for k in range(1, terms, 2):
        val -= (4.0 / np.pi**3) * np.sin(k * np.pi * x) / (k**3 * np.sinh(k * np.pi)) \
            * (np.sinh(k * np.pi * y) + np.sinh(k * np.pi * (1 - y)))
    return val


def test_torsion_1d_matches_parabola(grid201, torsion201):
    x = grid201.axes[0]
    exact = x * (1 - x) / 2.0
    assert np.max(np.abs(torsion201.phi.values - exact)) <= 1e-10


def test_torsion_1d_peak(torsion201):
    assert torsion201.max_phi == pytest.approx(0.125, abs=1e-10)


def test_torsion_residual_small(grid201, torsion201):
    lap = rd.laplacian(torsion201.phi, 0.0)
    assert np.max(np.abs(lap.values[grid201.interior_mask] + 1.0)) <= 1e-9


def test_torsion_2d_center_matches_series():
    g = build_grid(2, [1.0, 1.0], [65, 65])
    tor = rd.solve_torsion(g)
    center = tor.phi.values[32, 32]
    assert abs(center - square_torsion_center_series()) <= 5e-4


def test_torsion_constant_converges_to_the_continuum_at_second_order():
    # the series oracle: the unit square's constant, and a box's constant
    # does not depend on which side the series runs along
    assert continuum_torsion_constant([1.0, 1.0]) == pytest.approx(0.0351442537, abs=1e-10)
    assert continuum_torsion_constant([1.0, 2.0]) == pytest.approx(
        continuum_torsion_constant([2.0, 1.0]), rel=1e-13)
    # 1D: the 3-point solve is exact at the nodes, so the trapezoid rule
    # gives C_h = 1/12 - h^2/12 up to roundoff
    g = build_grid(1, [1.0], [201])
    h = g.h[0]
    assert continuum_torsion_constant([1.0]) == 1.0 / 12.0
    assert rd.solve_torsion(g).c_subdomain == pytest.approx(1.0 / 12.0 - h * h / 12.0,
                                                            rel=1e-13, abs=0.0)
    # 2D: C_h falls short of C by O(h^2) on the square and on a box with
    # unequal sides (and unequal spacings)
    for extents in ([1.0, 1.0], [1.0, 0.5]):
        c = continuum_torsion_constant(extents)
        errors = np.array([rd.solve_torsion(build_grid(2, extents, [n, n])).c_subdomain - c
                           for n in (41, 81, 161)]) / c
        assert np.all(errors < 0.0)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.05), (extents, errors, orders)


def test_torsion_positive_inside():
    for g in (build_grid(1, [1.0], [41]), build_grid(2, [1.0, 1.0], [17, 17])):
        tor = rd.solve_torsion(g)
        assert np.all(tor.phi.values[g.interior_mask] > 0.0)
        assert np.all(tor.phi.values[g.boundary_mask] == 0.0)


def test_subdomain_torsion_matches_shifted_parabola(grid201):
    sub = rd.solve_torsion_subdomain(grid201, 0.25)
    x = grid201.axes[0]
    inside = (x >= 0.25) & (x <= 0.75)
    exact = np.where(inside, (x - 0.25) * (0.75 - x) / 2.0, 0.0)
    assert np.max(np.abs(sub.phi.values - exact)) <= 1e-10


def test_subdomain_constant_matches_closed_form(grid201):
    # oracle: int of the shifted parabola over its own box = 0.5^3 / 12
    sub = rd.solve_torsion_subdomain(grid201, 0.25)
    assert abs(sub.c_subdomain - 0.5**3 / 12.0) <= 1e-5


def test_subdomain_margin_too_large_rejected(grid201):
    with pytest.raises(ValueError):
        rd.solve_torsion_subdomain(grid201, 0.5)
    with pytest.raises(ValueError):
        rd.solve_torsion_subdomain(grid201, 0.499)


def test_subdomain_constant_monotone_in_margin(grid201):
    margins = [0.05, 0.15, 0.25, 0.35]
    consts = [rd.solve_torsion_subdomain(grid201, m).c_subdomain for m in margins]
    assert all(b < a for a, b in zip(consts, consts[1:]))


def test_phi_weighted_sup_of_multiple_is_the_multiple(grid201, torsion201):
    v = Field(grid201, 3.0 * torsion201.phi.values)
    assert phi_weighted_sup(v, torsion201) == pytest.approx(3.0, abs=1e-12)
    zero = Field(grid201, np.zeros(grid201.shape))
    assert phi_weighted_sup(zero, torsion201) == 0.0


def test_phi_weighted_sup_hand_oracle(grid201, torsion201):
    # v = x(1-x) = 2 * Phi pointwise
    x = grid201.axes[0]
    v = Field(grid201, x * (1 - x))
    assert phi_weighted_sup(v, torsion201) == pytest.approx(2.0, abs=1e-9)


def test_phi_weighted_sup_absolutely_homogeneous(grid201, torsion201):
    rng = np.random.default_rng(5)
    v = Field(grid201, rng.standard_normal(grid201.shape))
    base = phi_weighted_sup(v, torsion201)
    for c in (2.0, -4.0, 0.5):  # dyadic factors keep the scaling bit-exact
        scaled = Field(grid201, c * v.values)
        assert phi_weighted_sup(scaled, torsion201) == abs(c) * base


def test_phi_weighted_sup_of_full_grid_values_is_that_of_the_field(grid201, torsion201):
    # the solver passes its state's array; the mask oracle is the definition
    rng = np.random.default_rng(7)
    v = rng.standard_normal(grid201.shape)
    phi = torsion201.phi.values
    mask = phi > 0.0
    oracle = float(np.max(np.abs(v[mask] / phi[mask])))
    assert phi_weighted_sup(v, torsion201) == oracle
    assert phi_weighted_sup(Field(grid201, v), torsion201) == oracle


def test_cached_torsion_array_rejects_writes():
    grid = build_grid(2, [1.0, 1.0], [11, 11])
    phi = rd.solve_torsion(grid).phi.values
    assert rd.solve_torsion(grid).phi.values is phi  # solved once per process
    with pytest.raises(ValueError, match="read-only"):
        phi[5, 5] = 0.0


def test_poincare_constant_matches_first_eigenvalue(grid201):
    # discrete 1D eigenvalue: (4/h^2) sin^2(pi h / 2)
    h = grid201.h[0]
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2
    c_p = rd.measure_poincare_constant(grid201)
    assert c_p == pytest.approx(1.0 / lam, rel=1e-8)
    assert c_p == pytest.approx(1.0 / np.pi**2, rel=1e-3)


def _inverse_power_poincare_constant(grid, maxiter=200, tol=1e-12):
    """Oracle: 1/lambda_min of the interior Dirichlet Laplacian by inverse
    power iteration with one sparse factorization."""
    a, _ = dirichlet_laplacian(grid.shape, grid.h)
    lu = splu(a.tocsc())
    x = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    lam = 0.0
    for _ in range(maxiter):
        y = lu.solve(x)
        y /= np.linalg.norm(y)
        lam_new = float(y @ (a @ y))
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return 1.0 / lam_new
        lam, x = lam_new, y
    raise AssertionError("inverse power iteration did not converge")


def test_poincare_constant_matches_inverse_power_iteration_2d():
    g = build_grid(2, [1.0, 2.0], [21, 31])
    c_p = rd.measure_poincare_constant(g)
    assert c_p == pytest.approx(_inverse_power_poincare_constant(g), rel=1e-12)
    # continuum limit on [0,1]x[0,2]: 1 / (pi^2 (1 + 1/4))
    assert c_p == pytest.approx(1.0 / (1.25 * np.pi**2), rel=1e-2)


def test_torsion_serialization_roundtrip(grid201, torsion201, tmp_path):
    path = tmp_path / "torsion.ndjson"
    atomic_write_text(str(path), lambda fh: rd.write_snapshots(
        fh, [(0.0, torsion201.phi)]))
    back = rd.read_snapshots(path, grid201)
    assert np.array_equal(back[0][1].values, torsion201.phi.values)
