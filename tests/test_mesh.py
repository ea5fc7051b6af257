"""Grid construction, quadrature, stencils, and their consistency orders."""

import base64
import io
import json
import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replidyn.experiment import atomic_write_text
from replidyn.mesh import (Field, build_grid, dirichlet_energy, dirichlet_laplacian,
                           edge_differences, edge_means, integrate, laplacian,
                           read_snapshots, write_snapshots)

from conftest import gradient_inner


def torsion_exact(x):
    return x * (1.0 - x) / 2.0


def test_unit_interval_weights_sum_to_measure():
    g = build_grid(1, [1.0], [11])
    assert g.h[0] == pytest.approx(0.1)
    assert g.quad_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_unit_square_weights_sum_to_measure():
    g = build_grid(2, [1.0, 1.0], [5, 5])
    assert g.quad_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_boundary_mask_is_outermost_layer():
    g = build_grid(2, [1.0, 2.0], [5, 7])
    inner = g.boundary_mask[1:-1, 1:-1]
    assert not inner.any()
    assert g.boundary_mask.sum() == 5 * 7 - 3 * 5


@pytest.mark.parametrize("dimension,extents,n", [
    (1, [2.0], [2]),
    (1, [-1.0], [11]),
    (2, [1.0, 0.0], [5, 5]),
    (3, [1.0, 1.0, 1.0], [5, 5, 5]),
])
def test_build_grid_rejects_bad_input(dimension, extents, n):
    with pytest.raises(ValueError):
        build_grid(dimension, extents, n)


def test_integrate_constant_gives_measure():
    g = build_grid(1, [1.0], [51])
    assert integrate(Field(g, np.ones(g.shape))) == pytest.approx(1.0, abs=1e-14)
    assert integrate(Field(g, np.zeros(g.shape))) == 0.0


def test_integrate_torsion_profile():
    # oracle: int_0^1 x(1-x)/2 dx = 1/12
    g = build_grid(1, [1.0], [101])
    f = Field(g, torsion_exact(g.axes[0]))
    assert abs(integrate(f) - 1.0 / 12.0) <= 1e-4


def test_integrate_rejects_nonfinite():
    g = build_grid(1, [1.0], [11])
    v = np.ones(g.shape)
    v[3] = np.nan
    with pytest.raises(ValueError):
        integrate(Field(g, v))


def test_integrate_linear_and_monotone():
    g = build_grid(1, [1.0], [41])
    rng = np.random.default_rng(3)
    a = Field(g, rng.random(g.shape))
    b = Field(g, rng.random(g.shape))
    lin = integrate(Field(g, 2.0 * a.values + 3.0 * b.values))
    assert lin == pytest.approx(2.0 * integrate(a) + 3.0 * integrate(b), rel=1e-13)
    assert integrate(Field(g, a.values + 0.5)) >= integrate(a)


def test_laplacian_exact_on_quadratic():
    g = build_grid(1, [1.0], [201])
    f = Field(g, torsion_exact(g.axes[0]))
    lap = laplacian(f, 0.0)
    assert np.max(np.abs(lap.values[g.interior_mask] + 1.0)) <= 1e-10
    assert np.all(lap.values[g.boundary_mask] == 0.0)


def test_laplacian_of_constant_vanishes():
    g = build_grid(2, [1.0, 1.0], [9, 9])
    lap = laplacian(Field(g, np.full(g.shape, 3.7)), 3.7)
    assert np.max(np.abs(lap.values)) == 0.0


def test_laplacian_second_order_on_sine():
    # oracle: (sin(pi x))'' = -pi^2 sin(pi x); central stencil error h^2 f''''/12
    g = build_grid(1, [1.0], [201])
    x = g.axes[0]
    lap = laplacian(Field(g, np.sin(np.pi * x)), 0.0)
    err = np.max(np.abs(lap.values[g.interior_mask]
                        + np.pi**2 * np.sin(np.pi * x[g.interior_mask])))
    assert err <= 1.1 * np.pi**4 * g.h[0] ** 2 / 12.0


def test_dirichlet_energy_torsion_profile():
    # oracle: int ((1-2x)/2)^2 = 1/12
    g = build_grid(1, [1.0], [201])
    e = dirichlet_energy(Field(g, torsion_exact(g.axes[0])), 0.0)
    assert abs(e - 1.0 / 12.0) <= 1e-3


def test_dirichlet_energy_of_flat_field_is_zero():
    g = build_grid(2, [1.0, 1.0], [9, 9])
    assert dirichlet_energy(Field(g, np.full(g.shape, 2.0)), 2.0) == 0.0


def test_dirichlet_energy_sine():
    # oracle: int (pi cos(pi x))^2 = pi^2/2
    g = build_grid(1, [1.0], [201])
    e = dirichlet_energy(Field(g, np.sin(np.pi * g.axes[0])), 0.0)
    assert abs(e - np.pi**2 / 2.0) <= 1e-2


@pytest.mark.parametrize("n_pair", [(101, 201), (51, 101)])
def test_energy_and_laplacian_second_order_convergence(n_pair):
    errs_e, errs_l = [], []
    for n in n_pair:
        g = build_grid(1, [1.0], [n])
        x = g.axes[0]
        f = Field(g, np.sin(np.pi * x))
        errs_e.append(abs(dirichlet_energy(f, 0.0) - np.pi**2 / 2.0))
        lap = laplacian(f, 0.0)
        errs_l.append(np.max(np.abs(lap.values[g.interior_mask]
                                    + np.pi**2 * np.sin(np.pi * x[g.interior_mask]))))
    assert np.log2(errs_e[0] / errs_e[1]) >= 1.9
    assert np.log2(errs_l[0] / errs_l[1]) >= 1.9


def _random_trig_field(grid, seed=7):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(5)
    if grid.dimension == 1:
        x = grid.axes[0]
        v = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
    else:
        X, Y = grid.coordinate_arrays()
        v = sum(c * np.sin((k + 1) * np.pi * X) * np.sin((k + 2) * np.pi * Y)
                for k, c in enumerate(coef))
    v[grid.boundary_mask] = 0.0
    return Field(grid, v)


@pytest.mark.parametrize("dimension, n", [(1, 81), (2, 41), (2, 81)],
                         ids=["1d-81", "2d-41", "2d-81"])
def test_summation_by_parts_exact(dimension, n):
    # the edge-sum energy is the exact partner of the Laplacian under the
    # trapezoid weights: sum w u lap(u) = -E(u) to roundoff, in 1D and in 2D
    # (measured relative gaps 1.5e-16, 0 and 1.2e-16)
    g = build_grid(dimension, [1.0] * dimension, [n] * dimension)
    f = _random_trig_field(g)
    lap = laplacian(f, 0.0)
    energy = dirichlet_energy(f, 0.0)
    assert abs(np.sum(g.quad_weights * f.values * lap.values) + energy) <= 1e-12 * energy


OPERATOR_GRIDS = [(1, [1.0], [81]), (2, [1.0, 1.0], [41, 41]),
                  (2, [1.0, 2.0], [9, 13]), (2, [3.0, 1.3], [51, 81])]
OPERATOR_IDS = ["1d-81", "2d-41", "2d-1x2", "2d-anisotropic"]


@pytest.mark.parametrize("dimension, extents, n, bitwise", [
    (*grid, bitwise) for grid, bitwise in zip(OPERATOR_GRIDS, [True, False, True, False])
], ids=OPERATOR_IDS)
def test_boundary_coupling_is_the_row_sum_of_the_operator(dimension, extents, n, bitwise):
    # bc is A @ 1 taken per axis, where the sum is exact.  It is bitwise
    # A @ 1 where every 2D row sum rounds exactly, within an ulp elsewhere,
    # and zero at every node with no boundary neighbour: on an anisotropic
    # grid A @ 1 itself leaves about 1e-13 there.
    g = build_grid(dimension, extents, n)
    a, bc = dirichlet_laplacian(g.shape, g.h)
    row_sums = a @ np.ones(a.shape[0])
    if bitwise:
        assert row_sums.tobytes() == bc.tobytes()
    assert np.max(np.abs(row_sums - bc)) <= 2e-16 * np.max(bc)
    index = np.indices(g.shape)
    adjacent = np.any([(i == 1) | (i == k - 2) for i, k in zip(index, g.shape)], axis=0)
    assert np.array_equal(bc > 0, adjacent[g.interior_mask])


@pytest.mark.parametrize("dimension, extents, n", OPERATOR_GRIDS, ids=OPERATOR_IDS)
def test_laplacian_is_the_assembled_operator(dimension, extents, n):
    g = build_grid(dimension, extents, n)
    a, bc = dirichlet_laplacian(g.shape, g.h)
    f = _random_trig_field(g)
    b = 0.3
    expected = b * bc - a @ f.values[g.interior_mask]
    lap = laplacian(f, b).values
    assert np.max(np.abs(lap[g.interior_mask] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(lap[g.boundary_mask] == 0.0)


def test_dirichlet_laplacian_is_built_once_and_its_coupling_is_read_only():
    g = build_grid(2, [1.0, 1.0], [41, 41])
    a, bc = dirichlet_laplacian(g.shape, g.h)
    assert dirichlet_laplacian(g.shape, g.h)[0] is a
    with pytest.raises(ValueError, match="read-only"):
        bc[0] = 0.0


@pytest.mark.parametrize("dimension", [1, 2])
def test_edge_helpers_take_a_stack_of_fields(dimension):
    g = build_grid(dimension, [1.0, 2.0][:dimension], [7, 5][:dimension])
    stack = np.random.default_rng(5).random((3, *g.shape))
    for helper in (edge_differences, edge_means):
        stacked = helper(stack, g)
        assert len(stacked) == dimension
        for i, field in enumerate(stack):
            for axis, (a, b) in enumerate(zip(stacked, helper(field, g))):
                assert b.shape == tuple(k - (j == axis) for j, k in enumerate(g.shape))
                assert a[i].tobytes() == b.tobytes()
    x = edge_differences(g.coordinate_arrays()[0], g)
    assert np.allclose(x[0], 1.0) and all(np.all(d == 0.0) for d in x[1:])


def test_gradient_inner_is_polarized_energy():
    g = build_grid(1, [1.0], [61])
    a = _random_trig_field(g, seed=1)
    b = _random_trig_field(g, seed=2)
    lhs = gradient_inner(a, b)
    pol = 0.25 * (dirichlet_energy(Field(g, a.values + b.values), 0.0)
                  - dirichlet_energy(Field(g, a.values - b.values), 0.0))
    assert lhs == pytest.approx(pol, rel=1e-12, abs=1e-12)


def test_snapshot_ndjson_roundtrip(tmp_path):
    g = build_grid(2, [1.0, 1.0], [5, 7])
    rng = np.random.default_rng(0)
    snaps = [(0.0, Field(g, rng.random(g.shape))),
             (0.5, Field(g, rng.random(g.shape)))]
    path = tmp_path / "snaps.ndjson"
    atomic_write_text(str(path), lambda fh: write_snapshots(fh, snaps))
    back = read_snapshots(path, g)
    assert len(back) == 2
    for (t0, f0), (t1, f1) in zip(snaps, back):
        assert t0 == t1
        assert np.array_equal(f0.values, f1.values)


def _snapshot_file(tmp_path, count=6):
    g = build_grid(2, [1.0, 1.0], [5, 7])
    rng = np.random.default_rng(1)
    snaps = [(0.1 * k, Field(g, rng.random(g.shape))) for k in range(count)]
    path = tmp_path / "snaps.ndjson"
    atomic_write_text(str(path), lambda fh: write_snapshots(fh, snaps))
    return path, g


@pytest.mark.parametrize("pick", [
    lambda t: [0],
    lambda t: [1, 4, 5],
    lambda t: [5, 2],
    lambda t: np.flatnonzero(t > 0.25),
], ids=["first", "subset", "reversed", "by-time"])
def test_picked_read_equals_the_full_read_restricted(pick, tmp_path):
    path, g = _snapshot_file(tmp_path)
    full = read_snapshots(path, g)
    times = np.array([t for t, _ in full])
    got = read_snapshots(path, g, pick=pick)
    want = [full[k] for k in pick(times)]
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.values.tobytes() == b.values.tobytes()


def test_empty_pick_decodes_nothing(tmp_path):
    path, g = _snapshot_file(tmp_path)
    assert read_snapshots(path, g, pick=lambda t: []) == []


def test_record_without_a_leading_time_is_timed_by_a_full_decode(tmp_path):
    path, g = _snapshot_file(tmp_path, count=2)
    rec = json.loads(path.read_text().splitlines()[1])
    moved = json.dumps({"shape": rec["shape"], "t": rec["t"], "values": rec["values"]})
    with open(path, "a") as fh:
        fh.write(moved + "\n")
    seen = []
    back = read_snapshots(path, g, pick=lambda t: seen.append(t) or [2])
    assert seen[0].tolist() == [0.0, rec["t"], rec["t"]]
    assert back[0][0] == rec["t"]
    payload = np.frombuffer(base64.b64decode(rec["values"]), "<f8")
    assert np.array_equal(back[0][1].values, payload.reshape(g.shape))


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


ZEROS_35 = json.dumps(_b64([0.0] * 35))


@pytest.mark.parametrize("bad, message", [
    ('{"t": oops, "shape": [5, 7], "values": []}', "record 2: Expecting value"),
    ('{"t": "soon", "shape": [5, 7], "values": ' + ZEROS_35 + "}",
     "record 2: could not convert"),
    ('{"t": 0.5, "shape": [5, 7], "values": [1.0,', "record 2: Expecting value"),
    ('{"t": 0.5, "shape": [7, 5], "values": ' + ZEROS_35 + "}",
     "record 2: field shape (7, 5) does not match grid (5, 7)"),
], ids=["time-not-json", "time-not-a-number", "truncated-values", "shape-mismatch"])
@pytest.mark.parametrize("picked", [False, True], ids=["full", "picked"])
def test_read_errors_name_the_file_and_record(bad, message, picked, tmp_path):
    path, g = _snapshot_file(tmp_path, count=1)
    with open(path, "a") as fh:
        fh.write(bad + "\n")
    with pytest.raises(ValueError) as err:
        read_snapshots(path, g, pick=(lambda t: [0, 1]) if picked else None)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("values, message", [
    (json.dumps([0.0] * 35), "values must be base64 of little-endian float64: "),
    (json.dumps(_b64([0.0] * 18) + "*" + _b64([0.0] * 17)),  # base64 once "*" is dropped
     "values must be base64 of little-endian float64: "),
    (json.dumps(_b64([0.0] * 34)),
     "values hold 272 bytes, not 8 per node of shape [5, 7] "
     "(base64 of little-endian float64)"),
    (json.dumps(base64.b64encode(bytes(279)).decode()),
     "values hold 279 bytes, not 8 per node of shape [5, 7]"),
], ids=["json-array", "not-base64", "too-few-values", "partial-double"])
@pytest.mark.parametrize("picked", [False, True], ids=["full", "picked"])
def test_bad_payloads_are_refused_naming_the_encoding(values, message, picked, tmp_path):
    # a json-array payload is a record of the old decimal-text format
    path, g = _snapshot_file(tmp_path, count=1)
    with open(path, "a") as fh:
        fh.write('{"t": 0.5, "shape": [5, 7], "values": ' + values + "}\n")
    with pytest.raises(ValueError) as err:
        read_snapshots(path, g, pick=(lambda t: [0, 1]) if picked else None)
    assert str(err.value).startswith(f"{path}: record 2: {message}")


def test_pick_past_the_last_record_names_it(tmp_path):
    g = build_grid(2, [1.0, 1.0], [5, 7])
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    with pytest.raises(ValueError) as err:
        read_snapshots(path, g, pick=lambda t: [0])
    assert str(err.value) == f"{path}: record 1: list index out of range"


SPECIAL_VALUES = [0.1, 1.0 / 3.0, 5e-324, 1e300, -0.0, 2.0]


def test_write_snapshots_bytes_equal_the_per_element_rendering(tmp_path):
    # the writer encodes whole arrays; its payload must be the per-element
    # little-endian float64 bytes, subnormals and -0.0 too, read back bit-exact
    g = build_grid(2, [1.0, 1.0], [3, 4])
    values = np.array(SPECIAL_VALUES * 2).reshape(g.shape)
    snaps = [(0.0, Field(g, values)), (1.0 / 3.0, Field(g, -values[::-1]))]
    fh = io.StringIO()
    write_snapshots(fh, snaps)
    expected = "".join(
        json.dumps({"t": float(t), "shape": list(f.grid.shape), "values": base64.b64encode(
            b"".join(struct.pack("<d", x) for x in f.values.ravel())).decode()}) + "\n"
        for t, f in snaps)
    assert fh.getvalue() == expected
    assert fh.getvalue().startswith(
        '{"t": 0.0, "shape": [3, 4], "values": "mpmZmZmZuT9VVVVVVVXVPwEAAAAAAAAA'
        'nHUAiDzkN34AAAAAAAAAgAAAAAAAAABAmpmZmZmZuT9')
    path = tmp_path / "snaps.ndjson"
    path.write_text(fh.getvalue())
    back = read_snapshots(path, g)
    assert [t for t, _ in back] == [t for t, _ in snaps]
    for (_, a), (_, b) in zip(back, snaps):
        assert a.values.tobytes() == b.values.tobytes()


# subnormals, both zeros and the largest finite doubles, besides any finite
FLOAT64 = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, 0.0, -0.0,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def snapshot_series(draw):
    dimension = draw(st.sampled_from([1, 2]))
    n = draw(st.lists(st.integers(3, 9), min_size=dimension, max_size=dimension))
    g = build_grid(dimension, [1.0] * dimension, n)
    count = draw(st.integers(1, 5))
    fields = hnp.arrays(np.float64, g.shape, elements=FLOAT64)
    snaps = [(draw(FLOAT64), Field(g, draw(fields))) for _ in range(count)]
    return g, snaps, draw(st.lists(st.integers(0, count - 1), max_size=count))


@settings(max_examples=80, deadline=None)
@given(case=snapshot_series())
def test_snapshot_roundtrip_is_bit_exact(case, tmp_path_factory):
    g, snaps, pick = case
    path = tmp_path_factory.mktemp("snaps") / "snaps.ndjson"
    atomic_write_text(str(path), lambda fh: write_snapshots(fh, snaps))
    full = read_snapshots(path, g)
    assert [np.float64(t).tobytes() for t, _ in full] == [
        np.float64(t).tobytes() for t, _ in snaps]
    for (_, a), (_, b) in zip(full, snaps):
        assert a.values.flags.writeable and a.values.tobytes() == b.values.tobytes()
    seen = []
    picked = read_snapshots(path, g, pick=lambda t: seen.append(t) or pick)
    assert seen[0].tobytes() == np.array([t for t, _ in full]).tobytes()
    assert len(picked) == len(pick)
    for (ta, a), k in zip(picked, pick):
        assert np.float64(ta).tobytes() == np.float64(full[k][0]).tobytes()
        assert a.values.tobytes() == full[k][1].values.tobytes()
