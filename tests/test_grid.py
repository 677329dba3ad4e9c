import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucci_lab import (
    ConfigurationError,
    DomainError,
    GridField,
    GridSpec,
    InputError,
    bilinear_sample,
    field_from_csv,
    field_to_csv,
    gradient_field,
    lipschitz_seminorm,
    make_grid,
    rescale_blowup,
)
from pucci_lab.grid import _SNAP


def test_spec_geometry():
    g = GridSpec(65)
    assert g.h == pytest.approx(1.0 / 64)
    X, Y = g.node_coords()
    assert X.shape == (65, 65)
    # ij indexing: first axis is x
    assert X[3, 0] == pytest.approx(3 * g.h)
    assert Y[0, 3] == pytest.approx(3 * g.h)
    assert X[0, 0] == 0.0 and X[-1, -1] == pytest.approx(1.0)


def test_spec_offset_origin():
    g = GridSpec(9, extent=2.0, origin=(-1.0, -1.0))
    assert g.h == pytest.approx(0.25)
    assert g.xs[0] == -1.0 and g.xs[-1] == pytest.approx(1.0)
    assert bool(g.contains(0.0, 0.0))
    assert not bool(g.contains(1.5, 0.0))
    g.require_ball((0.0, 0.0), 1.0)  # a ball touching the walls is inside
    for x0, r in (((0.5, 0.0), 0.6), ((0.0, -0.5), 0.6), ((0.0, 0.0), 1.0 + 1e-12)):
        with pytest.raises(DomainError):
            g.require_ball(x0, r)


@pytest.mark.parametrize("bad", [4, 0, -3, 2.5])
def test_spec_rejects_small_or_nonint_nx(bad):
    with pytest.raises(ConfigurationError):
        GridSpec(bad)


@pytest.mark.parametrize("extent", [0.0, -1.0, float("inf")])
def test_spec_rejects_bad_extent(extent):
    with pytest.raises(ConfigurationError):
        GridSpec(9, extent=extent)


def test_boundary_ring_shape_and_count():
    g = GridSpec(7)
    ring = g.boundary_ring()
    assert ring.sum() == 4 * 7 - 4
    assert not ring[1:-1, 1:-1].any()
    assert np.array_equal(GridField(g, np.zeros((7, 7))).boundary_mask, ring)


def test_field_shape_mismatch():
    with pytest.raises(InputError):
        GridField(GridSpec(9), np.zeros((9, 8)))


def test_make_grid_fills_ring_only():
    g = GridSpec(9)
    fld = make_grid(g, lambda x, y: x + 2 * y)
    X, Y = g.node_coords()
    ring = g.boundary_ring()
    assert np.allclose(fld.values[ring], (X + 2 * Y)[ring])
    assert np.all(fld.values[~ring] == 0.0)


def test_make_grid_accepts_scalar_callable():
    g = GridSpec(5)
    fld = make_grid(g, lambda x, y: float(x) - float(y))
    X, Y = g.node_coords()
    ring = g.boundary_ring()
    assert np.allclose(fld.values[ring], (X - Y)[ring])


def test_make_grid_rejects_nan_datum():
    with pytest.raises(InputError):
        make_grid(GridSpec(5), lambda x, y: x * np.nan)


def test_gradient_exact_on_quadratics():
    # central in the interior and the 3-point one-sided ring formula are both
    # exact for quadratics
    g = GridSpec(17)
    X, Y = g.node_coords()
    fld = GridField(g, X**2 + 3 * X * Y - Y**2)
    grad = gradient_field(fld)
    assert np.allclose(grad.gx, 2 * X + 3 * Y, atol=1e-11)
    assert np.allclose(grad.gy, 3 * X - 2 * Y, atol=1e-11)


def test_bilinear_sample_node_exact():
    g = GridSpec(9)
    rng = np.random.default_rng(7)
    fld = GridField(g, rng.normal(size=(9, 9)))
    X, Y = g.node_coords()
    vals = bilinear_sample(fld, X.ravel(), Y.ravel())
    assert np.array_equal(vals.reshape(9, 9), fld.values)


def test_bilinear_sample_reproduces_bilinear_functions():
    g = GridSpec(9)
    X, Y = g.node_coords()
    fld = GridField(g, 2 + X - 3 * Y + 5 * X * Y)
    xs = np.array([0.13, 0.5, 0.77, 1.0])
    ys = np.array([0.31, 0.5, 0.05, 0.99])
    assert np.allclose(bilinear_sample(fld, xs, ys), 2 + xs - 3 * ys + 5 * xs * ys)


def test_bilinear_sample_scalar_and_outside():
    g = GridSpec(9)
    fld = GridField(g, np.ones((9, 9)))
    v = bilinear_sample(fld, 0.5, 0.5)
    assert isinstance(v, float) and v == 1.0
    with pytest.raises(DomainError):
        bilinear_sample(fld, 1.2, 0.5)
    with pytest.raises(DomainError):
        bilinear_sample(fld, np.array([0.5, -0.1]), np.array([0.5, 0.5]))


def test_bilinear_sample_names_the_point_it_rejects():
    fld = GridField(GridSpec(9), np.ones((9, 9)))
    x = np.full((3, 4), 0.5)
    y = np.full((3, 4), 0.5)
    x[1, 2], y[1, 2] = 1.7, 0.25
    with pytest.raises(DomainError, match=r"\(1\.7, 0\.25\)"):
        bilinear_sample(fld, x, y)
    # a 2-D x with a scalar y is one broadcast sample
    x[1, 2] = 0.5
    x[2, 1] = -0.3
    with pytest.raises(DomainError, match=r"\(-0\.3, 0\.5\)"):
        bilinear_sample(fld, x, 0.5)
    assert np.array_equal(bilinear_sample(fld, np.full((3, 4), 0.5), 0.5), np.ones((3, 4)))


def _reference_sample(fld, x, y):
    """Bilinear sampling as first written, with elementwise range masks,
    fractions snapped by np.where and clipped by np.clip, and corners read by
    2-D fancy indexing: the reference the leaner form matches bit for bit."""
    spec = fld.spec
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    inside = spec.contains(x, y)
    if not np.all(inside):
        bad = np.flatnonzero(~inside)[0]
        bx, by = np.broadcast_arrays(x, y)
        raise DomainError(
            f"sample point ({bx.flat[bad]:g}, {by.flat[bad]:g}) lies outside the grid extent"
        )

    def snap(f):
        return np.where(np.abs(f) < _SNAP, 0.0, np.where(np.abs(f - 1.0) < _SNAP, 1.0, f))

    tx = (x - spec.origin[0]) / spec.h
    ty = (y - spec.origin[1]) / spec.h
    i0 = np.clip(np.floor(tx).astype(int), 0, spec.nx - 2)
    j0 = np.clip(np.floor(ty).astype(int), 0, spec.nx - 2)
    fx = np.clip(snap(tx - i0), 0.0, 1.0)
    fy = np.clip(snap(ty - j0), 0.0, 1.0)
    u = fld.values
    out = ((1 - fx) * (1 - fy) * u[i0, j0] + fx * (1 - fy) * u[i0 + 1, j0]
           + (1 - fx) * fy * u[i0, j0 + 1] + fx * fy * u[i0 + 1, j0 + 1])
    return float(out[0]) if scalar else out


@settings(max_examples=300, deadline=None)
@given(nx=st.integers(5, 40), extent=st.floats(0.01, 100.0),
       origin=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       kind=st.sampled_from(["node", "edge", "slack", "random", "outside"]),
       shape=st.sampled_from(["scalar", "flat", "outer"]),
       seed=st.integers(0, 2**32 - 1))
def test_bilinear_sample_matches_reference_bit_for_bit(nx, extent, origin, kind, shape, seed):
    g = GridSpec(nx, extent, origin)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(nx, nx)) * 10.0 ** rng.integers(-300, 300)
    vals[rng.integers(nx), rng.integers(nx)] = -0.0
    fld = GridField(g, vals)
    n = int(rng.integers(1, 12))
    lo = np.array(origin)
    pick = {
        "node": lambda: lo + g.h * rng.integers(0, nx, size=(n, 2)),
        "edge": lambda: np.where(rng.random((n, 2)) < 0.5, lo + g.h * rng.integers(0, nx, (n, 2)),
                                 lo + extent * rng.random((n, 2))),
        # within the rounding slack outside a wall, or on it
        "slack": lambda: lo + np.where(rng.random((n, 2)) < 0.5, -1.0, extent + 0.0)
        + np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0) * _SNAP * extent * rng.random((n, 2)),
        "random": lambda: lo + extent * rng.random((n, 2)),
        "outside": lambda: lo + extent * rng.uniform(-0.5, 1.5, size=(n, 2)),
    }[kind]()
    x, y = pick[:, 0], pick[:, 1]
    if shape == "scalar":
        x, y = float(x[0]), float(y[0])
    elif shape == "outer":
        x, y = x[:, None], y[None, :]
    try:
        ref = _reference_sample(fld, x, y)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            bilinear_sample(fld, x, y)
        assert str(got.value) == str(exc)
        return
    out = bilinear_sample(fld, x, y)
    assert type(out) is type(ref)
    assert np.asarray(out).shape == np.asarray(ref).shape
    assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()


def test_field_values_are_read_only_and_their_memo_follows_them():
    g = GridSpec(9)
    vals = np.zeros((9, 9))
    fld = GridField(g, vals)
    with pytest.raises(ValueError):
        fld.values[1, 1] = 1.0
    # the caller's array is the field's values, so it is read-only as well
    with pytest.raises(ValueError):
        vals[1, 1] = 1.0
    assert lipschitz_seminorm(fld) == 0.0
    # new values drop what was derived from the old ones
    X, _ = g.node_coords()
    fld.values = 3.0 * X
    assert not fld.values.flags.writeable
    assert lipschitz_seminorm(fld) == pytest.approx(3.0, rel=1e-12)
    # a strided array is copied once into a C-contiguous one
    strided = GridField(g, np.ones((9, 18))[:, ::2])
    assert strided.values.flags.c_contiguous and not strided.values.flags.writeable


def test_pickled_field_is_rebuilt_read_only_with_an_empty_memo():
    g = GridSpec(9)
    X, _ = g.node_coords()
    fld = GridField(g, 2.0 * X)
    assert lipschitz_seminorm(fld) == pytest.approx(2.0, rel=1e-12)
    back = pickle.loads(pickle.dumps(fld))
    assert back.spec == g and np.array_equal(back.values, fld.values)
    assert not back.values.flags.writeable
    with pytest.raises(ValueError):
        back.values[1, 1] = 1.0
    assert back._memo == {}


def test_rescale_blowup_linear_invariance():
    # a linear profile is a fixed point of u(x0 + r xi)/r when u(x0) = 0
    g = GridSpec(65)
    X, Y = g.node_coords()
    fld = GridField(g, 3 * (X - 0.5) + 2 * (Y - 0.5))
    out = GridSpec(17, extent=2.0, origin=(-1.0, -1.0))
    for r in (0.2, 0.1, 0.05):
        blown = rescale_blowup(fld, (0.5, 0.5), r, out)
        XI, ETA = out.node_coords()
        assert np.allclose(blown.values, 3 * XI + 2 * ETA, atol=1e-12)


def test_rescale_blowup_needs_room():
    g = GridSpec(33)
    fld = GridField(g, np.zeros((33, 33)))
    out = GridSpec(9, extent=2.0, origin=(-1.0, -1.0))
    with pytest.raises(DomainError):
        rescale_blowup(fld, (0.9, 0.5), 0.1, out)
    with pytest.raises(InputError):
        rescale_blowup(fld, (0.5, 0.5), -0.1, out)


def test_csv_round_trip(tmp_path):
    g = GridSpec(9, extent=2.0, origin=(-1.0, 0.5))
    rng = np.random.default_rng(11)
    fld = GridField(g, rng.normal(size=(9, 9)) * 1e-3)
    path = tmp_path / "field.csv"
    field_to_csv(fld, path)
    back = field_from_csv(path)
    assert back.spec == g
    assert np.array_equal(back.values, fld.values)
    # the field owns its values, not a view into the parsed x,y,value table
    assert back.values.flags.owndata and back.values.flags.c_contiguous


def test_csv_rows_must_sit_on_their_nodes(tmp_path):
    g = GridSpec(5)
    path = tmp_path / "f.csv"
    field_to_csv(GridField(g, np.arange(25.0).reshape(5, 5)), path)
    lines = path.read_text().splitlines()
    # rows 1 and 2 swapped, and x = 9.5 in row 4
    lines[1], lines[2] = lines[2], lines[1]
    lines[4] = "9.5," + lines[4].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="line 2 has x,y = 0,0.25, not node 0,0"):
        field_from_csv(path)
    # the first bad row is named wherever it lies
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="line 5 has x,y = 9.5,0.75, not node 0,0.75"):
        field_from_csv(path)


def test_csv_header_and_sidecar(tmp_path):
    g = GridSpec(5)
    field_to_csv(GridField(g, np.zeros((5, 5))), tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 25
    assert (tmp_path / "f.csv.meta.json").exists()


def test_csv_exact_bytes(tmp_path):
    g = GridSpec(5, origin=(0.1, -0.3))
    vals = np.zeros((5, 5))
    vals[0, 0], vals[0, 1], vals[2, 3], vals[4, 4] = -0.0, 5e-324, 1e16, 1.0 / 3.0
    field_to_csv(GridField(g, vals), tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == (
        "x,y,value\n"
        "0.10000000000000001,-0.29999999999999999,-0\n"
        "0.10000000000000001,-0.049999999999999989,4.9406564584124654e-324\n"
        "0.10000000000000001,0.20000000000000001,0\n"
        "0.10000000000000001,0.45000000000000001,0\n"
        "0.10000000000000001,0.69999999999999996,0\n"
        "0.34999999999999998,-0.29999999999999999,0\n"
        "0.34999999999999998,-0.049999999999999989,0\n"
        "0.34999999999999998,0.20000000000000001,0\n"
        "0.34999999999999998,0.45000000000000001,0\n"
        "0.34999999999999998,0.69999999999999996,0\n"
        "0.59999999999999998,-0.29999999999999999,0\n"
        "0.59999999999999998,-0.049999999999999989,0\n"
        "0.59999999999999998,0.20000000000000001,0\n"
        "0.59999999999999998,0.45000000000000001,10000000000000000\n"
        "0.59999999999999998,0.69999999999999996,0\n"
        "0.84999999999999998,-0.29999999999999999,0\n"
        "0.84999999999999998,-0.049999999999999989,0\n"
        "0.84999999999999998,0.20000000000000001,0\n"
        "0.84999999999999998,0.45000000000000001,0\n"
        "0.84999999999999998,0.69999999999999996,0\n"
        "1.1000000000000001,-0.29999999999999999,0\n"
        "1.1000000000000001,-0.049999999999999989,0\n"
        "1.1000000000000001,0.20000000000000001,0\n"
        "1.1000000000000001,0.45000000000000001,0\n"
        "1.1000000000000001,0.69999999999999996,0.33333333333333331\n"
    ).encode()
    assert (tmp_path / "f.csv.meta.json").read_text() == (
        '{"extent": 1.0, "nx": 5, "origin": [0.1, -0.3]}\n')


def test_csv_bytes_match_per_node_reference(tmp_path):
    g = GridSpec(23, extent=1.7, origin=(-0.3, 2.1))
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(23, 23)) * 10.0 ** rng.integers(-300, 300, size=(23, 23))
    vals[3, 4], vals[5, 6], vals[7, 8] = -0.0, 5e-324, 1e16
    field_to_csv(GridField(g, vals), tmp_path / "f.csv")
    X, Y = g.node_coords()
    rows = (f"{x:.17g},{y:.17g},{v:.17g}\n"
            for x, y, v in zip(X.ravel().tolist(), Y.ravel().tolist(), vals.ravel().tolist()))
    assert (tmp_path / "f.csv").read_bytes() == ("x,y,value\n" + "".join(rows)).encode()
