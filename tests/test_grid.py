import numpy as np
import pytest

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
    make_grid,
    rescale_blowup,
)


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
