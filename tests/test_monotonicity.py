import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucci_lab import (
    DomainError,
    GridField,
    GridSpec,
    InputError,
    JrSeries,
    j_r,
    j_series_check,
    make_fixture,
    positive_cell_fraction,
    series_to_csv,
)
from pucci_lab import monotonicity
from pucci_lab.monotonicity import (_cell_gradients, _displaced_cell_index,
                                   _tri_positive_fraction)

SCHEDULE = (0.05, 0.1, 0.15, 0.2)


def half_plane(gspec, alpha, angle_deg, x0=(0.5, 0.5)):
    xx, yy = gspec.node_coords()
    a = math.radians(angle_deg)
    d = (xx - x0[0]) * math.cos(a) + (yy - x0[1]) * math.sin(a)
    return GridField(gspec, alpha * np.maximum(d, 0.0))


def test_j_r_zero_field():
    g = GridSpec(33)
    assert j_r(GridField(g, np.zeros((33, 33))), (0.5, 0.5), 0.3) == 0.0


def test_j_r_half_plane_oracle():
    # (1/r^2) * alpha^2 * area of the half-disk = pi alpha^2 / 2
    g = GridSpec(257)
    alpha = 1.3
    u = half_plane(g, alpha, 30.0)
    exact = math.pi * alpha * alpha / 2.0
    assert j_r(u, (0.5, 0.5), 0.4) == pytest.approx(exact, rel=0.01)


def test_j_r_plane_is_radius_free():
    g = GridSpec(257)
    u = half_plane(g, 0.7, 30.0)
    a = j_r(u, (0.5, 0.5), 0.2)
    b = j_r(u, (0.5, 0.5), 0.4)
    assert a == pytest.approx(b, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.1, 10.0, allow_nan=False))
def test_j_r_quadratic_scaling(t):
    g = GridSpec(33)
    u = half_plane(g, 1.0, 20.0)
    base = j_r(u, (0.5, 0.5), 0.3)
    scaled = j_r(GridField(g, t * u.values), (0.5, 0.5), 0.3)
    assert scaled == pytest.approx(t * t * base, rel=1e-12)


def test_j_r_weighs_cells_as_the_series_does():
    # on a field positive everywhere every cell is wholly in the first phase,
    # so J_r of the field is the series' j1 at each radius, rim cells included
    g = GridSpec(65)
    xx, yy = g.node_coords()
    u = GridField(g, 2.0 + np.sin(3.0 * xx) * yy)
    x0 = (0.47, 0.52)
    series, _ = j_series_check(u, x0, SCHEDULE)
    assert [j_r(u, x0, r) for r in SCHEDULE] == pytest.approx(series.j1, rel=1e-13)


def test_j_r_rejects_bad_input():
    g = GridSpec(33)
    u = half_plane(g, 1.0, 0.0)
    with pytest.raises(InputError):
        j_r(u, (0.5, 0.5), 0.0)
    with pytest.raises(DomainError):
        j_r(u, (0.9, 0.5), 0.2)
    signed = GridField(g, u.values - 0.5)
    with pytest.raises(InputError):
        j_r(signed, (0.5, 0.5), 0.2)


def test_series_two_plane_constant():
    # pins c_2 = pi^2/4 in the two-plane product: (pi a^2/2)(pi b^2/2)
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    series, verdict = j_series_check(u, (0.5, 0.5), SCHEDULE)
    exact = math.pi ** 2  # alpha=1, beta=2
    assert np.abs(series.j / exact - 1.0).max() <= 0.02
    assert verdict.verdict == "PASS"
    assert verdict.constancy_defect <= 0.02
    assert series.j0 == pytest.approx(exact, rel=0.05)
    assert series.j == pytest.approx(series.j1 * series.j2)


def test_series_rotation_covariance():
    g = GridSpec(129)
    ref = None
    for angle in (0.0, 20.0, 37.0, 90.0):
        u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=angle)
        series, _ = j_series_check(u, (0.5, 0.5), SCHEDULE)
        if ref is None:
            ref = series.j
        else:
            assert np.abs(series.j - ref).max() / math.pi ** 2 <= 0.01


def test_series_refinement_stability():
    exact = math.pi ** 2
    coarse, _ = j_series_check(
        make_fixture(GridSpec(65), "two_plane", alpha=1.0, beta=2.0, angle=20.0),
        (0.5, 0.5), SCHEDULE)
    fine, _ = j_series_check(
        make_fixture(GridSpec(129), "two_plane", alpha=1.0, beta=2.0, angle=20.0),
        (0.5, 0.5), SCHEDULE)
    coarse_err = np.abs(coarse.j - exact).max()
    assert np.abs(fine.j - coarse.j).max() <= 4.0 * coarse_err


def test_series_degenerate_one_signed():
    g = GridSpec(65)
    series, verdict = j_series_check(half_plane(g, 1.0, 20.0), (0.5, 0.5), SCHEDULE)
    assert verdict.verdict == "DEGENERATE"
    assert math.isnan(verdict.constancy_defect)
    assert math.isnan(verdict.worst_drop)
    assert np.all(series.j == 0.0)


def test_series_detects_genuine_decrease():
    # a pulse of slope near the center and nothing further out forces j to
    # collapse along the schedule
    g = GridSpec(129)
    xx, yy = g.node_coords()
    r2 = (xx - 0.5) ** 2 + (yy - 0.5) ** 2
    bump = np.exp(-r2 / (2 * 0.02 ** 2))
    u = GridField(g, (xx - 0.5) * bump)
    _, verdict = j_series_check(u, (0.5, 0.5), SCHEDULE)
    assert verdict.verdict == "FAIL"
    assert verdict.worst_drop > 0.5


def _whole_grid_series(u, x0, radii):
    """j1, j2 of j_series_check computed over every cell of the grid."""
    h, n = u.spec.h, u.spec.nx - 1
    gx, gy = _cell_gradients(u.values, h)
    energy = gx * gx + gy * gy
    frac = positive_cell_fraction(u.values)
    mixed = (frac > 0.0) & (frac < 1.0)
    e_pos = np.where(frac > 0.0, energy, 0.0)
    e_neg = np.where(frac < 1.0, energy, 0.0)
    ix, iy = np.nonzero(mixed)
    e_pos[ix, iy] = energy[_displaced_cell_index(ix, iy, n, gx[mixed], gy[mixed], +1.0)]
    e_neg[ix, iy] = energy[_displaced_cell_index(ix, iy, n, gx[mixed], gy[mixed], -1.0)]
    c = (np.arange(n) + 0.5) * h
    cx, cy = np.meshgrid(u.spec.origin[0] + c, u.spec.origin[1] + c, indexing="ij")
    dist = np.hypot(cx - x0[0], cy - x0[1])
    half_diag = h * math.sqrt(0.5)
    sub = ((np.arange(8) + 0.5) / 8.0 - 0.5) * h
    ox, oy = [o.ravel() for o in np.meshgrid(sub, sub, indexing="ij")]
    e1 = frac * e_pos
    e2 = (1.0 - frac) * e_neg
    j1, j2 = [], []
    for r in radii:
        w = (dist <= r - half_diag).astype(float)
        rim = np.abs(dist - r) < half_diag
        px = cx[rim][:, None] + ox[None, :] - x0[0]
        py = cy[rim][:, None] + oy[None, :] - x0[1]
        w[rim] = np.mean(px * px + py * py <= r * r, axis=1)
        j1.append(np.sum(w * e1) * h * h / (r * r))
        j2.append(np.sum(w * e2) * h * h / (r * r))
    return np.array(j1), np.array(j2)


def test_series_window_matches_whole_grid():
    # on noise about half the cells are mixed, the window edge included, so
    # their displaced neighbors fall outside the weighted cells; balls
    # touching the walls need the displaced index clipped at the grid edge
    g = GridSpec(65, extent=1.0, origin=(-0.25, 0.25))
    rng = np.random.default_rng(3)
    radii = (0.0625, 0.125, 0.25)
    centers = [(0.0, 0.75), (0.5, 1.0), (0.137, 0.561), (0.25, 0.5)]
    fields = [rng.normal(size=(65, 65)) for _ in range(4)]
    fields.append(rng.integers(-3, 4, size=(65, 65)).astype(float))
    for vals in fields:
        u = GridField(g, vals)
        for x0 in centers:
            series, verdict = j_series_check(u, x0, radii)
            j1, j2 = _whole_grid_series(u, x0, radii)
            assert np.allclose(series.j1, j1, rtol=1e-13, atol=0.0)
            assert np.allclose(series.j2, j2, rtol=1e-13, atol=0.0)
            j = j1 * j2
            worst = max(0.0, float(np.max((j[:-1] - j[1:]) / j[:-1])))
            assert verdict.verdict == ("PASS" if worst <= 0.02 else "FAIL")


def test_series_energies_are_computed_once_per_field(monkeypatch):
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    calls = []
    fraction = monotonicity.positive_cell_fraction
    monkeypatch.setattr(monotonicity, "positive_cell_fraction",
                        lambda v: calls.append(v.shape) or fraction(v))
    centers = np.random.default_rng(8).uniform(0.3, 0.7, size=(20, 2))
    series = [j_series_check(u, tuple(c), SCHEDULE)[0] for c in centers]
    assert calls == [(129, 129)]
    for c, got in zip(centers, series):
        ref = j_series_check(GridField(g, u.values.copy()), tuple(c), SCHEDULE)[0]
        for name in ("j1", "j2", "j"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        assert got.j0 == ref.j0


def test_series_input_validation():
    g = GridSpec(65)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (0.1,))
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (0.2, 0.1))
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (-0.1, 0.2))
    with pytest.raises(DomainError):
        j_series_check(u, (0.9, 0.5), SCHEDULE)


@pytest.mark.parametrize("radii", [(0.1, math.nan), (math.nan, 0.2), (0.1, 0.2, math.inf, math.inf)])
def test_series_rejects_non_finite_radii(radii):
    u = make_fixture(GridSpec(65), "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    with pytest.raises(InputError, match="finite") as err:
        j_series_check(u, (0.5, 0.5), radii)
    assert repr(list(radii)) in str(err.value)


def test_jr_series_record_validation():
    r = np.array([0.1, 0.2])
    ok = np.array([1.0, 1.0])
    JrSeries((0.5, 0.5), r, ok, ok, ok, 1.0)
    with pytest.raises(InputError):
        JrSeries((0.5, 0.5), np.array([0.2, 0.1]), ok, ok, ok, 1.0)
    with pytest.raises(InputError):
        JrSeries((0.5, 0.5), r, ok, ok, np.array([1.0, -1.0]), 1.0)
    with pytest.raises(InputError):
        JrSeries((0.5, 0.5), r, np.array([1.0]), ok, ok, 1.0)


def test_positive_cell_fraction_plane_through_cell_center():
    g = GridSpec(5)
    xx, yy = g.node_coords()
    # 45-degree zero line through the center of the corner cell
    frac = positive_cell_fraction((xx - 0.125) + (yy - 0.125))
    assert frac[0, 0] == pytest.approx(0.5)
    assert frac[-1, -1] == 1.0
    assert np.all((frac >= 0.0) & (frac <= 1.0))


@pytest.mark.parametrize("cell, expected", [
    # u[i, j] at (i h, j h); the four triangles meet at the corner mean
    ([[1.0, 0.0], [0.0, -1.0]], 0.5),     # triangles (1, 0, 0) and (0, 1, 0): 1 each
    ([[1.0, -1.0], [1.0, -1.0]], 0.5),    # (1, 1, 0): 1; (1, -1, 0): 1/2 twice
    ([[0.0, 0.0], [0.0, 0.0]], 0.0),      # (0, 0, 0)
    ([[0.0, 0.0], [0.0, 1.0]], 1.0),      # zero corners, positive center
    ([[0.0, 0.0], [0.0, -1.0]], 0.0),
    ([[1.0, -2.0], [-1.0, -2.0]], 5.0 / 48.0),   # (1, -1, -1): 1/4; (-2, 1, -1): 1/6
    ([[-1.0, 2.0], [1.0, 2.0]], 43.0 / 48.0),    # (-1, 1, 1): 3/4; (2, -1, 1): 5/6
])
def test_positive_cell_fraction_ties_and_zeros(cell, expected):
    assert positive_cell_fraction(np.array(cell))[0, 0] == pytest.approx(expected, rel=1e-15)


def test_positive_cell_fraction_extreme_scales():
    # the fraction is scale invariant; corner products would underflow or
    # overflow at these scales, ratios do not
    tiny = positive_cell_fraction(np.array([[1e-170, 0.0], [0.0, 0.0]]))[0, 0]
    assert tiny == positive_cell_fraction(np.array([[1.0, 0.0], [0.0, 0.0]]))[0, 0] == 1.0
    for cell in ([[1e200, -1e200], [-2e200, 3e200]], [[-1e-200, 2e-200], [3e-200, -1e-200]]):
        cell = np.array(cell)
        frac = positive_cell_fraction(cell)[0, 0]
        assert np.isfinite(frac)
        unit = positive_cell_fraction(cell / np.abs(cell).max())[0, 0]
        assert frac == pytest.approx(unit, rel=1e-14)


def test_positive_cell_fraction_complement():
    g = GridSpec(33)
    xx, yy = g.node_coords()
    u = np.sin(3.1 * xx + 0.4) * np.cos(2.3 * yy) + 0.17
    assert positive_cell_fraction(u) + positive_cell_fraction(-u) == pytest.approx(
        np.ones((32, 32)))


def _all_cells_fraction(u):
    """The triangle formulas evaluated on every cell."""
    v00, v10, v11, v01 = u[:-1, :-1], u[1:, :-1], u[1:, 1:], u[:-1, 1:]
    vc = 0.25 * (v00 + v10 + v11 + v01)
    return 0.25 * (_tri_positive_fraction(v00, v10, vc) + _tri_positive_fraction(v10, v11, vc)
                   + _tri_positive_fraction(v11, v01, vc) + _tri_positive_fraction(v01, v00, vc))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                          st.floats(-1e300, 1e300, allow_nan=False)),
                min_size=36, max_size=36))
def test_positive_cell_fraction_matches_all_cells_formula(values):
    # only sign-changing cells evaluate the formulas; the others are exactly
    # 0 or 1, as the formulas give, bit for bit
    u = np.array(values).reshape(6, 6)
    got, ref = positive_cell_fraction(u), _all_cells_fraction(u)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_series_to_csv_roundtrip(tmp_path):
    g = GridSpec(65)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    series, _ = j_series_check(u, (0.5, 0.5), SCHEDULE)
    path = tmp_path / "series.csv"
    series_to_csv(series, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,j1,j2,j"
    assert len(rows) == 1 + len(SCHEDULE)
    back = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert back[:, 0] == pytest.approx(np.asarray(SCHEDULE))
    assert back[:, 3] == pytest.approx(series.j)
