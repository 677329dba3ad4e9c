import math

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
    JrSeries,
    j_r,
    j_series_check,
    make_fixture,
    positive_cell_fraction,
    series_to_csv,
)

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


def test_series_input_validation():
    g = GridSpec(65)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (0.1,))
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (0.2, 0.1))
    with pytest.raises(InputError):
        j_series_check(u, (0.5, 0.5), (-0.1, 0.2))
    with pytest.raises(ConfigurationError):
        j_series_check(u, (0.5, 0.5), SCHEDULE, eta=1.0)
    with pytest.raises(DomainError):
        j_series_check(u, (0.9, 0.5), SCHEDULE)


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


def test_positive_cell_fraction_complement():
    g = GridSpec(33)
    xx, yy = g.node_coords()
    u = np.sin(3.1 * xx + 0.4) * np.cos(2.3 * yy) + 0.17
    assert positive_cell_fraction(u) + positive_cell_fraction(-u) == pytest.approx(
        np.ones((32, 32)))


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
