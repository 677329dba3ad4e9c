import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pucci_lab import (
    ConeSpec,
    ConfigurationError,
    DomainError,
    FreeBoundaryCurve,
    GridField,
    GridSpec,
    InputError,
    SlopeFit,
    ball_sup,
    boundary_consistency,
    check_alpha_beta,
    classify_regular,
    curve_to_csv,
    epsilon_monotonicity,
    extract_zero_set,
    fit_two_plane,
    flatness_measure,
    make_fixture,
)


def circle_field(gspec, R, c=(0.5, 0.5)):
    xx, yy = gspec.node_coords()
    return GridField(gspec, (xx - c[0]) ** 2 + (yy - c[1]) ** 2 - R * R)


def test_extract_vertical_line():
    g = GridSpec(33)
    xx, _ = g.node_coords()
    curve = extract_zero_set(GridField(g, xx - 0.5))
    # the two crossings on the boundary ring belong to the datum and are clipped
    assert curve.vertices.shape == (31, 2)
    assert curve.vertices[:, 0] == pytest.approx(np.full(31, 0.5))
    assert curve.vertices[:, 1].min() == pytest.approx(g.h)
    assert curve.vertices[:, 1].max() == pytest.approx(1.0 - g.h)
    assert len(curve.segments) == 30
    assert curve.normals == pytest.approx(np.tile([1.0, 0.0], (31, 1)))


def test_extract_one_signed_field_is_empty():
    g = GridSpec(33)
    xx, _ = g.node_coords()
    curve = extract_zero_set(GridField(g, xx + 1.0))
    assert curve.is_empty
    assert len(curve.segments) == 0
    with pytest.raises(InputError):
        curve.nearest_vertex((0.5, 0.5))


def test_extract_rejects_non_finite():
    g = GridSpec(33)
    vals = np.zeros((33, 33))
    vals[5, 5] = math.nan
    with pytest.raises(InputError):
        extract_zero_set(GridField(g, vals))


def test_extract_circle_vertex_accuracy():
    g = GridSpec(65)
    R = 0.3
    curve = extract_zero_set(circle_field(g, R))
    r = np.hypot(curve.vertices[:, 0] - 0.5, curve.vertices[:, 1] - 0.5)
    assert np.abs(r - R).max() <= 1.5 * g.h ** 2 / (2.0 * R)
    # normals point into {u > 0}, the outside of the disk
    radial = (curve.vertices - 0.5) / r[:, None]
    assert (curve.normals * radial).sum(axis=1).min() > 0.999
    assert np.hypot(curve.normals[:, 0], curve.normals[:, 1]) == pytest.approx(
        np.ones(len(curve.vertices)))


def test_extract_clips_to_open_domain():
    g = GridSpec(33)
    xx, yy = g.node_coords()
    # zero diagonal runs corner to corner; those two crossings sit on the ring
    curve = extract_zero_set(GridField(g, xx - yy))
    assert np.all(curve.vertices > 0.0)
    assert np.all(curve.vertices < 1.0)


def test_extract_saddle_cell_splits_into_two_branches(tmp_path):
    g = GridSpec(65)
    xx, yy = g.node_coords()
    curve = extract_zero_set(GridField(g, (xx - 0.47) * (yy - 0.47)))
    hit = np.minimum(np.abs(curve.vertices[:, 0] - 0.47),
                     np.abs(curve.vertices[:, 1] - 0.47))
    assert hit.max() <= 1e-12
    path = tmp_path / "saddle.csv"
    curve_to_csv(curve, path)
    seg_ids = {row.split(",")[0] for row in path.read_text().strip().splitlines()[1:]}
    assert len(seg_ids) == 2


@settings(max_examples=15, deadline=None)
@given(angle=st.floats(0.0, 180.0, allow_nan=False))
@example(angle=131.25)  # puts a vertex within h of the ring, next to the kink
def test_extract_normals_follow_the_plane_direction(angle):
    g = GridSpec(33)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=angle)
    curve = extract_zero_set(u)
    a = math.radians(angle)
    nu = np.array([math.cos(a), math.sin(a)])
    assert (curve.normals @ nu).min() > 0.99


def test_nearest_vertex():
    g = GridSpec(33)
    xx, _ = g.node_coords()
    curve = extract_zero_set(GridField(g, xx - 0.5))
    k = curve.nearest_vertex((0.52, 0.5))
    assert curve.vertices[k] == pytest.approx([0.5, 0.5])


def test_boundary_consistency_two_plane_offset_geometry():
    # each phase's level delta+- = h Lip(u+-) sits about one cell from the
    # interface, so coincident phases read 2h whatever their slopes
    g = GridSpec(65)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=0.0)
    assert boundary_consistency(u) == pytest.approx(2.0 * g.h)

    g = GridSpec(257)
    got = boundary_consistency(make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0))
    assert got <= 3.0 * g.h
    assert got == pytest.approx(
        boundary_consistency(make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=20.0)))


def test_boundary_consistency_coincident_sweep_and_dead_core():
    # the sup runs over vertices at least 4h from the walls, where the tilted
    # level curves of coincident phases do not overhang each other; a 2h dead
    # core at one of the swept angles is the control that must still fail 3h
    g = GridSpec(65)
    readings = [boundary_consistency(make_fixture(g, "two_plane", alpha=1.0, beta=1.0,
                                                  angle=0.5 * k)) for k in range(360)]
    assert max(readings) <= 3.0 * g.h
    xx, yy = g.node_coords()
    a = math.radians(20.0)
    d = (xx - 0.5) * math.cos(a) + (yy - 0.5) * math.sin(a)
    cored = GridField(g, np.maximum(d - g.h, 0.0) - np.maximum(-d - g.h, 0.0))
    assert boundary_consistency(cored) > 3.0 * g.h


def test_boundary_consistency_flags_dead_core():
    g = GridSpec(65)
    xx, _ = g.node_coords()
    w = 0.2
    d = xx - 0.5
    u = GridField(g, np.maximum(d - w / 2, 0.0) - np.maximum(-d - w / 2, 0.0))
    assert boundary_consistency(u) == pytest.approx(w + 2.0 * g.h)


def test_boundary_consistency_degenerate_nan():
    g = GridSpec(65)
    xx, _ = g.node_coords()
    assert math.isnan(boundary_consistency(GridField(g, xx + 0.1)))
    assert math.isnan(boundary_consistency(GridField(g, np.zeros((65, 65)))))


def test_ball_sup_modes():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=20.0)
    x0, r = (0.5, 0.5), 0.2
    assert ball_sup(u, x0, r, "abs") == pytest.approx(3.0 * r, rel=5e-3)
    assert ball_sup(u, x0, r, "plus") == pytest.approx(2.0 * r, rel=5e-3)
    assert ball_sup(u, x0, r, "minus") == pytest.approx(3.0 * r, rel=5e-3)
    assert ball_sup(u, x0, r, "raw") == pytest.approx(2.0 * r, rel=5e-3)
    with pytest.raises(ConfigurationError):
        ball_sup(u, x0, r, "sup")
    with pytest.raises(InputError):
        ball_sup(u, x0, 0.0)


def test_classify_regular_even_plane():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=20.0)
    rec = classify_regular(u, (0.5, 0.5), (0.1, 0.2))
    assert rec.M == pytest.approx(1.0, abs=5e-3)
    assert rec.c_lower == pytest.approx(1.0, abs=5e-3)
    assert rec.C_upper == pytest.approx(1.0, abs=5e-3)
    assert rec.zero_density == pytest.approx(0.5, abs=0.02)
    assert rec.is_regular


def test_classify_regular_uneven_plane():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=20.0)
    rec = classify_regular(u, (0.5, 0.5), (0.1, 0.2))
    assert rec.M == pytest.approx(3.0, rel=5e-3)
    assert rec.c_lower == pytest.approx(2.0, rel=5e-3)
    assert rec.C_upper == pytest.approx(3.0, rel=5e-3)
    assert rec.is_regular


def test_classify_quadratic_degenerate_point():
    g = GridSpec(129)
    xx, yy = g.node_coords()
    u = GridField(g, (xx - 0.5) ** 2 + (yy - 0.5) ** 2)
    rec = classify_regular(u, (0.5, 0.5), (0.1, 0.2))
    assert rec.M == pytest.approx(0.1, rel=2e-2)
    assert not rec.is_regular
    # the floor is a configured convention, honored when lowered
    assert classify_regular(u, (0.5, 0.5), (0.1, 0.2), m_min=0.05).is_regular


def test_classify_regular_input_errors():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=0.0)
    with pytest.raises(DomainError):
        classify_regular(u, (0.9, 0.5), (0.2,))
    with pytest.raises(InputError):
        classify_regular(u, (0.5, 0.5), ())
    with pytest.raises(InputError):
        classify_regular(u, (0.5, 0.5), (-0.1,))


def test_fit_two_plane_exact_model():
    g = GridSpec(257)
    u = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=30.0)
    fit = fit_two_plane(u, (0.5, 0.5), (0.2, 0.1, 0.05))
    assert fit.alpha == pytest.approx(2.0, rel=1e-3)
    assert fit.beta == pytest.approx(3.0, rel=1e-3)
    a = math.radians(30.0)
    assert fit.nu == pytest.approx((math.cos(a), math.sin(a)), abs=1e-4)
    assert fit.residual <= 0.05
    assert not fit.no_asymptote
    assert check_alpha_beta(fit) == "FAIL"


def test_fit_two_plane_linear_field():
    g = GridSpec(257)
    xx, yy = g.node_coords()
    a = math.radians(30.0)
    u = GridField(g, (xx - 0.5) * math.cos(a) + (yy - 0.5) * math.sin(a))
    fit = fit_two_plane(u, (0.5, 0.5), (0.2, 0.1, 0.05))
    assert fit.alpha == pytest.approx(1.0, rel=1e-3)
    assert fit.beta == pytest.approx(1.0, rel=1e-3)
    assert check_alpha_beta(fit) == "PASS"


def test_fit_two_plane_quadratic_perturbation():
    g = GridSpec(257)
    xx, yy = g.node_coords()
    base = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=30.0)
    u = GridField(g, base.values + 0.1 * ((xx - 0.5) ** 2 + (yy - 0.5) ** 2))
    errs = []
    for r in (0.2, 0.1, 0.05):
        fit = fit_two_plane(u, (0.5, 0.5), (r,))
        err = max(abs(fit.alpha - 1.0), abs(fit.beta - 2.0))
        # o(|x|)/r term of size 0.1 r, with a small annulus-geometry factor
        assert err <= 0.11 * r + 1e-3
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_fit_two_plane_rotation_covariance():
    g = GridSpec(257)
    f1 = fit_two_plane(make_fixture(g, "two_plane", alpha=1.5, beta=2.5, angle=10.0),
                       (0.5, 0.5), (0.2, 0.1, 0.05))
    f2 = fit_two_plane(make_fixture(g, "two_plane", alpha=1.5, beta=2.5, angle=47.0),
                       (0.5, 0.5), (0.2, 0.1, 0.05))
    assert f1.alpha == pytest.approx(f2.alpha, abs=1e-4)
    assert f1.beta == pytest.approx(f2.beta, abs=1e-4)
    assert math.degrees(math.atan2(f2.nu[1], f2.nu[0])) == pytest.approx(47.0, abs=0.01)


def test_fit_two_plane_no_asymptote_flag():
    g = GridSpec(257)
    xx, yy = g.node_coords()
    u = GridField(g, 0.3 * np.sin(40.0 * xx) * np.sin(40.0 * yy))
    fit = fit_two_plane(u, (0.5, 0.5), (0.2, 0.1, 0.05))
    assert fit.no_asymptote
    with pytest.raises(InputError):
        check_alpha_beta(fit)


def test_fit_two_plane_radii_validation():
    g = GridSpec(257)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=30.0)
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), ())
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), (0.05, 0.1))
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), (0.2, 0.01))


def test_check_alpha_beta_verdicts():
    def fit(a, b):
        return SlopeFit((0.5, 0.5), (1.0, 0.0), a, b, 0.01, False)

    assert check_alpha_beta(fit(1.0, 1.0)) == "PASS"
    assert check_alpha_beta(fit(2.0, 3.0)) == "FAIL"
    # relative tolerance makes the verdict scale-invariant
    assert check_alpha_beta(fit(1.0, 1.04)) == "PASS"
    assert check_alpha_beta(fit(10.0, 10.4)) == "PASS"
    assert check_alpha_beta(fit(0.0, 0.0)) == "FAIL"
    with pytest.raises(ConfigurationError):
        check_alpha_beta(fit(1.0, 1.0), rel_tol=-0.1)


def test_flatness_line_and_kink():
    g = GridSpec(65)
    xx, yy = g.node_coords()
    a = math.radians(30.0)
    lin = GridField(g, (xx - 0.5) * math.cos(a) + (yy - 0.5) * math.sin(a))
    assert flatness_measure(lin, (0.5, 0.5), 0.2) <= 1e-12
    # crossing a kinked profile quantizes vertices at O(h) below the line
    kink = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    assert flatness_measure(kink, (0.5, 0.5), 0.2) <= g.h / 4.0


def test_flatness_circle_sagitta():
    g = GridSpec(65)
    xx, yy = g.node_coords()
    u = GridField(g, (xx - 0.5) ** 2 + (yy - 0.5) ** 2)
    R, w = 0.3, 0.1
    sag = w * w / (2.0 * R)
    f1 = flatness_measure(u, (0.5 + R, 0.5), w, level=R * R)
    assert sag / 2.0 <= f1 <= sag
    # the quarter-turned window sees the congruent arc
    f2 = flatness_measure(u, (0.5, 0.5 + R), w, level=R * R)
    assert f1 == pytest.approx(f2, rel=1e-9)


def test_flatness_insufficient_data_and_errors():
    g = GridSpec(65)
    xx, yy = g.node_coords()
    u = GridField(g, (xx - 0.5) ** 2 + (yy - 0.5) ** 2)
    assert math.isnan(flatness_measure(u, (0.5, 0.5), 0.05, level=0.09))
    assert math.isnan(flatness_measure(u, (0.5, 0.5), 0.05, level=-1.0))
    with pytest.raises(InputError):
        flatness_measure(u, (0.5, 0.5), 0.0)


WINDOW = (0.3, 0.7, 0.3, 0.7)


def test_epsilon_monotonicity_linear_fields():
    g = GridSpec(65)
    xx, _ = g.node_coords()
    cone = ConeSpec.from_degrees(0.0, 60.0)
    assert epsilon_monotonicity(GridField(g, xx.copy()), cone, WINDOW) == 2.0 * g.h
    assert epsilon_monotonicity(GridField(g, -xx), cone, WINDOW) == math.inf


def test_epsilon_monotonicity_two_plane_tilt_table():
    # a plane increasing along nu is cone-monotone iff every cone direction
    # stays within a right angle of nu, i.e. tilt < 90 deg - theta
    g = GridSpec(65)
    cone = ConeSpec.from_degrees(0.0, 60.0)
    for tilt in (0.0, 10.0, 20.0, 28.0):
        u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=tilt)
        assert epsilon_monotonicity(u, cone, WINDOW) == 2.0 * g.h
    beyond = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=40.0)
    assert epsilon_monotonicity(beyond, cone, WINDOW) == math.inf


def test_epsilon_monotonicity_monotone_in_theta():
    g = GridSpec(65)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=40.0)
    narrow = epsilon_monotonicity(u, ConeSpec.from_degrees(0.0, 40.0), WINDOW)
    wide = epsilon_monotonicity(u, ConeSpec.from_degrees(0.0, 60.0), WINDOW)
    assert narrow == 2.0 * g.h
    assert narrow <= wide


def test_epsilon_monotonicity_window_validation():
    g = GridSpec(65)
    xx, _ = g.node_coords()
    u = GridField(g, xx.copy())
    cone = ConeSpec.from_degrees(0.0, 60.0)
    with pytest.raises(InputError):
        epsilon_monotonicity(u, cone, (0.7, 0.3, 0.3, 0.7))
    with pytest.raises(InputError):
        epsilon_monotonicity(u, cone, (0.01, 0.99, 0.01, 0.99))
    with pytest.raises(InputError):
        epsilon_monotonicity(u, cone, (0.5 + 0.1 * g.h, 0.5 + 0.4 * g.h, 0.3, 0.7))


def test_cone_spec_validation():
    ConeSpec.from_degrees(30.0, 45.0)
    with pytest.raises(ConfigurationError):
        ConeSpec((1.0, 1.0), 0.5)
    with pytest.raises(ConfigurationError):
        ConeSpec((1.0, 0.0), 0.0)
    with pytest.raises(ConfigurationError):
        ConeSpec((1.0, 0.0), math.pi / 2.0)


def test_curve_to_csv_open_and_closed(tmp_path):
    g = GridSpec(33)
    xx, _ = g.node_coords()
    line = extract_zero_set(GridField(g, xx - 0.5))
    p1 = tmp_path / "line.csv"
    curve_to_csv(line, p1)
    rows = p1.read_text().strip().splitlines()
    assert rows[0] == "seg_id,x,y,nx,ny"
    assert len(rows) == 1 + len(line.vertices)
    assert {r.split(",")[0] for r in rows[1:]} == {"0"}

    ring = extract_zero_set(circle_field(GridSpec(65), 0.3))
    p2 = tmp_path / "ring.csv"
    curve_to_csv(ring, p2)
    rows = p2.read_text().strip().splitlines()[1:]
    # a closed loop repeats its starting vertex
    assert len(rows) == len(ring.vertices) + 1
    assert rows[0] == rows[-1]
