import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pucci_lab import (
    ConeSpec,
    ConfigurationError,
    DomainError,
    Ellipticity,
    FreeBoundaryCurve,
    GridField,
    GridSpec,
    InputError,
    OperatorPair,
    SlopeFit,
    SolveConfig,
    ball_sup,
    bilinear_sample,
    bilinear_shift,
    boundary_consistency,
    check_alpha_beta,
    classify_regular,
    curve_to_csv,
    epsilon_monotonicity,
    epsilon_sweep,
    extract_zero_set,
    fit_two_plane,
    flatness_measure,
    make_fixture,
    make_grid,
)
from pucci_lab import freeboundary


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
    # the saddle cell spans x in [30h, 31h]; its centre 30.5h lies right of
    # x = 0.47, in the phase of the cell's lower-left corner, and left of
    # x = 0.48, in the other phase, so each resolution of the cell runs
    # (negating the field keeps the resolution: both signs flip)
    g = GridSpec(65)
    xx, yy = g.node_coords()
    for a in (0.47, 0.48):
        curve = extract_zero_set(GridField(g, (xx - a) * (yy - 0.47)))
        hit = np.minimum(np.abs(curve.vertices[:, 0] - a),
                         np.abs(curve.vertices[:, 1] - 0.47))
        assert hit.max() <= 1e-12
        path = tmp_path / f"saddle{a}.csv"
        curve_to_csv(curve, path)
        seg_ids = {row.split(",")[0] for row in path.read_text().strip().splitlines()[1:]}
        assert len(seg_ids) == 2


def loop_zero_set(u):
    """Marching squares one crossing and one cell at a time: the reference
    for the vertices and segments of :func:`extract_zero_set`."""
    v, h, (ox, oy) = u.values, u.spec.h, u.spec.origin
    pos = v > 0.0
    nx = v.shape[0]
    verts, at = [], {}
    for i, j in zip(*np.nonzero(pos[:-1, :] != pos[1:, :])):
        at["x", i, j] = len(verts)
        verts.append((ox + (i + v[i, j] / (v[i, j] - v[i + 1, j])) * h, oy + j * h))
    for i, j in zip(*np.nonzero(pos[:, :-1] != pos[:, 1:])):
        at["y", i, j] = len(verts)
        verts.append((ox + i * h, oy + (j + v[i, j] / (v[i, j] - v[i, j + 1])) * h))
    segments = []
    for i in range(nx - 1):
        for j in range(nx - 1):
            b, t, l, r = (at.get(k, -1) for k in
                          (("x", i, j), ("x", i, j + 1), ("y", i, j), ("y", i + 1, j)))
            crossed = [e for e in (b, t, l, r) if e >= 0]
            if len(crossed) == 2:
                segments.append(tuple(crossed))
            elif len(crossed) == 4:
                center = 0.25 * (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1])
                cut = (center > 0.0) == pos[i, j]
                segments += [(b, r), (l, t)] if cut else [(b, l), (r, t)]
    pts = np.asarray(verts).reshape(-1, 2)
    lo, hi = np.asarray(u.spec.origin), np.asarray(u.spec.origin) + u.spec.extent
    tol = 1e-12 * u.spec.extent
    interior = np.all((pts > lo + tol) & (pts < hi - tol), axis=1)
    segments = [(a, b) for a, b in segments if interior[a] and interior[b]]
    # a vertex left with no segment is dropped too
    keep = np.zeros(len(pts), dtype=bool)
    for a, b in segments:
        keep[a] = keep[b] = True
    new = np.cumsum(keep) - 1
    return pts[keep], tuple((int(new[a]), int(new[b])) for a, b in segments)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(5, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_extract_topology_on_rough_fields(nx, seed, tmp_path_factory):
    # normal noise with about a fifth of the nodes exactly 0, so crossings
    # land on nodes and saddle cells are common
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((nx, nx))
    vals[rng.random((nx, nx)) < 0.2] = 0.0
    g = GridSpec(nx)
    curve = extract_zero_set(GridField(g, vals))
    pts = curve.vertices
    ref_pts, ref_segments = loop_zero_set(GridField(g, vals))
    assert np.array_equal(pts, ref_pts) and curve.segments == ref_segments
    # every vertex lies on a grid line
    off = np.abs(pts / g.h - np.round(pts / g.h)) * g.h
    assert np.all(off.min(axis=1) <= 1e-12)
    if not curve.segments:
        assert curve.is_empty
        return
    seg = np.asarray(curve.segments)
    # every vertex lies on a segment, so the CSV writes a row for each
    assert np.array_equal(np.unique(seg), np.arange(len(pts)))
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    curve_to_csv(curve, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert {tuple(p) for p in pts.tolist()} <= {tuple(r) for r in rows[:, 1:3].tolist()}
    # a segment crosses one cell
    assert np.all(np.abs(pts[seg[:, 0]] - pts[seg[:, 1]]).max(axis=1) <= g.h + 1e-12)
    # the curve has no branch points, and it ends only next to a wall
    degree = np.bincount(seg.ravel(), minlength=len(pts))
    assert degree.max() <= 2
    wall = np.minimum(pts, 1.0 - pts).min(axis=1)
    assert np.all(wall[degree < 2] <= g.h + 1e-12)


def test_extract_flat_gradient_normal_runs_along_the_edge():
    # columns of alternating sign: the sampled gradient vanishes at every
    # crossing, so each normal points along its x-edge to the positive node
    g = GridSpec(9)
    col = np.where(np.arange(9) % 2 == 0, 1.0, -1.0)
    curve = extract_zero_set(GridField(g, np.repeat(col[:, None], 9, axis=1)))
    assert curve.vertices.shape == (8 * 7, 2)
    i = np.floor(curve.vertices[:, 0] / g.h).astype(int)
    assert np.array_equal(curve.normals, np.stack([-col[i], np.zeros(len(i))], axis=1))


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


def bump_field():
    """A plane with a narrow bump in each phase, peaks between the nodes."""
    g = GridSpec(129)
    xx, yy = g.node_coords()
    return GridField(g, (xx - 0.5) + 3.0 * np.exp(-((xx - 0.62) ** 2 + (yy - 0.53) ** 2) / 0.02 ** 2)
                     - 2.5 * np.exp(-((xx - 0.41) ** 2 + (yy - 0.37) ** 2) / 0.014 ** 2))


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(5, 33), cx=st.floats(0.05, 0.95), cy=st.floats(0.05, 0.95),
       frac=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_ball_sup_lies_between_node_and_cell_corner_maxima(nx, cx, cy, frac, seed):
    # the interpolant's max over the ball is at least every node value in it,
    # and no more than the corners of the cells that meet it: a convex
    # combination of them
    g = GridSpec(nx)
    u = GridField(g, np.random.default_rng(seed).normal(size=(nx, nx)))
    r = frac * min(cx, cy, 1.0 - cx, 1.0 - cy)
    dx, dy = g.xs - cx, g.ys - cy
    nodes = u.values[dx[:, None] ** 2 + dy ** 2 <= r * r].max(initial=-math.inf)
    gap_x = np.maximum(np.maximum(dx[:-1], -dx[1:]), 0.0)
    gap_y = np.maximum(np.maximum(dy[:-1], -dy[1:]), 0.0)
    meets = gap_x[:, None] ** 2 + gap_y ** 2 <= r * r
    corners = np.maximum.reduce([u.values[a:nx - 1 + a, b:nx - 1 + b][meets]
                                 for a in (0, 1) for b in (0, 1)]).max()
    raw = ball_sup(u, (cx, cy), r, "raw")
    assert nodes <= raw <= corners + 1e-12
    minus = ball_sup(GridField(g, -u.values), (cx, cy), r, "minus")
    assert max(nodes, 0.0) <= minus <= max(corners, 0.0) + 1e-12


def test_ball_sup_reads_a_lone_node():
    g = GridSpec(65)
    xx, yy = g.node_coords()
    v = np.zeros((65, 65))
    v[np.unravel_index(np.argmin(np.abs(np.hypot(xx - 0.5, yy - 0.5) - 0.147)), v.shape)] = 1.0
    assert ball_sup(GridField(g, v), (0.5, 0.5), 0.2) == 1.0
    assert ball_sup(GridField(g, -v), (0.5, 0.5), 0.2, "minus") == 1.0


@pytest.mark.parametrize("r", [0.1, 0.2])
def test_ball_sup_reaches_a_dense_sample_of_the_interpolant(r):
    # one-sided: a lattice on the disc plus 2e5 points on the circle still
    # fall short of the sup by up to their spacing times the slope
    u, x0 = bump_field(), (0.5, 0.5)
    t = np.linspace(-r, r, 601)
    sx, sy = np.meshgrid(t, t, indexing="ij")
    disc = sx ** 2 + sy ** 2 <= r * r
    ang = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    s = bilinear_sample(u, x0[0] + np.concatenate([sx[disc], r * np.cos(ang)]),
                        x0[1] + np.concatenate([sy[disc], r * np.sin(ang)]))
    assert ball_sup(u, x0, r, "raw") >= s.max() - 1e-4
    assert ball_sup(u, x0, r, "minus") >= -s.min() - 1e-4


def test_classify_regular_samples_every_circle_in_one_call(monkeypatch):
    calls = []
    sample = freeboundary.bilinear_sample
    monkeypatch.setattr(freeboundary, "bilinear_sample",
                        lambda *args: calls.append(args) or sample(*args))
    u, x0, radii = bump_field(), (0.5, 0.5), (0.05, 0.1, 0.15, 0.2)
    rec = classify_regular(u, x0, radii)
    # the circles at every radius, then the zero density
    assert len(calls) == 2
    sups = {(m, r): ball_sup(u, x0, r, m) for m in ("abs", "plus", "minus") for r in radii}
    assert rec.M == min(sups["abs", r] / r for r in radii)
    growth = [sups[m, r] / r for m in ("plus", "minus") for r in radii]
    assert rec.c_lower == min(growth)
    assert rec.C_upper == max(growth)
    slope = np.polyfit(np.log(radii), np.log([sups["abs", r] for r in radii]), 1)[0]
    assert rec.growth_exponent == pytest.approx(slope, rel=1e-12)


def test_classify_regular_even_plane():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=20.0)
    rec = classify_regular(u, (0.5, 0.5), (0.1, 0.2))
    assert rec.M == pytest.approx(1.0, abs=5e-3)
    assert rec.c_lower == pytest.approx(1.0, abs=5e-3)
    assert rec.C_upper == pytest.approx(1.0, abs=5e-3)
    assert rec.zero_density == pytest.approx(0.5, abs=0.02)
    assert rec.growth_exponent == pytest.approx(1.0, abs=5e-3)
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
    assert rec.growth_exponent == pytest.approx(2.0, abs=1e-2)
    assert not rec.is_regular


def test_classify_zero_field_is_not_regular():
    # u vanishes to every order: the exponent is infinite, with no log(0)
    u = GridField(GridSpec(65), np.zeros((65, 65)))
    rec = classify_regular(u, (0.5, 0.5), (0.1, 0.2))
    assert rec.growth_exponent == math.inf
    assert not rec.is_regular


@pytest.fixture(scope="module")
def pucci_cross():
    """Pucci (1, 2) G_eps limit of the cross datum, +sin^2(pi y) on the left
    and right edges and -sin^2(pi x) on the top and bottom: u -> -u after a
    quarter turn preserves the problem, so the centre is a zero where the
    four nodal sectors meet, with grad u = 0."""
    g = GridSpec(129)
    datum = make_grid(g, lambda x, y: np.where((x == 0.0) | (x == 1.0),
                                               np.sin(np.pi * y) ** 2, -np.sin(np.pi * x) ** 2))
    rep = epsilon_sweep(datum, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4), SolveConfig(tol=1e-9),
                        OperatorPair.pucci(Ellipticity(1.0, 2.0)))
    assert rep.all_converged
    return rep.limit


def test_classify_cross_centre_is_singular(pucci_cross):
    # the four-sector wedge solution grows like r^2.56 (2.55 measured here)
    rec = classify_regular(pucci_cross, (0.5, 0.5), (0.05, 0.1, 0.2))
    assert rec.growth_exponent >= 2.3
    assert not rec.is_regular


def test_classify_cross_arm_point_beside_the_centre_is_regular(pucci_cross):
    # its slope is small, M about 0.72 against a whole-field Lip of about
    # 6.4, but its growth is linear (exponent 1.21 measured here)
    curve = extract_zero_set(pucci_cross)
    arm = 0.5 + 0.2 / math.sqrt(2.0)
    x0 = tuple(curve.vertices[curve.nearest_vertex((arm, arm))])
    rec = classify_regular(pucci_cross, x0, (0.025, 0.05, 0.1))
    assert rec.growth_exponent < 1.3
    assert rec.is_regular


def test_classify_regular_input_errors():
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=0.0)
    with pytest.raises(DomainError):
        classify_regular(u, (0.9, 0.5), (0.1, 0.2))
    with pytest.raises(InputError):
        classify_regular(u, (0.5, 0.5), ())
    # a slope needs two radii, in increasing order
    for radii in ((-0.1,), (0.1,), (0.2, 0.1)):
        with pytest.raises(InputError, match="at least two"):
            classify_regular(u, (0.5, 0.5), radii)


@pytest.mark.parametrize("radii", [(math.nan,), (0.1, math.nan), (0.1, math.inf)])
def test_classify_regular_rejects_non_finite_radii(radii):
    u = make_fixture(GridSpec(65), "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    with pytest.raises(InputError, match="finite") as err:
        classify_regular(u, (0.5, 0.5), radii)
    assert repr(list(radii)) in str(err.value)


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


@settings(max_examples=40, deadline=None)
@given(angle=st.floats(0.0, 360.0, exclude_max=True))
@example(angle=0.0)
@example(angle=180.0)
@example(angle=225.0)
def test_fit_two_plane_recovers_any_direction(angle):
    # nu spans the whole circle, so the fit must also cross +-180 degrees
    g = GridSpec(129)
    u = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=angle)
    fit = fit_two_plane(u, (0.5, 0.5), (0.2, 0.1, 0.0625))
    assert fit.alpha == pytest.approx(2.0, rel=1e-3)
    assert fit.beta == pytest.approx(3.0, rel=1e-3)
    a = math.radians(angle)
    assert fit.nu == pytest.approx((math.cos(a), math.sin(a)), abs=1e-4)
    assert fit.residual <= 0.05
    assert not fit.no_asymptote


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
        fit = fit_two_plane(u, (0.5, 0.5), (r, 1.2 * r))
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


def test_fit_two_plane_does_no_whole_grid_contour(monkeypatch):
    g = GridSpec(257)
    u = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=30.0)
    curve = extract_zero_set(u)
    a = math.radians(30.0)
    # the node (0.5, 0.5) lies on the kink and is a curve vertex; the second
    # point lies on the kink about 0.3h from every vertex
    vertex = tuple(curve.vertices[curve.nearest_vertex((0.5, 0.5))])
    assert vertex == (0.5, 0.5)
    off = (0.5 - 0.037 * math.sin(a), 0.5 + 0.037 * math.cos(a))
    assert np.hypot(*(curve.vertices - off).T).min() >= 0.25 * g.h

    def no_contour(_):
        raise AssertionError("fit_two_plane contoured the whole grid")

    monkeypatch.setattr(freeboundary, "extract_zero_set", no_contour)
    for x0 in (vertex, off):
        fit = fit_two_plane(u, x0, (0.2, 0.1, 0.05))
        assert fit.alpha == pytest.approx(2.0, rel=1e-3)
        assert fit.beta == pytest.approx(3.0, rel=1e-3)
        assert fit.nu == pytest.approx((math.cos(a), math.sin(a)), abs=1e-4)


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
    # the schedule rule of the other diagnostics, in any order
    assert fit_two_plane(u, (0.5, 0.5), (0.05, 0.1)) == fit_two_plane(u, (0.5, 0.5), (0.1, 0.05))
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), ())
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), (0.1,))
    with pytest.raises(InputError):
        fit_two_plane(u, (0.5, 0.5), (0.1, 0.1))
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


def test_epsilon_monotonicity_translates_match_bilinear_sample(monkeypatch):
    # every translate epsilon_monotonicity forms equals bilinear_sample at
    # the translated nodes; with theta = 30 deg a window 3h from the walls is
    # the widest accepted, its one rung eps = 2h is a multiple of h, and the
    # translates along +-e reach the walls, where the fractions snap to 0
    translates = []

    def checked_shift(fld, rows, cols, dx, dy):
        out = bilinear_shift(fld, rows, cols, dx, dy)
        X, Y = fld.spec.node_coords()
        ref = bilinear_sample(fld, X[rows, cols] + dx, Y[rows, cols] + dy)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.abs(fld.values).max()
        translates.append((dx, dy))
        return out

    monkeypatch.setattr(freeboundary, "bilinear_shift", checked_shift)
    g = GridSpec(65)
    rng = np.random.default_rng(5)
    noise = GridField(g, rng.normal(size=(65, 65)))
    edge = 3.0 * g.h
    for axis in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        translates.clear()
        epsilon_monotonicity(noise, ConeSpec(axis, math.pi / 6.0), (edge, 1 - edge, edge, 1 - edge))
        assert len(translates) == 65
        reach = max(-(dx * axis[0] + dy * axis[1]) for dx, dy in translates)
        assert reach == pytest.approx(edge, rel=1e-12)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    translates.clear()
    assert epsilon_monotonicity(u, ConeSpec.from_degrees(20.0, 60.0), WINDOW) == 2.0 * g.h
    assert len(translates) > 65


def test_bilinear_shift_leaving_the_grid_raises():
    g = GridSpec(17)
    u = GridField(g, np.ones((17, 17)))
    block = slice(2, 15)
    assert np.array_equal(bilinear_shift(u, block, block, -2.0 * g.h, 2.0 * g.h), np.ones((13, 13)))
    with pytest.raises(DomainError):
        bilinear_shift(u, block, block, -2.5 * g.h, 0.0)
    with pytest.raises(DomainError):
        bilinear_shift(u, block, block, 0.0, 2.5 * g.h)


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
