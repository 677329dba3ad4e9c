"""The benchmark's own tests: every correctness check passes on a correct
output of pucci_lab and fails on the same output perturbed (its negative
control).  Small grids keep the whole file to a few seconds.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

import math
import types

import numpy as np
import pytest

from pucci_lab import (
    ConeSpec,
    Ellipticity,
    GridField,
    GridSpec,
    OperatorPair,
    SolveConfig,
    classify_regular,
    epsilon_monotonicity,
    extract_zero_set,
    field_from_csv,
    field_to_csv,
    fit_two_plane,
    flatness_measure,
    j_series_check,
    make_fixture,
    solve_dirichlet,
    solve_segregation,
)

import checks
import tracer

ELL = Ellipticity(1.0, 2.0)
TOL = 1e-8


@pytest.fixture(scope="module")
def scalar():
    datum = make_fixture(GridSpec(17), "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=TOL, cfl=1.0, eps=0.1),
                          pair=OperatorPair.pucci(ELL))
    assert res.converged
    return res.field


@pytest.fixture(scope="module")
def pair():
    f1, f2 = make_fixture(GridSpec(17), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=TOL, cfl=1.0, eps=0.1), ell=ELL)
    assert res.converged
    return res.field[0].values, res.field[1].values, f1.values, f2.values


@pytest.fixture(scope="module")
def plane():
    alpha, beta, angle = 1.0, 2.0, 20.0
    u = make_fixture(GridSpec(129), "two_plane", alpha=alpha, beta=beta, angle=angle)
    a = math.radians(angle)
    return u, alpha, beta, (math.cos(a), math.sin(a))


def test_residual_check_and_its_control(scalar):
    h = scalar.spec.h
    assert checks.residual_within(scalar.values, h, "G_eps", TOL, 1.0, 2.0, eps=0.1) == []
    bent = scalar.values.copy()
    bent[8, 8] += 1e-6
    assert checks.residual_within(bent, h, "G_eps", TOL, 1.0, 2.0, eps=0.1)


def test_residual_check_honours_frozen_nodes(scalar):
    h = scalar.spec.h
    bent = scalar.values.copy()
    bent[8, 8] += 1e-6
    frozen = np.zeros_like(bent, dtype=bool)
    frozen[7:10, 7:10] = True
    assert checks.residual_within(bent, h, "G_eps", TOL, 1.0, 2.0, eps=0.1, frozen=frozen) == []


def test_max_principle_and_its_control(scalar):
    ring = scalar.boundary_mask
    assert checks.max_principle(scalar.values, ring) == []
    for bump in (scalar.values[ring].max() + 1e-9, scalar.values[ring].min() - 1e-9):
        bent = scalar.values.copy()
        bent[8, 8] = bump
        assert checks.max_principle(bent, ring)


def test_complementarity_and_its_controls(pair):
    u1, u2, f1, f2 = pair
    h = 1.0 / 16

    def judge(a, b):
        return checks.complementarity(a, b, f1, f2, h, 0.1, TOL, 1.0, 2.0)

    assert judge(u1, u2) == []
    i, j = np.unravel_index(np.argmax(u1[1:-1, 1:-1]), (15, 15))
    bent = u1.copy()
    bent[i + 1, j + 1] += 1e-4
    assert judge(bent, u2)
    negative = u1.copy()
    negative[i + 1, j + 1] = -1e-12
    assert judge(negative, u2)
    moved_ring = u2.copy()
    moved_ring[-1, 8] += 1e-9
    assert judge(u1, moved_ring)


def test_overlap_law_and_its_controls():
    eps = (0.2, 0.1, 0.05, 0.025)
    assert checks.overlap_law(eps, (8.2443, 6.1551, 4.3529, 2.9509)) == []
    assert checks.overlap_law(eps, (8.2443, 6.1551, 6.1551, 2.9509))   # stalls
    steep = [8.0]
    for rate in (1.19, 1.30, 1.36):                                     # 1/eps^2 coupling
        steep.append(steep[-1] / 2.0 ** rate)
    assert checks.overlap_law(eps, steep)
    flattening = [8.0]
    for rate in (0.56, 0.50, 0.42):                                     # rates fall
        flattening.append(flattening[-1] / 2.0 ** rate)
    assert checks.overlap_law(eps, flattening)


def test_annulus_errors_and_their_control():
    g = GridSpec(17)
    exact = make_fixture(g, "radial_pucci").values
    free = ~g.boundary_ring()
    bump = np.zeros_like(exact)
    bump[8, 4] = 1.0
    assert checks.annulus_errors(exact + 0.02 * bump, exact + 0.01 * bump, exact, free) == []
    assert checks.annulus_errors(exact + 0.01 * bump, exact + 0.02 * bump, exact, free)


def test_zero_set_on_line_and_its_control(plane):
    u, alpha, beta, nu = plane
    verts = extract_zero_set(u).vertices
    assert checks.zero_set_on_line(verts, alpha, beta, nu, (0.5, 0.5), u.spec.h) == []
    shifted = verts.copy()
    shifted[0] += 0.5 * u.spec.h * np.asarray(nu)
    assert checks.zero_set_on_line(shifted, alpha, beta, nu, (0.5, 0.5), u.spec.h)
    equal = make_fixture(u.spec, "two_plane", alpha=1.0, beta=1.0, angle=20.0)
    on = extract_zero_set(equal).vertices
    assert checks.zero_set_on_line(on, 1.0, 1.0, nu, (0.5, 0.5), u.spec.h) == []
    nudged = on.copy()
    nudged[3] += 1e-9 * np.asarray(nu)
    assert checks.zero_set_on_line(nudged, 1.0, 1.0, nu, (0.5, 0.5), u.spec.h)


def test_two_plane_point_checks_and_their_controls(plane):
    u, alpha, beta, nu = plane
    curve = extract_zero_set(u)
    x0 = tuple(curve.vertices[curve.nearest_vertex((0.5, 0.5))])
    d0 = float(checks.signed_distance(np.asarray([x0]), nu, (0.5, 0.5))[0])
    radii = (0.1, 0.2, 0.3)
    series, _ = j_series_check(u, x0, radii)
    assert checks.jr_product(series.j, alpha, beta) == []
    assert checks.jr_product(series.j * 1.02, alpha, beta)
    rec = classify_regular(u, x0, radii)
    assert checks.growth_matches(rec.M, alpha, beta, d0, radii) == []
    assert checks.growth_matches(rec.M * 1.01, alpha, beta, d0, radii)
    fit = fit_two_plane(u, x0, (0.2, 0.1))
    assert checks.slopes_match(fit.alpha, fit.beta, fit.nu, alpha, beta, nu) == []
    assert checks.slopes_match(fit.alpha + 0.2, fit.beta, fit.nu, alpha, beta, nu)
    turn = math.radians(2.0)
    rotated = (math.cos(turn) * fit.nu[0] - math.sin(turn) * fit.nu[1],
               math.sin(turn) * fit.nu[0] + math.cos(turn) * fit.nu[1])
    assert checks.slopes_match(fit.alpha, fit.beta, rotated, alpha, beta, nu)


def test_flatness_and_cone_checks_and_their_controls(plane):
    u, alpha, beta, nu = plane
    h = u.spec.h
    flat = flatness_measure(u, (0.5, 0.5), 0.2)
    assert checks.flatness_zero(flat, alpha, beta, h) == []
    assert checks.flatness_zero(flat + h, alpha, beta, h)
    em = epsilon_monotonicity(u, ConeSpec(nu, math.radians(60.0)), (0.3, 0.7, 0.3, 0.7))
    assert checks.cone_floor(em, h) == []
    assert checks.cone_floor(2.0 * em, h)


def test_csv_round_trip_and_its_control(tmp_path):
    fld = make_fixture(GridSpec(17), "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    path = tmp_path / "f.csv"
    field_to_csv(fld, path)
    back = field_from_csv(path)
    assert checks.bit_identical(back.values, fld.values) == []
    flipped = back.values.copy()
    flipped[5, 5] = np.nextafter(flipped[5, 5], np.inf)
    assert checks.bit_identical(flipped, fld.values)


def test_self_time_subtracts_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: [ns.inner() for _ in range(3)]
    tr = tracer.Tracer()
    tr.install(ns, "inner", "inner")
    tr.install(ns, "outer", "outer")
    ns.outer()
    tr.uninstall()
    assert [s[0] for s in tr.spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0, 0]
    cover = tr.child_time()
    outer = tr.spans[0][2] - tr.spans[0][1]
    inner = sum(s[2] - s[1] for s in tr.spans[1:])
    assert cover[0] == pytest.approx(inner) and 0.0 <= outer - cover[0] < outer
