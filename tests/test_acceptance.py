"""End-to-end acceptance battery.

One test per criterion, each printing a single scorecard line (run with
``-v -s`` to read them) before asserting, so the measured numbers survive
even when an assertion trips.  The two heavy artifacts, the scalar
continuation cascade to nx = 257 and the segregation ladder at nx = 129,
are module-scoped fixtures shared by the later criteria.
"""

import math

import numpy as np
import pytest

from pucci_lab import (
    ConeSpec,
    Ellipticity,
    GridField,
    GridSpec,
    MatrixFamily,
    OperatorPair,
    SchemeSpec,
    SymMat2,
    bilinear_sample,
    boundary_consistency,
    check_alpha_beta,
    classify_regular,
    epsilon_monotonicity,
    epsilon_sweep,
    extract_zero_set,
    family_extremal,
    fit_two_plane,
    flatness_measure,
    j_series_check,
    lipschitz_seminorm,
    make_fixture,
    pucci_eval,
    radial_profile,
    residual_interior,
    solve_dirichlet,
    solve_segregation,
    SolveConfig,
)

ELL = Ellipticity(1.0, 2.0)
PAIR = OperatorPair.pucci(ELL)
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
JR_RADII = (0.05, 0.1, 0.15, 0.2)
FIT_RADII = (0.2, 0.1, 0.05)
M_MIN = 0.3  # growth floor for "detected regular"; the default floor at
             # these grids sits above every attainable slope and detects nothing


def report(num, label, ok, detail):
    print(f"\ncriterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}  ({detail})")


@pytest.fixture(scope="module")
def sweep65():
    datum = make_fixture(GridSpec(65), "sign_change")
    rep = epsilon_sweep(datum, EPS_LADDER, SolveConfig(tol=1e-8, cfl=1.0), PAIR)
    assert rep.all_converged
    return rep


@pytest.fixture(scope="module")
def scalar_limit():
    """G_eps solution at the finest ladder eps, continued 65 -> 129 -> 257."""
    warm = None
    field = None
    for nx, tol in ((65, 1e-8), (129, 1e-8), (257, 1e-6)):
        g = GridSpec(nx)
        datum = make_fixture(g, "sign_change")
        if field is not None:
            X, Y = g.node_coords()
            warm = GridField(g, bilinear_sample(field, X, Y))
        res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=tol, cfl=1.0, eps=0.025),
                              pair=PAIR, initial=warm)
        assert res.converged
        field = res.field
    return field


@pytest.fixture(scope="module")
def regular_points(scalar_limit):
    curve = extract_zero_set(scalar_limit)
    points = []
    for probe in ((0.35, 0.5), (0.5, 0.5), (0.65, 0.5)):
        x0 = tuple(curve.vertices[curve.nearest_vertex(probe)])
        rec = classify_regular(scalar_limit, x0, JR_RADII, m_min=M_MIN)
        fit = fit_two_plane(scalar_limit, x0, FIT_RADII)
        points.append((x0, rec, fit))
    return points


@pytest.fixture(scope="module")
def segregation_limit():
    """Two-species ladder at nx = 129 on separated supports, finest eps last."""
    g = GridSpec(129)
    f1, f2 = make_fixture(g, "split_supports", angle=20.0, dead_band=0.005)
    fields = None
    for eps in EPS_LADDER:
        res = solve_segregation(f1, f2, SolveConfig(tol=1e-7, cfl=1.0, eps=eps),
                                ell=ELL, initial=fields)
        assert res.converged
        fields = res.field
    u1, u2 = fields
    return GridField(g, u1.values - u2.values)


@pytest.fixture(scope="module")
def bump_overlaps():
    g = GridSpec(65)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=60.0)
    fields = None
    overlaps = []
    for eps in EPS_LADDER:
        res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=eps),
                                ell=ELL, initial=fields)
        assert res.converged
        fields = res.field
        overlaps.append(res.telemetry["overlap_sup"])
    return overlaps


def test_criterion_01_operator_algebra():
    pairs = [OperatorPair.pucci(ELL), OperatorPair.identity(ELL),
             OperatorPair.frobenius(Ellipticity(0.5, 1.5), 0.5)]
    rng = np.random.default_rng(7)
    mats = [SymMat2(*row) for row in rng.normal(size=(10_000, 3)) * 3.0]
    psd_rows = rng.normal(size=(10_000, 2, 2))
    worst = 0.0
    for pr in pairs:
        ell = pr.ell
        for k, m in enumerate(mats):
            fm = family_extremal(pr.minus, m, "inf")
            fp = family_extremal(pr.plus, m, "sup")
            lo = pucci_eval(m, ell, "minus")
            hi = pucci_eval(m, ell, "plus")
            tr = m.a + m.c
            chain = max(lo - fm, fm - tr, tr - fp, fp - hi)

            m2 = SymMat2(2.0 * m.a, 2.0 * m.b, 2.0 * m.c)
            hom = abs(family_extremal(pr.minus, m2, "inf") - 2.0 * fm)

            n = mats[-1 - k]
            fn = family_extremal(pr.minus, n, "inf")
            s = SymMat2(m.a + n.a, m.b + n.b, m.c + n.c)
            superadd = (fm + fn) - family_extremal(pr.minus, s, "inf")
            subadd = family_extremal(pr.plus, s, "sup") \
                - (fp + family_extremal(pr.plus, n, "sup"))

            v, w = psd_rows[k]
            p = SymMat2(v[0] * v[0] + w[0] * w[0], v[0] * v[1] + w[0] * w[1],
                        v[1] * v[1] + w[1] * w[1])
            mp = SymMat2(m.a + p.a, m.b + p.b, m.c + p.c)
            inc = family_extremal(pr.minus, mp, "inf") - fm
            trp = p.a + p.c
            ellip = max(ell.lam * trp - inc, inc - ell.Lam * trp)

            neg = SymMat2(-m.a, -m.b, -m.c)
            dual = abs(pucci_eval(neg, ell, "plus") + lo)

            worst = max(worst, chain, hom, superadd, subadd, ellip, dual)

    rot_worst = 0.0
    for ang in rng.uniform(0.0, 2.0 * math.pi, size=100):
        c, s = math.cos(ang), math.sin(ang)
        for pr in pairs:
            for m in mats[:100]:
                rm = SymMat2(c * c * m.a + 2 * c * s * m.b + s * s * m.c,
                             c * s * (m.c - m.a) + (c * c - s * s) * m.b,
                             s * s * m.a - 2 * c * s * m.b + c * c * m.c)
                rot_worst = max(
                    rot_worst,
                    abs(family_extremal(pr.minus, rm, "inf")
                        - family_extremal(pr.minus, m, "inf")),
                    abs(family_extremal(pr.plus, rm, "sup")
                        - family_extremal(pr.plus, m, "sup")))

    ok = worst <= 1e-12 and rot_worst <= 1e-12
    report(1, "operator algebra", ok,
           f"worst algebra defect {worst:.2e}, worst rotation defect {rot_worst:.2e}")
    assert worst <= 1e-12
    assert rot_worst <= 1e-12


def test_criterion_02_manufactured_harmonic():
    devs = []
    for nx in (33, 65):
        g = GridSpec(nx)
        datum = make_fixture(g, "harmonic_quadratic")
        res = solve_dirichlet(datum, "F_minus", SolveConfig(tol=1e-10),
                              pair=OperatorPair.identity(ELL))
        assert res.converged
        devs.append(float(np.abs(res.field.values - datum.values).max()))
    ok = max(devs) <= 1e-10
    report(2, "manufactured harmonic", ok,
           "node deviations " + ", ".join(f"{d:.2e}" for d in devs))
    assert max(devs) <= 1e-10


def test_criterion_03_barrier_residual_order():
    sups = []
    for nx in (65, 129):
        g = GridSpec(nx)
        fld = make_fixture(g, "psi", c=1.0, r=0.4, gamma=1.0, center=(0.5, 0.5))
        res = residual_interior(fld.values, g.h, "M_minus", SchemeSpec(), ell=ELL)
        xx, yy = g.node_coords()
        dist = np.hypot(xx - 0.5, yy - 0.5)[1:-1, 1:-1]
        sups.append(float(np.abs(res[(dist >= 0.1) & (dist <= 0.4)]).max()))
    ratio = sups[0] / sups[1]
    ok = 3.5 <= ratio <= 4.5
    report(3, "barrier residual order", ok, f"sup ratio h->h/2 = {ratio:.3f}")
    assert 3.5 <= ratio <= 4.5


def test_criterion_04_radial_profile_oracle():
    pucci_fam = MatrixFamily("full_pucci", ELL)
    prof = radial_profile(pucci_fam, r=0.4)
    pucci_dev = float(np.abs(prof.phi_values - (0.4 / prof.rho_samples - 1.0)).max())
    harm_fam = MatrixFamily("identity_only", Ellipticity(1.0, 1.0))
    harm = radial_profile(harm_fam, r=0.4)
    harm_dev = float(np.abs(
        harm.phi_values - np.log(0.4 / harm.rho_samples) / math.log(2.0)).max())
    sigma_gap = max(
        abs(prof.sigma - radial_profile(pucci_fam, r=0.2).sigma),
        abs(harm.sigma - radial_profile(harm_fam, r=0.2).sigma))
    ok = pucci_dev <= 1e-6 and harm_dev <= 1e-6 and sigma_gap <= 1e-4
    report(4, "radial profile oracle", ok,
           f"pucci dev {pucci_dev:.2e}, harmonic dev {harm_dev:.2e}, "
           f"sigma gap {sigma_gap:.2e}")
    assert pucci_dev <= 1e-6
    assert harm_dev <= 1e-6
    assert sigma_gap <= 1e-4


def test_criterion_05_comparison_sandwich():
    g = GridSpec(65)
    datum = make_fixture(g, "sign_change")
    cfg = SolveConfig(tol=1e-8, cfl=1.0, eps=0.05)
    mid = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR)
    lower = solve_dirichlet(datum, "M_minus", cfg, ell=ELL)
    upper = solve_dirichlet(datum, "M_plus", cfg, ell=ELL)
    assert mid.converged and lower.converged and upper.converged
    slack = 2.0 * cfg.tol + 10.0 * g.h ** 2
    below = float(np.maximum(lower.field.values - mid.field.values, 0.0).max())
    above = float(np.maximum(mid.field.values - upper.field.values, 0.0).max())
    violations = int(np.sum(lower.field.values - mid.field.values > slack)
                     + np.sum(mid.field.values - upper.field.values > slack))
    ok = violations == 0
    report(5, "comparison sandwich", ok,
           f"worst under {below:.2e}, worst over {above:.2e}, slack {slack:.2e}, "
           f"violations {violations}")
    assert violations == 0


def test_criterion_06_lipschitz_uniformity(sweep65):
    lips = [e.lipschitz_seminorm for e in sweep65.entries]
    spread = (max(lips) - min(lips)) / max(lips)
    gaps = sweep65.gaps
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = spread <= 0.10 and decreasing
    report(6, "lipschitz uniformity", ok,
           f"seminorm spread {spread:.2%}, gaps " + ", ".join(f"{gp:.2e}" for gp in gaps))
    assert spread <= 0.10
    assert decreasing


def test_criterion_07_segregation_overlap(bump_overlaps):
    decreasing = all(b < a for a, b in zip(bump_overlaps, bump_overlaps[1:]))
    # local rates of overlap ~ eps^rate between neighbouring rungs
    rates = [math.log(a / b) / math.log(ea / eb)
             for a, b, ea, eb in zip(bump_overlaps, bump_overlaps[1:],
                                     EPS_LADDER, EPS_LADDER[1:])]
    rising = all(b > a for a, b in zip(rates, rates[1:]))
    capped = all(r <= 2.0 / 3.0 for r in rates)
    ok = decreasing and rising and capped
    report(7, "segregation overlap", ok,
           "overlaps " + ", ".join(f"{o:.4f}" for o in bump_overlaps)
           + ", local rates " + ", ".join(f"{r:.3f}" for r in rates))
    assert decreasing
    # the interaction layer scales as eps^(1/3), so the overlap is of order
    # eps^(2/3) and the local rates climb towards 2/3 from below; a stalled
    # overlap makes them drop, a stiffer coupling pushes them past 2/3.  See
    # the acceptance-battery section of the README
    assert rising
    assert capped


def test_criterion_08_two_plane_constant():
    u = make_fixture(GridSpec(129), "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    series, verdict = j_series_check(u, (0.5, 0.5), JR_RADII)
    target = math.pi ** 2
    dev = float(np.abs(series.j / target - 1.0).max())
    ok = dev <= 0.02 and verdict.constancy_defect <= 0.02 and verdict.verdict == "PASS"
    report(8, "two-plane constant", ok,
           f"max dev from pi^2 {dev:.2%}, constancy defect {verdict.constancy_defect:.2%}")
    assert dev <= 0.02
    assert verdict.constancy_defect <= 0.02
    assert verdict.verdict == "PASS"


def test_criterion_09_jr_monotonicity(segregation_limit):
    g = segregation_limit.spec
    curve = extract_zero_set(segregation_limit)
    lo, hi = 0.2 + g.h, 0.8 - g.h
    inside = [tuple(v) for v in curve.vertices
              if lo <= v[0] <= hi and lo <= v[1] <= hi]
    regular = [p for p in inside
               if classify_regular(segregation_limit, p, JR_RADII,
                                   m_min=M_MIN).is_regular]
    worst = 0.0
    failures = 0
    for p in regular:
        _, verdict = j_series_check(segregation_limit, p, JR_RADII)
        worst = max(worst, verdict.worst_drop)
        failures += verdict.verdict != "PASS"
    ok = len(regular) >= 10 and failures == 0
    report(9, "J_r monotonicity", ok,
           f"{len(regular)} regular points of {len(inside)} scanned, "
           f"worst drop {worst:.4f}, failures {failures}")
    assert len(regular) >= 10
    assert failures == 0


def test_criterion_10_free_boundary_condition(regular_points):
    assert sum(rec.is_regular for _, rec, _ in regular_points) >= 3
    worst_resid = max(fit.residual for _, _, fit in regular_points)
    verdicts = [check_alpha_beta(fit, 0.05) for _, _, fit in regular_points]
    slopes = ", ".join(f"({fit.alpha:.4f},{fit.beta:.4f})"
                       for _, _, fit in regular_points)
    ok = worst_resid <= 0.1 and all(v == "PASS" for v in verdicts)
    report(10, "free-boundary condition", ok,
           f"slopes {slopes}, worst residual {worst_resid:.2e}")
    assert worst_resid <= 0.1
    assert all(v == "PASS" for v in verdicts)


def test_criterion_11_flatness_and_coincidence(scalar_limit, regular_points):
    flats_ok = True
    flat_detail = []
    for x0, _, _ in regular_points:
        flats = [flatness_measure(scalar_limit, x0, r) for r in FIT_RADII]
        flats_ok = flats_ok and all(b <= a + 1e-12 for a, b in zip(flats, flats[1:]))
        flat_detail.append("[" + " ".join(f"{f:.1e}" for f in flats) + "]")
    h = scalar_limit.spec.h
    bc = boundary_consistency(scalar_limit)
    # negative control: a dead core of width 2h carved between the phases
    v = scalar_limit.values
    shrunk = np.maximum(np.abs(v) - h * lipschitz_seminorm(scalar_limit), 0.0)
    cored = boundary_consistency(GridField(scalar_limit.spec, np.sign(v) * shrunk))
    bound = 3.0 * h
    ok = flats_ok and bc <= bound < cored
    report(11, "flatness and coincidence", ok,
           f"flats {' '.join(flat_detail)}, consistency {bc / h:.4f}h, "
           f"dead-core control {cored / h:.4f}h, bound 3h")
    assert flats_ok
    # exactly coincident phases read at most 2h (the 360-angle sweep in
    # test_freeboundary.py); the bound is one cell more.  See the
    # acceptance-battery section of the README
    assert bc <= bound
    assert cored > bound


def test_criterion_12_epsilon_monotonicity(scalar_limit, regular_points):
    x0, _, fit = regular_points[1]
    spec = scalar_limit.spec
    margin = min(x0[0], x0[1], spec.extent - x0[0], spec.extent - x0[1])
    half = 0.4 * margin
    cone = ConeSpec(fit.nu, math.radians(60.0))
    em = epsilon_monotonicity(
        scalar_limit, cone, (x0[0] - half, x0[0] + half, x0[1] - half, x0[1] + half))

    g = GridSpec(65)
    axis_cone = ConeSpec.from_degrees(0.0, 60.0)
    window = (0.3, 0.7, 0.3, 0.7)
    plane_eps = []
    for tilt in (0.0, 10.0, 20.0, 28.0):
        u = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=tilt)
        plane_eps.append(epsilon_monotonicity(u, axis_cone, window))
    beyond = epsilon_monotonicity(
        make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=40.0),
        axis_cone, window)

    planes_ok = all(e == 2.0 * g.h for e in plane_eps) and beyond == math.inf
    ok = math.isfinite(em) and em <= 0.1 and planes_ok
    report(12, "epsilon monotonicity", ok,
           f"solved-limit eps {em:.6f}, plane tilts -> "
           + ", ".join(f"{e:.4f}" for e in plane_eps)
           + f", past-cone tilt -> {beyond}")
    assert math.isfinite(em) and em <= 0.1
    assert planes_ok
