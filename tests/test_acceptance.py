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
    check_alpha_beta,
    classify_regular,
    epsilon_monotonicity,
    epsilon_sweep,
    extract_zero_set,
    family_extremal,
    fit_two_plane,
    flatness_measure,
    freeboundary,
    interface_report,
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
from pucci_lab.operators import _extremal_side

ELL = Ellipticity(1.0, 2.0)
PAIR = OperatorPair.pucci(ELL)
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)
JR_RADII = (0.05, 0.1, 0.15, 0.2)
FIT_RADII = (0.2, 0.1, 0.05)


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
        rec = classify_regular(scalar_limit, x0, JR_RADII)
        fit = fit_two_plane(scalar_limit, x0, FIT_RADII)
        points.append((x0, rec, fit))
    return points


@pytest.fixture(scope="module")
def limit_report(scalar_limit):
    """The interface report at the limit's vertex nearest the centre (the
    second regular point), over the default radii."""
    return interface_report(scalar_limit)


def row_values(rep):
    return {metric: value for metric, value, _ in rep.rows}


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
    # the 10,000 matrices and their rotations run through the array kernel;
    # the first 100 also run through the scalar wrappers, bit-equal to it
    pairs = [OperatorPair.pucci(ELL), OperatorPair.identity(ELL),
             OperatorPair.frobenius(Ellipticity(0.5, 1.5), 0.5)]
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=(10_000, 3)) * 3.0).T
    v, w = rng.normal(size=(10_000, 2, 2)).transpose(1, 2, 0)
    pa, pb, pc = v[0] * v[0] + w[0] * w[0], v[0] * v[1] + w[0] * w[1], v[1] * v[1] + w[1] * w[1]
    ang = rng.uniform(0.0, 2.0 * math.pi, size=100)[:, None]
    co, si = np.cos(ang), np.sin(ang)
    ra, rb, rc = (co * co * a[:100] + 2 * co * si * b[:100] + si * si * c[:100],
                  co * si * (c[:100] - a[:100]) + (co * co - si * si) * b[:100],
                  si * si * a[:100] - 2 * co * si * b[:100] + co * co * c[:100])
    worst = rot_worst = 0.0
    wrappers_agree = True
    for pr in pairs:
        ell = pr.ell
        pucci = MatrixFamily("full_pucci", ell)

        def inf(a, b, c):
            return _extremal_side(pr.minus, a, b, c, False)[0]

        def sup(a, b, c):
            return _extremal_side(pr.plus, a, b, c, True)[0]

        fm, fp = inf(a, b, c), sup(a, b, c)
        lo, hi = (_extremal_side(pucci, a, b, c, side)[0] for side in (False, True))
        tr = a + c
        chain = np.max([lo - fm, fm - tr, tr - fp, fp - hi], axis=0)
        hom = np.abs(inf(2.0 * a, 2.0 * b, 2.0 * c) - 2.0 * fm)
        # n = the matrices in reverse order, s = m + n
        sa, sb, sc = a + a[::-1], b + b[::-1], c + c[::-1]
        superadd = (fm + fm[::-1]) - inf(sa, sb, sc)
        subadd = sup(sa, sb, sc) - (fp + fp[::-1])
        inc = inf(a + pa, b + pb, c + pc) - fm
        trp = pa + pc
        ellip = np.maximum(ell.lam * trp - inc, inc - ell.Lam * trp)
        neg_hi = _extremal_side(pucci, -a, -b, -c, True)[0]
        dual = np.abs(neg_hi + lo)
        worst = max(worst, float(np.max([chain, hom, superadd, subadd, ellip, dual])))
        rot_worst = max(rot_worst, float(np.abs(inf(ra, rb, rc) - fm[:100]).max()),
                        float(np.abs(sup(ra, rb, rc) - fp[:100]).max()))
        for k in range(100):
            m = SymMat2(a[k], b[k], c[k])
            wrappers_agree &= (family_extremal(pr.minus, m, "inf") == fm[k]
                               and family_extremal(pr.plus, m, "sup") == fp[k]
                               and pucci_eval(m, ell, "minus") == lo[k]
                               and pucci_eval(m, ell, "plus") == hi[k]
                               and pucci_eval(SymMat2(-a[k], -b[k], -c[k]), ell, "plus")
                               == neg_hi[k])

    ok = worst <= 1e-12 and rot_worst <= 1e-12 and wrappers_agree
    report(1, "operator algebra", ok,
           f"worst algebra defect {worst:.2e}, worst rotation defect {rot_worst:.2e}")
    assert wrappers_agree
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
    records = [classify_regular(segregation_limit, p, JR_RADII) for p in inside]
    regular = [rec.x0 for rec in records if rec.is_regular]
    exponents = [rec.growth_exponent for rec in records]
    worst = 0.0
    failures = 0
    for p in regular:
        _, verdict = j_series_check(segregation_limit, p, JR_RADII)
        worst = max(worst, verdict.worst_drop)
        failures += verdict.verdict != "PASS"
    ok = len(regular) >= 10 and failures == 0
    report(9, "J_r monotonicity", ok,
           f"{len(regular)} regular points of {len(inside)} scanned, growth exponents "
           f"{min(exponents):.3f}-{max(exponents):.3f}, "
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
    exponents = ", ".join(f"{rec.growth_exponent:.3f}" for _, rec, _ in regular_points)
    report(10, "free-boundary condition", ok,
           f"growth exponents {exponents}, slopes {slopes}, worst residual {worst_resid:.2e}")
    assert worst_resid <= 0.1
    assert all(v == "PASS" for v in verdicts)


def test_criterion_11_flatness_and_coincidence(scalar_limit, regular_points, limit_report):
    flats_ok = True
    flat_detail = []
    for x0, _, _ in regular_points:
        flats = [flatness_measure(scalar_limit, x0, r) for r in FIT_RADII]
        flats_ok = flats_ok and all(b <= a + 1e-12 for a, b in zip(flats, flats[1:]))
        flat_detail.append("[" + " ".join(f"{f:.1e}" for f in flats) + "]")
    h = scalar_limit.spec.h
    # negative control: a dead core of width 2h carved between the phases
    v = scalar_limit.values
    shrunk = np.maximum(np.abs(v) - h * lipschitz_seminorm(scalar_limit), 0.0)
    cored_report = interface_report(GridField(scalar_limit.spec, np.sign(v) * shrunk))
    bc = row_values(limit_report)["boundary_consistency"]
    cored = row_values(cored_report)["boundary_consistency"]
    verdicts = (limit_report.verdicts["boundary_consistency"],
                cored_report.verdicts["boundary_consistency"])
    ok = flats_ok and verdicts == ("PASS", "FAIL")
    report(11, "flatness and coincidence", ok,
           f"flats {' '.join(flat_detail)}, consistency {bc / h:.4f}h, "
           f"dead-core control {cored / h:.4f}h, bound {freeboundary.CONSISTENCY_CELLS:g}h")
    assert flats_ok
    # exactly coincident phases read at most 2h (the 360-angle sweep in
    # test_freeboundary.py); the report's bound is one cell more.  See the
    # acceptance-battery section of the README
    assert verdicts == ("PASS", "FAIL")


def test_criterion_12_epsilon_monotonicity(limit_report):
    # the 60-degree cone about the normal fitted at the smallest radius
    em = row_values(limit_report)["epsilon_monotonicity"]
    cone_ok = limit_report.verdicts["cone_monotone"] == "PASS" and em <= 0.1

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
    ok = cone_ok and planes_ok
    report(12, "epsilon monotonicity", ok,
           f"solved-limit eps {em:.6f}, plane tilts -> "
           + ", ".join(f"{e:.4f}" for e in plane_eps)
           + f", past-cone tilt -> {beyond}")
    assert cone_ok
    assert planes_ok
