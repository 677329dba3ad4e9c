import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucci_lab import (
    BarrierSpec,
    ConfigurationError,
    DomainError,
    Ellipticity,
    GridField,
    GridSpec,
    InputError,
    MatrixFamily,
    RadialProfile,
    SchemeSpec,
    SolveConfig,
    SymMat2,
    TwoPlaneSpec,
    barrier_gradient_bound,
    barrier_psi,
    family_extremal,
    gamma_exponent,
    make_fixture,
    radial_profile,
    rescale_blowup,
    residual_interior,
    sandwich_check,
    solve_dirichlet,
    two_plane_field,
    two_plane_values,
)
from pucci_lab.barriers import _radial_exponent

ELL = Ellipticity(1.0, 2.0)


def test_gamma_exponent_values():
    assert gamma_exponent(ELL) == pytest.approx(1.0)
    assert gamma_exponent(Ellipticity(1.0, 1.0)) == pytest.approx(0.0)


def test_barrier_spec_validation():
    with pytest.raises(ConfigurationError):
        BarrierSpec(c=-1.0)
    with pytest.raises(ConfigurationError):
        BarrierSpec(r=0.0)
    with pytest.raises(ConfigurationError):
        BarrierSpec(gamma=-2.0)


def test_barrier_psi_signs_and_zero_circle():
    spec = BarrierSpec(c=2.0, r=0.4, gamma=1.0)
    assert barrier_psi(spec, (0.2, 0.0)) > 0.0
    assert barrier_psi(spec, (0.8, 0.0)) < 0.0
    for ang in (0.0, 1.0, 2.5):
        p = (0.4 * math.cos(ang), 0.4 * math.sin(ang))
        assert barrier_psi(spec, p) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        barrier_psi(spec, (0.0, 0.0))


def test_barrier_psi_array_matches_scalar():
    spec = BarrierSpec(c=1.5, r=0.3, gamma=2.0, center=(0.5, 0.5))
    xs = np.array([0.3, 0.6, 0.9])
    ys = np.array([0.5, 0.7, 0.1])
    arr = barrier_psi(spec, xs, ys)
    for k in range(3):
        assert arr[k] == pytest.approx(barrier_psi(spec, (xs[k], ys[k])))


def test_barrier_dominates_linear_growth_bound():
    # psi is convex in the distance, so it sits above its tangent line at the
    # zero circle, which is exactly the advertised linear bound
    spec = BarrierSpec(c=1.0, r=0.4, gamma=1.5)
    dist = np.linspace(0.01, 0.4, 200)
    psi = spec.c * ((spec.r / dist) ** spec.gamma - 1.0)
    assert np.all(psi >= barrier_gradient_bound(spec, dist) - 1e-12)


def test_two_plane_spec_validation():
    with pytest.raises(ConfigurationError):
        TwoPlaneSpec(1.0, 2.0, (1.0, 1.0))  # not unit
    with pytest.raises(ConfigurationError):
        TwoPlaneSpec(-1.0, 2.0, (1.0, 0.0))
    spec = TwoPlaneSpec.from_angle(1.0, 2.0, 30.0)
    assert math.hypot(*spec.nu) == pytest.approx(1.0)


def test_two_plane_values_kink():
    spec = TwoPlaneSpec(1.0, 2.0, (1.0, 0.0), x0=(0.5, 0.5))
    xs = np.array([0.7, 0.3, 0.5])
    vals = two_plane_values(spec, xs, np.full(3, 0.5))
    assert vals == pytest.approx([0.2, -0.4, 0.0])


def test_two_plane_blowup_invariance():
    # with the kink along a grid line the field is piecewise bilinear, so the
    # rescaling u(x0 + r xi) / r reproduces the same two-plane exactly
    g = GridSpec(65)
    spec = TwoPlaneSpec(1.0, 2.0, (1.0, 0.0), x0=(0.5, 0.5))
    fld = two_plane_field(spec, g)
    out = GridSpec(65, extent=2.0, origin=(-1.0, -1.0))
    ref_spec = TwoPlaneSpec(1.0, 2.0, (1.0, 0.0), x0=(0.0, 0.0))
    XI, ETA = out.node_coords()
    ref = two_plane_values(ref_spec, XI, ETA)
    for r in (0.25, 0.125):
        blown = rescale_blowup(fld, (0.5, 0.5), r, out)
        assert np.abs(blown.values - ref).max() <= 1e-12


def test_radial_profile_full_pucci_closed_form():
    prof = radial_profile(MatrixFamily("full_pucci", ELL), r=0.4)
    assert prof.rho_samples[0] == pytest.approx(0.2)
    assert prof.rho_samples[-1] == pytest.approx(0.4)
    ref = 0.4 / prof.rho_samples - 1.0
    assert np.abs(prof.phi_values - ref).max() <= 1e-6
    assert prof.sigma == pytest.approx(1.0, abs=1e-4)


def test_radial_profile_harmonic_closed_form():
    prof = radial_profile(MatrixFamily("identity_only", Ellipticity(1.0, 1.0)), r=0.4)
    ref = np.log(0.4 / prof.rho_samples) / math.log(2.0)
    assert np.abs(prof.phi_values - ref).max() <= 1e-6
    assert prof.sigma == pytest.approx(1.0 / math.log(2.0), abs=1e-4)


def _frobenius_slope(r0):
    """k with F-(diag(k, -1)) = 0 on the Frobenius ball: the larger root of
    (k - 1)^2 = r0^2 (k^2 + 1)."""
    return (1.0 + r0 * math.sqrt(2.0 - r0 * r0)) / (1.0 - r0 * r0)


def test_radial_profile_frobenius_closed_form():
    # the negative-curvature branch of the null slope gives a pure power law
    r0 = 0.5
    fam = MatrixFamily("frobenius_ball", Ellipticity(0.5, 1.5), r0=r0)
    prof = radial_profile(fam, r=0.4)
    geff = _frobenius_slope(r0) - 1.0
    ref = ((0.4 / prof.rho_samples) ** geff - 1.0) / (2.0 ** geff - 1.0)
    assert np.abs(prof.phi_values - ref).max() <= 1e-9
    assert prof.sigma == pytest.approx(geff / (2.0 ** geff - 1.0), abs=1e-4)


@pytest.mark.parametrize("fam, g", [
    *[(MatrixFamily("full_pucci", Ellipticity(lam, Lam)), (Lam - lam) / lam)
      for lam, Lam in ((1.0, 2.0), (0.5, 2.0), (0.3, 7.0), (1.0, 100.0))],
    *[(MatrixFamily("frobenius_ball", Ellipticity(1.0 - r0, 1.0 + r0), r0=r0),
       _frobenius_slope(r0) - 1.0) for r0 in (0.3, 0.5)],
], ids=["pucci-1-2", "pucci-0.5-2", "pucci-0.3-7", "pucci-1-100", "frobenius-0.3",
        "frobenius-0.5"])
def test_radial_exponent_bisected_on_the_kernel_matches_the_closed_form(fam, g):
    assert _radial_exponent(fam) == pytest.approx(g, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("ell", [Ellipticity(1.0, 1.0), ELL, Ellipticity(0.5, 3.0)])
def test_radial_exponent_of_the_identity_is_exactly_zero(ell):
    # exactly: _annulus_power_law takes its log branch only at g == 0
    assert _radial_exponent(MatrixFamily("identity_only", ell)) == 0.0


def test_radial_profile_sigma_radius_invariant():
    fam = MatrixFamily("full_pucci", Ellipticity(0.5, 1.5))
    a = radial_profile(fam, r=0.4)
    b = radial_profile(fam, r=0.2)
    assert abs(a.sigma - b.sigma) <= 1e-8


def test_radial_profile_validation():
    with pytest.raises(ConfigurationError):
        radial_profile(MatrixFamily("full_pucci", ELL), r=-0.4)
    with pytest.raises(ConfigurationError):
        radial_profile(MatrixFamily("full_pucci", ELL), samples=2)


def test_profile_dataclass_validation():
    rho = np.linspace(0.2, 0.4, 5)
    good = np.linspace(1.0, 0.0, 5)
    RadialProfile(rho, good, 1.0)
    with pytest.raises(InputError):
        RadialProfile(rho, good[::-1], 1.0)  # increasing, wrong endpoints
    with pytest.raises(InputError):
        RadialProfile(rho, np.array([1.0, 0.2, 0.5, 0.1, 0.0]), 1.0)  # not monotone
    with pytest.raises(InputError):
        RadialProfile(rho[::-1], good, 1.0)  # rho decreasing


# (family, k) with F-(diag(-k t, t)) = 0 for t < 0; k serves only the control
radial_families = st.one_of(
    st.builds(lambda lam, Lam: (MatrixFamily("full_pucci", Ellipticity(lam, Lam)), Lam / lam),
              st.floats(0.25, 1.0), st.floats(1.0, 4.0)),
    st.just((MatrixFamily("identity_only", Ellipticity(1.0, 1.0)), 1.0)),
    st.builds(lambda r0: (MatrixFamily("frobenius_ball", Ellipticity(1.0 - r0, 1.0 + r0), r0=r0),
                          _frobenius_slope(r0)),
              st.floats(0.05, 0.9)),
)


def null_residual(fam, rho, phi):
    """sup over interior samples of |F-(diag(phi'', phi'/rho))|, with the
    derivatives from central differences of the samples."""
    dr = rho[1] - rho[0]
    d1 = (phi[2:] - phi[:-2]) / (2.0 * dr)
    d2 = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dr ** 2
    return max(abs(family_extremal(fam, SymMat2(a, 0.0, t), "inf"))
               for a, t in zip(d2, d1 / rho[1:-1]))


# For phi = rho^-g the O(dr^2) error of F-(diag(phi'', phi'/rho)) is
# proportional to 2 - k, whatever the family, so at k = 2 only roundoff is
# left and it grows as the spacing shrinks.  At |k - 2| >= NULL_SLOPE_GAP the
# leading term at 513 samples is above 300 eps / dr^2, some 150 times the
# roundoff of the second difference (one to two eps / dr^2 measured), so it
# decides the fall.
NULL_SLOPE_GAP = 0.01


@settings(max_examples=25, deadline=None)
@given(fam_k=radial_families, r=st.floats(0.1, 0.5))
def test_radial_profile_is_null_by_the_operator_kernel(fam_k, r):
    # second-order consistency: halving the spacing cuts the residual ~4x
    fam, k = fam_k
    sups = []
    for n in (257, 513):
        prof = radial_profile(fam, r=r, samples=n)
        sups.append(null_residual(fam, prof.rho_samples, prof.phi_values))
    if abs(k - 2.0) >= NULL_SLOPE_GAP:
        assert sups[0] >= 3.0 * sups[1]

    # control: a power law whose null slope is 1% off converges to a
    # nonzero residual, which does not fall by that factor
    g = 1.01 * k - 1.0
    bad = []
    for n in (257, 513):
        rho = np.linspace(r / 2.0, r, n)
        bad.append(null_residual(fam, rho, ((r / rho) ** g - 1.0) / (2.0 ** g - 1.0)))
    assert bad[0] < 3.0 * bad[1]


@pytest.mark.parametrize("r", [0.1, 0.5])
def test_radial_profile_at_null_slope_two_is_exact_to_roundoff(r):
    # Lam = 2 lam gives k = 2: the O(dr^2) errors cancel, and what is left is
    # the rounding of the samples (|phi| <= 1) in the second difference
    fam = MatrixFamily("full_pucci", Ellipticity(0.5, 1.0))
    for n in (257, 513):
        prof = radial_profile(fam, r=r, samples=n)
        rho = prof.rho_samples
        roundoff = 8.0 * np.finfo(float).eps / (rho[1] - rho[0]) ** 2
        assert null_residual(fam, rho, prof.phi_values) <= roundoff
        # control: the power law with a 1%-off null slope, g = 1.02
        bad = ((r / rho) ** 1.02 - 1.0) / (2.0 ** 1.02 - 1.0)
        assert null_residual(fam, rho, bad) > roundoff


def test_sandwich_check_reports_violations():
    g = GridSpec(5)
    lo = GridField(g, np.zeros((5, 5)))
    hi = GridField(g, np.ones((5, 5)))
    mid = GridField(g, np.full((5, 5), 0.5))
    ok = sandwich_check(mid, lo, hi)
    assert ok.passed and ok.worst == 0.0

    bad_vals = np.full((5, 5), 0.5)
    bad_vals[2, 3] = 1.25
    report = sandwich_check(GridField(g, bad_vals), lo, hi)
    assert not report.passed
    assert report.nodes == [(2, 3)]
    assert report.worst == pytest.approx(0.25)
    assert sandwich_check(GridField(g, bad_vals), lo, hi, slack=0.3).passed

    with pytest.raises(InputError):
        sandwich_check(mid, lo, GridField(GridSpec(9), np.ones((9, 9))))
    with pytest.raises(ConfigurationError):
        sandwich_check(mid, lo, hi, slack=-0.1)


def test_fixture_names_and_errors():
    g = GridSpec(17)
    with pytest.raises(ConfigurationError):
        make_fixture(g, "sawtooth")
    for name in ("psi", "two_plane", "radial_pucci", "harmonic_quadratic", "sign_change"):
        fld = make_fixture(g, name)
        assert isinstance(fld, GridField)
        assert np.all(np.isfinite(fld.values))
    for name in ("split_supports", "edge_bumps"):
        f1, f2 = make_fixture(g, name)
        assert np.all(f1.values >= 0.0) and np.all(f2.values >= 0.0)
        assert np.all(f1.values * f2.values == 0.0)


def test_fixture_parameter_validation():
    g = GridSpec(17)
    for r in (0.0, -0.4):
        with pytest.raises(ConfigurationError, match="radius"):
            make_fixture(g, "radial_pucci", r=r)
    with pytest.raises(DomainError):
        make_fixture(g, "radial_pucci", center=(1.5, 0.5))
    with pytest.raises(ConfigurationError, match="gamma"):
        make_fixture(g, "psi", gamma=-1.0)


def test_point_fixtures_are_anchored_at_center():
    # node (4, 12) of the 17^2 grid sits at (0.25, 0.75)
    g, center = GridSpec(17), (0.25, 0.75)
    assert make_fixture(g, "two_plane", center=center).values[4, 12] == 0.0
    assert make_fixture(g, "sign_change", amplitude=0.0, center=center).values[4, 12] == 0.0
    f1, f2 = make_fixture(g, "split_supports", center=center)
    assert f1.values[4, 12] == f2.values[4, 12] == 0.0
    for name in ("psi", "radial_pucci"):
        fld = make_fixture(g, name, center=center)
        assert np.unravel_index(np.argmax(fld.values), fld.values.shape) == (4, 12)


def test_harmonic_quadratic_is_x2_minus_y2():
    g = GridSpec(9, 2.0, (-1.0, -1.0))
    xx, yy = g.node_coords()
    assert np.array_equal(make_fixture(g, "harmonic_quadratic").values, xx ** 2 - yy ** 2)


def test_radial_pucci_fixture_at_equal_bounds_is_the_log_profile():
    # gamma = 0 at lam = Lam: the annulus solution is log(r / d) / log 2
    g = GridSpec(65)
    fld = make_fixture(g, "radial_pucci", lam=1.0, Lam=1.0)
    xx, yy = g.node_coords()
    dist = np.maximum(np.hypot(xx - 0.5, yy - 0.5), g.h / 2.0)
    assert np.abs(fld.values - np.log(0.4 / dist) / math.log(2.0)).max() <= 1e-12


def test_sign_change_fixture_is_boundary_active():
    g = GridSpec(33)
    fld = make_fixture(g, "sign_change")
    ring = g.boundary_ring()
    plane = make_fixture(g, "sign_change", amplitude=1e-12)
    wiggle = fld.values - plane.values
    assert np.abs(wiggle[ring]).max() > 1e-3
    assert (fld.values[ring] > 0).any() and (fld.values[ring] < 0).any()


def test_edge_bumps_touch_only_their_edges():
    g = GridSpec(17)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=3.0)
    assert np.all(f1.values[1:, :] == 0.0)
    assert np.all(f2.values[:-1, :] == 0.0)
    # sin^2 shaping vanishes at the corners up to sin(pi) roundoff dust
    assert f1.values[0, 0] <= 1e-30 and f1.values[0, -1] <= 1e-30
    assert f1.values[0, 8] == pytest.approx(3.0)


def test_psi_fixture_discrete_residual_small_on_annulus():
    g = GridSpec(65)
    fld = make_fixture(g, "psi")
    res = residual_interior(fld.values, g.h, "M_minus", SchemeSpec(), ell=ELL)
    xx, yy = g.node_coords()
    dist = np.hypot(xx - 0.5, yy - 0.5)[1:-1, 1:-1]
    sup = np.abs(res[(dist >= 0.1) & (dist <= 0.4)]).max()
    # O(h^2) truncation against the steep fourth derivative near the inner
    # radius; the measured value at this resolution is 33.8
    assert sup <= 40.0


def test_solved_field_matches_psi_off_the_core():
    # solve M- with psi as ring datum and the core masked out; away from both
    # the ring and the core the solve must reproduce the barrier to O(h^2)
    g = GridSpec(65)
    fld = make_fixture(g, "psi")
    xx, yy = g.node_coords()
    frozen = np.hypot(xx - 0.5, yy - 0.5) < 0.1
    res = solve_dirichlet(fld, "M_minus", SolveConfig(tol=1e-8), ell=ELL, frozen=frozen)
    assert res.converged
    err = np.abs(res.field.values - fld.values)[1:-1, 1:-1]
    dist = np.hypot(xx - 0.5, yy - 0.5)[1:-1, 1:-1]
    band = (dist >= 0.15) & (dist <= 0.35)
    assert err[band].max() <= 35.0 * g.h**2
