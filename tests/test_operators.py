import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pucci_lab import (
    ConfigurationError,
    Ellipticity,
    GridField,
    GridSpec,
    OP_SELECTORS,
    InputError,
    MatrixFamily,
    OperatorPair,
    SchemeSpec,
    SymMat2,
    bilinear_sample,
    central_hessian,
    discrete_residual,
    eig2,
    family_extremal,
    g_epsilon_eval,
    heaviside_smooth,
    pucci_eval,
    residual_interior,
)
from pucci_lab.operators import _extremal_side, jacobian_apply, linearize

ELL = Ellipticity(1.0, 2.0)
FINITE = MatrixFamily(
    "finite_set",
    ELL,
    members=(
        SymMat2(1.0, 0.0, 1.0),
        SymMat2(1.5, 0.0, 1.25),
        SymMat2(1.3, 0.2, 1.3),
    ),
)
PAIRS = {
    "pucci": OperatorPair.pucci(ELL),
    "identity": OperatorPair.identity(ELL),
    "frobenius": OperatorPair.frobenius(Ellipticity(0.5, 1.5), 0.5),
    "finite": OperatorPair(FINITE, FINITE),
}

entry = st.floats(-10.0, 10.0, allow_nan=False)
mats = st.builds(SymMat2, entry, entry, entry)


def rotated(m: SymMat2, ang: float) -> SymMat2:
    c, s = math.cos(ang), math.sin(ang)
    return SymMat2(
        c * c * m.a + 2 * c * s * m.b + s * s * m.c,
        c * s * (m.c - m.a) + (c * c - s * s) * m.b,
        s * s * m.a - 2 * c * s * m.b + c * c * m.c,
    )


def test_eig2_matches_lapack():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = SymMat2(*rng.normal(size=3) * 5)
        ours = eig2(m)
        ref = np.linalg.eigvalsh(m.as_array())
        assert ours == pytest.approx(tuple(ref), abs=1e-12)


@pytest.mark.parametrize("ell", [ELL, Ellipticity(0.25, 3.0)])
@pytest.mark.parametrize("sup", [False, True])
def test_pucci_policy_at_kinks(ell, sup):
    # the kinks of M-+: M = 0, rank one of each sign, c I, eigenvalues of
    # opposite sign, then random draws
    kinks = [(0.0, 0.0, 0.0), (9.0, 12.0, 16.0), (-1.0, -1.0, -1.0), (0.0, 0.0, 2.5),
             (2.5, 0.0, 2.5), (-1.5, 0.0, -1.5), (3.0, 0.0, -1.0), (1.0, 2.0, -1.0)]
    rng = np.random.default_rng(11)
    a, b, c = np.concatenate([np.array(kinks), rng.normal(size=(200, 3)) * 5]).T
    value, (a11, a12, a22) = _extremal_side(MatrixFamily("full_pucci", ell), a, b, c, sup,
                                            policy=True)
    mats = np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)
    pols = np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)
    w = np.linalg.eigvalsh(pols)
    assert w.min() >= ell.lam - 1e-12 and w.max() <= ell.Lam + 1e-12
    scale = 1.0 + np.abs(mats).max(axis=(-2, -1))
    assert np.all(np.abs(a11 * a + 2.0 * a12 * b + a22 * c - value) <= 1e-13 * scale)
    e = np.linalg.eigvalsh(mats)
    up, down = (ell.Lam, ell.lam) if sup else (ell.lam, ell.Lam)
    ref = up * np.maximum(e, 0.0).sum(-1) + down * np.minimum(e, 0.0).sum(-1)
    assert np.all(np.abs(value - ref) <= 1e-13 * scale)
    # at M = 0 the policy is the band midpoint on either side
    mid = 0.5 * (ell.lam + ell.Lam)
    assert (a11[0], a12[0], a22[0]) == (mid, 0.0, mid)


@given(mats)
def test_pucci_duality(m):
    neg = SymMat2(-m.a, -m.b, -m.c)
    assert pucci_eval(neg, ELL, "plus") == pytest.approx(-pucci_eval(m, ELL, "minus"), abs=1e-11)


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(m=mats)
def test_chain_between_pucci_envelopes(name, m):
    pair = PAIRS[name]
    ell = pair.ell
    fm = family_extremal(pair.minus, m, "inf")
    fp = family_extremal(pair.plus, m, "sup")
    tol = 1e-11
    assert pucci_eval(m, ell, "minus") <= fm + tol
    assert fm <= m.trace() + tol
    assert m.trace() <= fp + tol
    assert fp <= pucci_eval(m, ell, "plus") + tol


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(m=mats, t=st.floats(0.0, 5.0, allow_nan=False))
def test_positive_homogeneity(name, m, t):
    pair = PAIRS[name]
    scaled = SymMat2(t * m.a, t * m.b, t * m.c)
    got = family_extremal(pair.minus, scaled, "inf")
    assert got == pytest.approx(t * family_extremal(pair.minus, m, "inf"), abs=1e-9)


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(m1=mats, m2=mats)
def test_super_and_subadditivity(name, m1, m2):
    pair = PAIRS[name]
    s = SymMat2(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c)
    tol = 1e-10
    assert family_extremal(pair.minus, s, "inf") >= (
        family_extremal(pair.minus, m1, "inf") + family_extremal(pair.minus, m2, "inf") - tol
    )
    assert family_extremal(pair.plus, s, "sup") <= (
        family_extremal(pair.plus, m1, "sup") + family_extremal(pair.plus, m2, "sup") + tol
    )


@pytest.mark.parametrize("name", sorted(PAIRS))
@given(m=mats, p=entry)
def test_uniform_ellipticity_increments(name, m, p):
    # adding the rank-one PSD matrix p^2 e x e moves both extremal values by an
    # amount trapped between lam tr N and Lam tr N
    pair = PAIRS[name]
    ell = pair.ell
    n = SymMat2(p * p, p, 1.0)  # (p, 1) x (p, 1), PSD with trace p^2 + 1
    bumped = SymMat2(m.a + n.a, m.b + n.b, m.c + n.c)
    tol = 1e-9
    for fam, mode in ((pair.minus, "inf"), (pair.plus, "sup")):
        inc = family_extremal(fam, bumped, mode) - family_extremal(fam, m, mode)
        assert ell.lam * n.trace() - tol <= inc <= ell.Lam * n.trace() + tol


@pytest.mark.parametrize("name", ["pucci", "identity", "frobenius"])
@given(m=mats, ang=st.floats(0.0, 2 * math.pi, allow_nan=False))
def test_rotation_invariance(name, m, ang):
    pair = PAIRS[name]
    rm = rotated(m, ang)
    assert family_extremal(pair.minus, rm, "inf") == pytest.approx(
        family_extremal(pair.minus, m, "inf"), abs=1e-10
    )
    assert family_extremal(pair.plus, rm, "sup") == pytest.approx(
        family_extremal(pair.plus, m, "sup"), abs=1e-10
    )


def test_duality_of_shared_family_pairs():
    rng = np.random.default_rng(5)
    for name, pair in PAIRS.items():
        for _ in range(100):
            m = SymMat2(*rng.normal(size=3) * 4)
            neg = SymMat2(-m.a, -m.b, -m.c)
            assert family_extremal(pair.plus, m, "sup") == pytest.approx(
                -family_extremal(pair.minus, neg, "inf"), abs=1e-11
            ), name


def test_finite_set_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = SymMat2(*rng.normal(size=3) * 3)
        vals = [mm.a * m.a + 2 * mm.b * m.b + mm.c * m.c for mm in FINITE.members]
        assert family_extremal(FINITE, m, "inf") == pytest.approx(min(vals), abs=1e-13)
        assert family_extremal(FINITE, m, "sup") == pytest.approx(max(vals), abs=1e-13)


def test_frobenius_closed_form():
    fam = MatrixFamily("frobenius_ball", Ellipticity(0.5, 1.5), r0=0.5)
    m = SymMat2(2.0, -1.0, 0.5)
    fro = math.sqrt(2.0**2 + 2 * 1.0**2 + 0.5**2)
    assert family_extremal(fam, m, "inf") == pytest.approx(2.5 - 0.5 * fro)
    assert family_extremal(fam, m, "sup") == pytest.approx(2.5 + 0.5 * fro)


def test_ellipticity_validation():
    with pytest.raises(ConfigurationError):
        Ellipticity(0.0, 2.0)
    with pytest.raises(ConfigurationError):
        Ellipticity(1.2, 2.0)
    with pytest.raises(ConfigurationError):
        Ellipticity(0.5, 0.9)


def test_family_validation():
    with pytest.raises(ConfigurationError):
        MatrixFamily("frobenius_ball", ELL)  # missing r0
    with pytest.raises(ConfigurationError):
        MatrixFamily("frobenius_ball", ELL, r0=1.5)
    with pytest.raises(ConfigurationError):
        # band [1, 2] does not cover [1 - r0, 1 + r0]
        MatrixFamily("frobenius_ball", Ellipticity(1.0, 2.0), r0=0.5)
    with pytest.raises(ConfigurationError):
        MatrixFamily("finite_set", ELL, members=())
    with pytest.raises(ConfigurationError):
        MatrixFamily("finite_set", ELL, members=(SymMat2(1.5, 0.0, 1.5),))  # no identity
    with pytest.raises(ConfigurationError):
        MatrixFamily(
            "finite_set", ELL,
            members=(SymMat2(1.0, 0.0, 1.0), SymMat2(3.0, 0.0, 1.0)),  # eig above Lam
        )
    with pytest.raises(ConfigurationError):
        MatrixFamily("diagonal", ELL)


def test_pair_must_share_ellipticity():
    with pytest.raises(ConfigurationError):
        OperatorPair(
            MatrixFamily("full_pucci", Ellipticity(1.0, 2.0)),
            MatrixFamily("full_pucci", Ellipticity(1.0, 3.0)),
        )


def test_heaviside_frozen_values():
    eps = 0.05
    assert heaviside_smooth(-eps, eps) == 0.0
    assert heaviside_smooth(eps, eps) == 1.0
    assert heaviside_smooth(0.0, eps) == pytest.approx(0.5)
    assert heaviside_smooth(-eps / 2, eps) == pytest.approx(0.15625)
    t = np.linspace(-3 * eps, 3 * eps, 301)
    vals = heaviside_smooth(t, eps)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with pytest.raises(ConfigurationError):
        heaviside_smooth(0.0, 0.0)


def test_g_epsilon_selects_branches():
    pair = PAIRS["pucci"]
    m = SymMat2(1.0, 0.3, -2.0)
    eps = 0.05
    fm = family_extremal(pair.minus, m, "inf")
    fp = family_extremal(pair.plus, m, "sup")
    assert g_epsilon_eval(m, 1.0, pair, eps) == pytest.approx(fm)
    assert g_epsilon_eval(m, -1.0, pair, eps) == pytest.approx(fp)
    mid = g_epsilon_eval(m, 0.0, pair, eps)
    assert min(fm, fp) <= mid <= max(fm, fp)
    assert mid == pytest.approx(0.5 * (fm + fp))


def test_scheme_validation():
    SchemeSpec()
    SchemeSpec("wide", 8)
    with pytest.raises(ConfigurationError):
        SchemeSpec("wide")
    with pytest.raises(ConfigurationError):
        SchemeSpec("wide", 5)
    with pytest.raises(ConfigurationError):
        SchemeSpec("wide", 2)
    with pytest.raises(ConfigurationError):
        SchemeSpec("upwind")


def quad_field(spec, a, b, c):
    X, Y = spec.node_coords()
    return GridField(spec, a * X * X + b * X * Y + c * Y * Y)


def test_central_hessian_exact_on_quadratics():
    g = GridSpec(17)
    fld = quad_field(g, 1.5, -0.7, 0.25)
    uxx, uyy, uxy = central_hessian(fld.values, g.h)
    assert np.allclose(uxx, 3.0, atol=1e-10)
    assert np.allclose(uyy, 0.5, atol=1e-10)
    assert np.allclose(uxy, -0.7, atol=1e-10)


@pytest.mark.parametrize("op, expected", [
    ("laplacian", 3.0 + 0.5),
    ("M_minus", 1.0 * 3.0 + 1.0 * 0.5),        # both eigenvalues positive
    ("M_plus", 2.0 * 3.0 + 2.0 * 0.5),
])
def test_central_residual_constant_hessian(op, expected):
    # Hessian [[3, -0.7], [-0.7, 0.5]] has eigenvalues {0.334, 3.166}, both > 0
    g = GridSpec(17)
    fld = quad_field(g, 1.5, -0.7, 0.25)
    res = residual_interior(fld.values, g.h, op, SchemeSpec(), ell=ELL)
    hess = SymMat2(3.0, -0.7, 0.5)
    if op == "laplacian":
        ref = hess.trace()
    else:
        ref = pucci_eval(hess, ELL, "minus" if op == "M_minus" else "plus")
    assert ref == pytest.approx(expected, abs=1e-9)
    assert np.allclose(res, ref, atol=1e-9)


def test_wide_exact_for_axis_aligned_hessian():
    # the eigenframe (0 degrees) belongs to every wide frame set, so the wide
    # extremum over frames hits the true value for diagonal Hessians
    g = GridSpec(33)
    fld = quad_field(g, 1.0, 0.0, -0.5)  # D2u = diag(2, -1): trace 1, Frobenius norm sqrt(5)
    eps = 0.05
    hh = heaviside_smooth(fld.values[1:-1, 1:-1], eps)
    assert hh.min() == 0.0 and hh.max() == 1.0
    fro_lo, fro_hi = 1.0 - 0.5 * math.sqrt(5.0), 1.0 + 0.5 * math.sqrt(5.0)
    cases = [
        ("M_minus", None, pucci_eval(SymMat2(2.0, 0.0, -1.0), ELL, "minus")),
        ("F_minus", "identity", 1.0),
        ("F_plus", "identity", 1.0),
        ("G_eps", "identity", 1.0),
        ("F_minus", "frobenius", fro_lo),
        ("F_plus", "frobenius", fro_hi),
        ("G_eps", "frobenius", hh * fro_lo + (1.0 - hh) * fro_hi),
    ]
    for op, name, ref in cases:
        kw = dict(ell=ELL) if name is None else dict(pair=PAIRS[name], eps=eps)
        for k in (4, 8):
            res = residual_interior(fld.values, g.h, op, SchemeSpec("wide", k), **kw)
            assert np.allclose(res, ref, atol=1e-8), (op, name, k)


def bilinear_wide_frames(fld, k):
    """Wide frames from their definition: the difference of bilinear samples
    at x +- h v, minus its bias fx(1-fx) u_xx + fy(1-fy) u_yy."""
    g, u = fld.spec, fld.values
    X, Y = g.node_coords()
    x, y, u0 = X[1:-1, 1:-1], Y[1:-1, 1:-1], u[1:-1, 1:-1]
    uxx, uyy, _ = central_hessian(u, g.h)

    def second_diff(vx, vy):
        plus = bilinear_sample(fld, x + g.h * vx, y + g.h * vy)
        minus = bilinear_sample(fld, x - g.h * vx, y - g.h * vy)
        # the cell fractions of x +- h v are |vx|, |vy| or their complements
        fx, fy = abs(vx), abs(vy)
        return ((plus + minus - 2.0 * u0) / g.h ** 2
                - fx * (1.0 - fx) * uxx - fy * (1.0 - fy) * uyy)

    frames = []
    for i in range(k):
        c, s = math.cos(i * math.pi / (2 * k)), math.sin(i * math.pi / (2 * k))
        frames.append((second_diff(c, s), second_diff(-s, c)))
    return frames


@pytest.mark.parametrize("k", [4, 8])
def test_wide_matches_bilinear_reference(k):
    # the sample points x +- h v round to ulp(x), which moves the reference's
    # cell fractions by about nx ulp: at 17 nodes that stays under the tolerance
    g = GridSpec(17)
    u = np.random.default_rng(k).standard_normal((17, 17))
    fld = GridField(g, u)
    eps = 0.5
    lam, Lam = ELL.lam, ELL.Lam

    def m_minus(d1, d2):  # eigenvalues of diag(d1, d2) are d1, d2
        return sum(lam * np.maximum(d, 0.0) + Lam * np.minimum(d, 0.0) for d in (d1, d2))

    def m_plus(d1, d2):
        return sum(Lam * np.maximum(d, 0.0) + lam * np.minimum(d, 0.0) for d in (d1, d2))

    frames = bilinear_wide_frames(fld, k)
    lo = np.min([m_minus(*f) for f in frames], axis=0)
    hi = np.max([m_plus(*f) for f in frames], axis=0)
    hh = heaviside_smooth(u[1:-1, 1:-1], eps)
    assert ((0.0 < hh) & (hh < 1.0)).any()  # both branches blend somewhere
    tol = 1e-14 * np.abs(u).max() / g.h ** 2
    wide = SchemeSpec("wide", k)
    res = residual_interior(u, g.h, "M_minus", wide, ell=ELL)
    assert np.abs(res - lo).max() <= tol
    res = residual_interior(u, g.h, "G_eps", wide, pair=PAIRS["pucci"], eps=eps)
    assert np.abs(res - (hh * lo + (1.0 - hh) * hi)).max() <= tol


@pytest.mark.parametrize("delta", [0.3, -0.3])
def test_wide_stencil_weights_on_east_neighbour(delta):
    # along v = (c, s) the E weight is c (c - s) / h^2, along v_perp s (s - c) / h^2
    g = GridSpec(9)
    u = np.zeros((9, 9))
    u[5, 4] = delta  # the E neighbour of node (4, 4)
    k = 8
    res = residual_interior(u, g.h, "M_minus", SchemeSpec("wide", k), ell=ELL)
    ref = min(
        pucci_eval(SymMat2(c * (c - s) * delta / g.h ** 2, 0.0, s * (s - c) * delta / g.h ** 2),
                   ELL, "minus")
        for c, s in ((math.cos(i * math.pi / (2 * k)), math.sin(i * math.pi / (2 * k)))
                     for i in range(k))
    )
    assert res[3, 3] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scheme", [SchemeSpec(), SchemeSpec("wide", 4)])
@pytest.mark.parametrize("name", ["pucci", "identity", "frobenius"])
def test_g_eps_shared_family_matches_its_branches_bitwise(scheme, name):
    # one family on both sides takes F- and F+ from the same Hessian; the
    # result is the blend of the two one-sided residuals, bit for bit
    g = GridSpec(33)
    X, Y = g.node_coords()
    u = np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.3 * X * Y - 0.1
    eps = 0.05
    pair = PAIRS[name]
    fam = pair.minus
    twin = OperatorPair(fam, MatrixFamily(fam.kind, fam.ell, r0=fam.r0))
    assert twin.minus == twin.plus and twin.minus is not twin.plus
    fm = residual_interior(u, g.h, "F_minus", scheme, pair=pair)
    fp = residual_interior(u, g.h, "F_plus", scheme, pair=pair)
    hh = heaviside_smooth(u[1:-1, 1:-1], eps)
    blend = hh * fm + (1.0 - hh) * fp
    for p in (pair, twin):
        res = residual_interior(u, g.h, "G_eps", scheme, pair=p, eps=eps)
        assert res.tobytes() == blend.tobytes()


def test_wide_direction_gap_shrinks():
    # rotated anisotropic Hessian not aligned with any stencil direction:
    # frame-set error decays like 1/K^2
    g = GridSpec(33)
    ang = 0.3
    m = rotated(SymMat2(2.0, 0.0, -1.0), ang)
    X, Y = g.node_coords()
    fld = GridField(g, 0.5 * (m.a * X * X + 2 * m.b * X * Y + m.c * Y * Y))
    ref = pucci_eval(m, ELL, "minus")
    errs = []
    for k in (4, 8, 16):
        res = residual_interior(fld.values, g.h, "M_minus", SchemeSpec("wide", k), ell=ELL)
        errs.append(float(np.abs(res - ref).max()))
    assert errs[2] < errs[0] / 2
    assert errs[1] <= errs[0] + 1e-12


def test_wide_rejects_finite_set():
    g = GridSpec(17)
    fld = quad_field(g, 1.0, 0.0, 1.0)
    pair = PAIRS["finite"]
    with pytest.raises(ConfigurationError):
        residual_interior(fld.values, g.h, "F_minus", SchemeSpec("wide", 4), pair=pair)


def test_selector_argument_resolution():
    g = GridSpec(9)
    fld = quad_field(g, 1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        residual_interior(fld.values, g.h, "F_minus", SchemeSpec())  # needs pair
    with pytest.raises(ConfigurationError):
        residual_interior(fld.values, g.h, "G_eps", SchemeSpec(), pair=PAIRS["pucci"])  # needs eps
    with pytest.raises(ConfigurationError):
        residual_interior(fld.values, g.h, "biharmonic", SchemeSpec(), ell=ELL)
    with pytest.raises(ConfigurationError):
        residual_interior(fld.values, g.h, "M_minus", SchemeSpec())  # needs ell or pair


def test_discrete_residual_ring_is_zero():
    g = GridSpec(17)
    fld = quad_field(g, 1.0, 0.2, -1.0)
    res = discrete_residual(fld, "laplacian", SchemeSpec())
    ring = g.boundary_ring()
    assert np.all(res.values[ring] == 0.0)
    assert np.allclose(res.values[~ring].reshape(15, 15), 0.0, atol=1e-9)


def test_discrete_residual_rejects_nan():
    g = GridSpec(9)
    vals = np.zeros((9, 9))
    vals[4, 4] = np.nan
    with pytest.raises(InputError):
        discrete_residual(GridField(g, vals), "laplacian", SchemeSpec())


def test_g_eps_reduces_to_branches_far_from_zero():
    # a field bounded below by eps solves G_eps iff it solves F-
    g = GridSpec(17)
    X, Y = g.node_coords()
    fld = GridField(g, 1.0 + 0.1 * (X * X - Y * Y))
    r_g = residual_interior(fld.values, g.h, "G_eps", SchemeSpec(), pair=PAIRS["pucci"],
                            eps=0.05)
    r_m = residual_interior(fld.values, g.h, "F_minus", SchemeSpec(), pair=PAIRS["pucci"])
    assert np.allclose(r_g, r_m, atol=1e-12)


# Every selector, family and scheme for the linearization tests; finite sets
# are not rotation closed and run on the central scheme only.  "mixed" pairs
# two different families, so G_eps blends its sides after their frames.
ELL_WIDE = Ellipticity(0.5, 1.5)
LINEAR_PAIRS = dict(PAIRS, mixed=OperatorPair(MatrixFamily("full_pucci", ELL_WIDE),
                                              MatrixFamily("frobenius_ball", ELL_WIDE, r0=0.5)))
SCHEMES = {"central": SchemeSpec(), "wide4": SchemeSpec("wide", 4), "wide8": SchemeSpec("wide", 8)}
LINEAR_CASES = [
    (op, name, scheme)
    for scheme in SCHEMES
    for op in OP_SELECTORS
    for name in (sorted(LINEAR_PAIRS) if op in ("F_minus", "F_plus", "G_eps") else ["pucci"])
    if not (name == "finite" and scheme != "central")
]


@pytest.mark.parametrize("op, name, scheme", LINEAR_CASES)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_linearization_matches_residual(op, name, scheme, seed):
    g = GridSpec(17)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((17, 17))
    d = rng.standard_normal((17, 17))
    d[g.boundary_ring()] = 0.0
    eps, t = 0.5, 1e-6
    # away from the kinks: eigenvalue sign changes of the central Hessian and |u| = eps
    uxx, uyy, uxy = central_hessian(u, g.h)
    rad = np.sqrt((0.5 * (uxx - uyy)) ** 2 + uxy ** 2)
    mean = 0.5 * (uxx + uyy)
    assume(np.abs(np.abs(mean) - rad).min() > 0.1)
    assume(np.abs(np.abs(u) - eps).min() > 1e-3)
    kw = dict(pair=LINEAR_PAIRS[name], ell=LINEAR_PAIRS[name].ell,
              eps=eps if op == "G_eps" else None)
    spec = SCHEMES[scheme]
    res = residual_interior(u, g.h, op, spec, **kw)
    value, coefs, diag = linearize(u, g.h, op, spec, **kw)
    assert value.tobytes() == res.tobytes()
    jd = jacobian_apply(coefs, diag, d, g.h)
    plus = residual_interior(u + t * d, g.h, op, spec, **kw)
    minus = residual_interior(u - t * d, g.h, op, spec, **kw)
    # a rare row crosses a tie between frames or members within the probe:
    # there the centred difference misses J d by its bend over 2t, which
    # elsewhere is roundoff
    bend = np.abs(plus - 2.0 * res + minus)
    err = np.abs((plus - minus) / (2.0 * t) - jd)
    assert np.all(err <= 1e-6 * np.abs(jd).max() + bend / (2.0 * t))
    # the central scheme and the laplacian give (k_xx, k_yy, k_xy), the wide
    # scheme (k_xx, k_yy, k_p, k_m); the four-corner path taken for three is
    # the general one at k_p = k_m = k_xy, on the policy's and on random
    # coefficients
    assert len(coefs) == (3 if scheme == "central" or op == "laplacian" else 4)
    if len(coefs) == 3:
        for k in (coefs, tuple(rng.standard_normal((3, 15, 15)))):
            general = jacobian_apply((*k, np.copy(k[2])), diag, d, g.h)
            four = jacobian_apply(k, diag, d, g.h)
            assert np.abs(four - general).max() <= 1e-12 * np.abs(general).max()


STACK_CASES = [
    (op, name, scheme)
    for scheme in ("central", "wide4")
    for op in OP_SELECTORS
    for name in (("pucci", "frobenius", "mixed", "finite")
                 if op in ("F_minus", "F_plus", "G_eps") else ["pucci"])
    if not (name == "finite" and scheme != "central")
]


@pytest.mark.parametrize("op, name, scheme", STACK_CASES)
def test_stack_equals_its_slices(op, name, scheme):
    # the segregation solver passes both species as one (2, nx, nx) stack
    g = GridSpec(17)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2, 17, 17))
    d = rng.standard_normal((2, 17, 17))
    d[:, g.boundary_ring()] = 0.0
    kw = dict(pair=LINEAR_PAIRS[name], ell=LINEAR_PAIRS[name].ell,
              eps=0.5 if op == "G_eps" else None)
    spec = SCHEMES[scheme]
    res = residual_interior(u, g.h, op, spec, **kw)
    assert np.array_equal(res, np.stack([residual_interior(w, g.h, op, spec, **kw) for w in u]))
    value, coefs, diag = linearize(u, g.h, op, spec, **kw)
    one = [linearize(w, g.h, op, spec, **kw) for w in u]
    assert np.array_equal(value, np.stack([v for v, _, _ in one]))
    # the identity family gives scalar coefficients on the central scheme
    for i, k in enumerate(coefs):
        assert np.array_equal(np.broadcast_to(k, value.shape),
                              np.stack([np.broadcast_to(c[i], (15, 15)) for _, c, _ in one]))
    assert (diag is None) == (op != "G_eps")
    if diag is not None:
        assert np.array_equal(diag, np.stack([dg for _, _, dg in one]))
    jd = jacobian_apply(coefs, diag, d, g.h)
    assert np.array_equal(jd, np.stack([jacobian_apply(c, dg, x, g.h)
                                        for (_, c, dg), x in zip(one, d)]))
