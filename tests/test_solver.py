import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import pucci_lab
from pucci_lab import (
    BlowupError,
    ConfigurationError,
    Ellipticity,
    GridField,
    GridSpec,
    InputError,
    OperatorPair,
    SchemeSpec,
    SolveConfig,
    epsilon_sweep,
    lipschitz_seminorm,
    make_fixture,
    make_grid,
    residual_interior,
    residuals_to_csv,
    solve_dirichlet,
    solve_segregation,
)
from pucci_lab import solver
from pucci_lab.solver import _newton_direction, _PoissonPreconditioner

PAIR = OperatorPair.pucci(Ellipticity(1.0, 2.0))


def test_config_validation():
    SolveConfig()
    with pytest.raises(ConfigurationError):
        SolveConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        SolveConfig(cfl=0.0)
    with pytest.raises(ConfigurationError):
        SolveConfig(cfl=1.5)
    with pytest.raises(ConfigurationError):
        SolveConfig(max_iter=0)
    with pytest.raises(ConfigurationError):
        SolveConfig(eps=-0.1)
    assert SolveConfig().with_eps(0.05).eps == 0.05


def test_lipschitz_seminorm_of_plane():
    g = GridSpec(17)
    X, Y = g.node_coords()
    fld = GridField(g, 3.0 * X + 4.0 * Y)
    # diagonal quotient |3 + 4| / sqrt(2) dominates the axis quotients
    assert lipschitz_seminorm(fld) == pytest.approx(7.0 / np.sqrt(2.0), rel=1e-12)


def test_harmonic_datum_is_discrete_exact():
    g = GridSpec(33)
    X, Y = g.node_coords()
    datum = make_grid(g, lambda x, y: x * x - y * y)
    res = solve_dirichlet(datum, "laplacian", SolveConfig(tol=1e-10))
    assert res.converged
    assert np.abs(res.field.values - (X * X - Y * Y)).max() <= 1e-10


def test_plane_is_exact_for_every_selector():
    g = GridSpec(17)
    X, Y = g.node_coords()
    datum = make_grid(g, lambda x, y: 2 * x - y)
    for op in ("laplacian", "M_minus", "M_plus", "F_minus", "F_plus"):
        res = solve_dirichlet(datum, op, SolveConfig(tol=1e-11), pair=PAIR)
        assert res.converged, op
        assert np.abs(res.field.values - (2 * X - Y)).max() <= 1e-10, op


def test_integer_ellipticity_bounds_solve_as_their_floats():
    # integer bounds once made the Pucci policy weights integer arrays, and
    # every Newton step raised on their in-place update by a float
    g = GridSpec(17)
    datum = make_fixture(g, "sign_change")
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    cfg = SolveConfig(tol=1e-8, eps=0.05)
    assert type(Ellipticity(1, 2).lam) is float and type(Ellipticity(1, 2).Lam) is float
    runs = [[solve_dirichlet(datum, "M_minus", cfg, ell=ell),
             solve_dirichlet(datum, "G_eps", cfg, pair=OperatorPair.pucci(ell)),
             solve_segregation(f1, f2, cfg, ell=ell)]
            for ell in (Ellipticity(1, 2), Ellipticity(1.0, 2.0))]
    for ints, floats in zip(*runs):
        assert ints.converged
        assert ints.residual_history.tolist() == floats.residual_history.tolist()
        assert ints.telemetry == floats.telemetry
        pairs = zip(ints.field, floats.field) if isinstance(ints.field, tuple) else \
            [(ints.field, floats.field)]
        for a, b in pairs:
            assert np.array_equal(a.values, b.values)


def test_boundary_ring_held_exactly():
    g = GridSpec(17)
    datum = make_fixture(g, "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=1e-8, eps=0.05), pair=PAIR)
    ring = g.boundary_ring()
    assert np.array_equal(res.field.values[ring], datum.values[ring])


def test_frozen_nodes_held_exactly():
    g = GridSpec(33)
    X, Y = g.node_coords()
    datum = GridField(g, X + Y)
    frozen = np.hypot(X - 0.5, Y - 0.5) < 0.1
    res = solve_dirichlet(datum, "laplacian", SolveConfig(tol=1e-9), frozen=frozen)
    assert res.converged
    assert np.array_equal(res.field.values[frozen], datum.values[frozen])


def _captured_preconditioner(monkeypatch, pre, held):
    """The preconditioner that ``_newton_direction`` hands to BiCGSTAB for
    the ``held`` mask, captured by standing in for ``_bicgstab``."""
    seen = []

    def capture(jac, psolve, b, rtol):
        seen.append(psolve)
        return np.zeros_like(b), 0

    monkeypatch.setattr(solver, "_bicgstab", capture)
    _newton_direction(None, np.zeros(held.shape), pre, held, solver.KRYLOV_RTOL)
    return seen[0]


def test_frozen_nodes_pass_through_the_preconditioner(monkeypatch):
    # identity rows on a frozen disc: the Newton step's preconditioner returns
    # r there, and elsewhere the plain sine-transform inverse of (lam + Lam)/2
    # times the 5-point Laplacian applied to r with its frozen entries zeroed
    g = GridSpec(33)
    X, Y = g.node_coords()
    frozen = (np.hypot(X - 0.4, Y - 0.55) < 0.15)[1:-1, 1:-1]
    scale = 1.5
    pre = _PoissonPreconditioner(31, g.h, scale)
    psolve = _captured_preconditioner(monkeypatch, pre, frozen)
    r = np.random.default_rng(7).standard_normal((31, 31))
    x = psolve(r)
    assert frozen.sum() > 50
    assert np.array_equal(x[frozen], r[frozen])
    src = np.where(frozen, 0.0, r)
    plain = pre.apply(src)
    assert np.array_equal(x[~frozen], plain[~frozen])
    pad = np.zeros((33, 33))
    pad[1:-1, 1:-1] = plain
    lap = (pad[2:, 1:-1] + pad[:-2, 1:-1] + pad[1:-1, 2:] + pad[1:-1, :-2]
           - 4.0 * pad[1:-1, 1:-1]) / g.h ** 2
    assert np.abs(scale * lap - src).max() <= 1e-10 * np.abs(r).max()


def test_held_rows_of_a_stack_pass_through_the_preconditioner(monkeypatch):
    # the segregation layout: a (2, n, n) stack with a different held set per
    # species; each block is inverted on its own
    n, h = 31, 1.0 / 32
    rng = np.random.default_rng(11)
    held = rng.random((2, n, n)) < 0.3
    pre = _PoissonPreconditioner(n, h, -1.5)
    psolve = _captured_preconditioner(monkeypatch, pre, held)
    r = rng.standard_normal((2, n, n))
    x = psolve(r)
    assert np.array_equal(x[held], r[held])
    plain = pre.apply(np.where(held, 0.0, r))
    assert np.array_equal(x[~held], plain[~held])
    for i in (0, 1):
        assert np.array_equal(plain[i], pre.apply(np.where(held[i], 0.0, r[i])))


@pytest.mark.parametrize("n", [3, 30, 31, 63, 127])
def test_sine_basis_inverts_the_laplacian(n):
    # 30 is not of the form 2^k - 1; scipy's fast sine transforms are the
    # oracle only, the package itself does not import scipy
    from scipy.fft import dstn, idstn

    h = 1.0 / (n + 1)
    rng = np.random.default_rng(n)
    for scale in (1.5, -0.75):
        pre = _PoissonPreconditioner(n, h, scale)
        q = pre.q
        assert np.array_equal(q, q.T)
        assert np.abs(q @ q - np.eye(n)).max() <= 1e-14
        r = rng.standard_normal((n, n))
        x = pre.apply(r)
        pad = np.zeros((n + 2, n + 2))
        pad[1:-1, 1:-1] = x
        lap = (pad[2:, 1:-1] + pad[:-2, 1:-1] + pad[1:-1, 2:] + pad[1:-1, :-2]
               - 4.0 * pad[1:-1, 1:-1]) / h ** 2
        assert np.abs(scale * lap - r).max() <= 1e-11 * np.abs(r).max()
        ref = idstn(dstn(r, type=1) / pre.eig, type=1)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


def test_solvers_run_without_scipy():
    # a fresh interpreter, so that no import made by another test can hide one
    src = os.path.dirname(os.path.dirname(os.path.abspath(pucci_lab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import pucci_lab, pucci_lab.cli
        from pucci_lab import (Ellipticity, GridSpec, OperatorPair, SolveConfig,
                               make_fixture, solve_dirichlet, solve_segregation)
        g = GridSpec(17)
        cfg = SolveConfig(tol=1e-8, eps=0.05)
        ell = Ellipticity(1.0, 2.0)
        datum = make_fixture(g, "sign_change")
        X, Y = g.node_coords()
        frozen = np.hypot(X - 0.5, Y - 0.5) < 0.2
        f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
        runs = [solve_dirichlet(datum, "G_eps", cfg, pair=OperatorPair.pucci(ell)),
                solve_dirichlet(datum, "M_minus", cfg, ell=ell, frozen=frozen),
                solve_segregation(f1, f2, cfg, ell=ell)]
        assert all(r.converged for r in runs)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def _five_point_laplacian(u, h):
    return (u[..., 2:, 1:-1] + u[..., :-2, 1:-1] + u[..., 1:-1, 2:] + u[..., 1:-1, :-2]
            - 4.0 * u[..., 1:-1, 1:-1]) / h**2


@pytest.mark.parametrize("fixture", ["sign_change", "radial_pucci"])
def test_cold_start_is_the_harmonic_extension(fixture):
    # with max_iter = 1 a solve returns its start: the 5-point Laplacian of
    # the start vanishes off the held nodes to BiCGSTAB's tolerance, far
    # below that of the ring-mean fill it replaces
    g = GridSpec(33)
    datum = make_fixture(g, fixture)
    cfg = SolveConfig(max_iter=1, eps=0.05)
    if fixture == "sign_change":
        frozen = np.zeros((33, 33), dtype=bool)
        res = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR)
    else:
        X, Y = g.node_coords()
        frozen = np.hypot(X - 0.5, Y - 0.5) < 0.2
        res = solve_dirichlet(datum, "M_minus", cfg, ell=Ellipticity(1.0, 2.0), frozen=frozen)
    assert res.iterations == 1 and res.telemetry["stop_reason"] == "budget"
    assert res.telemetry["krylov_iterations"] == (1 if fixture == "sign_change" else 4)
    held = frozen | datum.boundary_mask
    free = ~held[1:-1, 1:-1]
    u = res.field.values
    assert np.array_equal(u[held], datum.values[held])
    assert datum.values[held].min() <= u.min() and u.max() <= datum.values[held].max()
    fill = np.where(held, datum.values, datum.values[datum.boundary_mask].mean())
    ring_mean = _five_point_laplacian(fill, g.h)[free]
    lap = np.abs(_five_point_laplacian(u, g.h)[free]).max()
    assert lap <= solver.KRYLOV_RTOL * np.linalg.norm(ring_mean)
    assert lap <= 1e-6 * np.abs(ring_mean).max()


@pytest.mark.parametrize("angle,amplitude", [(21.5, 0.0018), (23.5, 0.0022)])
def test_cold_starts_take_few_newton_iterates(angle, amplitude):
    # the cold solves of the benchmark's scalar workload, from the harmonic
    # start: 5 iterates each (4 with every Krylov solve at KRYLOV_RTOL, 8 and
    # 6 from the ring-mean fill)
    datum = make_fixture(GridSpec(65), "sign_change", angle=angle, amplitude=amplitude)
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=1e-8, cfl=1.0, eps=0.2), pair=PAIR)
    assert res.telemetry["stop_reason"] == "tol" and res.iterations <= 5
    g = GridSpec(33)
    annulus = make_fixture(g, "radial_pucci")
    X, Y = g.node_coords()
    core = np.hypot(X - 0.5, Y - 0.5) < 0.2
    res = solve_dirichlet(annulus, "M_minus", SolveConfig(tol=1e-8, cfl=1.0),
                          ell=Ellipticity(1.0, 2.0), frozen=core)
    assert res.telemetry["stop_reason"] == "tol" and res.iterations <= 5


def test_warm_restart_is_immediate():
    g = GridSpec(33)
    datum = make_fixture(g, "sign_change")
    cfg = SolveConfig(tol=1e-8, eps=0.05)
    first = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR)
    again = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR, initial=first.field)
    assert again.iterations == 1


def test_budget_exhaustion_returns_best_iterate():
    # Newton reaches 1e-12 here in 5 iterates; a budget of 2 runs out first
    g = GridSpec(33)
    datum = make_fixture(g, "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=1e-12, max_iter=2, eps=0.05),
                          pair=PAIR)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.residual_history) == 2
    assert res.final_residual == res.residual_history.min()
    assert res.telemetry["stop_reason"] == "budget"


def test_residual_history_eventually_monotone():
    # Newton: every accepted step lowers the sup residual, so the whole history falls
    g = GridSpec(33)
    datum = make_fixture(g, "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=1e-8, eps=0.05), pair=PAIR)
    h = res.residual_history
    assert res.converged and res.telemetry["stop_reason"] == "tol"
    assert 2 <= len(h) <= 12
    assert np.all(h[1:] < h[:-1])
    assert res.final_residual == h[-1] == h.min()
    assert res.telemetry["krylov_iterations"] > 0
    assert res.telemetry["krylov_capped"] == 0


@pytest.mark.parametrize("k", [4, 8])
def test_frozen_core_annulus_converges_in_few_newton_steps(k):
    # the wide stencils on the radial_pucci annulus with its core held: the
    # preconditioner passes the held nodes through, and Newton still needs
    # few steps
    g = GridSpec(33)
    datum = make_fixture(g, "radial_pucci")
    X, Y = g.node_coords()
    core = np.hypot(X - 0.5, Y - 0.5) < 0.2
    res = solve_dirichlet(datum, "M_minus", SolveConfig(tol=1e-8, scheme=SchemeSpec("wide", k)),
                          ell=Ellipticity(1.0, 2.0), frozen=core)
    assert res.converged
    assert res.iterations - 1 <= 12
    assert np.array_equal(res.field.values[core], datum.values[core])


def test_frozen_core_annulus_converges_at_second_order():
    # central M- on the radial_pucci annulus with its core r < 0.2 held: the
    # sup error against the closed form on the free nodes falls about 4x per
    # halving of h (2.83e-3, 5.16e-4, 1.23e-4 measured)
    errs = []
    for nx in (33, 65, 129):
        g = GridSpec(nx)
        datum = make_fixture(g, "radial_pucci")
        X, Y = g.node_coords()
        core = np.hypot(X - 0.5, Y - 0.5) < 0.2
        res = solve_dirichlet(datum, "M_minus", SolveConfig(tol=1e-8),
                              ell=Ellipticity(1.0, 2.0), frozen=core)
        assert res.converged and res.iterations <= 12
        free = ~(core | datum.boundary_mask)
        errs.append(np.abs(res.field.values - datum.values)[free].max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] >= 3.5


def test_stall_returns_best_iterate():
    # a tolerance below the roundoff of the residual cannot be met: the
    # backtracking finds no step that lowers it, and the solve says so
    g = GridSpec(17)
    datum = make_fixture(g, "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=1e-300, eps=0.05), pair=PAIR)
    assert not res.converged
    assert res.telemetry["stop_reason"] == "stall"
    assert res.iterations < 50
    assert res.final_residual == res.residual_history.min()


def test_nonfinite_initial_raises_blowup_with_location():
    g = GridSpec(17)
    datum = make_grid(g, lambda x, y: x)
    bad = datum.values.copy()
    bad[8, 8] = np.nan
    with pytest.raises(BlowupError) as exc:
        solve_dirichlet(datum, "laplacian", SolveConfig(), initial=GridField(g, bad))
    assert exc.value.node is not None
    assert exc.value.coords is not None


def test_segregation_nonfinite_initial_raises_blowup_with_location():
    g = GridSpec(17)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    bad = f2.values.copy()
    bad[8, 5] = np.nan
    with pytest.raises(BlowupError) as exc:
        solve_segregation(f1, f2, SolveConfig(eps=0.1), initial=(f1, GridField(g, bad)))
    assert exc.value.node == (8, 5)


def test_nonfinite_boundary_rejected():
    g = GridSpec(17)
    vals = np.zeros((17, 17))
    vals[0, 3] = np.inf
    with pytest.raises(InputError):
        solve_dirichlet(GridField(g, vals), "laplacian", SolveConfig())


def test_initial_guess_grid_mismatch():
    datum = make_grid(GridSpec(17), lambda x, y: x)
    other = GridField(GridSpec(33), np.zeros((33, 33)))
    with pytest.raises(InputError):
        solve_dirichlet(datum, "laplacian", SolveConfig(), initial=other)


def test_segregation_zero_species_decouples():
    g = GridSpec(33)
    f1 = make_grid(g, lambda x, y: x)
    f2 = make_grid(g, lambda x, y: 0.0 * x)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-9, eps=0.1))
    assert res.converged
    u1, u2 = res.field
    X, _ = g.node_coords()
    assert u2.values.max() == 0.0
    assert np.abs(u1.values - X).max() <= 1e-8
    assert res.telemetry["overlap_sup"] == 0.0


def test_segregation_mirror_symmetry():
    g = GridSpec(33)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, eps=0.05))
    assert res.converged
    u1, u2 = res.field
    assert np.abs(u1.values - u2.values[::-1, :]).max() <= 1e-12
    assert np.all(u1.values >= 0.0) and np.all(u2.values >= 0.0)


def test_segregation_overlap_shrinks_with_eps():
    g = GridSpec(33)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    coarse = solve_segregation(f1, f2, SolveConfig(tol=1e-8, eps=0.05))
    fine = solve_segregation(f1, f2, SolveConfig(tol=1e-8, eps=0.025),
                             initial=coarse.field)
    assert fine.telemetry["overlap_sup"] < coarse.telemetry["overlap_sup"]


def test_segregation_validation():
    g = GridSpec(17)
    pos = make_grid(g, lambda x, y: np.ones_like(x))
    neg = make_grid(g, lambda x, y: -np.ones_like(x))
    zero = make_grid(g, lambda x, y: 0.0 * x)
    with pytest.raises(InputError):
        solve_segregation(pos, pos, SolveConfig(eps=0.1))  # overlapping supports
    with pytest.raises(InputError):
        solve_segregation(neg, zero, SolveConfig(eps=0.1))  # negative datum
    with pytest.raises(ConfigurationError):
        solve_segregation(pos, zero, SolveConfig())  # missing eps
    with pytest.raises(InputError):
        solve_segregation(pos, make_grid(GridSpec(33), lambda x, y: 0.0 * x),
                          SolveConfig(eps=0.1))


SEG_ELL = Ellipticity(1.0, 2.0)
COARSE_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)


def _complementarity(res, f1, f2, eps):
    """The pair is >= 0 everywhere and keeps its ring data exactly; returns
    sup |min(u_i, -M-(u_i) + u1 u2 / eps)| over both species, with M- from
    the closed-form eigenvalues of the central 9-point Hessian."""
    (u1, u2), h = (f.values for f in res.field), f1.spec.h
    ring = f1.boundary_mask
    coup = u1[1:-1, 1:-1] * u2[1:-1, 1:-1] / eps
    worst = 0.0
    for u, f in ((u1, f1), (u2, f2)):
        assert u.min() >= 0.0
        assert np.array_equal(u[ring], f.values[ring])
        c = u[1:-1, 1:-1]
        uxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / h**2
        uyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / h**2
        uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * h**2)
        rad = np.sqrt(0.25 * (uxx - uyy) ** 2 + uxy**2)
        e = np.stack([0.5 * (uxx + uyy) - rad, 0.5 * (uxx + uyy) + rad])
        m_minus = SEG_ELL.lam * np.maximum(e, 0.0).sum(0) + SEG_ELL.Lam * np.minimum(e, 0.0).sum(0)
        worst = max(worst, float(np.abs(np.minimum(c, coup - m_minus)).max()))
    return worst


def test_segregation_stiff_cold_start_converges():
    # the explicit march froze at 8.06e-3 here: its step ignored u_j / eps
    f1, f2 = make_fixture(GridSpec(33), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=0.002), ell=SEG_ELL)
    assert res.converged and res.telemetry["stop_reason"] == "tol"
    assert _complementarity(res, f1, f2, 0.002) <= 2e-8


def test_segregation_coarse_ladder_converges_to_the_stiff_rung():
    f1, f2 = make_fixture(GridSpec(33), "edge_bumps", amplitude=60.0)
    fields, overlaps = None, []
    for eps in COARSE_LADDER:
        res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=eps), ell=SEG_ELL,
                                initial=fields)
        # the exact Jacobian converges quadratically: 4 full steps measured
        assert res.converged and res.iterations <= 6
        assert _complementarity(res, f1, f2, eps) <= 2e-8
        fields = res.field
        overlaps.append(res.telemetry["overlap_sup"])
    rates = np.diff(np.log(overlaps)) / np.diff(np.log(COARSE_LADDER))
    assert np.all(np.diff(rates) > 0.0) and rates.max() <= 2.0 / 3.0


def test_segregation_calls_each_kernel_once_on_the_stack(monkeypatch):
    shapes = []

    def spy(name):
        kernel = getattr(solver, name)

        def call(u, *args, **kwargs):
            shapes.append((name, u.shape))
            return kernel(u, *args, **kwargs)

        monkeypatch.setattr(solver, name, call)

    spy("residual_interior")
    spy("linearize")
    f1, f2 = make_fixture(GridSpec(17), "edge_bumps", amplitude=60.0)
    cold = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=0.2), ell=SEG_ELL)
    warm = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=0.1), ell=SEG_ELL,
                             initial=cold.field)
    assert cold.iterations >= 2 and warm.iterations >= 2
    assert {name for name, _ in shapes} == {"residual_interior", "linearize"}
    assert {shape for _, shape in shapes} == {(2, 17, 17)}


def test_segregation_budget_returns_its_start():
    f1, f2 = make_fixture(GridSpec(33), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, eps=0.002, max_iter=1), ell=SEG_ELL)
    assert not res.converged and res.telemetry["stop_reason"] == "budget"
    assert res.iterations == 1 and res.final_residual == res.residual_history[0]
    _complementarity(res, f1, f2, 0.002)


def test_segregation_cold_start_is_the_harmonic_extension():
    # both species at once, on one (2, n, n) stack with no held rows: one
    # BiCGSTAB iteration, then the clamp at 0
    g = GridSpec(33)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(max_iter=1, eps=0.002), ell=SEG_ELL)
    assert res.iterations == 1 and res.telemetry["krylov_iterations"] == 1
    for u, f in zip(res.field, (f1, f2)):
        ring = f.boundary_mask
        assert np.array_equal(u.values[ring], f.values[ring])
        assert u.values.min() >= 0.0 and u.values.max() <= f.values[ring].max()
        lap = _five_point_laplacian(u.values, g.h)
        assert np.abs(lap).max() <= 1e-12 * np.abs(f.values).max() / g.h**2


def test_segregation_stall_is_reported():
    # a tolerance below the roundoff of Phi cannot be met: the solve reaches
    # roundoff, then the backtracking finds no step that lowers it
    f1, f2 = make_fixture(GridSpec(17), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-300, cfl=1.0, eps=1e-3), ell=SEG_ELL)
    assert not res.converged and res.telemetry["stop_reason"] == "stall"
    assert np.all(np.diff(res.residual_history) < 0.0)
    assert res.final_residual == res.residual_history[-1] <= 1e-10
    _complementarity(res, f1, f2, 1e-3)


def _krylov_solves(monkeypatch):
    """The (relative tolerance, iteration count) of every BiCGSTAB solve,
    in order, recorded by a spy standing in for ``_bicgstab``."""
    solves = []
    bicgstab = solver._bicgstab

    def spy(jac, psolve, b, rtol):
        x, k = bicgstab(jac, psolve, b, rtol)
        solves.append((rtol, k))
        return x, k

    monkeypatch.setattr(solver, "_bicgstab", spy)
    return solves


def test_segregation_counts_capped_krylov_solves(monkeypatch):
    # every BiCGSTAB solve is counted, the cold start's harmonic extension
    # included, and each Newton step whose solve ends at the cap; a cap of
    # 10 makes most do so
    monkeypatch.setattr(solver, "KRYLOV_MAX_ITER", 10)
    solves = _krylov_solves(monkeypatch)
    f1, f2 = make_fixture(GridSpec(17), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=1e-3), ell=SEG_ELL)
    counts = [k for _, k in solves]
    assert res.telemetry["krylov_capped"] >= 1
    assert res.telemetry["krylov_capped"] == counts.count(10)
    assert res.telemetry["krylov_iterations"] == sum(counts)


def test_segregation_cold_start_converges_at_small_eps():
    # active rows held as identity rows: this cold start stalled on its first
    # step while they went through the Poisson inverse (BiCGSTAB at its cap)
    f1, f2 = make_fixture(GridSpec(33), "edge_bumps", amplitude=1.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=1e-5), ell=SEG_ELL)
    assert res.converged and res.telemetry["stop_reason"] == "tol"
    assert res.telemetry["krylov_capped"] == 0
    assert _complementarity(res, f1, f2, 1e-5) <= 2e-8


def _march_step(u, h, eps, tau):
    """One explicit clamped step v_i <- max(v_i - tau G_i, 0) of the pair u,
    in place; returns its increment sup |change| / tau."""
    v = [w[1:-1, 1:-1] for w in u]
    gap = [v[0] * v[1] / eps - residual_interior(w, h, "M_minus", SchemeSpec(), ell=SEG_ELL)
           for w in u]
    new = [np.maximum(vi - tau * gi, 0.0) for vi, gi in zip(v, gap)]
    inc = max(float(np.abs(a - b).max()) for a, b in zip(new, v)) / tau
    for vi, ni in zip(v, new):
        vi[:] = ni
    return inc


def test_segregation_residual_is_the_march_increment():
    g = GridSpec(17)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    eps, tau = 0.05, g.h**2 / (4.0 * SEG_ELL.Lam)
    res = solve_segregation(f1, f2, SolveConfig(tol=1e-8, cfl=1.0, eps=eps, max_iter=2),
                            ell=SEG_ELL)
    inc = _march_step([f.values.copy() for f in res.field], g.h, eps, tau)
    assert res.final_residual > 1e-3
    assert abs(inc - res.final_residual) <= 1e-9 * res.final_residual


def test_segregation_solves_the_clamped_march_fixed_point():
    g = GridSpec(17)
    f1, f2 = make_fixture(g, "edge_bumps", amplitude=5.0)
    eps, tol = 0.05, 1e-10
    res = solve_segregation(f1, f2, SolveConfig(tol=tol, cfl=1.0, eps=eps), ell=SEG_ELL)
    assert res.converged
    u = [f1.values.copy(), f2.values.copy()]
    tau = g.h**2 / (4.0 * SEG_ELL.Lam)
    for _ in range(20_000):
        if _march_step(u, g.h, eps, tau) <= tol:
            break
    else:
        raise AssertionError("the march did not converge")
    for w, f in zip(u, res.field):
        assert np.abs(w - f.values).max() <= 1e-9


def test_sweep_warm_start_path_independent():
    g = GridSpec(33)
    datum = make_fixture(g, "sign_change")
    cfg = SolveConfig(tol=1e-9)
    short = epsilon_sweep(datum, (0.1, 0.05), cfg, PAIR)
    long = epsilon_sweep(datum, (0.2, 0.1, 0.05), cfg, PAIR)
    assert short.all_converged and long.all_converged
    gap = np.abs(short.limit.values - long.limit.values).max()
    assert gap <= 2 * cfg.tol
    assert len(long.gaps) == 2
    assert len(long.entries) == 3
    assert long.limit is long.fields[-1]


def test_forcing_term_stays_in_its_band():
    # eta_k = min(0.5, max(KRYLOV_RTOL, psi_k, 0.5 tol / |F_k|)), psi_k
    # Eisenstat-Walker choice 2 (0.1, then min(0.1, 0.9 (|F_k| / |F_k-1|)^2))
    # for a scalar solve and KRYLOV_RTOL for segregation
    floor, tol = solver.KRYLOV_RTOL, 1e-8
    rng = np.random.default_rng(5)
    for _ in range(200):
        history = list(10.0 ** rng.uniform(-12.0, 2.0, size=rng.integers(1, 6)))
        for adaptive in (True, False):
            assert floor <= solver._forcing(history, tol, adaptive) <= 0.5
    assert solver._forcing([1.0], tol, True) == 0.1
    assert solver._forcing([1.0, 0.5], tol, True) == 0.1
    assert solver._forcing([1.0, 1e-2], tol, True) == pytest.approx(0.9e-4, rel=1e-12)
    assert solver._forcing([1.0, 1e-4], 1e-12, True) == floor
    assert solver._forcing([1.0], tol, False) == floor
    # the tol floor: the step from |F_k| = 4e-8 need only gain a factor 4
    assert solver._forcing([1.0, 1e-5, 4e-8], tol, True) == 0.125
    assert solver._forcing([1e-5, 4e-8], tol, False) == 0.125
    assert solver._forcing([1e-9], tol, False) == 0.5


def test_each_krylov_solve_runs_at_its_forcing_term(monkeypatch):
    # a cold start's harmonic extension runs at KRYLOV_RTOL, each scalar
    # Newton step at its Eisenstat-Walker term, each segregation step at
    # KRYLOV_RTOL or, near tol, at the tol floor
    floor, tol = solver.KRYLOV_RTOL, 1e-8
    solves = _krylov_solves(monkeypatch)
    datum = make_fixture(GridSpec(33), "sign_change")
    res = solve_dirichlet(datum, "G_eps", SolveConfig(tol=tol, eps=0.05), pair=PAIR)
    seen = [rtol for rtol, _ in solves]
    hist = res.residual_history
    psi = [0.1] + [min(0.1, 0.9 * (b / a) ** 2) for a, b in zip(hist, hist[1:])]
    assert res.converged and seen[0] == floor
    assert seen[1:] == [min(0.5, max(floor, p, 0.5 * tol / r)) for p, r in zip(psi, hist[:-1])]
    assert seen[1] == 0.1
    solves.clear()
    f1, f2 = make_fixture(GridSpec(17), "edge_bumps", amplitude=60.0)
    res = solve_segregation(f1, f2, SolveConfig(tol=tol, cfl=1.0, eps=1e-3), ell=SEG_ELL)
    seen = [rtol for rtol, _ in solves]
    hist = res.residual_history
    assert res.converged and seen[0] == floor
    assert seen[1:] == [max(floor, 0.5 * tol / r) for r in hist[:-1]]
    assert seen[1] == floor and seen[-1] > floor


def test_forcing_term_saves_krylov_iterations_on_the_warm_sweep(monkeypatch):
    # control: with every step pinned at KRYLOV_RTOL the benchmark's nx = 65
    # sweep spends 61 BiCGSTAB iterations, against 26 under the forcing term,
    # for the same fields
    datum = make_fixture(GridSpec(65), "sign_change")
    cfg, ladder = SolveConfig(tol=1e-8, cfl=1.0), (0.2, 0.1, 0.05, 0.025)
    forced = epsilon_sweep(datum, ladder, cfg, PAIR)
    monkeypatch.setattr(solver, "_forcing", lambda *args: solver.KRYLOV_RTOL)
    pinned = epsilon_sweep(datum, ladder, cfg, PAIR)
    assert forced.all_converged and pinned.all_converged
    krylov = [sum(e.krylov_iterations for e in s.entries) for s in (forced, pinned)]
    assert krylov[1] >= 1.5 * krylov[0]
    for a, b in zip(forced.fields, pinned.fields):
        assert np.abs(a.values - b.values).max() <= 1e-10


def test_sweep_rejects_bad_ladders():
    g = GridSpec(17)
    datum = make_fixture(g, "sign_change")
    cfg = SolveConfig(tol=1e-6)
    with pytest.raises(ConfigurationError):
        epsilon_sweep(datum, (), cfg, PAIR)
    with pytest.raises(ConfigurationError):
        epsilon_sweep(datum, (0.05, 0.1), cfg, PAIR)
    with pytest.raises(ConfigurationError):
        epsilon_sweep(datum, (0.1, -0.05), cfg, PAIR)


def test_residuals_csv_round_trip(tmp_path):
    hist = np.array([1.0, 0.5, 0.25])
    path = tmp_path / "residuals.csv"
    residuals_to_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], [0, 1, 2])
    assert np.array_equal(back[:, 1], hist)
