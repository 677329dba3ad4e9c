import numpy as np
import pytest

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
    residuals_to_csv,
    solve_dirichlet,
    solve_segregation,
)
from pucci_lab.solver import _PoissonPreconditioner

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


def test_capacitance_preconditioner_solves_the_held_poisson_problem():
    # identity rows on a frozen disc, (lam + Lam)/2 times the 5-point
    # Laplacian on the free nodes
    g = GridSpec(33)
    X, Y = g.node_coords()
    frozen = (np.hypot(X - 0.4, Y - 0.55) < 0.15)[1:-1, 1:-1]
    scale = 1.5
    pre = _PoissonPreconditioner(31, g.h, scale, frozen)
    r = np.random.default_rng(7).standard_normal((31, 31))
    x = pre.apply(r)
    assert frozen.sum() > 50
    assert np.array_equal(x[frozen], r[frozen])
    pad = np.zeros((33, 33))
    pad[1:-1, 1:-1] = x
    lap = (pad[2:, 1:-1] + pad[:-2, 1:-1] + pad[1:-1, 2:] + pad[1:-1, :-2]
           - 4.0 * x) / g.h ** 2
    assert np.abs(scale * lap - r)[~frozen].max() <= 1e-10 * np.abs(r).max()


def test_warm_restart_is_immediate():
    g = GridSpec(33)
    datum = make_fixture(g, "sign_change")
    cfg = SolveConfig(tol=1e-8, eps=0.05)
    first = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR)
    again = solve_dirichlet(datum, "G_eps", cfg, pair=PAIR, initial=first.field)
    assert again.iterations == 1


def test_budget_exhaustion_returns_best_iterate():
    # Newton reaches 1e-12 here in 8 iterates; a budget of 2 runs out first
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


@pytest.mark.parametrize("k", [4, 8])
def test_frozen_core_annulus_converges_in_few_newton_steps(k):
    # the wide stencils on the radial_pucci annulus with its core held: the
    # capacitance-corrected preconditioner keeps every Newton step cheap
    g = GridSpec(33)
    datum = make_fixture(g, "radial_pucci")
    X, Y = g.node_coords()
    core = np.hypot(X - 0.5, Y - 0.5) < 0.2
    res = solve_dirichlet(datum, "M_minus", SolveConfig(tol=1e-8, scheme=SchemeSpec("wide", k)),
                          ell=Ellipticity(1.0, 2.0), frozen=core)
    assert res.converged
    assert res.iterations - 1 <= 12
    assert np.array_equal(res.field.values[core], datum.values[core])


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
