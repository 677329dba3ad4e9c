import hashlib
import inspect
import json
import math
import os

import numpy as np
import pytest

from pucci_lab import (
    ConeSpec,
    FIXTURES,
    ConfigurationError,
    Ellipticity,
    GridField,
    GridSpec,
    MatrixFamily,
    OperatorPair,
    ParseError,
    SchemeSpec,
    SolveConfig,
    barriers,
    cli,
    field_from_csv,
    field_to_csv,
    lipschitz_seminorm,
    make_fixture,
    solver,
)


def make_config(**kv):
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest")) as fh:
        return json.load(fh)


def test_parse_defaults_and_echo():
    cfg = cli.parse_config("command = solve\ngrid.nx = 65\nell.lambda = 1\nell.Lambda = 2\n")
    assert cfg["command"] == "solve"
    assert cfg["op"] == "G_eps"
    assert cfg["tol"] == 1e-8
    assert cfg["eps_list"] == (0.2, 0.1, 0.05, 0.025)
    lines = cfg.echo_lines()
    assert lines == sorted(lines)
    assert "eps_list = 0.2,0.1,0.05,0.025" in lines


def test_echo_keeps_every_digit_of_a_list(tmp_path):
    def config_hash(text):
        return cli._Manifest(cli.parse_config(text), str(tmp_path)).data["config_hash"]

    assert (config_hash("command = solve\nradii = 0.1000001,0.2\n")
            != config_hash("command = solve\nradii = 0.1,0.2\n"))
    assert "grid.origin = 0.0,0.0" in cli.parse_config("command = solve\n").echo_lines()


@pytest.mark.parametrize("text", [
    "command = diagnose\nradii = 0.1000001,0.2\nx0 = 0.30000000000000004,0.5\n",
    "command = segregate\nfixture = edge_bumps\nfixture.amplitude = 1e-07\n",
    "command = sweep\neps_list = 0.2,0.1,0.05,0.012345678901234\ngrid.origin = -0.5,1e-20\n",
])
def test_echo_parses_back_to_the_same_table(text):
    cfg = cli.parse_config(text)
    assert cli.parse_config("\n".join(cfg.echo_lines())).table == cfg.table


def test_parse_comments_and_blank_lines():
    cfg = cli.parse_config("# a run\n\ncommand = verify  # trailing note\n")
    assert cfg["command"] == "verify"


def test_parse_errors_name_key_and_line():
    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = solve\nnsteps = 7\n")
    assert exc.value.line == 2
    assert exc.value.key == "nsteps"
    assert "unknown key" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = solve\ntol = fast\n")
    assert exc.value.key == "tol"

    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = solve\ntol = 1e-9\ntol = 1e-8\n")
    assert "duplicate" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = solve\nell.lambda = 1.5\n")
    assert "ell.lambda" in str(exc.value)

    with pytest.raises(ParseError):
        cli.parse_config("command = nonsense\n")
    with pytest.raises(ParseError):
        cli.parse_config("grid.nx = 65\n")  # command unset
    with pytest.raises(ParseError):
        cli.parse_config("command = solve\njust words\n")


# each key whose rule the library states, its boundary values the library
# accepts, the values just outside its range, and the library object it builds
_LIBRARY_RANGES = [
    ("grid.nx", ("5",), ("4",), lambda v: GridSpec(int(v))),
    ("grid.extent", ("1e-3",), ("0", "-1"), lambda v: GridSpec(5, float(v))),
    ("ell.lambda", ("1",), ("1.001", "0"), lambda v: Ellipticity(float(v), 1.0)),
    ("ell.Lambda", ("1",), ("0.999",), lambda v: Ellipticity(1.0, float(v))),
    ("scheme", ("wide", "central"), ("upwind",), lambda v: SchemeSpec(v, 4)),
    ("scheme.K", ("4", "6"), ("2", "5"), lambda v: SchemeSpec("wide", int(v))),
    ("tol", ("1e-300",), ("0",), lambda v: SolveConfig(tol=float(v))),
    ("max_iter", ("1",), ("0",), lambda v: SolveConfig(max_iter=int(v))),
    ("cfl", ("1",), ("1.5", "0"), lambda v: SolveConfig(cfl=float(v))),
    ("eps", ("1e-300",), ("0",), lambda v: SolveConfig(eps=float(v))),
    ("eps_list", ("0.2",), ("0.1,0.1", "0.1,0"),
     lambda v: solver.eps_ladder(float(e) for e in v.split(","))),
    ("cone.theta", ("89.9",), ("90", "0"), lambda v: ConeSpec.from_degrees(0.0, float(v))),
]


@pytest.mark.parametrize("key, goods, bads, build", _LIBRARY_RANGES,
                         ids=[case[0] for case in _LIBRARY_RANGES])
def test_parse_range_matches_the_library(key, goods, bads, build):
    for good in goods:
        build(good)
        cli.parse_config(f"command = solve\n{key} = {good}\n")
    for bad in bads:
        with pytest.raises(ConfigurationError) as lib:
            build(bad)
        with pytest.raises(ParseError) as exc:
            cli.parse_config(f"command = solve\n{key} = {bad}\n")
        assert (exc.value.key, exc.value.line) == (key, 2)
        assert str(lib.value) in str(exc.value)
        if key == "cone.theta":
            # the rule is stated in the degrees the key is written in
            assert f"got {bad} degrees" in str(exc.value)


@pytest.mark.parametrize("fixture, key, bad", [
    ("radial_pucci", "fixture.r", "0"),
    ("radial_pucci", "fixture.r", "-0.4"),
    ("psi", "fixture.gamma", "-1"),
])
def test_parse_rejects_bad_fixture_values(fixture, key, bad):
    with pytest.raises(ParseError, match=key) as exc:
        cli.parse_config(f"command = solve\nfixture = {fixture}\n{key} = {bad}\n")
    assert exc.value.key == key
    assert exc.value.line == 3


@pytest.mark.parametrize("key, bad", [
    ("grid.nx", "4"),
    ("grid.extent", "0"),
    ("op", "M_middle"),
    ("family.minus", "finite_set"),  # not a family kind
    ("family.r0", "1"),
    ("ell.Lambda", "0.5"),
    ("scheme", "upwind"),
    ("scheme.K", "5"),
    ("eps", "0"),
    ("max_iter", "0"),
    ("eps_list", "0.1,0"),
    ("fixture", "sphere"),
    ("radii", "0.1,-0.2"),
    ("radii", "0.2,0.1"),
    ("radii", "0.1"),
    ("cone.theta", "90"),
    ("rel_tol", "-0.01"),
    ("tol", "nan"),  # not finite
    ("x0", "0.5"),  # a pair with one value
    ("radii", ","),  # an empty list
])
def test_parse_rejects_each_out_of_range_value(key, bad):
    with pytest.raises(ParseError) as exc:
        cli.parse_config(f"command = solve\n{key} = {bad}\n")
    assert (exc.value.key, exc.value.line) == (key, 2)


def test_parse_rejects_nonpositive_edge_bumps_amplitude():
    # sign_change takes any amplitude; edge_bumps needs a positive one
    cli.parse_config("command = solve\nfixture.amplitude = -1\n")
    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = segregate\nfixture.amplitude = 0\nfixture = edge_bumps\n")
    assert (exc.value.key, exc.value.line) == ("fixture.amplitude", 2)


# each range rule a fixture builder states: (fixture, parameter, bad values)
_BUILDER_RULES = [
    ("two_plane", "alpha", ("0", "-1")),
    ("two_plane", "beta", ("0", "-2")),
    ("split_supports", "dead_band", ("0", "-0.1")),
    ("psi", "c", ("0", "-1")),
    ("psi", "r", ("0",)),
    ("psi", "gamma", ("0",)),
    ("radial_pucci", "r", ("0",)),
    ("edge_bumps", "amplitude", ("0", "-60")),
]


@pytest.mark.parametrize("fixture, param, bads", _BUILDER_RULES,
                         ids=[f"{f}.{p}" for f, p, _ in _BUILDER_RULES])
def test_parse_fixture_rule_is_the_builders(fixture, param, bads):
    command = "segregate" if fixture in barriers.PAIR_FIXTURES else "solve"
    key = f"fixture.{param}"
    for bad in bads:
        with pytest.raises(ConfigurationError) as lib:
            make_fixture(GridSpec(5), fixture, **{param: float(bad)})
        with pytest.raises(ParseError) as exc:
            cli.parse_config(f"command = {command}\nfixture = {fixture}\n{key} = {bad}\n")
        assert (exc.value.key, exc.value.line) == (key, 3)
        assert str(lib.value) in str(exc.value)


def test_parse_leaves_a_key_the_fixture_does_not_read_unchecked(tmp_path):
    # psi reads no alpha: the value configures nothing, so nothing rejects it,
    # and the echo and its hash leave it out
    cfg = cli.parse_config("command = solve\nfixture = psi\nfixture.alpha = -1\n")
    plain = cli.parse_config("command = solve\nfixture = psi\n")
    assert "fixture.alpha" not in cfg.table
    assert "alpha" not in cli._fixture_kwargs(cfg)
    assert cfg.echo_lines() == plain.echo_lines()
    assert (cli._Manifest(cfg, str(tmp_path)).data["config_hash"]
            == cli._Manifest(plain, str(tmp_path)).data["config_hash"])


@pytest.mark.parametrize("name", list(barriers.FIXTURE_BUILDERS))
def test_unset_fixture_keys_take_the_builders_defaults(name):
    command = "segregate" if name in barriers.PAIR_FIXTURES else "solve"
    cfg = cli.parse_config(make_config(command=command, fixture=name,
                                       **{"grid.origin": "1,2", "ell.Lambda": 3}))
    params = inspect.signature(barriers.FIXTURE_BUILDERS[name]).parameters
    want = {p: par.default for p, par in params.items() if par.default is not par.empty}
    supplied = {"center": (1.5, 2.5), "lam": 1.0, "Lam": 3.0}
    want.update({p: v for p, v in supplied.items() if p in want})
    assert cli._fixture_kwargs(cfg) == want


def test_default_echo_lists_only_the_configured_fixtures_keys():
    cfg = cli.parse_config("command = solve\n")
    fixture_lines = [ln for ln in cfg.echo_lines() if ln.startswith("fixture.")]
    assert fixture_lines == ["fixture.amplitude = 0.002", "fixture.angle = 22.5"]
    assert cli.parse_config("\n".join(cfg.echo_lines())).table == cfg.table


def test_parse_checks_the_operator_pair(tmp_path):
    # r0 = 0.5 needs the band to cover [0.5, 1.5]; the default ell (1, 2) does not
    text = "command = solve\ngrid.nx = 17\nfamily.minus = frobenius_ball\nfamily.r0 = 0.5\n"
    with pytest.raises(ParseError) as exc:
        cli.parse_config(text)
    assert (exc.value.key, exc.value.line) == ("family.minus", 3)
    assert "needs lam <= 0.5 and Lam >= 1.5" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        cli.parse_config("command = solve\nfamily.plus = frobenius_ball\nfamily.r0 = 0.9\n"
                         "ell.lambda = 0.5\nell.Lambda = 1.5\n")
    assert (exc.value.key, exc.value.line) == ("family.plus", 2)
    cfg = cli.parse_config(text + "ell.lambda = 0.5\nell.Lambda = 1.5\n")
    assert cli.run(cfg, out_dir=str(tmp_path / "ball"), quiet=True) == 0


def test_parse_eps_list_ordering():
    cfg = cli.parse_config("command = sweep\neps_list = 0.2,0.1,0.05\n")
    assert cfg["eps_list"] == (0.2, 0.1, 0.05)
    with pytest.raises(ParseError):
        cli.parse_config("command = sweep\neps_list = 0.1,0.2\n")


def test_parse_fixture_command_compatibility():
    for text, key, line in (
        ("command = segregate\nfixture = sign_change\n", "fixture", 2),
        ("command = solve\nfixture = split_supports\n", "fixture", 2),
        ("fixture = edge_bumps\ngrid.nx = 33\ncommand = diagnose\n", "fixture", 1),
        # the default fixture (sign_change) is blamed on the command line
        ("grid.nx = 33\ncommand = segregate\n", "command", 2),
        ("grid.nx = 33\n", "command", None),
    ):
        with pytest.raises(ParseError) as exc:
            cli.parse_config(text)
        assert (exc.value.key, exc.value.line) == (key, line)
    cli.parse_config("command = segregate\nfixture = edge_bumps\n")


def test_solve_harmonic_quadratic_exact(tmp_path):
    out = str(tmp_path / "run")
    cfg = cli.parse_config(make_config(
        command="solve", op="laplacian", fixture="harmonic_quadratic",
        **{"grid.nx": 33, "tol": "1e-10"}))
    assert cli.run(cfg, out_dir=out, quiet=True) == 0

    fld = field_from_csv(os.path.join(out, "field.csv"))
    xx, yy = GridSpec(33).node_coords()
    assert np.abs(fld.values - (xx ** 2 - yy ** 2)).max() <= 1e-9

    man = read_manifest(out)
    assert man["verdicts"] == {"converged": "PASS"}
    assert man["telemetry"]["final_residual"] <= 1e-10
    for name in man["outputs"]:
        assert os.path.exists(os.path.join(out, name))
    assert "field.csv" in man["outputs"] and "residuals.csv" in man["outputs"]
    echo = "\n".join(man["config"])
    assert man["config_hash"] == hashlib.sha256(echo.encode()).hexdigest()
    # atomic write leaves no scratch file behind
    assert not os.path.exists(os.path.join(out, "manifest.tmp"))


def test_solve_is_deterministic(tmp_path):
    text = make_config(command="solve", op="laplacian", fixture="harmonic_quadratic",
                       **{"grid.nx": 33, "tol": "1e-10"})
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.run(cli.parse_config(text), out_dir=out, quiet=True) == 0
        outs.append(out)
    f1 = open(os.path.join(outs[0], "field.csv"), "rb").read()
    f2 = open(os.path.join(outs[1], "field.csv"), "rb").read()
    assert f1 == f2
    m1, m2 = read_manifest(outs[0]), read_manifest(outs[1])
    m1.pop("timings")
    m2.pop("timings")
    assert m1 == m2


def test_unconverged_solve_exits_one(tmp_path):
    cfg = cli.parse_config(make_config(
        command="solve", fixture="sign_change", **{"grid.nx": 33, "max_iter": 2}))
    assert cli.run(cfg, out_dir=str(tmp_path / "r"), quiet=True) == 1
    man = read_manifest(str(tmp_path / "r"))
    assert man["verdicts"]["converged"] == "FAIL"
    assert man["telemetry"]["stop_reason"] == "budget"
    assert man["telemetry"]["iterations"] == 2


def test_solve_radial_pucci_at_equal_bounds(tmp_path):
    # lam = Lam makes the fixture's exponent 0, its log-profile case
    out = str(tmp_path / "rp")
    cfg = cli.parse_config(make_config(command="solve", fixture="radial_pucci",
                                       **{"ell.Lambda": 1}))
    assert cli.run(cfg, out_dir=out, quiet=True) == 0
    assert read_manifest(out)["verdicts"] == {"converged": "PASS"}


def test_sweep_manifest_reports_why_each_solve_stopped(tmp_path):
    cfg = cli.parse_config(make_config(
        command="sweep", fixture="sign_change",
        **{"grid.nx": 17, "eps_list": "0.2, 0.1", "tol": "1e-8"}))
    assert cli.run(cfg, out_dir=str(tmp_path / "s"), quiet=True) == 0
    entries = read_manifest(str(tmp_path / "s"))["telemetry"]["entries"]
    assert [e["stop_reason"] for e in entries] == ["tol", "tol"]
    assert all(e["krylov_iterations"] > 0 for e in entries)
    assert [e["krylov_capped"] for e in entries] == [0, 0]


def test_fixtures_are_centred_on_an_offset_grid(tmp_path):
    base = {"grid.nx": 17, "grid.origin": "1,1"}
    cfg = cli.parse_config(make_config(command="solve", fixture="radial_pucci", **base))
    assert cli.run(cfg, out_dir=str(tmp_path / "rp"), quiet=True) == 0
    psi = cli._build_fixture(cli.parse_config(make_config(command="solve", fixture="psi", **base)))
    peak = np.unravel_index(np.argmax(psi.values), psi.values.shape)
    assert peak == (8, 8)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_every_registered_fixture_builds_through_the_cli(name):
    command = "segregate" if name in barriers.PAIR_FIXTURES else "solve"
    cfg = cli.parse_config(make_config(command=command, fixture=name, **{"grid.nx": 17}))
    built = cli._build_fixture(cfg)
    fields = built if name in barriers.PAIR_FIXTURES else (built,)
    assert len(fields) == (2 if name in barriers.PAIR_FIXTURES else 1)
    for fld in fields:
        assert isinstance(fld, GridField) and fld.spec == GridSpec(17)
        assert np.all(np.isfinite(fld.values))


def test_a_builder_in_the_registry_alone_reaches_the_cli(tmp_path, monkeypatch):
    def ramp(gspec, tilt: float = 2.0):
        xx, _ = gspec.node_coords()
        return GridField(gspec, tilt * xx)

    monkeypatch.setitem(barriers.FIXTURE_BUILDERS, "ramp", ramp)
    cfg = cli.parse_config(make_config(command="solve", op="laplacian", fixture="ramp",
                                       **{"grid.nx": 17}))
    xx, _ = GridSpec(17).node_coords()
    assert np.array_equal(cli._build_fixture(cfg).values, 2.0 * xx)
    assert cli.run(cfg, out_dir=str(tmp_path / "ramp"), quiet=True) == 0


def test_segregate_manifest_reports_why_it_stopped(tmp_path):
    base = {"grid.nx": 17, "fixture.amplitude": 60.0, "eps": 0.05}
    cfg = cli.parse_config(make_config(command="segregate", fixture="edge_bumps", **base))
    assert cli.run(cfg, out_dir=str(tmp_path / "ok"), quiet=True) == 0
    tel = read_manifest(str(tmp_path / "ok"))["telemetry"]
    assert tel["stop_reason"] == "tol"
    assert tel["krylov_iterations"] > 0
    assert tel["overlap_sup"] > 0.0

    cfg = cli.parse_config(make_config(command="segregate", fixture="edge_bumps", max_iter=1,
                                       **base))
    assert cli.run(cfg, out_dir=str(tmp_path / "short"), quiet=True) == 1
    man = read_manifest(str(tmp_path / "short"))
    assert man["verdicts"]["converged"] == "FAIL"
    assert man["telemetry"]["stop_reason"] == "budget"
    assert man["telemetry"]["iterations"] == 1


@pytest.fixture(scope="module")
def stored_two_plane(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fields") / "tp.csv")
    field_to_csv(make_fixture(GridSpec(129), "two_plane",
                              alpha=1.0, beta=1.0, angle=20.0), path)
    return path


def test_diagnose_stored_field_all_pass(tmp_path, stored_two_plane):
    text = make_config(command="diagnose", field=stored_two_plane,
                       radii="0.1,0.15,0.2")
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert cli.run(cli.parse_config(text), out_dir=out1, quiet=True) == 0
    verdicts = read_manifest(out1)["verdicts"]
    assert set(verdicts) == {"boundary_consistency", "regular_point", "jr_monotone",
                             "alpha_beta", "cone_monotone"}
    assert all(v == "PASS" for v in verdicts.values())
    for name in ("curve.csv", "jr_series.csv", "diagnostics.csv"):
        assert os.path.exists(os.path.join(out1, name))
    with open(os.path.join(out1, "diagnostics.csv")) as fh:
        rows = {r.split(",")[0]: r.strip().split(",")[1:] for r in fh.readlines()[1:]}
    # the regular-point verdict is judged on the growth exponent, not on M
    assert float(rows["growth_exponent"][0]) == pytest.approx(1.0, abs=0.01)
    assert rows["growth_exponent"][1] == "PASS"
    assert rows["growth_constant_M"][1] == ""

    # re-running on the stored field reproduces the stored verdicts
    assert cli.run(cli.parse_config(text), out_dir=out2, quiet=True) == 0
    d1 = open(os.path.join(out1, "diagnostics.csv"), "rb").read()
    d2 = open(os.path.join(out2, "diagnostics.csv"), "rb").read()
    assert d1 == d2
    assert read_manifest(out2)["verdicts"] == verdicts


def test_diagnose_cone_axis_from_the_config(tmp_path, stored_two_plane):
    # the stored field rises along (cos 20, sin 20): translates along that
    # axis are monotone at every rung, along the reversed axis at none
    verdicts = {}
    for angle in (20.0, 200.0):
        out = str(tmp_path / f"a{angle:g}")
        text = make_config(command="diagnose", field=stored_two_plane, radii="0.1,0.15,0.2",
                           **{"cone.angle": angle})
        cli.run(cli.parse_config(text), out_dir=out, quiet=True)
        verdicts[angle] = read_manifest(out)["verdicts"]["cone_monotone"]
    assert verdicts == {20.0: "PASS", 200.0: "FAIL"}


def test_diagnose_fresh_solve_with_all_defaults_passes(tmp_path):
    # no field: diagnose solves the default datum at nx = 65; its default
    # radii start at fit_two_plane's 8h, and its point grows linearly
    out = str(tmp_path / "d")
    assert cli.run(cli.parse_config("command = diagnose\n"), out_dir=out, quiet=True) == 0
    man = read_manifest(out)
    assert set(man["verdicts"]) == {"boundary_consistency", "regular_point", "jr_monotone",
                                    "alpha_beta", "cone_monotone"}
    assert man["telemetry"]["radii"] == pytest.approx([0.125, 0.15, 0.175, 0.2], abs=1e-15)
    assert man["telemetry"]["growth_exponent"] == pytest.approx(1.0, abs=0.01)
    # where 8h reaches extent / 5 there are no default radii, and the run says so
    coarse = str(tmp_path / "c")
    text = "command = diagnose\ngrid.nx = 33\n"
    assert cli.run(cli.parse_config(text), out_dir=coarse, quiet=True) == 2
    assert "set radii" in read_manifest(coarse)["error"]


def test_diagnose_coincident_field_passes_consistency(tmp_path):
    # exactly coincident phases measure a level-pair gap of 2h (2.000000000000057h
    # here), so the verdict must admit it; a carved 2h dead core measures 4h
    g = GridSpec(257)
    u = make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=20.0)
    shrunk = np.maximum(np.abs(u.values) - g.h * lipschitz_seminorm(u), 0.0)
    cored = GridField(g, np.sign(u.values) * shrunk)
    runs = {}
    for name, fld in (("equal", u), ("cored", cored)):
        path = str(tmp_path / f"{name}.csv")
        field_to_csv(fld, path)
        out = str(tmp_path / name)
        code = cli.run(cli.parse_config(make_config(command="diagnose", field=path)),
                       out_dir=out, quiet=True)
        runs[name] = (code, read_manifest(out)["verdicts"]["boundary_consistency"])
    assert runs["equal"] == (0, "PASS")
    assert runs["cored"] == (1, "FAIL")


def test_diagnose_degenerate_field_exits_one(tmp_path):
    path = str(tmp_path / "pos.csv")
    g = GridSpec(65)
    xx, _ = g.node_coords()
    field_to_csv(GridField(g, xx + 1.0), path)
    out = str(tmp_path / "d")
    cfg = cli.parse_config(make_config(command="diagnose", field=path))
    assert cli.run(cfg, out_dir=out, quiet=True) == 1
    man = read_manifest(out)
    assert all(v == "DEGENERATE" for v in man["verdicts"].values())
    reasons = man["telemetry"]["degenerate"]
    assert set(reasons) == set(man["verdicts"]) and len(reasons) == 5
    assert reasons.pop("boundary_consistency").startswith(
        "ValueError: boundary_consistency is NaN: a phase is missing")
    assert reasons == {
        name: "ValueError: no zero set"
        for name in ("regular_point", "jr_monotone", "alpha_beta", "cone_monotone")}


def test_diagnose_records_why_each_verdict_is_degenerate(tmp_path):
    path = str(tmp_path / "tp.csv")
    field_to_csv(make_fixture(GridSpec(129), "two_plane"), path)
    out = str(tmp_path / "d")
    cfg = cli.parse_config(make_config(command="diagnose", field=path, x0="0.05,0.5"))
    assert cli.run(cfg, out_dir=out, quiet=True) == 1
    man = read_manifest(out)
    reasons = man["telemetry"]["degenerate"]
    assert set(reasons) == {"regular_point", "jr_monotone", "alpha_beta", "cone_monotone"}
    assert all(man["verdicts"][name] == "DEGENERATE" for name in reasons)
    for reason in reasons.values():
        assert "ball of radius" in reason and "(0.05, 0.5)" in reason
    assert reasons["regular_point"].startswith("DomainError: ")


def test_diagnose_x0_outside_the_field_exits_two(tmp_path, stored_two_plane):
    out = str(tmp_path / "d")
    cfg = cli.parse_config(make_config(command="diagnose", field=stored_two_plane,
                                       x0="1.5,0.5"))
    assert cli.run(cfg, out_dir=out, quiet=True) == 2
    error = read_manifest(out)["error"]
    assert error.startswith("ParseError") and "x0 = 1.5,0.5" in error


def test_diagnose_missing_field_exits_two(tmp_path):
    cfg = cli.parse_config(make_config(command="diagnose",
                                       field=str(tmp_path / "nope.csv")))
    out = str(tmp_path / "d")
    assert cli.run(cfg, out_dir=out, quiet=True) == 2
    assert "error" in read_manifest(out)


def test_verify_suites_pass(tmp_path):
    out = str(tmp_path / "v")
    assert cli.run(cli.parse_config("command = verify\n"), out_dir=out, quiet=True) == 0
    verdicts = read_manifest(out)["verdicts"]
    assert verdicts == {"operator_property": "PASS", "barrier_residual": "PASS",
                        "j_r": "PASS", "slope_fit": "PASS"}


def test_verify_operator_suite_fails_on_broken_families(monkeypatch):
    # a Frobenius ball wider than its ellipticity band breaks the chain M- <= F-
    ball = MatrixFamily("frobenius_ball", Ellipticity(0.5, 1.5), r0=0.5)
    object.__setattr__(ball, "r0", 0.9)
    assert cli._verify_operators(np.random.default_rng(1))
    assert not cli._verify_operators(np.random.default_rng(1), [OperatorPair(ball, ball)])
    # a kernel that reads M in the coordinate frame: the Pucci class cut down
    # to diagonal matrices keeps the chain, the homogeneity and the duality
    # but is not rotation closed
    aligned = MatrixFamily("full_pucci", Ellipticity(1.0, 2.0))
    kernel = cli._extremal_side
    monkeypatch.setattr(cli, "_extremal_side", lambda fam, a, b, c, sup: kernel(
        fam, a, 0.0 * b if fam is aligned else b, c, sup))
    assert cli._verify_operators(np.random.default_rng(1))
    assert not cli._verify_operators(np.random.default_rng(1), [OperatorPair(aligned, aligned)])


def test_main_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(make_config(
        command="solve", op="laplacian", fixture="harmonic_quadratic",
        **{"grid.nx": 33, "tol": "1e-10"}))
    out = str(tmp_path / "out")
    assert cli.main(["--config", str(cfg_path), "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert os.path.exists(os.path.join(out, "manifest"))

    # without --quiet the summary names the manifest
    out2 = str(tmp_path / "out2")
    assert cli.main(["--config", str(cfg_path), "--out", out2]) == 0
    assert "manifest" in capsys.readouterr().out


def test_main_error_exits(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 2
    assert "error" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("command = solve\nell.lambda = 1.5\n")
    assert cli.main(["--config", str(bad)]) == 2
    assert "ell.lambda" in capsys.readouterr().err
