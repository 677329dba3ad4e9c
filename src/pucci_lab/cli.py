"""Configuration-driven front end.

Runs are described by a line-oriented config (``key = value``, ``#``
comments, dotted keys), dispatched by the ``command`` key:

    solve      one Dirichlet solve of the selected operator on a fixture
    segregate  the two-species system on a pair fixture, by semismooth Newton
    sweep      warm-started continuation over a decreasing eps ladder
    diagnose   interface diagnostics on a stored or freshly solved field
    verify     the condensed property battery of every module

Each value is checked as it is parsed.  A key whose rule the library states
(the grid, ellipticity, scheme, solver, eps-ladder, cone and radii keys) is
checked by the library object it configures or by the library's radii rule,
so a bad value's message is the library's own; a default the library states
is read from it.  The operator pair is built at parse time, so a Frobenius
family outside its band is a parse error.  A ``fixture.<p>`` key sets the
parameter ``p`` of the configured fixture's builder, takes the builder's
default when unset, and is checked by building the fixture with its value; a
key that fixture does not read is unchecked and left out of the echo.  A
parse error names the offending key and, where the config sets it, its line.

Every run writes its CSV outputs plus a ``manifest`` file (JSON text,
written atomically) echoing the full config with defaults (the fixture
defaults of the configured fixture alone), a hash of that echo, per-stage
timings, telemetry, and a verdict table.  The process exit code is 0 when
every verdict is PASS, 1 when any verdict is not, and 2 on configuration or
runtime errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .barriers import (
    FIXTURE_BUILDERS,
    FIXTURES,
    PAIR_FIXTURES,
    make_fixture,
    radial_profile,
)
from .errors import ParseError
from .grid import GridField, GridSpec, field_from_csv, field_to_csv, require_radii
from .freeboundary import ConeSpec, check_alpha_beta, curve_to_csv, fit_two_plane, interface_report
# unused here, but bench/tracer.py wraps them in this namespace
from .freeboundary import (boundary_consistency, classify_regular,
                           epsilon_monotonicity, extract_zero_set, flatness_measure)
from .monotonicity import j_series_check, series_to_csv
from .operators import (
    FAMILY_KINDS,
    OP_SELECTORS,
    Ellipticity,
    MatrixFamily,
    OperatorPair,
    SchemeSpec,
    _extremal_side,
    residual_interior,
)
from .solver import (
    SolveConfig,
    eps_ladder,
    epsilon_sweep,
    residuals_to_csv,
    solve_dirichlet,
    solve_segregation,
)

COMMANDS = ("solve", "segregate", "sweep", "diagnose", "verify")
_CLI_FAMILIES = tuple(k for k in FAMILY_KINDS if k != "finite_set")


def _p_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _p_pair(s: str) -> tuple[float, float]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated reals")
    return (_p_float(parts[0]), _p_float(parts[1]))


def _p_floats(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of reals")
    return tuple(_p_float(p) for p in parts)


def _require(ok: bool, rule: str, v) -> None:
    """A rule only the CLI states: raise ValueError naming it unless ``ok``."""
    if not ok:
        raise ValueError(f"{rule}, got {v!r}")


def _one_of(names, note: str = ""):
    return lambda v: _require(v in names, f"must be one of {', '.join(names)}{note}", v)


_family = _one_of(_CLI_FAMILIES,
                  " (finite sets need explicit members and are not line-configurable)")
_REPORT = inspect.signature(interface_report).parameters

# key -> (value parser, check, default), a None default leaving the key unset.
# A check raises ValueError on a bad value; where the library states the rule
# it builds the object the key configures or applies that rule, so the message
# is the library's own, and a default the library states is read from it.
_KEYS: dict = {
    "command": (str, _one_of(COMMANDS), None),
    "grid.nx": (int, GridSpec, 65),
    "grid.extent": (_p_float, lambda v: GridSpec(5, v), GridSpec.extent),
    "grid.origin": (_p_pair, None, GridSpec.origin),
    "op": (str, _one_of(OP_SELECTORS), "G_eps"),
    "family.minus": (str, _family, "full_pucci"),
    "family.plus": (str, _family, "full_pucci"),
    "family.r0": (_p_float, lambda v: _require(0.0 < v < 1.0, "must lie in (0, 1)", v), 0.5),
    "ell.lambda": (_p_float, lambda v: Ellipticity(v, 1.0), 1.0),
    "ell.Lambda": (_p_float, lambda v: Ellipticity(1.0, v), 2.0),
    "scheme": (str, lambda v: SchemeSpec(v, 4), SchemeSpec.kind),
    "scheme.K": (int, lambda v: SchemeSpec("wide", v), 4),
    "tol": (_p_float, lambda v: SolveConfig(tol=v), SolveConfig.tol),
    "max_iter": (int, lambda v: SolveConfig(max_iter=v), SolveConfig.max_iter),
    "cfl": (_p_float, lambda v: SolveConfig(cfl=v), SolveConfig.cfl),
    "eps": (_p_float, lambda v: SolveConfig(eps=v), 0.05),
    "eps_list": (_p_floats, eps_ladder, (0.2, 0.1, 0.05, 0.025)),
    "fixture": (str, _one_of(FIXTURES), "sign_change"),
    "field": (str, None, None),
    "radii": (_p_floats, require_radii, None),  # None: interface_report's default radii
    "cone.theta": (_p_float, lambda v: ConeSpec.from_degrees(0, v), _REPORT["cone_theta"].default),
    "cone.angle": (_p_float, None, None),
    "rel_tol": (_p_float, lambda v: _require(v >= 0.0, "must be >= 0", v),
                _REPORT["rel_tol"].default),
    "x0": (_p_pair, None, None),
    "out": (str, None, "pucci_run"),
}
_SUPPLIED = ("center", "lam", "Lam")  # builder parameters set from grid.* and ell.*


def _fixture_params(name: str) -> dict:
    """The fixture's ``fixture.<p>`` keys, each a real: every keyword parameter
    ``p`` of its builder that the CLI does not supply, with its default."""
    params = inspect.signature(FIXTURE_BUILDERS[name]).parameters.items()
    return {p: par.default for p, par in params
            if par.default is not par.empty and p not in _SUPPLIED}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with defaults applied."""

    table: dict = field(repr=False)

    def __getitem__(self, key):
        return self.table[key]

    def echo_lines(self) -> list[str]:
        # str keeps every digit of a float, so the echo parses back exactly
        return [f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
                for k, v in sorted(self.table.items()) if v is not None]


def _fail(msg: str, line: int | None = None, key: str | None = None):
    where = f" (line {line})" if line is not None else ""
    raise ParseError(f"{msg}{where}", line=line, key=key)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a line-oriented config document."""
    cfg = RunConfig({k: d for k, (_, _, d) in _KEYS.items()})
    fixture_keys = {f"fixture.{p}" for name in FIXTURES for p in _fixture_params(name)}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            _fail(f"expected 'key = value', got {body!r}", lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS and key not in fixture_keys:
            _fail(f"unknown key {key!r}", lineno, key)
        if key in seen:
            _fail(f"duplicate key {key!r} (first set on line {seen[key]})", lineno, key)
        seen[key] = lineno
        parser, check, _ = _KEYS.get(key, (_p_float, None, None))
        try:
            cfg.table[key] = parser(value)
            if check is not None:
                check(cfg[key])
        except ValueError as exc:
            _fail(f"bad value for {key}: {exc}", lineno, key)
    _check_config(cfg, seen)
    return cfg


def _check_config(cfg: RunConfig, seen: dict):
    if cfg["command"] is None:
        _fail("config must set 'command'", key="command")
    # a fixture.* key the configured fixture reads defaults to its builder's and
    # is checked by building it with the one value, so the rule is the builder's;
    # a key it does not read configures nothing and is dropped from the echo
    params = _fixture_params(cfg["fixture"])
    for key in [k for k in cfg.table if k.startswith("fixture.") and k[8:] not in params]:
        del cfg.table[key]
    for p, default in params.items():
        key = f"fixture.{p}"
        try:
            make_fixture(GridSpec(5), cfg["fixture"], **{p: cfg.table.setdefault(key, default)})
        except ValueError as exc:
            _fail(f"bad value for {key}: {exc}", seen.get(key), key)
    # each key is in range alone, so the pair can break only a Frobenius
    # family's band rule, blamed on the line that chose the family
    try:
        _operator_pair(cfg)
    except ValueError as exc:
        key = "family.minus" if cfg["family.minus"] == "frobenius_ball" else "family.plus"
        _fail(f"bad value for {key}: {exc}", seen[key], key)
    # a fixture the command cannot run is blamed on its own line, or on the
    # command's when the fixture is the default
    blame = "fixture" if "fixture" in seen else "command"
    if cfg["command"] == "segregate" and cfg["fixture"] not in PAIR_FIXTURES:
        _fail(
            f"segregate needs a two-species fixture ({', '.join(PAIR_FIXTURES)}), "
            f"got {cfg['fixture']!r}", seen[blame], blame)
    scalar_needed = cfg["command"] in ("solve", "sweep") or (
        cfg["command"] == "diagnose" and cfg["field"] is None)
    if scalar_needed and cfg["fixture"] in PAIR_FIXTURES:
        _fail(f"{cfg['command']} needs a scalar fixture, got {cfg['fixture']!r}",
              seen[blame], blame)


def _grid_spec(cfg: RunConfig) -> GridSpec:
    return GridSpec(cfg["grid.nx"], cfg["grid.extent"], cfg["grid.origin"])


def _ellipticity(cfg: RunConfig) -> Ellipticity:
    return Ellipticity(cfg["ell.lambda"], cfg["ell.Lambda"])


def _operator_pair(cfg: RunConfig) -> OperatorPair:
    ell = _ellipticity(cfg)

    def fam(kind):
        r0 = cfg["family.r0"] if kind == "frobenius_ball" else None
        return MatrixFamily(kind, ell, r0=r0)

    return OperatorPair(fam(cfg["family.minus"]), fam(cfg["family.plus"]))


def _solve_config(cfg: RunConfig) -> SolveConfig:
    scheme = SchemeSpec(cfg["scheme"], cfg["scheme.K"] if cfg["scheme"] == "wide" else None)
    return SolveConfig(scheme=scheme, tol=cfg["tol"], max_iter=cfg["max_iter"], cfl=cfg["cfl"],
                       eps=cfg["eps"])


def _fixture_kwargs(cfg: RunConfig) -> dict:
    """The arguments the fixture's builder reads: ``center`` is the grid's
    centre, ``lam`` and ``Lam`` come from ell.*, any other ``p`` from fixture.<p>."""
    supplied = dict(center=_grid_spec(cfg).center, lam=cfg["ell.lambda"],
                    Lam=cfg["ell.Lambda"])
    params = inspect.signature(FIXTURE_BUILDERS[cfg["fixture"]]).parameters
    return {p: v for p, v in supplied.items() if p in params} | {
        p: cfg[f"fixture.{p}"] for p in _fixture_params(cfg["fixture"])}


def _build_fixture(cfg: RunConfig):
    return make_fixture(_grid_spec(cfg), cfg["fixture"], **_fixture_kwargs(cfg))


class _Manifest:
    def __init__(self, cfg: RunConfig, out_dir: str):
        echo = cfg.echo_lines()
        self.out_dir = out_dir
        self.data = {
            "version": __version__,
            "command": cfg["command"],
            "config": echo,
            "config_hash": hashlib.sha256("\n".join(echo).encode()).hexdigest(),
            "timings": {},
            "telemetry": {},
            "verdicts": {},
            "outputs": [],
        }

    def emit(self, name: str) -> str:
        self.data["outputs"].append(name)
        return os.path.join(self.out_dir, name)

    def write(self):
        self.data["outputs"] = sorted(set(self.data["outputs"]))
        tmp = os.path.join(self.out_dir, "manifest.tmp")
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.out_dir, "manifest"))


@contextlib.contextmanager
def _timed(man: _Manifest, stage: str):
    """Record the block's wall time as ``stage``, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        man.data["timings"][stage] = round(time.perf_counter() - t0, 6)


def _emit_field(man: _Manifest, name: str, fld: GridField) -> None:
    field_to_csv(fld, man.emit(name))
    man.data["outputs"].append(name + ".meta.json")


def _record_solve(man: _Manifest, res) -> None:
    man.data["telemetry"].update(iterations=res.iterations, final_residual=res.final_residual,
                                 lipschitz_seminorm=res.lipschitz_seminorm, **res.telemetry)
    man.data["verdicts"]["converged"] = "PASS" if res.converged else "FAIL"


def _cmd_solve(cfg: RunConfig, man: _Manifest) -> None:
    datum = _build_fixture(cfg)
    with _timed(man, "solve"):
        res = solve_dirichlet(datum, cfg["op"], _solve_config(cfg), pair=_operator_pair(cfg))
    _emit_field(man, "field.csv", res.field)
    residuals_to_csv(res.residual_history, man.emit("residuals.csv"))
    _record_solve(man, res)


def _cmd_segregate(cfg: RunConfig, man: _Manifest) -> None:
    f1, f2 = _build_fixture(cfg)
    with _timed(man, "segregate"):
        res = solve_segregation(f1, f2, _solve_config(cfg), ell=_ellipticity(cfg))
    u1, u2 = res.field
    for name, fld in (("field1.csv", u1), ("field2.csv", u2),
                      ("field.csv", GridField(u1.spec, u1.values - u2.values))):
        _emit_field(man, name, fld)
    residuals_to_csv(res.residual_history, man.emit("residuals.csv"))
    _record_solve(man, res)


def _cmd_sweep(cfg: RunConfig, man: _Manifest) -> None:
    datum = _build_fixture(cfg)
    with _timed(man, "sweep"):
        report = epsilon_sweep(datum, cfg["eps_list"], _solve_config(cfg), _operator_pair(cfg))
    _emit_field(man, "field.csv", report.limit)
    man.data["telemetry"]["entries"] = [asdict(e) for e in report.entries]
    man.data["telemetry"]["gaps"] = report.gaps
    man.data["verdicts"]["converged"] = "PASS" if report.all_converged else "FAIL"


def _cmd_diagnose(cfg: RunConfig, man: _Manifest) -> None:
    with _timed(man, "field"):
        u = field_from_csv(cfg["field"]) if cfg["field"] is not None else solve_dirichlet(
            _build_fixture(cfg), cfg["op"], _solve_config(cfg), pair=_operator_pair(cfg)).field
    if cfg["x0"] is not None and not u.spec.contains(*cfg["x0"]):
        _fail("x0 = {:g},{:g} lies outside the field's square, origin {:g},{:g} and extent "
              "{:g}".format(*cfg["x0"], *u.spec.origin, u.spec.extent), key="x0")
    with _timed(man, "diagnostics"):
        rep = interface_report(u, cfg["x0"], cfg["radii"], cfg["cone.angle"], cfg["cone.theta"],
                               cfg["rel_tol"])
        curve_to_csv(rep.curve, man.emit("curve.csv"))
        if rep.series is not None:
            series_to_csv(rep.series, man.emit("jr_series.csv"))
    man.data["telemetry"].update(rep.telemetry)
    man.data["verdicts"].update(rep.verdicts)
    with open(man.emit("diagnostics.csv"), "w") as fh:
        fh.write("metric,value,verdict\n")
        for name, value, verdict in rep.rows:
            fh.write(f"{name},{value:.17g},{verdict}\n")


def _verify_operators(rng, pairs=None) -> bool:
    """The chain M- <= F- <= tr <= F+ <= M+, the duality M+(-M) = -M-(M),
    the homogeneity F-(2M) = 2 F-(M) and the rotation invariance of F-, all
    within 1e-12, on 2000 random matrices (rotations: 20 angles of the first
    50) for each pair, by default a Pucci, an identity and a Frobenius pair."""
    if pairs is None:
        pairs = [OperatorPair.pucci(Ellipticity(1.0, 2.0)),
                 OperatorPair.identity(Ellipticity(1.0, 2.0)),
                 OperatorPair.frobenius(Ellipticity(0.5, 1.5), 0.5)]
    a, b, c = (rng.normal(size=(2000, 3)) * 3.0).T
    worst = 0.0
    for pr in pairs:
        pucci = MatrixFamily("full_pucci", pr.ell)
        fm = _extremal_side(pr.minus, a, b, c, False)[0]
        fp = _extremal_side(pr.plus, a, b, c, True)[0]
        lo, hi = (_extremal_side(pucci, a, b, c, side)[0] for side in (False, True))
        tr = a + c
        dual = _extremal_side(pucci, -a, -b, -c, True)[0] + lo
        hom = _extremal_side(pr.minus, 2 * a, 2 * b, 2 * c, False)[0] - 2.0 * fm
        ang = rng.uniform(0.0, 2.0 * math.pi, size=20)[:, None]
        co, si = np.cos(ang), np.sin(ang)
        m_a, m_b, m_c = a[:50], b[:50], c[:50]
        rot = _extremal_side(pr.minus,
                             co * co * m_a + 2 * co * si * m_b + si * si * m_c,
                             co * si * (m_c - m_a) + (co * co - si * si) * m_b,
                             si * si * m_a - 2 * co * si * m_b + co * co * m_c, False)[0]
        worst = max(worst, float(np.max([lo - fm, fm - tr, tr - fp, fp - hi])),
                    float(np.abs(dual).max()), float(np.abs(hom).max()),
                    float(np.abs(rot - fm[:50]).max()))
    return worst <= 1e-12


def _verify_barriers() -> bool:
    sups = []
    for nx in (65, 129):
        g = GridSpec(nx)
        fld = make_fixture(g, "psi", c=1.0, r=0.4, gamma=1.0, center=(0.5, 0.5))
        res = residual_interior(fld.values, g.h, "M_minus", SchemeSpec(),
                                ell=Ellipticity(1.0, 2.0))
        xx, yy = g.node_coords()
        dist = np.hypot(xx - 0.5, yy - 0.5)[1:-1, 1:-1]
        sups.append(float(np.abs(res[(dist >= 0.1) & (dist <= 0.4)]).max()))
    ratio_ok = 3.5 <= sups[0] / sups[1] <= 4.5

    prof = radial_profile(MatrixFamily("full_pucci", Ellipticity(1.0, 2.0)), r=0.4)
    pucci_ok = bool(
        np.abs(prof.phi_values - (0.4 / prof.rho_samples - 1.0)).max() <= 1e-6
        and abs(prof.sigma - 1.0) <= 1e-4
    )
    harm = radial_profile(MatrixFamily("identity_only", Ellipticity(1.0, 1.0)), r=0.4)
    harm_ok = bool(
        np.abs(harm.phi_values - np.log(0.4 / harm.rho_samples) / math.log(2.0)).max() <= 1e-6
        and abs(harm.sigma - 1.0 / math.log(2.0)) <= 1e-4
    )
    return ratio_ok and pucci_ok and harm_ok


def _verify_jr() -> bool:
    g = GridSpec(257)
    tp = make_fixture(g, "two_plane", alpha=1.0, beta=2.0, angle=20.0)
    series, sv = j_series_check(tp, (0.5, 0.5), (0.15, 0.2, 0.25))
    target = math.pi ** 2
    close = bool(np.abs(series.j - target).max() <= 0.02 * target)
    return close and sv.verdict == "PASS" and sv.constancy_defect <= 0.02


def _verify_slope_fit() -> bool:
    g = GridSpec(257)
    tp = make_fixture(g, "two_plane", alpha=2.0, beta=3.0, angle=30.0)
    fit = fit_two_plane(tp, (0.5, 0.5), (0.2, 0.1, 0.05))
    shape_ok = (abs(fit.alpha - 2.0) <= 0.05 and abs(fit.beta - 3.0) <= 0.05
                and fit.residual <= 0.05)
    uneven = check_alpha_beta(fit, 0.05) == "FAIL"
    even_fit = fit_two_plane(make_fixture(g, "two_plane", alpha=1.0, beta=1.0, angle=10.0),
                             (0.5, 0.5), (0.2, 0.1))
    even = check_alpha_beta(even_fit, 0.05) == "PASS"
    return shape_ok and uneven and even


def _cmd_verify(cfg: RunConfig, man: _Manifest) -> None:
    rng = np.random.default_rng(20230817)
    suites = (
        ("operator_property", lambda: _verify_operators(rng)),
        ("barrier_residual", _verify_barriers),
        ("j_r", _verify_jr),
        ("slope_fit", _verify_slope_fit),
    )
    for name, fn in suites:
        with _timed(man, name):
            ok = fn()
        man.data["verdicts"][name] = "PASS" if ok else "FAIL"


_DISPATCH = {
    "solve": _cmd_solve,
    "segregate": _cmd_segregate,
    "sweep": _cmd_sweep,
    "diagnose": _cmd_diagnose,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig, out_dir: str | None = None, quiet: bool = False) -> int:
    """Execute one command; returns the process exit code."""
    out = out_dir if out_dir is not None else cfg["out"]
    os.makedirs(out, exist_ok=True)
    man = _Manifest(cfg, out)
    try:
        _DISPATCH[cfg["command"]](cfg, man)
    except (ValueError, RuntimeError, OSError) as exc:
        man.data["error"] = f"{type(exc).__name__}: {exc}"
        man.write()
        if not quiet:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    man.write()
    verdicts = man.data["verdicts"]
    code = 0 if all(v == "PASS" for v in verdicts.values()) else 1
    if not quiet:
        summary = ", ".join(f"{k}={v}" for k, v in verdicts.items()) or "no verdicts"
        print(f"{cfg['command']}: {summary} -> exit {code}")
        print(f"manifest: {os.path.join(out, 'manifest')}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pucci-lab", description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="path to a key = value config file")
    ap.add_argument("--out", default=None, help="output directory (overrides the config)")
    ap.add_argument("--quiet", action="store_true", help="suppress the summary lines")
    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
