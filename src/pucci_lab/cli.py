"""Configuration-driven front end.

Runs are described by a line-oriented config (``key = value``, ``#``
comments, dotted keys), dispatched by the ``command`` key:

    solve      one Dirichlet solve of the selected operator on a fixture
    segregate  the two-species clamped iteration on a pair fixture
    sweep      warm-started continuation over a decreasing eps ladder
    diagnose   interface diagnostics on a stored or freshly solved field
    verify     the condensed property battery of every module

Every run writes its CSV outputs plus a ``manifest`` file (JSON text,
written atomically) echoing the full config with defaults, a hash of that
echo, per-stage timings, telemetry, and a verdict table.  The process exit
code is 0 when every verdict is PASS, 1 when any verdict is not, and 2 on
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .barriers import (
    FIXTURES,
    make_fixture,
    radial_profile,
)
from .errors import ParseError
from .grid import GridField, GridSpec, field_from_csv, field_to_csv
from .freeboundary import (
    ConeSpec,
    boundary_consistency,
    check_alpha_beta,
    classify_regular,
    curve_to_csv,
    epsilon_monotonicity,
    extract_zero_set,
    fit_two_plane,
    flatness_measure,
)
from .monotonicity import j_series_check, series_to_csv
from .operators import (
    OP_SELECTORS,
    Ellipticity,
    MatrixFamily,
    OperatorPair,
    SchemeSpec,
    SymMat2,
    eig2,
    family_extremal,
    pucci_eval,
    residual_interior,
)
from .solver import (
    SolveConfig,
    epsilon_sweep,
    residuals_to_csv,
    solve_dirichlet,
    solve_segregation,
)

COMMANDS = ("solve", "segregate", "sweep", "diagnose", "verify")
_PAIR_FIXTURES = ("split_supports", "edge_bumps")
_CLI_FAMILIES = ("full_pucci", "identity_only", "frobenius_ball")


def _p_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _p_int(s: str) -> int:
    return int(s, 10)


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


def _p_str(s: str) -> str:
    return s


# key -> (value parser, default); None default means "unset"
_KEYS: dict = {
    "command": (_p_str, None),
    "grid.nx": (_p_int, 65),
    "grid.extent": (_p_float, 1.0),
    "grid.origin": (_p_pair, (0.0, 0.0)),
    "op": (_p_str, "G_eps"),
    "family.minus": (_p_str, "full_pucci"),
    "family.plus": (_p_str, "full_pucci"),
    "family.r0": (_p_float, 0.5),
    "ell.lambda": (_p_float, 1.0),
    "ell.Lambda": (_p_float, 2.0),
    "scheme": (_p_str, "central"),
    "scheme.K": (_p_int, 4),
    "tol": (_p_float, 1e-8),
    "max_iter": (_p_int, 200_000),
    "cfl": (_p_float, 0.8),
    "eps": (_p_float, 0.05),
    "eps_list": (_p_floats, (0.2, 0.1, 0.05, 0.025)),
    "fixture": (_p_str, "sign_change"),
    "fixture.alpha": (_p_float, 1.0),
    "fixture.beta": (_p_float, 2.0),
    "fixture.angle": (_p_float, 22.5),
    "fixture.amplitude": (_p_float, 0.002),
    "fixture.dead_band": (_p_float, 0.1),
    "fixture.c": (_p_float, 1.0),
    "fixture.r": (_p_float, 0.4),
    "fixture.gamma": (_p_float, 1.0),
    "field": (_p_str, None),
    "radii": (_p_floats, (0.05, 0.1, 0.15, 0.2)),
    "cone.theta": (_p_float, 60.0),
    "cone.angle": (_p_float, None),
    "rel_tol": (_p_float, 0.05),
    "x0": (_p_pair, None),
    "out": (_p_str, "pucci_run"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with defaults applied."""

    table: dict = field(repr=False)

    def __getitem__(self, key):
        return self.table[key]

    def echo_lines(self) -> list[str]:
        out = []
        for key in sorted(self.table):
            v = self.table[key]
            if v is None:
                continue
            if isinstance(v, tuple):
                out.append(f"{key} = {','.join(f'{x:g}' for x in v)}")
            else:
                out.append(f"{key} = {v}")
        return out


def _fail(msg: str, line: int | None = None, key: str | None = None):
    where = f" (line {line})" if line is not None else ""
    raise ParseError(f"{msg}{where}", line=line, key=key)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a line-oriented config document."""
    table = {k: d for k, (_, d) in _KEYS.items()}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            _fail(f"expected 'key = value', got {body!r}", lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            _fail(f"unknown key {key!r}", lineno, key)
        if key in seen:
            _fail(f"duplicate key {key!r} (first set on line {seen[key]})", lineno, key)
        seen[key] = lineno
        parser, _ = _KEYS[key]
        try:
            table[key] = parser(value)
        except ValueError as exc:
            _fail(f"bad value for {key}: {exc}", lineno, key)
        _check_key(key, table[key], lineno)
    _check_config(table)
    return RunConfig(table)


def _check_key(key: str, v, line: int):
    if key == "command" and v not in COMMANDS:
        _fail(f"command must be one of {', '.join(COMMANDS)}, got {v!r}", line, key)
    elif key == "grid.nx" and v < 5:
        _fail(f"grid.nx must be >= 5, got {v}", line, key)
    elif key == "grid.extent" and not v > 0.0:
        _fail(f"grid.extent must be positive, got {v}", line, key)
    elif key == "op" and v not in OP_SELECTORS:
        _fail(f"op must be one of {', '.join(OP_SELECTORS)}, got {v!r}", line, key)
    elif key in ("family.minus", "family.plus") and v not in _CLI_FAMILIES:
        _fail(
            f"{key} must be one of {', '.join(_CLI_FAMILIES)} "
            "(finite sets need explicit members and are not line-configurable), "
            f"got {v!r}", line, key)
    elif key == "family.r0" and not (0.0 < v < 1.0):
        _fail(f"family.r0 must lie in (0, 1), got {v}", line, key)
    elif key == "ell.lambda" and not (0.0 < v <= 1.0):
        _fail(f"ell.lambda violates 0 < lambda <= 1, got {v}", line, key)
    elif key == "ell.Lambda" and not v >= 1.0:
        _fail(f"ell.Lambda must be >= 1, got {v}", line, key)
    elif key == "scheme" and v not in ("central", "wide"):
        _fail(f"scheme must be 'central' or 'wide', got {v!r}", line, key)
    elif key == "scheme.K" and (v < 4 or v % 2 != 0):
        _fail(f"scheme.K must be even and >= 4, got {v}", line, key)
    elif key in ("tol", "cfl", "eps") and not v > 0.0:
        _fail(f"{key} must be positive, got {v}", line, key)
    elif key == "max_iter" and v < 1:
        _fail(f"max_iter must be >= 1, got {v}", line, key)
    elif key == "eps_list":
        if any(not e > 0.0 for e in v):
            _fail(f"eps_list entries must be positive, got {v}", line, key)
        if any(b >= a for a, b in zip(v, v[1:])):
            _fail(f"eps_list must be strictly decreasing, got {v}", line, key)
    elif key == "fixture" and v not in FIXTURES:
        _fail(f"fixture must be one of {', '.join(FIXTURES)}, got {v!r}", line, key)
    elif key == "radii":
        if any(not r > 0.0 for r in v):
            _fail(f"radii must be positive, got {v}", line, key)
        if any(b <= a for a, b in zip(v, v[1:])):
            _fail(f"radii must be strictly increasing, got {v}", line, key)
    elif key == "cone.theta" and not (0.0 < v < 90.0):
        _fail(f"cone.theta must lie in (0, 90) degrees, got {v}", line, key)
    elif key == "rel_tol" and not v >= 0.0:
        _fail(f"rel_tol must be >= 0, got {v}", line, key)


def _check_config(table: dict):
    if table["command"] is None:
        _fail("config must set 'command'")
    if table["ell.lambda"] > table["ell.Lambda"]:
        _fail(
            f"ell.lambda = {table['ell.lambda']} exceeds ell.Lambda = {table['ell.Lambda']}"
        )
    if table["command"] == "segregate" and table["fixture"] not in _PAIR_FIXTURES:
        _fail(
            f"segregate needs a two-species fixture ({', '.join(_PAIR_FIXTURES)}), "
            f"got {table['fixture']!r}")
    scalar_needed = table["command"] in ("solve", "sweep") or (
        table["command"] == "diagnose" and table["field"] is None
    )
    if scalar_needed and table["fixture"] in _PAIR_FIXTURES:
        _fail(f"{table['command']} needs a scalar fixture, got {table['fixture']!r}")


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
    return SolveConfig(
        scheme=scheme,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        cfl=cfg["cfl"],
        eps=cfg["eps"],
    )


def _fixture_kwargs(cfg: RunConfig) -> dict:
    name = cfg["fixture"]
    per = {
        "psi": ("c", "r", "gamma"),
        "two_plane": ("alpha", "beta", "angle"),
        "radial_pucci": ("r",),
        "harmonic_quadratic": (),
        "sign_change": ("angle", "amplitude"),
        "split_supports": ("angle", "dead_band"),
        "edge_bumps": ("amplitude",),
    }[name]
    kw = {p: cfg[f"fixture.{p}"] for p in per}
    if name == "radial_pucci":
        kw["lam"] = cfg["ell.lambda"]
        kw["Lam"] = cfg["ell.Lambda"]
    return kw


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


class _Timer:
    def __init__(self, manifest: _Manifest, stage: str):
        self.m, self.stage = manifest, stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.m.data["timings"][self.stage] = round(time.perf_counter() - self.t0, 6)
        return False


def _cmd_solve(cfg: RunConfig, man: _Manifest) -> None:
    datum = _build_fixture(cfg)
    with _Timer(man, "solve"):
        res = solve_dirichlet(datum, cfg["op"], _solve_config(cfg), pair=_operator_pair(cfg))
    field_to_csv(res.field, man.emit("field.csv"))
    man.data["outputs"].append("field.csv.meta.json")
    residuals_to_csv(res.residual_history, man.emit("residuals.csv"))
    man.data["telemetry"].update(
        iterations=res.iterations,
        final_residual=res.final_residual,
        lipschitz_seminorm=res.lipschitz_seminorm,
    )
    man.data["verdicts"]["converged"] = "PASS" if res.converged else "FAIL"


def _cmd_segregate(cfg: RunConfig, man: _Manifest) -> None:
    f1, f2 = _build_fixture(cfg)
    with _Timer(man, "segregate"):
        res = solve_segregation(f1, f2, _solve_config(cfg), ell=_ellipticity(cfg))
    u1, u2 = res.field
    for name, fld in (("field1.csv", u1), ("field2.csv", u2),
                      ("field.csv", GridField(u1.spec, u1.values - u2.values))):
        field_to_csv(fld, man.emit(name))
        man.data["outputs"].append(name + ".meta.json")
    residuals_to_csv(res.residual_history, man.emit("residuals.csv"))
    man.data["telemetry"].update(
        iterations=res.iterations,
        final_residual=res.final_residual,
        lipschitz_seminorm=res.lipschitz_seminorm,
        overlap_sup=res.telemetry["overlap_sup"],
    )
    man.data["verdicts"]["converged"] = "PASS" if res.converged else "FAIL"


def _cmd_sweep(cfg: RunConfig, man: _Manifest) -> None:
    datum = _build_fixture(cfg)
    with _Timer(man, "sweep"):
        report = epsilon_sweep(datum, cfg["eps_list"], _solve_config(cfg), _operator_pair(cfg))
    field_to_csv(report.limit, man.emit("field.csv"))
    man.data["outputs"].append("field.csv.meta.json")
    man.data["telemetry"]["entries"] = [
        {"eps": e.eps, "iterations": e.iterations, "final_residual": e.final_residual,
         "lipschitz_seminorm": e.lipschitz_seminorm, "converged": e.converged}
        for e in report.entries
    ]
    man.data["telemetry"]["gaps"] = report.gaps
    man.data["verdicts"]["converged"] = "PASS" if report.all_converged else "FAIL"


def _diagnose_field(cfg: RunConfig) -> GridField:
    if cfg["field"] is not None:
        return field_from_csv(cfg["field"])
    res = solve_dirichlet(_build_fixture(cfg), cfg["op"], _solve_config(cfg),
                          pair=_operator_pair(cfg))
    return res.field


def _cmd_diagnose(cfg: RunConfig, man: _Manifest) -> None:
    rows: list[tuple[str, float, str]] = []
    with _Timer(man, "field"):
        u = _diagnose_field(cfg)
    spec = u.spec
    with _Timer(man, "diagnostics"):
        curve = extract_zero_set(u)
        curve_to_csv(curve, man.emit("curve.csv"))

        bc = boundary_consistency(u)
        # the level-pair gap is >= 2h even on exactly coincident phases, so
        # the bound is one cell above it (acceptance criterion 11's 3h)
        bc_v = "DEGENERATE" if math.isnan(bc) else ("PASS" if bc <= 3.0 * spec.h else "FAIL")
        rows.append(("boundary_consistency", bc, bc_v))
        man.data["verdicts"]["boundary_consistency"] = bc_v

        if curve.is_empty:
            for name in ("regular_point", "jr_monotone", "alpha_beta", "cone_monotone"):
                man.data["verdicts"][name] = "DEGENERATE"
                rows.append((name, math.nan, "DEGENERATE"))
        else:
            center = (spec.origin[0] + spec.extent / 2.0, spec.origin[1] + spec.extent / 2.0)
            x0 = cfg["x0"] if cfg["x0"] is not None else \
                tuple(curve.vertices[curve.nearest_vertex(center)])
            radii = cfg["radii"]

            try:
                rec = classify_regular(u, x0, radii)
                man.data["telemetry"].update(M=rec.M, c_lower=rec.c_lower,
                                             C_upper=rec.C_upper,
                                             zero_density=rec.zero_density)
                reg_v = "PASS" if rec.is_regular else "FAIL"
                rows.append(("growth_constant_M", rec.M, reg_v))
            except ValueError:
                reg_v = "DEGENERATE"
                rows.append(("growth_constant_M", math.nan, reg_v))
            man.data["verdicts"]["regular_point"] = reg_v

            try:
                series, sv = j_series_check(u, x0, radii)
                series_to_csv(series, man.emit("jr_series.csv"))
                rows.append(("jr_constancy_defect", sv.constancy_defect, sv.verdict))
                man.data["verdicts"]["jr_monotone"] = sv.verdict
            except ValueError:
                man.data["verdicts"]["jr_monotone"] = "DEGENERATE"
                rows.append(("jr_constancy_defect", math.nan, "DEGENERATE"))

            fit = None
            try:
                fit = fit_two_plane(u, x0, tuple(reversed(radii)))
                rows.append(("fit_alpha", fit.alpha, ""))
                rows.append(("fit_beta", fit.beta, ""))
                rows.append(("fit_residual", fit.residual, ""))
                ab = check_alpha_beta(fit, cfg["rel_tol"])
                rows.append(("alpha_beta", abs(fit.alpha - fit.beta), ab))
                man.data["verdicts"]["alpha_beta"] = ab
            except ValueError:
                man.data["verdicts"]["alpha_beta"] = "DEGENERATE"
                rows.append(("alpha_beta", math.nan, "DEGENERATE"))

            flat = flatness_measure(u, x0, min(radii))
            rows.append(("flatness", flat, ""))

            try:
                if cfg["cone.angle"] is not None:
                    cone = ConeSpec.from_degrees(cfg["cone.angle"], cfg["cone.theta"])
                elif fit is not None:
                    cone = ConeSpec(fit.nu, math.radians(cfg["cone.theta"]))
                else:
                    raise ParseError("no cone axis: set cone.angle or let the fit succeed")
                margin = min(x0[0] - spec.origin[0], x0[1] - spec.origin[1],
                             spec.origin[0] + spec.extent - x0[0],
                             spec.origin[1] + spec.extent - x0[1])
                half = 0.4 * margin
                em = epsilon_monotonicity(
                    u, cone, (x0[0] - half, x0[0] + half, x0[1] - half, x0[1] + half))
                em_v = "PASS" if math.isfinite(em) else "FAIL"
                rows.append(("epsilon_monotonicity", em, em_v))
                man.data["verdicts"]["cone_monotone"] = em_v
            except ValueError:
                man.data["verdicts"]["cone_monotone"] = "DEGENERATE"
                rows.append(("epsilon_monotonicity", math.nan, "DEGENERATE"))

    with open(man.emit("diagnostics.csv"), "w") as fh:
        fh.write("metric,value,verdict\n")
        for name, value, verdict in rows:
            fh.write(f"{name},{value:.17g},{verdict}\n")


def _verify_operators(rng) -> bool:
    ells = [Ellipticity(1.0, 2.0), Ellipticity(0.5, 1.5), Ellipticity(1.0, 1.0)]
    pairs = [OperatorPair.pucci(ells[0]), OperatorPair.identity(ells[0]),
             OperatorPair.frobenius(ells[1], 0.5)]
    mats = [SymMat2(*row) for row in rng.normal(size=(2000, 3)) * 3.0]
    worst = 0.0
    for pr in pairs:
        ell = pr.ell
        for m in mats:
            fm = family_extremal(pr.minus, m, "inf")
            fp = family_extremal(pr.plus, m, "sup")
            lo = pucci_eval(m, ell, "minus")
            hi = pucci_eval(m, ell, "plus")
            tr = m.a + m.c
            chain = max(lo - fm, fm - tr, tr - fp, fp - hi)
            neg = SymMat2(-m.a, -m.b, -m.c)
            dual = abs(pucci_eval(neg, ell, "plus") + lo)
            f2 = family_extremal(pr.minus, SymMat2(2 * m.a, 2 * m.b, 2 * m.c), "inf")
            hom = abs(f2 - 2.0 * fm)
            worst = max(worst, chain, dual, hom)
    # rotation invariance over a small sample of angles
    for pr in pairs:
        for ang in rng.uniform(0.0, 2.0 * math.pi, size=20):
            c, s = math.cos(ang), math.sin(ang)
            for m in mats[:50]:
                a = c * c * m.a + 2 * c * s * m.b + s * s * m.c
                b = c * s * (m.c - m.a) + (c * c - s * s) * m.b
                d = s * s * m.a - 2 * c * s * m.b + c * c * m.c
                rm = SymMat2(a, b, d)
                worst = max(
                    worst,
                    abs(family_extremal(pr.minus, rm, "inf")
                        - family_extremal(pr.minus, m, "inf")),
                )
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
        with _Timer(man, name):
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, out_dir=args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
