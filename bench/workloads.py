"""The benchmark's three workloads.

Each workload draws its free parameters from the seed, builds its fixtures
(``build``), makes one small untimed call per code path (``warm``), and then
runs rounds: every round attempts the same operations on the same inputs,
so the share of failed operations is the same in every run.  ``check``
judges a round's outputs with the independent checks of ``checks.py``; an
operation that failed is counted, not checked.

The program is always reached through its module attributes
(``solver.solve_dirichlet``, not a name bound at import), so the traced run
sees every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from pucci_lab import barriers, cli, freeboundary, grid, monotonicity, solver
from pucci_lab.freeboundary import ConeSpec
from pucci_lab.grid import GridField, GridSpec
from pucci_lab.operators import Ellipticity, OperatorPair, SchemeSpec
from pucci_lab.solver import SolveConfig

import checks

LAM, BIG_LAM = 1.0, 2.0
ELL = Ellipticity(LAM, BIG_LAM)
PAIR = OperatorPair.pucci(ELL)
TOL = 1e-8
EPS_LADDER = (0.2, 0.1, 0.05, 0.025)


@dataclass
class Round:
    ops: list = field(default_factory=list)       # (label, ok) per operation
    out: dict = field(default_factory=dict)       # what check() judges
    cli_runs: list = field(default_factory=list)  # (command, manifest stage seconds)

    def op(self, label: str, ok: bool):
        self.ops.append((label, bool(ok)))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.params: dict = {}

    def draw(self, ranges: dict):
        for key, (lo, hi) in ranges.items():
            self.params[key] = self.rng.uniform(lo, hi)


class ScalarLimit(Workload):
    """G_eps on its own: a warm-started eps sweep at nx = 65, its continuation
    to nx = 129, and the M_minus annulus on the central and wide schemes."""

    name = "scalar_limit"
    RANGES = {"angle": (21.5, 23.5), "amplitude": (0.0018, 0.0022)}
    SCHEMES = (("central", SchemeSpec()), ("wide4", SchemeSpec("wide", 4)),
               ("wide8", SchemeSpec("wide", 8)))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.draw(self.RANGES)

    def build(self):
        kw = dict(angle=self.params["angle"], amplitude=self.params["amplitude"])
        self.g65, self.g129, self.g33 = GridSpec(65), GridSpec(129), GridSpec(33)
        self.d65 = barriers.make_fixture(self.g65, "sign_change", **kw)
        self.d129 = barriers.make_fixture(self.g129, "sign_change", **kw)
        self.annulus = barriers.make_fixture(self.g33, "radial_pucci")
        X, Y = self.g33.node_coords()
        self.core = np.hypot(X - 0.5, Y - 0.5) < 0.2

    def warm(self):
        short = SolveConfig(tol=TOL, cfl=1.0, max_iter=2)
        solver.solve_dirichlet(self.annulus, "G_eps", short.with_eps(0.2), pair=PAIR)
        for _, scheme in self.SCHEMES[:2]:
            cfg = SolveConfig(tol=TOL, cfl=1.0, max_iter=2, scheme=scheme)
            solver.solve_dirichlet(self.annulus, "M_minus", cfg, ell=ELL, frozen=self.core)
        X, Y = self.g129.node_coords()
        grid.bilinear_sample(self.d65, X, Y)

    def round(self) -> Round:
        rd = Round()
        sweep = solver.epsilon_sweep(self.d65, EPS_LADDER, SolveConfig(tol=TOL, cfl=1.0), PAIR)
        for e in sweep.entries:
            rd.op(f"sweep nx=65 eps={e.eps:g}", e.converged)
        X, Y = self.g129.node_coords()
        warm = GridField(self.g129, grid.bilinear_sample(sweep.limit, X, Y))
        fine = solver.solve_dirichlet(self.d129, "G_eps",
                                      SolveConfig(tol=TOL, cfl=1.0, eps=EPS_LADDER[-1]),
                                      pair=PAIR, initial=warm)
        rd.op("continue nx=129", fine.converged)
        annulus = {}
        for label, scheme in self.SCHEMES:
            res = solver.solve_dirichlet(self.annulus, "M_minus",
                                         SolveConfig(tol=TOL, cfl=1.0, scheme=scheme),
                                         ell=ELL, frozen=self.core)
            rd.op(f"annulus {label}", res.converged)
            annulus[label] = res
        rd.out = {"sweep": sweep, "fine": fine, "annulus": annulus}
        return rd

    def check(self, rd: Round) -> list[str]:
        out = []
        sweep, fine, annulus = rd.out["sweep"], rd.out["fine"], rd.out["annulus"]
        for e, fld in zip(sweep.entries, sweep.fields):
            if e.converged:
                out += checks.residual_within(fld.values, fld.spec.h, "G_eps", TOL, LAM,
                                              BIG_LAM, eps=e.eps)
                out += checks.max_principle(fld.values, fld.boundary_mask)
        if fine.converged:
            u = fine.field
            out += checks.residual_within(u.values, u.spec.h, "G_eps", TOL, LAM, BIG_LAM,
                                          eps=EPS_LADDER[-1])
            out += checks.max_principle(u.values, u.boundary_mask)
        held = self.annulus.boundary_mask | self.core
        for label, res in annulus.items():
            if res.converged:
                out += checks.max_principle(res.field.values, held)
        if annulus["central"].converged:
            u = annulus["central"].field
            out += checks.residual_within(u.values, u.spec.h, "M_minus", TOL, LAM, BIG_LAM,
                                          frozen=self.core)
        if annulus["wide4"].converged and annulus["wide8"].converged:
            out += checks.annulus_errors(annulus["wide4"].field.values,
                                         annulus["wide8"].field.values, self.annulus.values,
                                         ~held)
        return [f"{self.name}: {p}" for p in out]


class SegregationLadder(Workload):
    """The clamped two-species march: the edge_bumps ladder at nx = 65, then
    the nx = 33 ladder on to the stiff rung eps = 0.00625."""

    name = "segregation_ladder"
    RANGES = {"amplitude": (55.0, 65.0)}
    COARSE_AMPLITUDE = 60.0
    COARSE_LADDER = EPS_LADDER + (0.0125, 0.00625)
    # The last coarse rung ends unconverged every time (the step ignores the
    # coupling stiffness u_j / eps); it runs under this budget instead of the
    # default 200000 iterations, which it would also exhaust.
    STIFF_BUDGET = 20_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.draw(self.RANGES)

    def build(self):
        self.fine = barriers.make_fixture(GridSpec(65), "edge_bumps",
                                          amplitude=self.params["amplitude"])
        self.coarse = barriers.make_fixture(GridSpec(33), "edge_bumps",
                                            amplitude=self.COARSE_AMPLITUDE)

    def warm(self):
        f1, f2 = self.coarse
        solver.solve_segregation(f1, f2, SolveConfig(tol=TOL, cfl=1.0, eps=0.2, max_iter=2),
                                 ell=ELL)

    def _ladder(self, rd: Round, label: str, pair, ladder, budget_last=None):
        rungs, fields = [], None
        for k, eps in enumerate(ladder):
            max_iter = budget_last if (budget_last and k == len(ladder) - 1) else 200_000
            res = solver.solve_segregation(
                pair[0], pair[1], SolveConfig(tol=TOL, cfl=1.0, eps=eps, max_iter=max_iter),
                ell=ELL, initial=fields)
            rd.op(f"{label} eps={eps:g}", res.converged)
            rungs.append((eps, res))
            fields = res.field
        return rungs

    def round(self) -> Round:
        rd = Round()
        fine = self._ladder(rd, "ladder nx=65", self.fine, EPS_LADDER)
        coarse = self._ladder(rd, "ladder nx=33", self.coarse, self.COARSE_LADDER,
                              budget_last=self.STIFF_BUDGET)
        rd.out = {"fine": fine, "coarse": coarse}
        return rd

    def check(self, rd: Round) -> list[str]:
        out = []
        for key, data in (("fine", self.fine), ("coarse", self.coarse)):
            eps_ok, overlaps = [], []
            for eps, res in rd.out[key]:
                if not res.converged:
                    continue
                u1, u2 = res.field
                out += checks.complementarity(u1.values, u2.values, data[0].values,
                                              data[1].values, u1.spec.h, eps, TOL, LAM, BIG_LAM)
                eps_ok.append(eps)
                overlaps.append(float((u1.values * u2.values).max()))
            if len(overlaps) >= 3:
                out += [f"{key} ladder: {p}" for p in checks.overlap_law(eps_ok, overlaps)]
        return [f"{self.name}: {p}" for p in out]


class InterfaceScan(Workload):
    """Closed-form two-plane fields at nx = 257: pointwise diagnostics along
    the zero set, the whole-field diagnostics once, CSV IO and the CLI."""

    name = "interface_scan"
    RANGES = {"angle": (18.0, 22.0), "alpha": (0.9, 1.1), "beta": (1.8, 2.2)}
    JR_RADII = (0.05, 0.1, 0.15, 0.2)
    FIT_RADII = (0.2, 0.1, 0.05)
    # A fixed number of points keeps the operation count the same for every
    # seed; the 160 vertices nearest the centre lie inside [0.25, 0.75]^2 and
    # the 64 nearest also keep the fit's 2r blow-up inside the domain.
    POINTS = 160
    FIT_POINTS = 64
    CONE_THETA = 60.0
    WINDOW = (0.3, 0.7, 0.3, 0.7)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.draw(self.RANGES)
        a = math.radians(self.params["angle"])
        self.nu = (math.cos(a), math.sin(a))

    def build(self):
        p = self.params
        self.g = GridSpec(257)
        self.u = barriers.make_fixture(self.g, "two_plane", alpha=p["alpha"], beta=p["beta"],
                                       angle=p["angle"])
        self.big = barriers.make_fixture(GridSpec(513), "two_plane", alpha=p["alpha"],
                                         beta=p["beta"], angle=p["angle"])
        # the CLI's input: an exactly coincident alpha = beta field, fixed for
        # every seed because diagnose fails on it every time
        equal = barriers.make_fixture(self.g, "two_plane", alpha=1.0, beta=1.0, angle=20.0)
        self.equal_csv = os.path.join(self.workdir, "equal.csv")
        grid.field_to_csv(equal, self.equal_csv)
        self.configs = {}
        for command, body in (("diagnose", f"field = {self.equal_csv}\n"), ("verify", "")):
            path = os.path.join(self.workdir, f"{command}.cfg")
            with open(path, "w") as fh:
                fh.write(f"command = {command}\n{body}")
            self.configs[command] = path

    def warm(self):
        curve = freeboundary.extract_zero_set(self.u)
        x0 = tuple(curve.vertices[curve.nearest_vertex((0.5, 0.5))])
        freeboundary.classify_regular(self.u, x0, self.JR_RADII)
        monotonicity.j_series_check(self.u, x0, self.JR_RADII)
        freeboundary.fit_two_plane(self.u, x0, self.FIT_RADII)

    def _cli(self, rd: Round, command: str):
        out_dir = os.path.join(self.workdir, f"cli-{command}")
        code = cli.main(["--config", self.configs[command], "--out", out_dir, "--quiet"])
        with open(os.path.join(out_dir, "manifest")) as fh:
            manifest = json.load(fh)
        rd.cli_runs.append((command, sum(manifest["timings"].values())))
        rd.op(f"cli {command}", code == 0)
        return code, manifest, out_dir

    def round(self) -> Round:
        rd = Round()
        u = self.u
        curve = freeboundary.extract_zero_set(u)
        rd.op("extract_zero_set", not curve.is_empty)
        d2 = ((curve.vertices - 0.5) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")
        points = [tuple(curve.vertices[i]) for i in order[:self.POINTS]]
        records, series = [], []
        for x0 in points:
            rec = freeboundary.classify_regular(u, x0, self.JR_RADII)
            rd.op("classify_regular", rec.is_regular)
            ser, verdict = monotonicity.j_series_check(u, x0, self.JR_RADII)
            rd.op("j_series_check", verdict.verdict == "PASS")
            records.append(rec)
            series.append(ser)
        fits = []
        for x0 in points[:self.FIT_POINTS]:
            fit = freeboundary.fit_two_plane(u, x0, self.FIT_RADII)
            rd.op("fit_two_plane", not fit.no_asymptote)
            fits.append(fit)
        bc = freeboundary.boundary_consistency(u)
        rd.op("boundary_consistency", math.isfinite(bc))
        flat = freeboundary.flatness_measure(u, (0.5, 0.5), max(self.JR_RADII))
        rd.op("flatness_measure", math.isfinite(flat))
        em = freeboundary.epsilon_monotonicity(u, ConeSpec(self.nu, math.radians(self.CONE_THETA)),
                                               self.WINDOW)
        rd.op("epsilon_monotonicity", math.isfinite(em))
        curve_csv = os.path.join(self.workdir, "curve.csv")
        freeboundary.curve_to_csv(curve, curve_csv)
        rd.op("curve_to_csv", True)
        field_csv = os.path.join(self.workdir, "field513.csv")
        grid.field_to_csv(self.big, field_csv)
        rd.op("field_to_csv", True)
        back = grid.field_from_csv(field_csv)
        rd.op("field_from_csv", back.spec == self.big.spec)
        diagnose = self._cli(rd, "diagnose")
        verify = self._cli(rd, "verify")
        rd.out = {"curve": curve, "points": points, "records": records, "series": series,
                  "fits": fits, "flat": flat, "em": em, "curve_csv": curve_csv,
                  "back": back, "diagnose": diagnose, "verify": verify}
        return rd

    def check(self, rd: Round) -> list[str]:
        p, o, h = self.params, rd.out, self.g.h
        alpha, beta, x0 = p["alpha"], p["beta"], (0.5, 0.5)
        out = checks.zero_set_on_line(o["curve"].vertices, alpha, beta, self.nu, x0, h)
        pts = np.asarray(o["points"])
        if not np.all((pts >= 0.25) & (pts <= 0.75)):
            out.append("a scanned point lies outside [0.25, 0.75]^2")
        fit_pts = pts[:self.FIT_POINTS]
        if not np.all((fit_pts >= 0.4) & (fit_pts <= 0.6)):
            out.append("a fitted point's 2r blow-up leaves the domain")
        d0 = checks.signed_distance(pts, self.nu, x0)
        for rec, ser, d in zip(o["records"], o["series"], d0):
            if rec.is_regular:
                out += checks.growth_matches(rec.M, alpha, beta, float(d), self.JR_RADII)
            out += checks.jr_product(ser.j, alpha, beta)
        for fit in o["fits"]:
            if not fit.no_asymptote:
                out += checks.slopes_match(fit.alpha, fit.beta, fit.nu, alpha, beta, self.nu)
        out += checks.flatness_zero(o["flat"], alpha, beta, h)
        out += checks.cone_floor(o["em"], h)
        with open(o["curve_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        xy = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        if len(rows) < o["curve"].vertices.shape[0]:
            out.append("curve.csv lists fewer rows than the curve has vertices")
        out += checks.zero_set_on_line(xy, alpha, beta, self.nu, x0, h)
        out += checks.bit_identical(o["back"].values, self.big.values)
        out += self._check_cli(*o["diagnose"], allowed={"boundary_consistency"})
        out += self._check_cli(*o["verify"], allowed=set())
        return [f"{self.name}: {q}" for q in out]

    def _check_cli(self, code, manifest, out_dir, allowed) -> list[str]:
        """A command may fail only through the verdicts named in ``allowed``,
        whose faults are known; any other non-PASS verdict is an error."""
        bad = {k for k, v in manifest["verdicts"].items() if v != "PASS"}
        out = []
        if "error" in manifest:
            out.append(f"cli {manifest['command']}: {manifest['error']}")
        if code not in (0, 1) or (code == 0) != (not bad) or not bad <= allowed:
            out.append(f"cli {manifest['command']}: exit {code}, non-PASS verdicts {sorted(bad)}")
        if manifest["command"] == "diagnose" and "boundary_consistency" in bad:
            with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
                value = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
            if not value["boundary_consistency"] <= 3.0 * self.g.h:
                out.append("cli diagnose: boundary_consistency above 3h on a coincident field")
        return out


WORKLOADS = {w.name: w for w in (ScalarLimit, SegregationLadder, InterfaceScan)}
