"""Explicit pseudo-time relaxation for the scalar operators and the
two-species segregation system.

Scalar problems march u^{k+1} = u^k + tau R(u^k) with the degenerate-elliptic
residual R from :mod:`pucci_lab.operators` and the CFL step
tau = cfl h^2 / (4 Lam), stopping when the interior sup-norm of R reaches the
tolerance.  The segregation system

    M-(u_i) = (1/eps) u_1 u_2,   u_i >= 0,  u_i = f_i on the ring

uses the same march on both species with the coupling term and a clamp at
zero; its convergence metric is the sup-norm of the clamped update increment
divided by tau (the raw residual does not vanish on the dead core, the
complementarity form does).

Budget exhaustion returns the best iterate with ``converged=False`` rather
than raising; non-finite values raise :class:`BlowupError` naming the first
offending node.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BlowupError, ConfigurationError, InputError
from .grid import GridField, GridSpec
from .operators import (
    Ellipticity,
    OperatorPair,
    SchemeSpec,
    _resolve,
    residual_interior,
)


@dataclass(frozen=True)
class SolveConfig:
    """Knobs of the pseudo-time march."""

    scheme: SchemeSpec = SchemeSpec()
    tol: float = 1e-8
    max_iter: int = 200_000
    cfl: float = 0.8
    eps: float | None = None

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ConfigurationError(f"tol must be positive, got {self.tol!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigurationError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if self.eps is not None and not (self.eps > 0.0):
            raise ConfigurationError(f"eps must be positive when set, got {self.eps!r}")

    def with_eps(self, eps: float) -> "SolveConfig":
        return SolveConfig(self.scheme, self.tol, self.max_iter, self.cfl, eps)


@dataclass
class SolveResult:
    """Outcome of a solve; ``field`` is a GridField, or a (u1, u2) pair for
    the segregation system."""

    field: object
    iterations: int
    final_residual: float
    residual_history: np.ndarray
    lipschitz_seminorm: float
    converged: bool
    telemetry: dict = dc_field(default_factory=dict)


def lipschitz_seminorm(fld: GridField) -> float:
    """Max difference quotient |u(p) - u(q)| / |p - q| over 8-neighbor pairs."""
    u = fld.values
    h = fld.spec.h
    quot = max(
        np.abs(u[1:, :] - u[:-1, :]).max(initial=0.0),
        np.abs(u[:, 1:] - u[:, :-1]).max(initial=0.0),
    ) / h
    diag = max(
        np.abs(u[1:, 1:] - u[:-1, :-1]).max(initial=0.0),
        np.abs(u[1:, :-1] - u[:-1, 1:]).max(initial=0.0),
    ) / (h * np.sqrt(2.0))
    return float(max(quot, diag))


def _blowup_check(arr: np.ndarray, spec: GridSpec, what: str):
    if np.all(np.isfinite(arr)):
        return
    i, j = np.argwhere(~np.isfinite(arr))[0]
    # arr is an interior block; shift to grid indices
    gi, gj = int(i) + 1, int(j) + 1
    x = spec.origin[0] + gi * spec.h
    y = spec.origin[1] + gj * spec.h
    raise BlowupError(
        f"non-finite {what} at node ({gi}, {gj}), x=({x:.6g}, {y:.6g}); "
        "reduce cfl or check the operator configuration",
        node=(gi, gj),
        coords=(x, y),
    )


def _initial_values(boundary: GridField, initial: GridField | None) -> np.ndarray:
    if initial is not None:
        if initial.spec != boundary.spec:
            raise InputError("initial guess lives on a different grid")
        u = initial.values.copy()
        u[boundary.boundary_mask] = boundary.values[boundary.boundary_mask]
        return u
    u = boundary.values.copy()
    ring = boundary.boundary_mask
    u[~ring] = boundary.values[ring].mean()
    return u


def solve_dirichlet(
    boundary: GridField,
    op: str,
    cfg: SolveConfig,
    pair: OperatorPair | None = None,
    ell: Ellipticity | None = None,
    initial: GridField | None = None,
    frozen: np.ndarray | None = None,
) -> SolveResult:
    """March the selected operator to steady state under Dirichlet ring data.

    ``frozen`` optionally marks additional interior nodes to hold at their
    ``boundary`` values (used by singular-barrier fixtures whose datum is
    prescribed on a masked region, not only the ring).
    """
    pair, ell_r = _resolve(op, pair, ell, cfg.eps)
    ell_eff = ell_r if ell_r is not None else Ellipticity(1.0, 1.0)
    spec = boundary.spec
    if not np.all(np.isfinite(boundary.values)):
        raise InputError("boundary field contains non-finite values")
    u = _initial_values(boundary, initial)
    frozen_int = None
    if frozen is not None:
        frozen = np.asarray(frozen, dtype=bool)
        if frozen.shape != u.shape:
            raise InputError("frozen mask shape does not match the grid")
        u[frozen] = boundary.values[frozen]
        frozen_int = frozen[1:-1, 1:-1]
    tau = cfg.cfl * spec.h**2 / (4.0 * ell_eff.Lam)
    history = []
    best = None
    best_res = np.inf
    it = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        res_arr = residual_interior(u, spec.h, op, cfg.scheme, pair=pair, ell=ell_r, eps=cfg.eps)
        if frozen_int is not None:
            res_arr[frozen_int] = 0.0
        res = float(np.abs(res_arr).max())
        if not np.isfinite(res):
            _blowup_check(res_arr, spec, "residual")
        history.append(res)
        if res < best_res:
            best_res = res
            best = u.copy()
        if res <= cfg.tol:
            converged = True
            break
        u[1:-1, 1:-1] += tau * res_arr
    out = GridField(spec, best if best is not None else u)
    return SolveResult(
        field=out,
        iterations=it,
        final_residual=best_res,
        residual_history=np.asarray(history),
        lipschitz_seminorm=lipschitz_seminorm(out),
        converged=converged,
    )


def solve_segregation(
    f1: GridField,
    f2: GridField,
    cfg: SolveConfig,
    ell: Ellipticity = Ellipticity(1.0, 2.0),
    initial: tuple[GridField, GridField] | None = None,
) -> SolveResult:
    """Relax the clamped two-species system to its segregated steady state.

    Dirichlet data must be nonnegative with disjoint supports; the result
    field is the pair (u1, u2) and the reported Lipschitz seminorm is that of
    the limit candidate u1 - u2.
    """
    if f1.spec != f2.spec:
        raise InputError("species data live on different grids")
    if cfg.eps is None:
        raise ConfigurationError("segregation needs cfg.eps > 0")
    ring = f1.boundary_mask
    b1, b2 = f1.values[ring], f2.values[ring]
    if b1.min() < 0.0 or b2.min() < 0.0:
        raise InputError("species boundary data must be nonnegative")
    if np.any((b1 > 0.0) & (b2 > 0.0)):
        raise InputError("species boundary data must have disjoint supports")
    spec = f1.spec
    init1 = initial[0] if initial is not None else None
    init2 = initial[1] if initial is not None else None
    u1 = _initial_values(f1, init1)
    u2 = _initial_values(f2, init2)
    np.clip(u1, 0.0, None, out=u1)
    np.clip(u2, 0.0, None, out=u2)
    u1[ring] = f1.values[ring]
    u2[ring] = f2.values[ring]
    tau = cfg.cfl * spec.h**2 / (4.0 * ell.Lam)
    inv_eps = 1.0 / cfg.eps
    history = []
    it = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        v1, v2 = u1[1:-1, 1:-1], u2[1:-1, 1:-1]
        coup = inv_eps * v1 * v2
        r1 = residual_interior(u1, spec.h, "M_minus", cfg.scheme, ell=ell) - coup
        r2 = residual_interior(u2, spec.h, "M_minus", cfg.scheme, ell=ell) - coup
        c1 = np.maximum(v1 + tau * r1, 0.0)
        c2 = np.maximum(v2 + tau * r2, 0.0)
        inc = max(np.abs(c1 - v1).max(), np.abs(c2 - v2).max()) / tau
        if not np.isfinite(inc):
            _blowup_check(c1 - v1, spec, "update")
            _blowup_check(c2 - v2, spec, "update")
        history.append(float(inc))
        u1[1:-1, 1:-1] = c1
        u2[1:-1, 1:-1] = c2
        if inc <= cfg.tol:
            converged = True
            break
    g1, g2 = GridField(spec, u1), GridField(spec, u2)
    diff = GridField(spec, u1 - u2)
    overlap = float((u1 * u2).max())
    return SolveResult(
        field=(g1, g2),
        iterations=it,
        final_residual=history[-1] if history else np.inf,
        residual_history=np.asarray(history),
        lipschitz_seminorm=lipschitz_seminorm(diff),
        converged=converged,
        telemetry={"overlap_sup": overlap},
    )


@dataclass
class SweepEntry:
    eps: float
    iterations: int
    final_residual: float
    lipschitz_seminorm: float
    converged: bool


@dataclass
class SweepReport:
    """Per-epsilon records of a warm-started continuation, the consecutive
    sup-norm gaps, and the final field as the limit candidate."""

    entries: list[SweepEntry]
    gaps: list[float]
    fields: list[GridField]
    limit: GridField
    all_converged: bool


def epsilon_sweep(
    boundary: GridField,
    eps_list,
    cfg: SolveConfig,
    pair: OperatorPair,
    initial: GridField | None = None,
) -> SweepReport:
    """Solve G_eps for each eps in a strictly decreasing list, warm-starting
    each member from the previous solution.

    A non-converged member is recorded and the sweep continues from its best
    iterate, so the report is complete but flagged.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) == 0:
        raise ConfigurationError("eps_list must not be empty")
    if any(not (e > 0.0) for e in eps_arr):
        raise ConfigurationError(f"eps_list entries must be positive, got {eps_arr}")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ConfigurationError(f"eps_list must be strictly decreasing, got {eps_arr}")
    entries: list[SweepEntry] = []
    fields: list[GridField] = []
    gaps: list[float] = []
    warm = initial
    prev = None
    ok = True
    for e in eps_arr:
        res = solve_dirichlet(boundary, "G_eps", cfg.with_eps(e), pair=pair, initial=warm)
        entries.append(
            SweepEntry(e, res.iterations, res.final_residual, res.lipschitz_seminorm, res.converged)
        )
        ok = ok and res.converged
        fields.append(res.field)
        if prev is not None:
            gaps.append(float(np.abs(res.field.values - prev.values).max()))
        prev = res.field
        warm = res.field
    return SweepReport(entries=entries, gaps=gaps, fields=fields, limit=fields[-1], all_converged=ok)


def residuals_to_csv(history: np.ndarray, path) -> None:
    """Write the residual history as ``iter,residual`` rows."""
    with open(path, "w") as fh:
        fh.write("iter,residual\n")
        for k, r in enumerate(history):
            fh.write(f"{k},{r:.17g}\n")
