"""Damped Newton-Krylov for the scalar operators and for the two-species
segregation system.

Scalar problems solve R(u) = 0 for the residual R of
:mod:`pucci_lab.operators`.  Each Newton step linearizes R at its active
policy (``operators.linearize``: the attaining matrix per node, plus
H'(u) (F- - F+) for G_eps), solves J delta = -R matrix-free by BiCGSTAB
preconditioned with the inverse of (lam + Lam) / 2 times the 5-point
Laplacian (a dense sine basis), (lam, Lam) the band of the families the
selector runs, (1, 1) for the laplacian, to a relative residual that is a
forcing term with a floor (``_forcing``).  Frozen nodes are held rows:
identity rows of J, which the preconditioner passes through and zeroes in
the Laplacian's input.  The segregation system

    M-(u_i) = (1/eps) u_1 u_2,   u_i >= 0,  u_i = f_i on the ring

is solved in its complementarity form Phi_i = min(v_i / tau, G_i) = 0 on the
interior values v_i, with G_i = v_1 v_2 / eps - M-(u_i) and
tau = cfl h^2 / (4 Lam): sup |Phi| is the increment
|max(v_i - tau G_i, 0) - v_i| / tau of one clamped explicit step of size tau,
the convergence metric of the explicit march this solver replaced, so
tolerances keep their meaning.  Its semismooth Newton step (Hintermueller,
Ito & Kunisch 2002) takes the row d_i / tau = -v_i / tau where
v_i / tau < G_i (the active set) and the row
-J_i d_i + (v_j d_i + v_i d_j) / eps = -G_i elsewhere, J_i the policy
Jacobian of M-(u_i).  Scaled by tau, the active rows read d_i = -v_i: they
are held rows, like frozen nodes, and the (2, n, n) stack of both species
goes through each residual and policy-Jacobian call and the same direction,
BiCGSTAB and preconditioner as a scalar solve.

Both share one damped Newton loop: each step halves from 1 down to 2^-10
until the interior sup-norm of the residual falls.  It stops when that
sup-norm reaches the tolerance ("tol"), when ``max_iter`` iterates have been
evaluated ("budget"), or when no step lowers it ("stall").  Neither scheme is
monotone, so convergence is measured, not proved, and a stall is reported
rather than hidden.  Without an initial guess both start from the discrete
harmonic extension of their Dirichlet data (the ring and any frozen node, or
each species' ring, clamped at 0): one held-row Newton direction of the
5-point Laplacian, which the preconditioner inverts up to its scale.

An unconverged solve returns its best iterate with ``converged=False``
rather than raising; a non-finite starting residual raises
:class:`BlowupError` naming the first offending node.

The preconditioner diagonalises the Laplacian in the sine basis by dense
matrix products rather than fast transforms, so the solvers, like the rest
of the package, need numpy alone.  Up to 127 interior nodes a side that is
as fast as ``scipy.fft`` or faster, and ``scipy.fft``'s import alone took
0.3 s (``_PoissonPreconditioner``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowupError, ConfigurationError, InputError
from .grid import GridField, GridSpec, lipschitz_seminorm
from .operators import (
    Ellipticity,
    OperatorPair,
    SchemeSpec,
    _resolve,
    jacobian_apply,
    linearize,
    residual_interior,
)

# Newton-Krylov constants: BiCGSTAB's relative tolerance, the floor of each
# Newton step's forcing term (``_forcing``), and its iteration cap; the
# smallest backtracking step tried
KRYLOV_RTOL = 1e-6
KRYLOV_MAX_ITER = 500
MIN_STEP = 2.0 ** -10


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings.  ``max_iter`` counts the Newton iterates whose
    residual is evaluated.  ``cfl`` sets only the scale tau of the segregation
    residual's active rows, v_i / tau: the solution of Phi = 0 does not
    depend on it, the stopping test does."""

    scheme: SchemeSpec = SchemeSpec()
    tol: float = 1e-8
    max_iter: int = 100
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
        return replace(self, eps=eps)


@dataclass
class SolveResult:
    """Outcome of a solve; ``field`` is a GridField, or a (u1, u2) pair for
    the segregation system.  The iterate count, final residual and verdict
    are read off the residual history and the stop reason."""

    field: object
    residual_history: np.ndarray
    lipschitz_seminorm: float
    telemetry: dict

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        return float(self.residual_history[-1])

    @property
    def converged(self) -> bool:
        return self.telemetry["stop_reason"] == "tol"


def _blowup_error(arr: np.ndarray, spec: GridSpec) -> BlowupError:
    """The error naming the first non-finite node of ``arr``, an interior
    block or a stack of them."""
    *_, i, j = np.argwhere(~np.isfinite(arr))[0]
    gi, gj = int(i) + 1, int(j) + 1
    x = spec.origin[0] + gi * spec.h
    y = spec.origin[1] + gj * spec.h
    return BlowupError(
        f"non-finite residual at node ({gi}, {gj}), x=({x:.6g}, {y:.6g}); "
        "check the data, the initial guess and the operator configuration",
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
    """Solve the selected operator under Dirichlet ring data by damped Newton.

    ``frozen`` optionally marks additional interior nodes to hold at their
    ``boundary`` values (used by singular-barrier fixtures whose datum is
    prescribed on a masked region, not only the ring).
    """
    _, minus, plus = _resolve(op, cfg.scheme, pair, ell, cfg.eps)
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
        if not frozen_int.any():
            frozen_int = None

    def residual(v):
        r = residual_interior(v, spec.h, op, cfg.scheme, pair=pair, ell=ell, eps=cfg.eps)
        if frozen_int is not None:
            r[frozen_int] = 0.0
        return r, float(np.abs(r).max())

    band = (minus or plus).ell
    precond = _PoissonPreconditioner(spec.nx - 2, spec.h, 0.5 * (band.lam + band.Lam))
    pad = np.zeros_like(u)
    krylov = [] if initial is not None else [_harmonic_start(u, precond, pad, frozen_int, spec.h)]

    def direction(v, res_arr, eta):
        _, coefs, diag = linearize(v, spec.h, op, cfg.scheme, pair=pair, ell=ell, eps=cfg.eps)

        def jac(x):
            pad[1:-1, 1:-1] = x
            return jacobian_apply(coefs, diag, pad, spec.h)

        return _newton_direction(jac, res_arr, precond, frozen_int, eta)

    u, history, tel = _newton(u, residual, direction, cfg, spec, krylov)
    out = GridField(spec, u)
    return SolveResult(out, np.asarray(history), lipschitz_seminorm(out), tel)


def _newton(u, residual, direction, cfg: SolveConfig, spec: GridSpec, krylov: list,
            nonnegative: bool = False, adaptive: bool = True):
    """Damped Newton on the interior of ``u`` (a grid array, or a stack of
    them), the one loop of every solve.

    ``residual(u)`` returns the residual array and its sup-norm;
    ``direction(u, r, eta)`` returns the Newton increment of the interior,
    solved to the relative tolerance ``eta = _forcing(history, cfg.tol,
    adaptive)``, and its Krylov iteration count, and may consume ``r``.
    ``krylov`` lists the iteration counts of the Krylov solves that made
    ``u`` (a cold start's), and each step appends its own.  Each step halves
    from 1 down to MIN_STEP until the sup-norm falls; with ``nonnegative``
    each trial is clamped at 0 before its residual is evaluated.  Returns
    the last iterate, the sup-norm history and the telemetry: the stop
    reason ("tol", "budget" or "stall"), the total Krylov iterations and the
    number of Krylov solves that ended at KRYLOV_MAX_ITER; every accepted
    step lowers the residual, so the last iterate is the best.
    """
    res_arr, res = residual(u)
    if not np.isfinite(res):
        raise _blowup_error(res_arr, spec)
    history = [res]
    stop = "tol" if res <= cfg.tol else None
    while stop is None and len(history) < cfg.max_iter:
        delta, k = direction(u, res_arr, _forcing(history, cfg.tol, adaptive))
        krylov.append(k)
        trial = u.copy()
        step = 1.0
        while True:
            trial[..., 1:-1, 1:-1] = u[..., 1:-1, 1:-1] + step * delta
            if nonnegative:
                np.maximum(trial, 0.0, out=trial)
            t_arr, t_res = residual(trial)
            if t_res < res:
                break
            step *= 0.5
            if step < MIN_STEP:
                stop = "stall"
                break
        if stop is None:
            u, res_arr, res = trial, t_arr, t_res
            history.append(res)
            if res <= cfg.tol:
                stop = "tol"
    return u, history, {"stop_reason": stop or "budget", "krylov_iterations": sum(krylov),
                        "krylov_capped": krylov.count(KRYLOV_MAX_ITER)}


def _forcing(history, tol: float, adaptive: bool) -> float:
    """The forcing term eta_k = min(0.5, max(KRYLOV_RTOL, psi_k, 0.5 tol /
    |F_k|)) of the next inexact Newton step, |F_k| the last of the residual
    sup-norms ``history``; the tol floor (Kelley 1995) keeps the last step
    from solving past ``tol``.  With ``adaptive`` psi_k is Eisenstat &
    Walker's choice 2 (SIAM J. Sci. Comput. 1996; gamma = 0.9, alpha = 2,
    eta_max = 0.1): 0.1, then min(0.1, 0.9 (|F_k| / |F_k-1|)^2); else it is
    KRYLOV_RTOL."""
    psi = min(0.1, 0.9 * (history[-1] / history[-2]) ** 2) if len(history) > 1 else 0.1
    return min(0.5, max(KRYLOV_RTOL, psi if adaptive else 0.0, 0.5 * tol / history[-1]))


def _harmonic_start(u, precond, pad, held, h) -> int:
    """Replace the interior of ``u`` (a grid array, or a stack of them) by
    the discrete harmonic extension of its ring and ``held`` values; returns
    the Krylov iteration count.  It is one Newton direction of the 5-point
    Laplacian, which ``precond`` inverts up to its scale, so that with no
    held rows BiCGSTAB ends after one iteration."""
    lap = (1.0, 1.0, 0.0)  # the Laplacian's policy coefficients

    def jac(x):
        pad[..., 1:-1, 1:-1] = x
        return jacobian_apply(lap, None, pad, h)

    r = jacobian_apply(lap, None, u, h)
    if held is not None:
        r[held] = 0.0
    delta, k = _newton_direction(jac, r, precond, held, KRYLOV_RTOL)
    u[..., 1:-1, 1:-1] += delta
    return k


def _newton_direction(jac_free, r, precond, held, rtol):
    """Solve J delta = -r to the relative residual ``rtol`` by preconditioned
    BiCGSTAB, the one linear solve of every Newton step; returns delta and
    the iteration count.

    ``jac_free(x)`` is the caller's Jacobian applied to x (an interior block,
    or a stack of them), read on the rows that are not ``held``.  The held
    rows (a mask, or None) are identity rows of J: the preconditioner returns
    its input there and inverts the Laplacian on the other rows with the held
    entries zeroed.  ``r`` is consumed.
    """
    if held is None or not held.any():
        jac, psolve = jac_free, precond.apply
    else:
        # 0/1 weights, built once a step: on a random 2 x 127^2 mask the
        # weighted update takes 0.06 ms, a masked assignment 0.5 ms
        on = held.astype(float)
        off = 1.0 - on

        def jac(x):
            out = jac_free(x)
            out *= off
            out += on * x
            return out

        def psolve(p):
            x = precond.apply(off * p)
            x *= off
            x += on * p
            return x

    return _bicgstab(jac, psolve, np.negative(r, out=r), rtol)


def _dot(a, b) -> float:
    # einsum sums in numpy's own loop, over the flat view of a block or a
    # stack alike.  BLAS dot threads vectors of this size, and its threads
    # stall while another process holds a core: on 2 cores with one busy,
    # np.dot of 16129 entries took 6.2 ms, this 30 us.
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def _bicgstab(jac, psolve, b, rtol):
    """Right-preconditioned BiCGSTAB (van der Vorst 1992) from zero, to the
    relative residual ``rtol``; returns x and the iteration count.  A
    breakdown or the iteration cap returns the iterate reached, which the
    Newton step's backtracking then judges."""
    x = np.zeros_like(b)
    r, shadow = b.copy(), b
    stop = rtol * np.sqrt(_dot(b, b))
    rho = alpha = omega = 1.0
    p = v = None
    for it in range(1, KRYLOV_MAX_ITER + 1):
        rho, rho_old = _dot(shadow, r), rho
        if rho == 0.0 or omega == 0.0:
            return x, it - 1
        if p is None:
            p = r.copy()
        else:  # p = r + beta (p - omega v), in place
            p -= omega * v
            p *= (rho / rho_old) * (alpha / omega)
            p += r
        p_hat = psolve(p)
        v = jac(p_hat)
        rv = _dot(shadow, v)
        if rv == 0.0:
            return x, it - 1
        alpha = rho / rv
        x += alpha * p_hat
        r -= alpha * v
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it
        r_hat = psolve(r)
        t = jac(r_hat)
        omega = _dot(t, r) / _dot(t, t)
        x += omega * r_hat
        r -= omega * t
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it
    return x, KRYLOV_MAX_ITER


class _PoissonPreconditioner:
    """Inverse of scale times the 5-point Dirichlet Laplacian on the n x n
    interior, by its tensor-product diagonalisation (Lynch, Rice & Thomas,
    Numer. Math. 1964): Q (Q r Q / eig) Q, with Q the orthonormal type-1
    sine matrix, symmetric and its own inverse.  A stack of interiors is
    inverted block by block.

    An apply is four dense products, O(n^3) against the O(n^2 log n) of
    fast sine transforms, with no per-call overhead.  Against
    ``scipy.fft``'s transforms on 2 cores (``BENCH_17.json``) it is 4x
    faster at n = 31, 2x at n = 63, at parity for an n = 127 block, and
    slower for a (2, 127, 127) stack (1.1x to 1.6x) and at n = 255 and 511
    (1.2x to 2.1x).
    With another process holding one core, OpenBLAS's threads contend, and
    an n = 127 block is already 1.3x to 1.8x slower."""

    def __init__(self, n: int, h: float, scale: float):
        k = np.arange(1, n + 1)
        lam1 = (2.0 * np.cos(np.pi * k / (n + 1)) - 2.0) / (h * h)
        self.eig = scale * (lam1[:, None] + lam1[None, :])
        # j k reduced mod 2(n + 1) as integers keeps every sine argument in
        # [0, 2 pi), so its rounding error is that of a small argument
        jk = np.outer(k, k) % (2 * (n + 1))
        self.q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))

    def apply(self, r):
        """The preconditioned array for ``r``, an (n, n) block or a stack of
        them: the products broadcast over the leading axis."""
        q = self.q
        spec = q @ r @ q
        spec /= self.eig
        return q @ spec @ q


def solve_segregation(
    f1: GridField,
    f2: GridField,
    cfg: SolveConfig,
    ell: Ellipticity = Ellipticity(1.0, 2.0),
    initial: tuple[GridField, GridField] | None = None,
) -> SolveResult:
    """Solve the clamped two-species system for its segregated steady state
    by semismooth Newton on Phi (module docstring).

    Dirichlet data must be nonnegative with disjoint supports; the result
    field is the pair (u1, u2) and the reported Lipschitz seminorm is that of
    the limit candidate u1 - u2.  Without ``initial`` both species start
    from the harmonic extension of their ring data, one (2, n, n) Laplacian
    solve, clamped at 0.  Every trial iterate is clamped at 0 before its
    residual is evaluated, so the returned pair is >= 0 exactly whatever the
    stop reason, and ``final_residual`` is its own sup |Phi|.  Cold starts at
    the smallest eps can fail (tol 1e-8, cfl 1, ``edge_bumps``, nx = 9, 17
    and 33, amplitudes 1 and 60, eps = 1e-4 to 1e-7): eps = 1e-7 at nx = 9
    and at nx = 17 with amplitude 60, and eps = 1e-6 at nx = 9 with
    amplitude 60, run out of the default 100 iterates; eps = 1e-7 at nx = 33
    with amplitude 60 stops on ``stall`` after 49 iterates.  The other 19
    converge, in 8 to 94 iterates.
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
    h, n = spec.h, spec.nx - 2
    u = np.stack([_initial_values(f, w) for f, w in zip((f1, f2), initial or (None, None))])
    tau = cfg.cfl * h * h / (4.0 * ell.Lam)
    inv_eps = 1.0 / cfg.eps

    def residual(w):
        v = w[:, 1:-1, 1:-1]
        g = inv_eps * v[0] * v[1] - residual_interior(w, h, "M_minus", cfg.scheme, ell=ell)
        phi = np.minimum(v / tau, g, out=g)
        return phi, float(np.abs(phi).max())

    # the Poisson preconditioner carries the sign of -M-'s Jacobian
    precond = _PoissonPreconditioner(n, h, -0.5 * (ell.lam + ell.Lam))
    pads = np.zeros((2, n + 2, n + 2))

    def direction(w, phi, eta):
        v = w[:, 1:-1, 1:-1]
        m, coefs, _ = linearize(w, h, "M_minus", cfg.scheme, ell=ell)
        active = v / tau < inv_eps * v[0] * v[1] - m

        def jac(x):
            pads[:, 1:-1, 1:-1] = x
            out = v[::-1] * x
            out += v * x[::-1]
            out *= inv_eps
            out -= jacobian_apply(coefs, None, pads, h)
            return out

        # the active rows d_i / tau = -Phi_i, times tau: held at tau Phi_i = v_i
        phi[active] = v[active]
        return _newton_direction(jac, phi, precond, active, eta)

    krylov = [] if initial is not None else [_harmonic_start(u, precond, pads, None, h)]
    np.clip(u, 0.0, None, out=u)
    # only the tol floor: Eisenstat-Walker's loose early solves move the
    # active set, and the coarse ladder's stiff rung took 7 to 9 iterates, not 6
    u, history, tel = _newton(u, residual, direction, cfg, spec, krylov, nonnegative=True,
                              adaptive=False)
    tel["overlap_sup"] = float((u[0] * u[1]).max())
    return SolveResult((GridField(spec, u[0]), GridField(spec, u[1])), np.asarray(history),
                       lipschitz_seminorm(GridField(spec, u[0] - u[1])), tel)


@dataclass
class SweepEntry:
    eps: float
    iterations: int
    final_residual: float
    lipschitz_seminorm: float
    converged: bool
    stop_reason: str
    krylov_iterations: int
    krylov_capped: int


@dataclass
class SweepReport:
    """Per-epsilon records of a warm-started continuation, the consecutive
    sup-norm gaps, and the final field as the limit candidate."""

    entries: list[SweepEntry]
    gaps: list[float]
    fields: list[GridField]

    @property
    def limit(self) -> GridField:
        return self.fields[-1]

    @property
    def all_converged(self) -> bool:
        return all(e.converged for e in self.entries)


def eps_ladder(eps_list) -> list[float]:
    """``eps_list`` as floats, checked to be a continuation ladder: nonempty,
    positive and strictly decreasing."""
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) == 0:
        raise ConfigurationError("eps_list must not be empty")
    if any(not (e > 0.0) for e in eps_arr):
        raise ConfigurationError(f"eps_list entries must be positive, got {eps_arr}")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ConfigurationError(f"eps_list must be strictly decreasing, got {eps_arr}")
    return eps_arr


def epsilon_sweep(
    boundary: GridField,
    eps_list,
    cfg: SolveConfig,
    pair: OperatorPair,
) -> SweepReport:
    """Solve G_eps for each eps in a strictly decreasing list, warm-starting
    each member from the previous solution.

    A non-converged member is recorded and the sweep continues from its best
    iterate, so the report is complete but flagged.
    """
    report = SweepReport([], [], [])
    for e in eps_ladder(eps_list):
        warm = report.limit if report.fields else None
        res = solve_dirichlet(boundary, "G_eps", cfg.with_eps(e), pair=pair, initial=warm)
        report.entries.append(
            SweepEntry(e, res.iterations, res.final_residual, res.lipschitz_seminorm, res.converged,
                       res.telemetry["stop_reason"], res.telemetry["krylov_iterations"],
                       res.telemetry["krylov_capped"])
        )
        if report.fields:
            report.gaps.append(float(np.abs(res.field.values - warm.values).max()))
        report.fields.append(res.field)
    return report


def residuals_to_csv(history: np.ndarray, path) -> None:
    """Write the residual history as ``iter,residual`` rows."""
    with open(path, "w") as fh:
        fh.write("iter,residual\n")
        for k, r in enumerate(history):
            fh.write(f"{k},{r:.17g}\n")
