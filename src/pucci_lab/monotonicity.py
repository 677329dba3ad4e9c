"""The two-phase energy product J_r (Alt-Caffarelli-Friedman style) and its
monotonicity check.

For a nonnegative phase u_i and a base point x0,

    J_r(u_i, x0) = (1/r^2) integral over B_r(x0) of |grad u_i|^2,

the planar kernel being identically 1 (the |x - x0|^(n-2) weight degenerates
at n = 2, the only dimension in scope).  The product J_r(u) =
J_r(u1) J_r(u2) of the positive and negative parts of a sign-changing field
is non-decreasing in r for true solutions; on a two-plane field with slopes
alpha, beta it is the constant (pi^2 / 4) alpha^2 beta^2.

Quadrature is the midpoint rule over grid cells, each weighted by its share
of the ball (sub-sampled for the cells the rim cuts).  Phase splitting does not clip node values (clipping pollutes every
interface cell's gradient): cells are weighted by the area fraction of the
positive region under the cell's bilinear interpolant, and interface cells
take their gradient from the neighbor cell 1.5 h into the respective phase,
so a straight interface contributes the exact one-sided slope.  These
per-cell energies are computed once per field, over the whole grid, by the
first series check on it; each check then sums the cell window of its
largest ball only, so after that first whole-grid pass its cost follows the
largest radius, not the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import GridField, GridSpec, derived, require_radii

VERDICTS = ("PASS", "FAIL", "DEGENERATE")


@dataclass(frozen=True)
class JrSeries:
    """Per-radius values of J_r for the two phases and their product."""

    x0: tuple[float, float]
    radii: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    j: np.ndarray
    j0: float  # linear extrapolation of the product to r -> 0

    def __post_init__(self):
        radii = require_radii(self.radii)
        for name in ("j1", "j2", "j"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != radii.shape or not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise InputError(f"{name} must be finite, nonnegative, and match radii")


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str
    constancy_defect: float  # max_k |j_k - j_1| / j_1; nan when degenerate
    worst_drop: float        # largest relative decrease between consecutive radii


def _cell_gradients(u: np.ndarray, h: float):
    """Gradient of the bilinear interpolant at cell centers, shape (nx-1, nx-1)."""
    gx = (u[1:, :-1] - u[:-1, :-1] + u[1:, 1:] - u[:-1, 1:]) / (2.0 * h)
    gy = (u[:-1, 1:] - u[:-1, :-1] + u[1:, 1:] - u[1:, :-1]) / (2.0 * h)
    return gx, gy


def _cell_centers(spec: GridSpec, lo, hi):
    """Center coordinates of the cells [lo, hi) per axis, ij indexing."""
    return np.meshgrid(*(o + (np.arange(a, b) + 0.5) * spec.h
                         for o, a, b in zip(spec.origin, lo, hi)), indexing="ij")


def _tri_positive_fraction(a, b, c):
    """Area fraction of {v > 0} for a linear interpolant on a triangle.

    With the corners sorted lo <= mid <= hi, the zero chords cut off the
    corner triangle at lo (when mid > 0) or at hi (when only hi > 0); the
    similar-triangle ratio gives its area, as a product of two ratios that
    each lie in [0, 1], so no corner scale overflows or underflows.  The
    selected branch never divides by zero; the others may, so their warnings
    are silenced.
    """
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0.0, 1.0,
                        np.where(mid > 0.0, 1.0 - (lo / (lo - mid)) * (lo / (lo - hi)),
                                 np.where(hi > 0.0, (hi / (hi - lo)) * (hi / (hi - mid)), 0.0)))


def positive_cell_fraction(u: np.ndarray) -> np.ndarray:
    """Per-cell area fraction of the positive region, shape (nx-1, nx-1).

    Each cell splits into four triangles meeting at the center sample (the
    corner mean), which also resolves saddle cells the same way the contour
    extraction does.  A cell whose corners are all positive has a positive
    mean and fraction exactly 1; one with no positive corner has fraction
    exactly 0; only the other cells evaluate the triangle formulas.
    """
    corners = (u[:-1, :-1], u[1:, :-1], u[1:, 1:], u[:-1, 1:])
    n_pos = sum(c > 0.0 for c in corners)
    frac = (n_pos == 4).astype(float)
    mixed = (n_pos > 0) & (n_pos < 4)
    v00, v10, v11, v01 = (c[mixed] for c in corners)
    vc = 0.25 * (v00 + v10 + v11 + v01)
    total = (_tri_positive_fraction(v00, v10, vc) + _tri_positive_fraction(v10, v11, vc)
             + _tri_positive_fraction(v11, v01, vc) + _tri_positive_fraction(v01, v00, vc))
    frac[mixed] = 0.25 * total
    return frac


def _ball_cell_weights(spec: GridSpec, x0, radii):
    """Cell window around the largest ball B_r(x0), r in ``radii``, and per
    radius each window cell's share of the ball: 1 inside, 0 outside, and
    for a cell cut by the rim the fraction of an 8 x 8 sub-grid inside.

    The plain center-in-ball rule wobbles by (h/r)^2, which at the smallest
    radius of a desk-scale schedule is the same size as the monotonicity
    slack.  Only cells whose center lies within r_max + h/sqrt(2) of x0 carry
    weight (one more cell absorbs rounding), so the window [lo, hi) follows
    the largest radius, not the grid.
    """
    h = spec.h
    half_diag = h * math.sqrt(0.5)
    t = (np.asarray(x0, dtype=float) - spec.origin) / h
    reach = (float(max(radii)) + half_diag + h) / h
    lo = np.maximum(np.floor(t - reach).astype(int), 0)
    hi = np.minimum(np.ceil(t + reach).astype(int), spec.nx - 1)
    cx, cy = _cell_centers(spec, lo, hi)
    dist = np.hypot(cx - x0[0], cy - x0[1])
    sub = ((np.arange(8) + 0.5) / 8.0 - 0.5) * h
    weights = []
    for r in radii:
        w = (dist <= r - half_diag).astype(float)
        rim = np.abs(dist - r) < half_diag
        if np.any(rim):
            # an 8 x 8 sub-grid per rim cell, squared per axis, then paired
            px = cx[rim][:, None] + sub[None, :] - x0[0]
            py = cy[rim][:, None] + sub[None, :] - x0[1]
            w[rim] = np.mean((px * px)[:, :, None] + (py * py)[:, None, :] <= r * r, axis=(1, 2))
        weights.append(w)
    return (slice(lo[0], hi[0]), slice(lo[1], hi[1])), weights


def j_r(u_i: GridField, x0, r: float) -> float:
    """Normalized Dirichlet energy of one phase over B_r(x0), with the cell
    weights of :func:`j_series_check`."""
    if not (r > 0.0) or not math.isfinite(r):
        raise InputError(f"radius must be positive, got {r!r}")
    u_i.spec.require_ball(x0, r)
    if float(u_i.values.min()) < -1e-12:
        raise InputError("j_r expects a nonnegative phase (a positive or negative part)")
    h = u_i.spec.h
    window, (w,) = _ball_cell_weights(u_i.spec, x0, (r,))
    gx, gy = (g[window] for g in _cell_gradients(u_i.values, h))
    return float(np.sum(w * (gx * gx + gy * gy)) * h * h / (r * r))


def _displaced_cell_index(ix, iy, nx_cells, gx, gy, side: float):
    """Index of the cell 1.5 h into the positive (side=+1) or negative
    (side=-1) phase along the interface normal, clipped to the grid."""
    norm = np.hypot(gx, gy)
    safe = np.where(norm == 0.0, 1.0, norm)
    sx = np.rint(side * 1.5 * gx / safe).astype(int)
    sy = np.rint(side * 1.5 * gy / safe).astype(int)
    jx = np.clip(ix + np.where(norm == 0.0, 0, sx), 0, nx_cells - 1)
    jy = np.clip(iy + np.where(norm == 0.0, 0, sy), 0, nx_cells - 1)
    return jx, jy


@derived
def _phase_energies(u: GridField):
    """Per-cell one-sided energies on the whole grid, frac |grad|^2 for the
    positive phase and (1 - frac) |grad|^2 for the negative; an interface
    cell reads each phase's energy from its displaced neighbor; read-only."""
    gx, gy = _cell_gradients(u.values, u.spec.h)
    energy = gx * gx + gy * gy
    frac = positive_cell_fraction(u.values)
    mixed = (frac > 0.0) & (frac < 1.0)
    e1 = np.where(frac > 0.0, energy, 0.0)
    e2 = np.where(frac < 1.0, energy, 0.0)
    ix, iy = np.nonzero(mixed)
    for e, side in ((e1, +1.0), (e2, -1.0)):
        jx, jy = _displaced_cell_index(ix, iy, u.spec.nx - 1, gx[mixed], gy[mixed], side)
        e[ix, iy] = energy[jx, jy]
    e1 *= frac
    e2 *= 1.0 - frac
    e1.flags.writeable = e2.flags.writeable = False
    return e1, e2


# the relative drop of J_r that one step of the schedule may show and PASS
_SLACK = 0.02


def j_series_check(u: GridField, x0, radii):
    """J_r series of the positive/negative parts plus the monotonicity verdict.

    PASS means j(r_{k+1}) >= (1 - _SLACK) j(r_k) along the schedule, with
    _SLACK = 0.02; DEGENERATE means the product vanished at every radius (no
    genuine two phases), and no monotonicity judgment is made.
    """
    radii = require_radii(radii)
    u.spec.require_ball(x0, float(radii[-1]))

    h = u.spec.h
    window, weights = _ball_cell_weights(u.spec, x0, radii)
    e1, e2 = (e[window] for e in _phase_energies(u))
    j1 = np.array([np.sum(w * e1) * h * h / (r * r) for r, w in zip(radii, weights)])
    j2 = np.array([np.sum(w * e2) * h * h / (r * r) for r, w in zip(radii, weights)])
    j = j1 * j2

    j0 = float(j[0])
    if j[1] != j[0]:
        j0 = float(max(0.0, j[0] - radii[0] * (j[1] - j[0]) / (radii[1] - radii[0])))
    series = JrSeries(tuple(float(v) for v in x0), radii, j1, j2, j, j0)

    if np.all(j <= 0.0):
        return series, SeriesVerdict("DEGENERATE", math.nan, math.nan)
    drops = (j[:-1] - j[1:]) / np.where(j[:-1] == 0.0, 1.0, j[:-1])
    worst = float(max(0.0, drops.max()))
    verdict = "PASS" if worst <= _SLACK else "FAIL"
    defect = float(np.max(np.abs(j - j[0])) / j[0]) if j[0] > 0.0 else math.inf
    return series, SeriesVerdict(verdict, defect, worst)


def series_to_csv(series: JrSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("r,j1,j2,j\n")
        for r, a, b, p in zip(series.radii, series.j1, series.j2, series.j):
            fh.write(f"{r:.17g},{a:.17g},{b:.17g},{p:.17g}\n")
