"""The two-phase energy product J_r (Alt-Caffarelli-Friedman style) and its
monotonicity check.

For a nonnegative phase u_i and a base point x0,

    J_r(u_i, x0) = (1/r^2) integral over B_r(x0) of |grad u_i|^2,

the planar kernel being identically 1 (the |x - x0|^(n-2) weight degenerates
at n = 2, the only dimension in scope).  The product J_r(u) =
J_r(u1) J_r(u2) of the positive and negative parts of a sign-changing field
is non-decreasing in r for true solutions; on a two-plane field with slopes
alpha, beta it is the constant (pi^2 / 4) alpha^2 beta^2.

Quadrature is the midpoint rule over grid cells whose centers fall in the
ball.  Phase splitting does not clip node values (clipping pollutes every
interface cell's gradient): cells are weighted by the area fraction of the
positive region under the cell's bilinear interpolant, and interface cells
take their gradient from the neighbor cell 1.5 h into the respective phase,
so a straight interface contributes the exact one-sided slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .grid import GridField

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
        radii = np.asarray(self.radii, dtype=float)
        if radii.ndim != 1 or radii.size == 0 or np.any(radii <= 0.0):
            raise InputError("radii must be a nonempty 1-D array of positive reals")
        if np.any(np.diff(radii) <= 0.0):
            raise InputError("radii must be strictly increasing")
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


def _cell_centers(fld: GridField):
    spec = fld.spec
    c = spec.origin[0] + (np.arange(spec.nx - 1) + 0.5) * spec.h
    cy = spec.origin[1] + (np.arange(spec.nx - 1) + 0.5) * spec.h
    return np.meshgrid(c, cy, indexing="ij")


def _tri_positive_fraction(a, b, c):
    """Area fraction of {v > 0} for a linear interpolant on a triangle.

    With the corners sorted lo <= mid <= hi, the zero chords cut off the
    corner triangle at lo (when mid > 0) or at hi (when only hi > 0); the
    similar-triangle ratio gives its area.  The selected branch never divides
    by zero; the others may, so their warnings are silenced.
    """
    lo, mid, hi = np.sort(np.stack([a, b, c]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0.0, 1.0,
                        np.where(mid > 0.0, 1.0 - lo * lo / ((lo - mid) * (lo - hi)),
                                 np.where(hi > 0.0, hi * hi / ((hi - lo) * (hi - mid)), 0.0)))


def positive_cell_fraction(u: np.ndarray) -> np.ndarray:
    """Per-cell area fraction of the positive region, shape (nx-1, nx-1).

    Each cell splits into four triangles meeting at the center sample (the
    corner mean), which also resolves saddle cells the same way the contour
    extraction does.
    """
    v00 = u[:-1, :-1]
    v10 = u[1:, :-1]
    v11 = u[1:, 1:]
    v01 = u[:-1, 1:]
    vc = 0.25 * (v00 + v10 + v11 + v01)
    total = (_tri_positive_fraction(v00, v10, vc) + _tri_positive_fraction(v10, v11, vc)
             + _tri_positive_fraction(v11, v01, vc) + _tri_positive_fraction(v01, v00, vc))
    return 0.25 * total


def j_r(u_i: GridField, x0, r: float) -> float:
    """Normalized Dirichlet energy of one phase over B_r(x0)."""
    if not (r > 0.0) or not math.isfinite(r):
        raise InputError(f"radius must be positive, got {r!r}")
    u_i.spec.require_ball(x0, r)
    if float(u_i.values.min()) < -1e-12:
        raise InputError("j_r expects a nonnegative phase (a positive or negative part)")
    h = u_i.spec.h
    gx, gy = _cell_gradients(u_i.values, h)
    cx, cy = _cell_centers(u_i)
    mask = (cx - x0[0]) ** 2 + (cy - x0[1]) ** 2 <= r * r
    return float(np.sum((gx[mask] ** 2 + gy[mask] ** 2)) * h * h / (r * r))


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


def j_series_check(u: GridField, x0, radii, eta: float = 0.02):
    """J_r series of the positive/negative parts plus the monotonicity verdict.

    PASS means j(r_{k+1}) >= (1 - eta) j(r_k) along the schedule; DEGENERATE
    means the product vanished at every radius (no genuine two phases), and
    no monotonicity judgment is made.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise InputError("radii must be a 1-D schedule with at least two entries")
    if np.any(np.diff(radii) <= 0.0) or np.any(radii <= 0.0):
        raise InputError("radii must be positive and strictly increasing")
    if not (0.0 <= eta < 1.0):
        raise ConfigurationError(f"slack eta must be in [0, 1), got {eta!r}")
    u.spec.require_ball(x0, float(radii[-1]))

    h = u.spec.h
    vals = u.values
    gx, gy = _cell_gradients(vals, h)
    energy = gx * gx + gy * gy
    frac = positive_cell_fraction(vals)
    n_cells = u.spec.nx - 1

    # interface cells read their one-sided energies from displaced neighbors
    mixed = (frac > 0.0) & (frac < 1.0)
    e_pos = np.where(frac > 0.0, energy, 0.0)
    e_neg = np.where(frac < 1.0, energy, 0.0)
    if np.any(mixed):
        ix, iy = np.nonzero(mixed)
        jx, jy = _displaced_cell_index(ix, iy, n_cells, gx[mixed], gy[mixed], +1.0)
        e_pos[ix, iy] = energy[jx, jy]
        jx, jy = _displaced_cell_index(ix, iy, n_cells, gx[mixed], gy[mixed], -1.0)
        e_neg[ix, iy] = energy[jx, jy]

    cx, cy = _cell_centers(u)
    dist = np.hypot(cx - x0[0], cy - x0[1])
    # cells cut by the ball rim get sub-sampled coverage weights; the plain
    # center-in-ball rule wobbles by (h/r)^2, which at the smallest radius of
    # a desk-scale schedule is the same size as the monotonicity slack
    half_diag = h * math.sqrt(0.5)
    sub = (np.arange(8) + 0.5) / 8.0 - 0.5
    ox, oy = [o.ravel() * h for o in np.meshgrid(sub, sub, indexing="ij")]
    e1 = frac * e_pos
    e2 = (1.0 - frac) * e_neg
    j1 = np.empty(radii.shape)
    j2 = np.empty(radii.shape)
    for k, r in enumerate(radii):
        w = (dist <= r - half_diag).astype(float)
        rim = np.abs(dist - r) < half_diag
        if np.any(rim):
            px = cx[rim][:, None] + ox[None, :] - x0[0]
            py = cy[rim][:, None] + oy[None, :] - x0[1]
            w[rim] = np.mean(px * px + py * py <= r * r, axis=1)
        j1[k] = np.sum(w * e1) * h * h / (r * r)
        j2[k] = np.sum(w * e2) * h * h / (r * r)
    j = j1 * j2

    j0 = float(j[0])
    if j[1] != j[0]:
        j0 = float(max(0.0, j[0] - radii[0] * (j[1] - j[0]) / (radii[1] - radii[0])))
    series = JrSeries(tuple(float(v) for v in x0), radii, j1, j2, j, j0)

    if np.all(j <= 0.0):
        return series, SeriesVerdict("DEGENERATE", math.nan, math.nan)
    drops = (j[:-1] - j[1:]) / np.where(j[:-1] == 0.0, 1.0, j[:-1])
    worst = float(max(0.0, drops.max()))
    verdict = "PASS" if worst <= eta else "FAIL"
    defect = float(np.max(np.abs(j - j[0])) / j[0]) if j[0] > 0.0 else math.inf
    return series, SeriesVerdict(verdict, defect, worst)


def series_to_csv(series: JrSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("r,j1,j2,j\n")
        for r, a, b, p in zip(series.radii, series.j1, series.j2, series.j):
            fh.write(f"{r:.17g},{a:.17g},{b:.17g},{p:.17g}\n")
