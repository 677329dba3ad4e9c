"""Interface extraction and pointwise diagnostics on sign-changing fields.

The interface is the zero contour of a node-sampled field, extracted by
marching squares with linear edge interpolation; ambiguous saddle cells are
resolved by the sign of the cell-center sample (the corner mean), matching
the area-fraction convention in :mod:`.monotonicity`.  Per-vertex normals
come from the interpolated gradient and point into {u > 0}; vertices within
a cell of the walls take it from one cell in, where it is a central
difference.

On top of the curve sit the diagnostics: coincidence of the two phase
boundaries (Hausdorff distance between one level curve of each phase),
growth classification of interface points, two-plane slope fits with the
equal-slope check, band flatness of level sets, and cone monotonicity
measured on a dyadic epsilon ladder.

A point is regular iff its growth exponent k, sup_{B_r} |u| ~ r^k read as
a log-log slope over the record's radii, is below 3/2: halfway between the
linear growth of a regular point and the quadratic growth of a nondegenerate
critical zero (grad u = 0).  k needs no scale, so a small but linear slope
beside a singular point still reads regular.

"Sup over a ball" quantities of :func:`ball_sup` and the regularity
records come from the bilinear interpolant's maximum principle: it is
harmonic in each cell and linear on each cell edge, so its max and min over
a closed ball lie at a node in the ball or on the circle, which is sampled
at its grid-line crossings (the interpolant's kinks along it) and at
uniform angles at most h apart.  Cone monotonicity still samples each translated ball, at 65
polar points (the center and 16 angles on 4 circles), so it can miss the
interpolant's max there; it translates its whole node window at once: one
constant shift is one bilinear combination of four shifted slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .grid import (GridField, GridSpec, bilinear_sample, bilinear_shift, blowup_stack,
                   gradient_field, lipschitz_seminorm, require_radii)


@dataclass(frozen=True)
class FreeBoundaryCurve:
    """Zero-contour vertices with inward normals and connecting segments."""

    vertices: np.ndarray                 # (N, 2) points on cell edges
    normals: np.ndarray                  # (N, 2) unit vectors into {u > 0}
    segments: tuple[tuple[int, int], ...]

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0

    def nearest_vertex(self, x0) -> int:
        if self.is_empty:
            raise InputError("curve is empty")
        d2 = (self.vertices[:, 0] - x0[0]) ** 2 + (self.vertices[:, 1] - x0[1]) ** 2
        return int(np.argmin(d2))


@dataclass(frozen=True)
class SlopeFit:
    """Fitted two-plane asymptote alpha <x-x0,nu>+ - beta <x-x0,nu>-."""

    x0: tuple[float, float]
    nu: tuple[float, float]
    alpha: float
    beta: float
    residual: float          # sup |u_r - profile| over the unit-ball fit annulus
    no_asymptote: bool       # residual stayed above 0.5 at every radius


# a point is regular iff its growth exponent is below this (module notes)
_GROWTH_SPLIT = 1.5


@dataclass(frozen=True)
class RegularityRecord:
    """Linear-growth measurements at an interface point."""

    x0: tuple[float, float]
    M: float                 # min over radii of sup |u| / r
    is_regular: bool
    c_lower: float           # min over radii and phases of sup u_i / r
    C_upper: float           # max over radii and phases of sup u_i / r
    zero_density: float      # area fraction of {u <= 0} in the half-radius ball
    growth_exponent: float   # log-log slope of sup |u| over the radii


@dataclass(frozen=True)
class ConeSpec:
    """Axis direction and semi-opening angle (radians) of a monotonicity cone."""

    axis: tuple[float, float]
    theta: float

    def __post_init__(self):
        norm = math.hypot(*self.axis)
        if abs(norm - 1.0) > 1e-9:
            raise ConfigurationError(f"cone axis must be a unit vector, |axis| = {norm!r}")
        top = math.pi / 2.0
        if not (0.0 < self.theta < top):
            raise ConfigurationError(
                f"semi-opening must lie in (0, {math.degrees(top):g}) degrees, got "
                f"{math.degrees(self.theta):g} degrees ({self.theta!r} rad)"
            )

    @staticmethod
    def from_degrees(angle_deg: float, theta_deg: float) -> "ConeSpec":
        a = math.radians(angle_deg)
        return ConeSpec((math.cos(a), math.sin(a)), math.radians(theta_deg))


def extract_zero_set(u: GridField) -> FreeBoundaryCurve:
    """Marching-squares zero contour with center-sample saddle resolution."""
    v = u.values
    if not np.all(np.isfinite(v)):
        raise InputError("field contains non-finite values")
    spec = u.spec
    h = spec.h
    ox, oy = spec.origin
    pos = v > 0.0

    # crossings on the x-edges (i, j)-(i+1, j), then on the y-edges
    # (i, j)-(i, j+1); the fallback normal runs along the edge into {u > 0}
    cross_x, cross_y = pos[:-1, :] != pos[1:, :], pos[:, :-1] != pos[:, 1:]
    ix, jx = np.nonzero(cross_x)
    iy, jy = np.nonzero(cross_y)
    tx = v[ix, jx] / (v[ix, jx] - v[ix + 1, jx])
    ty = v[iy, jy] / (v[iy, jy] - v[iy, jy + 1])
    pts = np.concatenate([np.stack([ox + (ix + tx) * h, oy + jx * h], axis=1),
                          np.stack([ox + iy * h, oy + (jy + ty) * h], axis=1)])
    fallback = np.zeros_like(pts)
    fallback[:ix.size, 0] = 1.0 - 2.0 * pos[ix, jx]
    fallback[ix.size:, 1] = 1.0 - 2.0 * pos[iy, jy]

    # vertex index per edge, -1 where the edge keeps one sign; each crossed
    # cell's edges in the order (bottom, top, left, right)
    xing_x = np.full(cross_x.shape, -1)
    xing_x[ix, jx] = np.arange(ix.size)
    xing_y = np.full(cross_y.shape, -1)
    xing_y[iy, jy] = ix.size + np.arange(iy.size)
    ci, cj = np.nonzero(cross_x[:, :-1] | cross_x[:, 1:] | cross_y[:-1, :] | cross_y[1:, :])
    edges = np.stack([xing_x[ci, cj], xing_x[ci, cj + 1], xing_y[ci, cj], xing_y[ci + 1, cj]],
                     axis=1)
    # a cell crosses 2 or 4 edges; with 2 its segment joins the first two
    order = np.argsort(edges < 0, axis=1, kind="stable")
    saddle = (edges >= 0).all(axis=1)
    # at a saddle, where the corner-(i,j) phase runs through the cell center
    # the contour cuts off the two opposite corners: (bottom, right), (left, top);
    # otherwise (bottom, left), (right, top)
    center = 0.25 * (v[ci, cj] + v[ci + 1, cj] + v[ci, cj + 1] + v[ci + 1, cj + 1])
    cut = ((center > 0.0) == pos[ci, cj])[saddle, None]
    order[saddle] = np.where(cut, [0, 3, 2, 1], [0, 2, 3, 1])
    ends = np.take_along_axis(edges, order, axis=1).reshape(-1, 2, 2)
    segments = ends[np.stack([np.ones_like(saddle), saddle], axis=1)]

    # the interface is a subset of the open domain; crossings sitting exactly
    # on the boundary ring belong to the datum, not to the curve
    lo = np.asarray(spec.origin)
    hi = lo + spec.extent
    edge_tol = 1e-12 * spec.extent
    interior = np.all((pts > lo + edge_tol) & (pts < hi - edge_tol), axis=1)
    segments = segments[interior[segments].all(axis=1)]
    # and so does a vertex whose partner in each of its cells sits on the ring
    keep = np.bincount(segments.ravel(), minlength=len(pts)) > 0
    segments = (np.cumsum(keep) - 1)[segments]
    pts, fallback = pts[keep], fallback[keep]
    if pts.shape[0] == 0:
        return FreeBoundaryCurve(pts, pts.copy(), ())

    # sample the gradient one cell in from the walls, so that only central
    # differences enter: the one-sided ring formula straddles a nearby kink
    grad = gradient_field(u)
    sx, sy = np.clip(pts, lo + h, hi - h).T
    gx = bilinear_sample(GridField(spec, grad.gx), sx, sy)
    gy = bilinear_sample(GridField(spec, grad.gy), sx, sy)
    norm = np.hypot(gx, gy)
    flat = norm < 1e-14
    normals = np.where(flat[:, None], fallback,
                       np.stack([gx, gy], axis=1) / np.where(flat, 1.0, norm)[:, None])
    return FreeBoundaryCurve(pts, normals, tuple(map(tuple, segments.tolist())))


def _sup_dist_to_curve(pts: np.ndarray, curve: FreeBoundaryCurve) -> float:
    """Max over pts of the distance to the nearest point of the polyline
    (segments, not just vertices, so curve endpoints are not overcounted)."""
    seg = np.asarray(curve.segments)
    p = curve.vertices[seg[:, 0]]
    d = curve.vertices[seg[:, 1]] - p
    len2 = np.where((d * d).sum(1) == 0.0, 1.0, (d * d).sum(1))
    w = pts[:, None, :] - p[None, :, :]
    t = np.clip((w * d[None]).sum(-1) / len2[None], 0.0, 1.0)
    gap = w - t[..., None] * d[None]
    return float(np.sqrt((gap * gap).sum(-1).min(1).max()))


def boundary_consistency(u: GridField) -> float:
    """Hausdorff distance between the level curves u+ = delta+ and
    u- = delta-, where u+- = max(+-u, 0) and delta+- = h Lip(u+-), over the
    vertices at least 4h from the walls.

    Each phase's level comes from that phase's own slope, so it sits about
    one cell from the interface whatever the other phase's slope.  The two
    curves end at different wall points, so the sup skips each curve's
    vertices near the walls, while the distance is still taken to the whole
    other curve.  NaN flags a degenerate input (a missing phase).
    """
    spec = u.spec
    curves = []
    for sign in (1.0, -1.0):
        phase = GridField(spec, np.maximum(sign * u.values, 0.0))
        lip = lipschitz_seminorm(phase)
        if lip == 0.0:
            return math.nan
        curves.append(extract_zero_set(GridField(spec, phase.values - spec.h * lip)))
    plus, minus = curves
    lo = np.asarray(spec.origin) + 4.0 * spec.h
    hi = np.asarray(spec.origin) + spec.extent - 4.0 * spec.h
    far_plus, far_minus = (c.vertices[np.all((c.vertices >= lo) & (c.vertices <= hi), axis=1)]
                           for c in curves)
    if far_plus.shape[0] == 0 or far_minus.shape[0] == 0:
        return math.nan
    return max(_sup_dist_to_curve(far_plus, minus), _sup_dist_to_curve(far_minus, plus))


def _polar_offsets(rad: float):
    """The center and 16 angles on each of 4 evenly spaced circles out to rad."""
    ang = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    fracs = (np.arange(4) + 1.0) / 4
    off = (rad * fracs[:, None, None]
           * np.stack([np.cos(ang), np.sin(ang)], axis=0)[None, :, :])
    flat = off.transpose(0, 2, 1).reshape(-1, 2)
    return np.concatenate([np.zeros((1, 2)), flat], axis=0)


def _ball_extrema(u: GridField, x0, radii) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of the bilinear interpolant over each closed ball
    B_r(x0), r in ``radii``: over the nodes in one block of the values
    around the largest ball, and over every circle sampled in one call."""
    spec = u.spec
    ex, ey = spec.xs - x0[0], spec.ys - x0[1]
    rs = np.asarray(radii, dtype=float)
    px, py, starts = [], [], []
    for r in rs.tolist():
        n = max(16, math.ceil(2.0 * math.pi * r / spec.h))
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        cx, cy = ex[np.abs(ex) < r], ey[np.abs(ey) < r]
        wy, wx = np.sqrt(r * r - cx * cx), np.sqrt(r * r - cy * cy)
        starts.append(sum(map(len, px)))
        px += [r * np.cos(ang), cx, cx, wx, -wx]
        py += [r * np.sin(ang), wy, -wy, cy, cy]
    s = bilinear_sample(u, x0[0] + np.concatenate(px), x0[1] + np.concatenate(py))
    rows, cols = ex * ex <= rs.max() ** 2, ey * ey <= rs.max() ** 2
    inside = ex[rows, None] ** 2 + ey[cols] ** 2 <= (rs * rs)[:, None, None]
    block = np.broadcast_to(u.values[np.ix_(rows, cols)], inside.shape)
    return (np.maximum(np.maximum.reduceat(s, starts),
                       block.max(axis=(1, 2), where=inside, initial=-math.inf)),
            np.minimum(np.minimum.reduceat(s, starts),
                       block.min(axis=(1, 2), where=inside, initial=math.inf)))


def ball_sup(u: GridField, x0, r: float, mode: str = "abs") -> float:
    """Sup over the closed ball B_r(x0) of the bilinear interpolant's |u|
    ("abs"), phases ("plus", "minus") or u itself ("raw"), from its max and
    min over the nodes in the ball and on the circle (see the module notes)."""
    if mode not in ("abs", "plus", "minus", "raw"):
        raise ConfigurationError(f"unknown ball_sup mode {mode!r}")
    if not (r > 0.0) or not math.isfinite(r):
        raise InputError(f"radius must be positive, got {r!r}")
    hi, lo = (float(e[0]) for e in _ball_extrema(u, x0, (r,)))
    plus, minus = max(hi, 0.0), max(-lo, 0.0)
    return {"raw": hi, "plus": plus, "minus": minus, "abs": max(plus, minus)}[mode]


def classify_regular(u: GridField, x0, radii) -> RegularityRecord:
    """Growth classification over the balls B_r(x0), r in ``radii``, from
    the sups of |u|, u+ and u- that the interpolant's max and min over each
    ball give (as in :func:`ball_sup`, every circle sampled in one call).
    The point is regular iff the least-squares slope of log sup |u| against
    log r is below 3/2, halfway between linear growth and the quadratic
    growth of a critical zero; u vanishing on a ball reads slope +inf."""
    radii = require_radii(radii)
    u.spec.require_ball(x0, float(radii[-1]))

    hi, lo = _ball_extrema(u, x0, radii)
    sups = np.stack([np.maximum(hi, 0.0), np.maximum(-lo, 0.0)])  # of u+, u-
    growth, sup_abs = sups / radii, sups.max(axis=0)
    exponent = math.inf
    if sup_abs.min() > 0.0:
        t = np.log(radii) - np.log(radii).mean()
        exponent = float(t @ np.log(sup_abs) / (t @ t))

    r0 = float(radii[0]) / 2.0
    step = r0 / 24.0
    ax = np.arange(x0[0] - r0, x0[0] + r0 + step / 2, step)
    ay = np.arange(x0[1] - r0, x0[1] + r0 + step / 2, step)
    sx, sy = np.meshgrid(ax, ay, indexing="ij")
    inside = (sx - x0[0]) ** 2 + (sy - x0[1]) ** 2 <= r0 * r0
    samples = bilinear_sample(u, sx[inside], sy[inside])
    return RegularityRecord(
        x0=(float(x0[0]), float(x0[1])), M=float(growth.max(axis=0).min()),
        is_regular=exponent < _GROWTH_SPLIT, c_lower=float(growth.min()),
        C_upper=float(growth.max()), zero_density=float(np.mean(samples <= 0.0)),
        growth_exponent=exponent)


_BLOWUP_SPEC = GridSpec(65, extent=2.0, origin=(-1.0, -1.0))


def _phase_plane(xi, eta, ur, phase) -> np.ndarray:
    """Gradient of the least-squares plane through the origin over the
    samples in ``phase``, from the 2x2 normal equations; 0 when they are
    singular (det <= 1e-12 trace^2, an empty phase included)."""
    x, y, f = xi[phase], eta[phase], ur[phase]
    a, b, c = float(x @ x), float(x @ y), float(y @ y)
    det = a * c - b * b
    if not det > 1e-12 * (a + c) ** 2:
        return np.zeros(2)
    fx, fy = float(x @ f), float(y @ f)
    return np.array([c * fx - b * fy, a * fy - b * fx]) / det


def _fit_at_angle(xi, eta, ur, phi):
    nu = (math.cos(phi), math.sin(phi))
    d = xi * nu[0] + eta * nu[1]
    dp = np.maximum(d, 0.0)
    dm = np.maximum(-d, 0.0)
    spp = float(np.dot(dp, dp))
    smm = float(np.dot(dm, dm))
    alpha = max(0.0, float(np.dot(ur, dp)) / spp) if spp > 0.0 else 0.0
    beta = max(0.0, -float(np.dot(ur, dm)) / smm) if smm > 0.0 else 0.0
    resid = ur - (alpha * dp - beta * dm)
    return alpha, beta, resid


def fit_two_plane(u: GridField, x0, radii) -> SlopeFit:
    """Least-squares two-plane asymptote over a blow-up schedule.

    ``radii`` is a schedule as :func:`grid.require_radii` reads it, in any
    order; the returned fit is the one at the smallest radius.  Each radius
    is fitted on its own, in closed form: a plane through the origin is
    fitted to each phase of the blow-up annulus, p to {u_r > 0} and q to
    {u_r < 0}.  On alpha <x,nu>+ - beta <x,nu>- these are alpha nu and
    beta nu, so nu is the direction of p + q (angle 0 when the sum
    vanishes); the slopes then come from the separable normal equations
    at nu.
    """
    radii = require_radii(np.sort(radii))
    if radii[0] < 8.0 * u.spec.h - 1e-12:
        raise InputError(
            f"smallest fit radius {radii[0]:g} is under 8h = {8 * u.spec.h:g}"
        )

    XI, ETA = _BLOWUP_SPEC.node_coords()
    rho = np.hypot(XI, ETA)
    fits = []
    for r, ur_f in zip(radii, blowup_stack(u, x0, radii, _BLOWUP_SPEC)):
        mask = (rho <= 1.0) & (rho >= 4.0 * u.spec.h / r)
        xi, eta, ur = XI[mask], ETA[mask], ur_f[mask]
        s = _phase_plane(xi, eta, ur, ur > 0.0) + _phase_plane(xi, eta, ur, ur < 0.0)
        phi = math.atan2(s[1], s[0]) if s.any() else 0.0
        alpha, beta, resid = _fit_at_angle(xi, eta, ur, phi)
        fits.append((phi, alpha, beta, float(np.max(np.abs(resid)))))

    phi, alpha, beta, residual = fits[0]
    return SlopeFit(
        x0=(float(x0[0]), float(x0[1])),
        nu=(math.cos(phi), math.sin(phi)),
        alpha=alpha,
        beta=beta,
        residual=residual,
        no_asymptote=all(f[3] > 0.5 for f in fits),
    )


def check_alpha_beta(fit: SlopeFit, rel_tol: float = 0.05) -> str:
    """PASS iff the fitted one-sided slopes agree to the relative tolerance."""
    if not (rel_tol >= 0.0):
        raise ConfigurationError(f"rel_tol must be >= 0, got {rel_tol!r}")
    if fit.no_asymptote:
        raise InputError("fit carries the no-asymptote flag; slopes are meaningless")
    top = max(fit.alpha, fit.beta)
    if top == 0.0:
        return "FAIL"
    return "PASS" if abs(fit.alpha - fit.beta) <= rel_tol * top else "FAIL"


def flatness_measure(u: GridField, center, radius: float, level: float = 0.0) -> float:
    """Half-width of the thinnest band trapping the level set in the window.

    Total-least-squares line through the level-set vertices inside the ball
    window; returns the max perpendicular deviation, NaN when fewer than
    three vertices land in the window.
    """
    if not (radius > 0.0) or not math.isfinite(radius):
        raise InputError(f"window radius must be positive, got {radius!r}")
    curve = extract_zero_set(GridField(u.spec, u.values - level))
    if curve.is_empty:
        return math.nan
    pts = curve.vertices
    keep = (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2 <= radius * radius
    pts = pts[keep]
    if pts.shape[0] < 3:
        return math.nan
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return float(np.max(np.abs(centered @ vt[-1])))


def epsilon_monotonicity(u: GridField, cone: ConeSpec, window) -> float:
    """Smallest epsilon on the dyadic ladder (down to 2h) from which the
    translated-ball inequality sup_{B_{eps sin theta}(x)} u(y - eps e) <= u(x)
    holds at every window node; +inf if even the largest rung fails."""
    x_lo, x_hi, y_lo, y_hi = (float(t) for t in window)
    spec = u.spec
    ox, oy = spec.origin
    if not (x_lo < x_hi and y_lo < y_hi):
        raise InputError("window must be a nonempty rectangle (x_lo, x_hi, y_lo, y_hi)")
    margin = min(x_lo - ox, y_lo - oy, ox + spec.extent - x_hi, oy + spec.extent - y_hi)
    sin_t = math.sin(cone.theta)
    eps_max = margin / (1.0 + sin_t)
    floor = 2.0 * spec.h
    if eps_max < floor:
        raise InputError(
            f"window leaves margin {margin:g}; no translate of size >= 2h fits"
        )

    ix = np.nonzero((spec.xs >= x_lo - 1e-12) & (spec.xs <= x_hi + 1e-12))[0]
    iy = np.nonzero((spec.ys >= y_lo - 1e-12) & (spec.ys <= y_hi + 1e-12))[0]
    if ix.size == 0 or iy.size == 0:
        raise InputError("window contains no grid nodes")
    rows, cols = slice(int(ix[0]), int(ix[-1]) + 1), slice(int(iy[0]), int(iy[-1]) + 1)
    base = u.values[rows, cols]
    slack = 1e-12 * max(1.0, float(np.abs(u.values).max()))

    ladder = []
    e = eps_max
    while e > floor * (1.0 + 1e-9):
        ladder.append(e)
        e /= 2.0
    ladder.append(floor)

    ex, ey = cone.axis
    best = math.inf
    for eps in ladder:
        off = _polar_offsets(eps * sin_t)
        sup = np.full(base.shape, -math.inf)
        for dx, dy in off:
            np.maximum(sup, bilinear_shift(u, rows, cols, dx - eps * ex, dy - eps * ey), out=sup)
        if np.all(sup <= base + slack):
            best = eps
        else:
            break
    return best


def curve_to_csv(curve: FreeBoundaryCurve, path) -> None:
    """Write ``seg_id,x,y,nx,ny`` rows, one polyline per seg_id."""
    adj: dict[int, list[int]] = {}
    for a, b in curve.segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited_edges = set()
    chains: list[list[int]] = []

    def walk(start: int):
        chain = [start]
        cur = start
        while True:
            step = None
            for nb in adj.get(cur, ()):
                key = (min(cur, nb), max(cur, nb))
                if key not in visited_edges:
                    visited_edges.add(key)
                    step = nb
                    break
            if step is None:
                return chain
            chain.append(step)
            cur = step

    ends = sorted(v for v, nbs in adj.items() if len(nbs) == 1)
    for v in ends:
        if any((min(v, nb), max(v, nb)) not in visited_edges for nb in adj[v]):
            chains.append(walk(v))
    for v in sorted(adj):
        if any((min(v, nb), max(v, nb)) not in visited_edges for nb in adj[v]):
            chains.append(walk(v))

    with open(path, "w") as fh:
        fh.write("seg_id,x,y,nx,ny\n")
        for sid, chain in enumerate(chains):
            for idx in chain:
                x, y = curve.vertices[idx]
                nxv, nyv = curve.normals[idx]
                fh.write(f"{sid},{x:.17g},{y:.17g},{nxv:.17g},{nyv:.17g}\n")
