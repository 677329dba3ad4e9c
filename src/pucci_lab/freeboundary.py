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
linear-growth classification of interface points, two-plane slope fits with
the equal-slope check, band flatness of level sets, and cone monotonicity
measured on a dyadic epsilon ladder.

"Sup over a ball" quantities are evaluated by dense bilinear sampling on
polar point sets whose resolution doubles until the sup stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConfigurationError, InputError
from .grid import GridField, GridSpec, bilinear_sample, gradient_field, rescale_blowup
from .solver import lipschitz_seminorm


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


@dataclass(frozen=True)
class RegularityRecord:
    """Linear-growth measurements at an interface point."""

    x0: tuple[float, float]
    M: float                 # min over radii of sup |u| / r
    is_regular: bool
    c_lower: float           # min over radii and phases of sup u_i / r
    C_upper: float           # max over radii and phases of sup u_i / r
    zero_density: float      # area fraction of {u <= 0} in the half-radius ball
    m_min: float             # growth floor the flag was judged against


@dataclass(frozen=True)
class ConeSpec:
    """Axis direction and semi-opening angle (radians) of a monotonicity cone."""

    axis: tuple[float, float]
    theta: float

    def __post_init__(self):
        norm = math.hypot(*self.axis)
        if abs(norm - 1.0) > 1e-9:
            raise ConfigurationError(f"cone axis must be a unit vector, |axis| = {norm!r}")
        if not (0.0 < self.theta < math.pi / 2.0):
            raise ConfigurationError(
                f"semi-opening must lie in (0, pi/2), got {self.theta!r}"
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
    nx = spec.nx

    verts: list[tuple[float, float]] = []
    fallback: list[tuple[float, float]] = []
    # crossing-vertex index per edge, -1 where the edge keeps one sign
    xing_x = -np.ones((nx - 1, nx), dtype=int)
    xing_y = -np.ones((nx, nx - 1), dtype=int)

    for i, j in zip(*np.nonzero(pos[:-1, :] != pos[1:, :])):
        v1, v2 = v[i, j], v[i + 1, j]
        t = v1 / (v1 - v2)
        xing_x[i, j] = len(verts)
        verts.append((ox + (i + t) * h, oy + j * h))
        fallback.append((-1.0, 0.0) if pos[i, j] else (1.0, 0.0))
    for i, j in zip(*np.nonzero(pos[:, :-1] != pos[:, 1:])):
        v1, v2 = v[i, j], v[i, j + 1]
        t = v1 / (v1 - v2)
        xing_y[i, j] = len(verts)
        verts.append((ox + i * h, oy + (j + t) * h))
        fallback.append((0.0, -1.0) if pos[i, j] else (0.0, 1.0))

    segments: list[tuple[int, int]] = []
    cell_has = (xing_x[:, :-1] >= 0) | (xing_x[:, 1:] >= 0) \
        | (xing_y[:-1, :] >= 0) | (xing_y[1:, :] >= 0)
    for i, j in zip(*np.nonzero(cell_has)):
        bottom, top = xing_x[i, j], xing_x[i, j + 1]
        left, right = xing_y[i, j], xing_y[i + 1, j]
        crossed = [e for e in (bottom, top, left, right) if e >= 0]
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
        elif len(crossed) == 4:
            center = 0.25 * (v[i, j] + v[i + 1, j] + v[i, j + 1] + v[i + 1, j + 1])
            if (center > 0.0) == pos[i, j]:
                # the corner-(i,j) phase runs through the cell center; the
                # contour cuts off the two opposite corners
                segments.append((bottom, right))
                segments.append((left, top))
            else:
                segments.append((bottom, left))
                segments.append((right, top))

    if not verts:
        empty = np.empty((0, 2))
        return FreeBoundaryCurve(empty, empty.copy(), ())

    pts = np.asarray(verts)
    # the interface is a subset of the open domain; crossings sitting exactly
    # on the boundary ring belong to the datum, not to the curve
    lo = np.asarray(spec.origin)
    hi = lo + spec.extent
    edge_tol = 1e-12 * spec.extent
    interior = np.all((pts > lo + edge_tol) & (pts < hi - edge_tol), axis=1)
    if not np.all(interior):
        remap = -np.ones(len(pts), dtype=int)
        remap[interior] = np.arange(int(interior.sum()))
        pts = pts[interior]
        fallback = [f for f, keep in zip(fallback, interior) if keep]
        segments = [(int(remap[a]), int(remap[b])) for a, b in segments
                    if interior[a] and interior[b]]
        if pts.shape[0] == 0:
            empty = np.empty((0, 2))
            return FreeBoundaryCurve(empty, empty.copy(), ())

    # sample the gradient one cell in from the walls, so that only central
    # differences enter: the one-sided ring formula straddles a nearby kink
    grad = gradient_field(u)
    sx, sy = np.clip(pts, lo + h, hi - h).T
    gx = bilinear_sample(GridField(spec, grad.gx), sx, sy)
    gy = bilinear_sample(GridField(spec, grad.gy), sx, sy)
    norm = np.hypot(gx, gy)
    flat = norm < 1e-14
    fb = np.asarray(fallback)
    normals = np.where(
        flat[:, None], fb,
        np.stack([gx, gy], axis=1) / np.where(flat, 1.0, norm)[:, None],
    )
    return FreeBoundaryCurve(pts, normals, tuple(segments))


def _sup_dist_to_curve(pts: np.ndarray, curve: FreeBoundaryCurve) -> float:
    """Max over pts of the distance to the nearest point of the polyline
    (segments, not just vertices, so curve endpoints are not overcounted)."""
    if not curve.segments:
        d2 = ((pts[:, None, :] - curve.vertices[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.min(1).max()))
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


def _polar_offsets(rad: float, n_dir: int, n_rad: int):
    ang = np.linspace(0.0, 2.0 * math.pi, n_dir, endpoint=False)
    fracs = (np.arange(n_rad) + 1.0) / n_rad
    off = (rad * fracs[:, None, None]
           * np.stack([np.cos(ang), np.sin(ang)], axis=0)[None, :, :])
    flat = off.transpose(0, 2, 1).reshape(-1, 2)
    return np.concatenate([np.zeros((1, 2)), flat], axis=0)


def ball_sup(u: GridField, x0, r: float, mode: str = "abs", tol: float | None = None) -> float:
    """Sup over the closed ball B_r(x0) by polar bilinear sampling.

    mode selects the sampled quantity: "abs" for |u|, "plus" / "minus" for
    the phases, "raw" for u itself.  Angular and radial resolution double
    until the sup moves by less than ``tol`` (default 1e-3 Lip(u) r).
    """
    if mode not in ("abs", "plus", "minus", "raw"):
        raise ConfigurationError(f"unknown ball_sup mode {mode!r}")
    if not (r > 0.0) or not math.isfinite(r):
        raise InputError(f"radius must be positive, got {r!r}")
    if tol is None:
        tol = 1e-3 * lipschitz_seminorm(u) * r
    transform = {
        "abs": np.abs,
        "plus": lambda s: np.maximum(s, 0.0),
        "minus": lambda s: np.maximum(-s, 0.0),
        "raw": lambda s: s,
    }[mode]
    n_dir, n_rad = 16, 4
    prev = -math.inf
    for _ in range(7):
        off = _polar_offsets(r, n_dir, n_rad)
        vals = transform(bilinear_sample(u, x0[0] + off[:, 0], x0[1] + off[:, 1]))
        cur = float(np.max(vals))
        if prev > -math.inf and abs(cur - prev) < tol:
            return max(cur, prev)
        prev = cur
        n_dir *= 2
        n_rad *= 2
    return prev


def classify_regular(u: GridField, x0, radii, m_min: float | None = None) -> RegularityRecord:
    """Linear-growth classification: M = min over radii of sup |u| / r,
    judged against the floor ``m_min`` (default 10 h Lip / min radius)."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or np.any(radii <= 0.0):
        raise InputError("radii must be a nonempty 1-D array of positive reals")
    u.spec.require_ball(x0, float(radii.max()))
    lip = lipschitz_seminorm(u)
    if m_min is None:
        m_min = 10.0 * u.spec.h * lip / float(radii.min())

    sup_abs = np.array([ball_sup(u, x0, r, "abs", 1e-3 * lip * r) for r in radii])
    sup_pos = np.array([ball_sup(u, x0, r, "plus", 1e-3 * lip * r) for r in radii])
    sup_neg = np.array([ball_sup(u, x0, r, "minus", 1e-3 * lip * r) for r in radii])
    M = float((sup_abs / radii).min())
    growth = np.concatenate([sup_pos / radii, sup_neg / radii])
    c_lower = float(growth.min())
    C_upper = float(growth.max())

    r0 = float(radii.min()) / 2.0
    step = r0 / 24.0
    ax = np.arange(x0[0] - r0, x0[0] + r0 + step / 2, step)
    ay = np.arange(x0[1] - r0, x0[1] + r0 + step / 2, step)
    sx, sy = np.meshgrid(ax, ay, indexing="ij")
    inside = (sx - x0[0]) ** 2 + (sy - x0[1]) ** 2 <= r0 * r0
    samples = bilinear_sample(u, sx[inside], sy[inside])
    zero_density = float(np.mean(samples <= 0.0))

    return RegularityRecord(
        x0=(float(x0[0]), float(x0[1])),
        M=M,
        is_regular=bool(M >= m_min),
        c_lower=c_lower,
        C_upper=C_upper,
        zero_density=zero_density,
        m_min=float(m_min),
    )


_BLOWUP_SPEC = GridSpec(65, extent=2.0, origin=(-1.0, -1.0))


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
    """Least-squares two-plane asymptote over a shrinking blow-up schedule.

    ``radii`` is decreasing; the returned fit is the one at the smallest
    radius.  The direction is seeded from the contour normal nearest x0 and
    refined by a bounded 1-D search; slopes come from the separable normal
    equations at each candidate direction.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) == 0 or any(r <= 0.0 for r in radii):
        raise InputError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly decreasing")
    if radii[-1] < 8.0 * u.spec.h - 1e-12:
        raise InputError(
            f"smallest fit radius {radii[-1]:g} is under 8h = {8 * u.spec.h:g}"
        )

    curve = extract_zero_set(u)
    if not curve.is_empty:
        n = curve.normals[curve.nearest_vertex(x0)]
        phi0 = math.atan2(n[1], n[0])
    else:
        g = gradient_field(u)
        gx = bilinear_sample(GridField(u.spec, g.gx), x0[0], x0[1])
        gy = bilinear_sample(GridField(u.spec, g.gy), x0[0], x0[1])
        phi0 = math.atan2(gy, gx)

    XI, ETA = _BLOWUP_SPEC.node_coords()
    rho = np.hypot(XI, ETA)
    fits = []
    for r in radii:
        ur_f = rescale_blowup(u, x0, r, _BLOWUP_SPEC)
        mask = (rho <= 1.0) & (rho >= 4.0 * u.spec.h / r)
        xi, eta, ur = XI[mask], ETA[mask], ur_f.values[mask]

        def sse(phi):
            return float(np.sum(_fit_at_angle(xi, eta, ur, phi)[2] ** 2))

        opt = minimize_scalar(
            sse, bounds=(phi0 - math.pi / 4, phi0 + math.pi / 4),
            method="bounded", options={"xatol": 1e-7},
        )
        phi = float(opt.x)
        alpha, beta, resid = _fit_at_angle(xi, eta, ur, phi)
        fits.append((phi, alpha, beta, float(np.max(np.abs(resid)))))
        phi0 = phi  # warm-start the next, smaller radius

    phi, alpha, beta, residual = fits[-1]
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

    xs, ys = spec.node_coords()
    keep = (xs >= x_lo - 1e-12) & (xs <= x_hi + 1e-12) \
        & (ys >= y_lo - 1e-12) & (ys <= y_hi + 1e-12)
    if not np.any(keep):
        raise InputError("window contains no grid nodes")
    px, py = xs[keep], ys[keep]
    base = u.values[keep]
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
        off = _polar_offsets(eps * sin_t, 16, 4)
        sup = np.full(px.shape, -math.inf)
        for dx, dy in off:
            vals = bilinear_sample(u, px - eps * ex + dx, py - eps * ey + dy)
            np.maximum(sup, vals, out=sup)
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
