"""Uniform node-centered grids on a square, with the sampling utilities the
rest of the package builds on.

Conventions
-----------
* The domain is the closed square ``[ox, ox + extent] x [oy, oy + extent]``
  with ``nx`` nodes per side, so the spacing is ``h = extent / (nx - 1)``.
* ``values[i, j]`` holds the sample at ``(ox + i h, oy + j h)`` ("ij"
  indexing: first axis is x).
* Dirichlet data lives on the one-node outer ring,
  ``GridSpec.boundary_ring()``; a field's ``boundary_mask`` is that ring,
  derived from its spec.

A field's values are read-only, so whole-field results derived from them
(the Lipschitz seminorm, the gradient, the J_r cell energies) are computed on
first use and read back from the field's memo after that; :func:`derived`
is the one way into that memo.

CSV exchange writes one ``x,y,value`` row per node in row-major order with
17 significant digits (lossless for binary64) and a JSON sidecar recording
``nx``, ``extent`` and ``origin``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, InputError

_SNAP = 1e-9  # fractional-index snap so node coordinates sample exactly


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform square grid."""

    nx: int
    extent: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.nx, (int, np.integer)) or self.nx < 5:
            raise ConfigurationError(f"nx must be an integer >= 5, got {self.nx!r}")
        if not (self.extent > 0.0) or not np.isfinite(self.extent):
            raise ConfigurationError(f"extent must be positive, got {self.extent!r}")
        if len(self.origin) != 2 or not np.all(np.isfinite(self.origin)):
            raise ConfigurationError(f"origin must be a finite pair, got {self.origin!r}")

    @property
    def h(self) -> float:
        return self.extent / (self.nx - 1)

    @property
    def center(self) -> tuple[float, float]:
        return (self.origin[0] + self.extent / 2.0, self.origin[1] + self.extent / 2.0)

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.nx)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coordinate arrays, shape (nx, nx), ij indexing."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def boundary_ring(self) -> np.ndarray:
        """Boolean mask of the one-node outer ring."""
        mask = np.zeros((self.nx, self.nx), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask

    def contains(self, x, y) -> np.ndarray:
        """Pointwise test against the closed square, with a tiny rounding slack."""
        slack = _SNAP * self.extent
        ox, oy = self.origin
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            (x >= ox - slack)
            & (x <= ox + self.extent + slack)
            & (y >= oy - slack)
            & (y <= oy + self.extent + slack)
        )

    def require_ball(self, x0, r: float) -> None:
        """Raise :class:`DomainError` unless the closed ball B_r(x0) lies in
        the domain square."""
        ox, oy = self.origin
        if (x0[0] - r < ox or x0[0] + r > ox + self.extent
                or x0[1] - r < oy or x0[1] + r > oy + self.extent):
            raise DomainError(
                f"ball of radius {r:g} around ({x0[0]:g}, {x0[1]:g}) exits the domain square"
            )


def require_radii(radii) -> np.ndarray:
    """``radii`` as a float array; raise :class:`InputError` unless it is a
    schedule of at least two positive, finite, strictly increasing reals."""
    rs = np.asarray(radii, dtype=float)
    if not (rs.ndim == 1 and rs.size >= 2 and np.all(np.isfinite(rs) & (rs > 0.0))
            and np.all(np.diff(rs) > 0.0)):
        raise InputError("radii must be at least two positive, finite and strictly "
                         f"increasing reals, got {rs.tolist()!r}")
    return rs


@dataclass
class GridField:
    """Scalar samples on a :class:`GridSpec`; the values are a read-only,
    C-contiguous float array (a caller's array of that kind is kept and
    marked read-only, any other is copied once)."""

    spec: GridSpec
    values: np.ndarray

    def __setattr__(self, name, value):
        if name == "values":
            value = np.ascontiguousarray(value, dtype=float)
            value.flags.writeable = False
        object.__setattr__(self, name, value)
        # derived data belongs to one spec and one values array
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        # a copy or an unpickled field is rebuilt through __setattr__ too
        return type(self), (self.spec, self.values)

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.nx):
            raise InputError(
                f"values shape {self.values.shape} does not match nx={self.spec.nx}"
            )

    @property
    def boundary_mask(self) -> np.ndarray:
        """The Dirichlet ring of the spec, a fresh boolean array."""
        return self.spec.boundary_ring()


@dataclass
class VectorField:
    """Gradient samples of a :class:`GridField` (see :func:`gradient_field`)."""

    spec: GridSpec
    gx: np.ndarray
    gy: np.ndarray


def make_grid(spec: GridSpec, boundary_fn) -> GridField:
    """Build a field with ``boundary_fn`` evaluated on the ring and zero interior.

    ``boundary_fn(x, y)`` is called with coordinate arrays of the ring nodes;
    a scalar-only callable is accepted as a fallback.  Non-finite datum values
    raise :class:`InputError`.
    """
    values = np.zeros((spec.nx, spec.nx))
    ring = spec.boundary_ring()
    X, Y = spec.node_coords()
    bx, by = X[ring], Y[ring]
    try:
        data = np.asarray(boundary_fn(bx, by), dtype=float)
        if data.shape != bx.shape:
            raise TypeError
    except TypeError:
        data = np.array([float(boundary_fn(x, y)) for x, y in zip(bx, by)])
    if not np.all(np.isfinite(data)):
        raise InputError("boundary datum contains non-finite values")
    values[ring] = data
    return GridField(spec, values)


def derived(compute):
    """Decorate a function of a field alone whose result no caller writes to:
    the result is computed on the first call for a field and read from the
    field's memo after that, keyed by the decorated (importable) function."""
    @functools.wraps(compute)
    def memoized(fld: GridField):
        if memoized not in fld._memo:
            fld._memo[memoized] = compute(fld)
        return fld._memo[memoized]
    return memoized


@derived
def gradient_field(fld: GridField) -> VectorField:
    """Central differences in the interior, second-order one-sided on the
    ring; read-only arrays."""
    u = fld.values
    h = fld.spec.h
    gx = np.empty_like(u)
    gy = np.empty_like(u)
    gx[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h)
    gx[0, :] = (-3 * u[0, :] + 4 * u[1, :] - u[2, :]) / (2 * h)
    gx[-1, :] = (3 * u[-1, :] - 4 * u[-2, :] + u[-3, :]) / (2 * h)
    gy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h)
    gy[:, 0] = (-3 * u[:, 0] + 4 * u[:, 1] - u[:, 2]) / (2 * h)
    gy[:, -1] = (3 * u[:, -1] - 4 * u[:, -2] + u[:, -3]) / (2 * h)
    gx.flags.writeable = gy.flags.writeable = False
    return VectorField(fld.spec, gx, gy)


@derived
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


def _snap(f: np.ndarray) -> np.ndarray:
    """Cell fractions within _SNAP of 0 or 1 made exactly 0 or 1, then
    clipped to [0, 1], in place (by ufuncs: np.clip costs more per call than
    a small sample's arithmetic)."""
    f[np.abs(f) < _SNAP] = 0.0
    f[np.abs(f - 1.0) < _SNAP] = 1.0
    return np.minimum(np.maximum(f, 0.0, out=f), 1.0, out=f)


def bilinear_sample(fld: GridField, x, y):
    """Bilinear interpolation at arbitrary points inside the closed square.

    Node coordinates reproduce node values exactly (fractional indices are
    snapped), and the interpolant is monotone in the corner values.  Points
    outside the extent raise :class:`DomainError`.
    """
    spec = fld.spec
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    # the extremes are inside iff every point is; the origin seeds them, so
    # an empty sample passes
    ox, oy = spec.origin
    if not np.all(spec.contains([x.min(initial=ox), x.max(initial=ox)],
                                [y.min(initial=oy), y.max(initial=oy)])):
        x, y = np.broadcast_arrays(x, y)
        bad = np.flatnonzero(~spec.contains(x, y))[0]
        raise DomainError(
            f"sample point ({x.flat[bad]:g}, {y.flat[bad]:g}) lies outside the grid extent"
        )
    nx = spec.nx
    tx = (x - ox) / spec.h
    ty = (y - oy) / spec.h
    i0 = np.minimum(np.maximum(np.floor(tx).astype(int), 0), nx - 2)
    j0 = np.minimum(np.maximum(np.floor(ty).astype(int), 0), nx - 2)
    fx, fy = _snap(tx - i0), _snap(ty - j0)
    gx, gy = 1 - fx, 1 - fy
    u = fld.values.ravel()
    k = i0 * nx + j0
    out = (gx * gy * u.take(k) + fx * gy * u.take(k + nx)
           + gx * fy * u.take(k + 1) + fx * fy * u.take(k + nx + 1))
    return float(out[0]) if scalar else out


def bilinear_shift(fld: GridField, rows: slice, cols: slice, dx: float, dy: float) -> np.ndarray:
    """Bilinear interpolation at the nodes of the block ``values[rows, cols]``
    (slices with explicit start and stop) translated by ``(dx, dy)``.

    One constant shift gives every node the same cell offset and fractions,
    so the result is one 4-weight combination of shifted slices of the
    values.  Fractions snap as in :func:`bilinear_sample`, whose values this
    matches up to the rounding of each node's fraction; a zero fraction
    reads no +1 slice on its axis, so a block translated onto the grid edge
    stays in the array.  A block translated off the grid raises
    :class:`DomainError`.
    """
    t = np.array([dx, dy]) / fld.spec.h
    axes = []
    for k, f, block in zip(np.floor(t).tolist(), _snap(t - np.floor(t)).tolist(), (rows, cols)):
        k = int(k)
        if f == 1.0:
            k, f = k + 1, 0.0
        if block.start + k < 0 or block.stop + k + (f > 0.0) > fld.spec.nx:
            raise DomainError(f"block shifted by ({dx:g}, {dy:g}) leaves the grid")
        axes.append([(slice(block.start + k + e, block.stop + k + e), w)
                     for e, w in ((0, 1.0 - f), (1, f)) if w > 0.0])
    out = 0.0
    for sy, wy in axes[1]:
        for sx, wx in axes[0]:
            out = out + wx * wy * fld.values[sx, sy]
    return out


def rescale_blowup(fld: GridField, x0, r: float, out_spec: GridSpec) -> GridField:
    """Blow-up ``u_r(xi) = u(x0 + r xi) / r`` resampled onto ``out_spec``.

    Requires the ball of radius ``2 r`` around ``x0`` to sit inside the
    domain square, so every rescaling stays well clear of the ring.
    """
    return GridField(out_spec, blowup_stack(fld, x0, (r,), out_spec)[0])


def blowup_stack(fld: GridField, x0, radii, out_spec: GridSpec) -> np.ndarray:
    """The values of :func:`rescale_blowup` at each of ``radii``, shape
    ``(len(radii), nx, nx)``, from one sampling call."""
    x0 = (float(x0[0]), float(x0[1]))
    for r in radii:
        if not (r > 0) or not np.isfinite(r):
            raise InputError(f"blow-up radius must be positive, got {r!r}")
        fld.spec.require_ball(x0, 2 * r)
    XI, ETA = out_spec.node_coords()
    rs = np.asarray(radii, dtype=float)[:, None]
    vals = bilinear_sample(fld, x0[0] + rs * XI.ravel(), x0[1] + rs * ETA.ravel())
    return (vals / rs).reshape(len(rs), *XI.shape)


def field_to_csv(fld: GridField, path) -> None:
    """Write ``x,y,value`` rows (row-major) plus a JSON sidecar with the spec."""
    spec = fld.spec
    # one %-template a row: y formatted once a column, x put in at each "\0";
    # a row at a time, since Python floats for the whole grid would raise the
    # peak memory by 32 bytes a value
    col = "".join([f"\0{y:.17g},%.17g\n" for y in spec.ys.tolist()])
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for x, vs in zip(spec.xs.tolist(), fld.values):
            fh.write((col % tuple(vs.tolist())).replace("\0", f"{x:.17g},"))
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(
            {"nx": spec.nx, "extent": spec.extent, "origin": list(spec.origin)},
            fh,
            sort_keys=True,
        )
        fh.write("\n")


def field_from_csv(path) -> GridField:
    """Inverse of :func:`field_to_csv`; the sidecar supplies the spec."""
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    spec = GridSpec(int(meta["nx"]), float(meta["extent"]), tuple(meta["origin"]))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape != (spec.nx * spec.nx, 3):
        raise InputError(
            f"{path}: expected {spec.nx * spec.nx} rows of x,y,value, got shape {data.shape}"
        )
    n, tol = spec.nx, _SNAP * spec.extent
    off = np.abs(data[:, 0].reshape(n, n) - spec.xs[:, None]) > tol
    off |= np.abs(data[:, 1].reshape(n, n) - spec.ys) > tol
    if off.any():
        k = int(np.argmax(off))
        raise InputError(f"{path}: line {k + 2} has x,y = {data[k, 0]:g},{data[k, 1]:g}, "
                         f"not node {spec.xs[k // n]:g},{spec.ys[k % n]:g}")
    # copied: a view would keep the whole parsed table alive with the field
    return GridField(spec, data[:, 2].reshape(n, n).copy())
