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

CSV exchange writes one ``x,y,value`` row per node in row-major order with
17 significant digits (lossless for binary64) and a JSON sidecar recording
``nx``, ``extent`` and ``origin``.
"""

from __future__ import annotations

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


@dataclass
class GridField:
    """Scalar samples on a :class:`GridSpec`."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.nx, self.spec.nx):
            raise InputError(
                f"values shape {self.values.shape} does not match nx={self.spec.nx}"
            )

    @property
    def boundary_mask(self) -> np.ndarray:
        """The Dirichlet ring of the spec, a fresh boolean array."""
        return self.spec.boundary_ring()

    def copy(self) -> "GridField":
        return GridField(self.spec, self.values.copy())


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


def gradient_field(fld: GridField) -> VectorField:
    """Central differences in the interior, second-order one-sided on the ring."""
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
    return VectorField(fld.spec, gx, gy)


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
    inside = spec.contains(x, y)
    if not np.all(inside):
        bad = np.argwhere(~inside)[0]
        raise DomainError(
            f"sample point ({x.flat[bad[0]]:g}, {y.flat[bad[0]]:g}) lies outside the grid extent"
        )
    tx = (x - spec.origin[0]) / spec.h
    ty = (y - spec.origin[1]) / spec.h
    i0 = np.clip(np.floor(tx).astype(int), 0, spec.nx - 2)
    j0 = np.clip(np.floor(ty).astype(int), 0, spec.nx - 2)
    fx = tx - i0
    fy = ty - j0
    fx = np.where(np.abs(fx) < _SNAP, 0.0, np.where(np.abs(fx - 1.0) < _SNAP, 1.0, fx))
    fy = np.where(np.abs(fy) < _SNAP, 0.0, np.where(np.abs(fy - 1.0) < _SNAP, 1.0, fy))
    fx = np.clip(fx, 0.0, 1.0)
    fy = np.clip(fy, 0.0, 1.0)
    u = fld.values
    out = (
        (1 - fx) * (1 - fy) * u[i0, j0]
        + fx * (1 - fy) * u[i0 + 1, j0]
        + (1 - fx) * fy * u[i0, j0 + 1]
        + fx * fy * u[i0 + 1, j0 + 1]
    )
    return float(out[0]) if scalar else out


def rescale_blowup(fld: GridField, x0, r: float, out_spec: GridSpec) -> GridField:
    """Blow-up ``u_r(xi) = u(x0 + r xi) / r`` resampled onto ``out_spec``.

    Requires the ball of radius ``2 r`` around ``x0`` to sit inside the
    domain square, so every rescaling stays well clear of the ring.
    """
    if not (r > 0) or not np.isfinite(r):
        raise InputError(f"blow-up radius must be positive, got {r!r}")
    x0 = (float(x0[0]), float(x0[1]))
    fld.spec.require_ball(x0, 2 * r)
    XI, ETA = out_spec.node_coords()
    vals = bilinear_sample(fld, x0[0] + r * XI.ravel(), x0[1] + r * ETA.ravel())
    return GridField(out_spec, np.asarray(vals).reshape(XI.shape) / r)


def field_to_csv(fld: GridField, path) -> None:
    """Write ``x,y,value`` rows (row-major) plus a JSON sidecar with the spec."""
    spec = fld.spec
    X, Y = spec.node_coords()
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        # a row at a time: Python floats for the whole grid would raise the
        # peak memory by 32 bytes a value
        for xs, ys, vs in zip(X, Y, fld.values):
            fh.writelines(f"{x:.17g},{y:.17g},{v:.17g}\n"
                          for x, y, v in zip(xs.tolist(), ys.tolist(), vs.tolist()))
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
    return GridField(spec, data[:, 2].reshape(spec.nx, spec.nx))
