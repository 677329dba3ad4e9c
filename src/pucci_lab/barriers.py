"""Closed-form barriers, radial annulus profiles, and plane-pair fields used
as manufactured solutions and comparison references.

The singular barrier

    psi(x) = c ((r / |x - x0|)^gamma - 1),    gamma = (Lam (n-1) - lam) / lam

is M-minus-null away from its center, positive inside B_r, zero on the
boundary circle, and grows at least linearly off it.

The annulus profile phi solves F-(D^2 phi) = 0 between |x| = r/2 and |x| = r
with phi = 1 on the inner circle and 0 on the outer.  For a radial function
the Hessian eigenvalues are (phi'', t) with t = phi'/rho.  The profile
decreases, so t < 0 on the whole annulus, and there the family's null slope
(the a solving F-(diag(a, t)) = 0) is linear, a = -k t, with k found on the
family's own kernel.  The profile is then the power law

    phi(rho) = ((r / rho)^g - 1) / (2^g - 1),    g = k - 1,

or log(r / rho) / log 2 at g = 0, and the outer boundary slope
sigma = -r phi'(r) = g / (2^g - 1) (1 / log 2 at g = 0) measures the linear
growth rate off the outer circle.

Two-plane fields alpha <x - x0, nu>+ - beta <x - x0, nu>- are the model
free-boundary configurations.  Fixture generators at the bottom expose these
and the standard solver data by name for the CLI and the test suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, InputError
from .grid import GridField, GridSpec
from .operators import Ellipticity, MatrixFamily, SymMat2, family_extremal


def gamma_exponent(ell: Ellipticity) -> float:
    """Exponent making psi M-minus-null in the plane: (Lam - lam) / lam."""
    return (ell.Lam - ell.lam) / ell.lam


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the singular barrier psi."""

    c: float = 1.0
    r: float = 0.4
    gamma: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("c", "r", "gamma"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ConfigurationError(f"BarrierSpec.{name} must be positive, got {v!r}")


def barrier_psi(spec: BarrierSpec, x, y=None):
    """Evaluate psi at a point or at numpy arrays of coordinates.

    Accepts ``barrier_psi(spec, (px, py))`` or ``barrier_psi(spec, xs, ys)``.
    """
    if y is None:
        x, y = x
    dx = np.asarray(x, dtype=float) - spec.center[0]
    dy = np.asarray(y, dtype=float) - spec.center[1]
    dist = np.hypot(dx, dy)
    if np.any(dist == 0.0):
        raise DomainError("psi is singular at its center")
    out = spec.c * ((spec.r / dist) ** spec.gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def barrier_gradient_bound(spec: BarrierSpec, dist) -> np.ndarray:
    """Linear lower bound (c gamma / r)(r - dist), valid inside the ball."""
    return (spec.c * spec.gamma / spec.r) * (spec.r - np.asarray(dist, dtype=float))


@dataclass(frozen=True)
class TwoPlaneSpec:
    """Two half-plane slopes alpha, beta glued along the line through x0
    normal to nu."""

    alpha: float
    beta: float
    nu: tuple[float, float]
    x0: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ConfigurationError(
                f"slopes must be positive, got alpha={self.alpha!r} beta={self.beta!r}"
            )
        norm = math.hypot(*self.nu)
        if abs(norm - 1.0) > 1e-9:
            raise ConfigurationError(f"nu must be a unit vector, |nu| = {norm!r}")

    @staticmethod
    def from_angle(alpha: float, beta: float, angle_deg: float,
                   x0: tuple[float, float] = (0.5, 0.5)) -> "TwoPlaneSpec":
        a = math.radians(angle_deg)
        return TwoPlaneSpec(alpha, beta, (math.cos(a), math.sin(a)), x0)


def two_plane_values(spec: TwoPlaneSpec, xs, ys) -> np.ndarray:
    d = (np.asarray(xs, dtype=float) - spec.x0[0]) * spec.nu[0] \
        + (np.asarray(ys, dtype=float) - spec.x0[1]) * spec.nu[1]
    return spec.alpha * np.maximum(d, 0.0) - spec.beta * np.maximum(-d, 0.0)


def two_plane_field(spec: TwoPlaneSpec, gspec: GridSpec) -> GridField:
    xx, yy = gspec.node_coords()
    return GridField(gspec, two_plane_values(spec, xx, yy))


@dataclass(frozen=True)
class RadialProfile:
    """Annulus profile samples with the fitted outer-boundary slope."""

    rho_samples: np.ndarray
    phi_values: np.ndarray
    sigma: float

    def __post_init__(self):
        rho = np.asarray(self.rho_samples, dtype=float)
        phi = np.asarray(self.phi_values, dtype=float)
        if rho.shape != phi.shape or rho.ndim != 1 or rho.size < 3:
            raise InputError("rho_samples and phi_values must be matching 1-D arrays")
        if np.any(np.diff(rho) <= 0.0):
            raise InputError("rho_samples must be strictly increasing")
        if abs(phi[0] - 1.0) > 1e-9 or abs(phi[-1]) > 1e-9:
            raise InputError("profile must satisfy phi(r/2) = 1 and phi(r) = 0")
        if np.any(np.diff(phi) > 1e-9):
            raise InputError("profile must be monotone non-increasing")


def _radial_exponent(fam: MatrixFamily) -> float:
    """g = k - 1, where F-(diag(k, -1)) = 0, so by homogeneity F-(diag(-k t,
    t)) = 0 for every t < 0, found by bisection on the family's own kernel.
    F-(diag(k, -1)) increases in k; at k = 1 it is at most the trace, 0, and
    at k = Lam / lam at least M-, lam k - Lam = 0, so the largest k where it
    is <= 0 lies in [1, Lam / lam]."""
    lo, hi = 1.0, fam.ell.Lam / fam.ell.lam
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if family_extremal(fam, SymMat2(mid, 0.0, -1.0), "inf") <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo - 1.0


def _annulus_power_law(g: float, ratio):
    """(ratio^g - 1) / (2^g - 1) at ratio = r / rho: 1 on rho = r/2, 0 on
    rho = r, and log2(ratio) at g = 0.  By expm1, both differences keep their
    relative precision as g -> 0."""
    if g == 0.0:
        return np.log(ratio) / math.log(2.0)
    return np.expm1(g * np.log(ratio)) / math.expm1(g * math.log(2.0))


def radial_profile(fam: MatrixFamily, r: float = 0.4, samples: int = 257) -> RadialProfile:
    """The annulus solution of F-(D^2 phi) = 0, phi(r/2) = 1, phi(r) = 0, at
    ``samples`` equispaced radii, with its outer slope sigma = -r phi'(r)."""
    if not (r > 0.0) or not math.isfinite(r):
        raise ConfigurationError(f"outer radius must be positive, got {r!r}")
    if not isinstance(samples, (int, np.integer)) or samples < 3:
        raise ConfigurationError(f"samples must be an integer >= 3, got {samples!r}")
    g = _radial_exponent(fam)
    rho = np.linspace(r / 2.0, r, samples)
    phi = _annulus_power_law(g, r / rho)
    sigma = g / math.expm1(g * math.log(2.0)) if g != 0.0 else 1.0 / math.log(2.0)
    return RadialProfile(rho, phi, sigma)


@dataclass
class SandwichReport:
    """Nodes violating lower - slack <= u <= upper + slack."""

    nodes: list[tuple[int, int]]
    worst: float

    @property
    def passed(self) -> bool:
        return not self.nodes


def sandwich_check(u: GridField, lower: GridField, upper: GridField,
                   slack: float = 0.0) -> SandwichReport:
    if lower.spec != u.spec or upper.spec != u.spec:
        raise InputError("sandwich_check needs three fields on the same grid")
    if not (slack >= 0.0):
        raise ConfigurationError(f"slack must be >= 0, got {slack!r}")
    low_excess = (lower.values - slack) - u.values
    high_excess = u.values - (upper.values + slack)
    excess = np.maximum(low_excess, high_excess)
    bad = np.argwhere(excess > 0.0)
    worst = float(excess.max()) if bad.size else 0.0
    return SandwichReport([(int(i), int(j)) for i, j in bad], max(worst, 0.0))


# --- named fixtures -------------------------------------------------------
#
# FIXTURE_BUILDERS at the bottom is the one description of a fixture: its
# name, and its builder's keyword parameters, defaults and range rules.
# Scalar fixtures return one GridField (a Dirichlet datum or a reference
# field); the PAIR_FIXTURES return the (f1, f2) pair for the two-species
# problem.  A fixture built around a point takes it as ``center``.

PAIR_FIXTURES = ("split_supports", "edge_bumps")


def _center_floored_dist(gspec: GridSpec, center) -> np.ndarray:
    xx, yy = gspec.node_coords()
    dist = np.hypot(xx - center[0], yy - center[1])
    # keep the singular node finite; everything inside r/8 is masked from
    # residual assertions anyway
    return np.maximum(dist, gspec.h / 2.0)


def make_fixture(gspec: GridSpec, name: str, **params):
    if name not in FIXTURE_BUILDERS:
        raise ConfigurationError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}"
        )
    return FIXTURE_BUILDERS[name](gspec, **params)


def _fixture_psi(gspec: GridSpec, c: float = 1.0, r: float = 0.4,
                 gamma: float = 1.0, center=(0.5, 0.5)) -> GridField:
    spec = BarrierSpec(c=c, r=r, gamma=gamma, center=tuple(center))
    dist = _center_floored_dist(gspec, spec.center)
    return GridField(gspec, spec.c * ((spec.r / dist) ** spec.gamma - 1.0))


def _fixture_two_plane(gspec: GridSpec, alpha: float = 1.0, beta: float = 2.0,
                       angle: float = 0.0, center=(0.5, 0.5)) -> GridField:
    return two_plane_field(TwoPlaneSpec.from_angle(alpha, beta, angle, tuple(center)), gspec)


def _fixture_radial_pucci(gspec: GridSpec, r: float = 0.4, center=(0.5, 0.5),
                          lam: float = 1.0, Lam: float = 2.0) -> GridField:
    # the closed-form annulus solution: psi normalized to 1 on |x| = r/2
    if not (r > 0.0) or not math.isfinite(r):
        raise ConfigurationError(f"radial_pucci needs a positive radius r, got {r!r}")
    if not gspec.contains(*center):
        raise DomainError(f"radial_pucci center {tuple(center)} lies outside the domain")
    dist = _center_floored_dist(gspec, center)
    return GridField(gspec, _annulus_power_law(gamma_exponent(Ellipticity(lam, Lam)), r / dist))


def _fixture_harmonic_quadratic(gspec: GridSpec) -> GridField:
    """x^2 - y^2, harmonic with its saddle at the coordinate origin."""
    xx, yy = gspec.node_coords()
    return GridField(gspec, xx ** 2 - yy ** 2)


def _fixture_sign_change(gspec: GridSpec, angle: float = 22.5,
                         amplitude: float = 0.002, center=(0.5, 0.5)) -> GridField:
    """Tilted plane through center plus a boundary-active smooth wiggle."""
    a = math.radians(angle)
    xx, yy = gspec.node_coords()
    plane = (xx - center[0]) * math.cos(a) + (yy - center[1]) * math.sin(a)
    wiggle = amplitude * np.cos(2.0 * np.pi * xx) * np.cos(np.pi * yy)
    return GridField(gspec, plane + wiggle)


def _fixture_split_supports(gspec: GridSpec, angle: float = 20.0,
                            dead_band: float = 0.1, center=(0.5, 0.5)):
    """Positive/negative parts of a tilted plane, pushed apart by a dead band
    so the two boundary supports are disjoint."""
    if not (dead_band > 0.0):
        raise ConfigurationError(f"dead_band must be positive, got {dead_band!r}")
    a = math.radians(angle)
    xx, yy = gspec.node_coords()
    plane = (xx - center[0]) * math.cos(a) + (yy - center[1]) * math.sin(a)
    f1 = GridField(gspec, np.maximum(plane - dead_band / 2.0, 0.0))
    f2 = GridField(gspec, np.maximum(-plane - dead_band / 2.0, 0.0))
    return f1, f2


def _fixture_edge_bumps(gspec: GridSpec, amplitude: float = 60.0):
    """One species fed from the left edge, the other from the right, both
    shaped sin^2 so the data vanish at the corners."""
    if not (amplitude > 0.0):
        raise ConfigurationError(f"amplitude must be positive, got {amplitude!r}")
    xx, yy = gspec.node_coords()
    bump = amplitude * np.sin(np.pi * (yy - gspec.origin[1]) / gspec.extent) ** 2
    x_min = gspec.origin[0]
    x_max = gspec.origin[0] + gspec.extent
    f1 = GridField(gspec, np.where(np.isclose(xx, x_min), bump, 0.0))
    f2 = GridField(gspec, np.where(np.isclose(xx, x_max), bump, 0.0))
    return f1, f2


FIXTURE_BUILDERS = {
    "psi": _fixture_psi,
    "two_plane": _fixture_two_plane,
    "radial_pucci": _fixture_radial_pucci,
    "harmonic_quadratic": _fixture_harmonic_quadratic,
    "sign_change": _fixture_sign_change,
    "split_supports": _fixture_split_supports,
    "edge_bumps": _fixture_edge_bumps,
}
# a live view, so a builder registered later is a known name everywhere
FIXTURES = FIXTURE_BUILDERS.keys()
