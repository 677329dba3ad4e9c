"""Extremal operators over rotation-closed matrix families, and their
discretizations.

The continuous objects: for a family A of symmetric matrices with eigenvalues
in [lam, Lam] containing the identity,

    F-(M) = inf_{A in A} tr(A M),      F+(M) = sup_{A in A} tr(A M),

which for the full ellipticity class reduce to the Pucci extremal operators

    M-(M) = lam * sum(e_i > 0) + Lam * sum(e_i < 0),
    M+(M) = Lam * sum(e_i > 0) + lam * sum(e_i < 0),

and the regularized scalar operator

    G_eps(u) = H_eps(u) F-(D^2 u) + (1 - H_eps(u)) F+(D^2 u)

with H_eps a cubic smoothstep ramping 0 -> 1 on [-eps, eps].

Supported families: the full Pucci class, the identity alone (trace), the
Frobenius ball ||A - I||_F <= r0 (closed form tr(M) -+ r0 ||M||_F), and
explicit finite sets.  Finite sets are not rotation closed and cannot be used
with the wide stencil.

Discretization: either the 9-point central Hessian (u_xy by the four-corner
average) or a wide stencil with K direction pairs at angles k pi / (2K).
The wide stencil's second difference along v = (c, s), c, s >= 0, is the
7-point quadratic form v.H.v with H = [[u_xx, u_xy+], [u_xy+, u_yy]] and
u_xy+ = (D+ - u_xx - u_yy) / 2, D+ = (u_NE + u_SW - 2u) / h^2; along
v_perp = (-s, c) the mixed term is u_xy- = (u_xx + u_yy - D-) / 2 with
D- = (u_NW + u_SE - 2u) / h^2.  The four-corner u_xy is the mean of u_xy+
and u_xy-.  This is exactly the difference of bilinear samples at x +- h v
with its O(1) bias fx(1-fx) u_xx + fy(1-fy) u_yy removed, consistent to
O(h^2 + 1/K^2).  In units of 1/h^2 its weights along v are c(c - s) on
E and W, s(s - c) on N and S, cs on NE and SW and -2(1 - cs) at the centre.
One axis weight is negative at every angle that is not a multiple of
45 degrees, down to (1 - sqrt 2)/2 = -0.207 (on N and S at 22.5 degrees,
on E and W at 67.5), so the scheme is not monotone.

Both schemes reduce to a list of discrete Hessians, the frames: the central
Hessian, or the K directional pairs (d1, d2) taken as diag(d1, d2).
One kernel per family gives inf and sup of tr(A M) on each frame, and the
residual takes the min (inf side) or max (sup side) over the frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .grid import GridField

OP_SELECTORS = ("F_minus", "F_plus", "G_eps", "M_minus", "M_plus", "laplacian")
FAMILY_KINDS = ("full_pucci", "identity_only", "frobenius_ball", "finite_set")


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix [[a, b], [b, c]]."""

    a: float
    b: float
    c: float

    def trace(self) -> float:
        return self.a + self.c

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])


@dataclass(frozen=True)
class Ellipticity:
    """Ellipticity bounds 0 < lam <= 1 <= Lam.

    Lam = 1 is admitted (the Laplacian limit); the normalization pins the
    identity inside the band.
    """

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ConfigurationError(f"lambda must satisfy 0 < lambda <= 1, got {self.lam!r}")
        if not (self.Lam >= 1.0) or not np.isfinite(self.Lam):
            raise ConfigurationError(f"Lambda must satisfy Lambda >= 1, got {self.Lam!r}")


def eig2(m: SymMat2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, ascending, by the closed form
    (entries below about 1e154 in magnitude, where its squares stay finite)."""
    e1, e2 = _eig2_arrays(m.a, m.b, m.c)
    return float(e1), float(e2)


def _eig2_arrays(a, b, c):
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return mean - rad, mean + rad


def pucci_eval(m: SymMat2, ell: Ellipticity, branch: str) -> float:
    """Pucci extremal value M-(m) (branch="minus") or M+(m) (branch="plus")."""
    if branch not in ("minus", "plus"):
        raise ConfigurationError(f"branch must be 'minus' or 'plus', got {branch!r}")
    lo, hi = _extremal_sides(None, ell, m.a, m.b, m.c, branch == "minus", branch == "plus")
    return float(lo if branch == "minus" else hi)


@dataclass(frozen=True)
class MatrixFamily:
    """A rotation-closed family of symmetric matrices (finite sets excepted).

    kind: one of "full_pucci", "identity_only", "frobenius_ball", "finite_set".
    r0:   Frobenius radius for "frobenius_ball" (0 < r0 < 1, and the
          ellipticity band must cover [1 - r0, 1 + r0]).
    members: the matrices of a "finite_set"; must contain the identity and
          keep all eigenvalues inside [lam, Lam].
    """

    kind: str
    ell: Ellipticity
    r0: float | None = None
    members: tuple[SymMat2, ...] | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")
        if self.kind == "frobenius_ball":
            if self.r0 is None or not (0.0 < self.r0 < 1.0):
                raise ConfigurationError(f"frobenius_ball needs 0 < r0 < 1, got {self.r0!r}")
            if self.ell.lam > 1.0 - self.r0 or self.ell.Lam < 1.0 + self.r0:
                raise ConfigurationError(
                    f"frobenius_ball r0={self.r0} needs lam <= {1 - self.r0:g} and "
                    f"Lam >= {1 + self.r0:g}, got ({self.ell.lam}, {self.ell.Lam})"
                )
        if self.kind == "finite_set":
            if not self.members:
                raise ConfigurationError("finite_set family must not be empty")
            has_id = False
            for mm in self.members:
                e1, e2 = eig2(mm)
                if e1 < self.ell.lam - 1e-12 or e2 > self.ell.Lam + 1e-12:
                    raise ConfigurationError(
                        f"finite_set member {mm} has eigenvalues ({e1:g}, {e2:g}) "
                        f"outside [{self.ell.lam}, {self.ell.Lam}]"
                    )
                if abs(mm.a - 1.0) < 1e-12 and abs(mm.b) < 1e-12 and abs(mm.c - 1.0) < 1e-12:
                    has_id = True
            if not has_id:
                raise ConfigurationError("finite_set family must contain the identity")


def family_extremal(fam: MatrixFamily, m: SymMat2, mode: str) -> float:
    """inf (mode="inf") or sup (mode="sup") of tr(A m) over the family."""
    if mode not in ("inf", "sup"):
        raise ConfigurationError(f"mode must be 'inf' or 'sup', got {mode!r}")
    lo, hi = _extremal_sides(fam, fam.ell, m.a, m.b, m.c, mode == "inf", mode == "sup")
    return float(lo if mode == "inf" else hi)


def _extremal_sides(fam: MatrixFamily | None, ell: Ellipticity, a, b, c, inf: bool, sup: bool):
    """(inf, sup) of tr(A M) over the family, entrywise for M = [[a, b], [b, c]].

    ``fam`` None is the full Pucci class of ``ell``; otherwise ``ell`` is
    ``fam.ell``.  Only the flagged sides are computed, and a side left
    unflagged may come back as None.
    """
    kind = "full_pucci" if fam is None else fam.kind
    if kind == "full_pucci":
        e1, e2 = _eig2_arrays(a, b, c)
        pos = np.maximum(e1, 0.0) + np.maximum(e2, 0.0)
        neg = np.minimum(e1, 0.0) + np.minimum(e2, 0.0)
        del e1, e2  # fewer live temporaries: fewer page faults on large grids
        return (ell.lam * pos + ell.Lam * neg if inf else None,
                ell.Lam * pos + ell.lam * neg if sup else None)
    if kind == "identity_only":
        tr = a + c
        return tr, tr
    if kind == "frobenius_ball":
        tr = a + c
        rad = fam.r0 * np.sqrt(a * a + 2.0 * b * b + c * c)
        return tr - rad if inf else None, tr + rad if sup else None
    # finite_set: tr(A M) = A.a m.a + 2 A.b m.b + A.c m.c for symmetric A, M
    vals = np.stack([mm.a * a + 2.0 * mm.b * b + mm.c * c for mm in fam.members])
    return vals.min(axis=0) if inf else None, vals.max(axis=0) if sup else None


@dataclass(frozen=True)
class OperatorPair:
    """The (F-, F+) pair sharing one ellipticity band."""

    minus: MatrixFamily
    plus: MatrixFamily

    def __post_init__(self):
        if self.minus.ell != self.plus.ell:
            raise ConfigurationError(
                f"operator pair must share ellipticity, got {self.minus.ell} vs {self.plus.ell}"
            )

    @property
    def ell(self) -> Ellipticity:
        return self.minus.ell

    @staticmethod
    def pucci(ell: Ellipticity) -> "OperatorPair":
        fam = MatrixFamily("full_pucci", ell)
        return OperatorPair(fam, fam)

    @staticmethod
    def identity(ell: Ellipticity) -> "OperatorPair":
        fam = MatrixFamily("identity_only", ell)
        return OperatorPair(fam, fam)

    @staticmethod
    def frobenius(ell: Ellipticity, r0: float) -> "OperatorPair":
        fam = MatrixFamily("frobenius_ball", ell, r0=r0)
        return OperatorPair(fam, fam)


def heaviside_smooth(t, eps: float):
    """Cubic smoothstep regularization of the Heaviside function.

    H_eps(t) = 3 s^2 - 2 s^3 with s = clamp((t + eps) / (2 eps), 0, 1), so
    H(-eps) = 0, H(0) = 1/2, H(eps) = 1, C^1 across the clamps.
    """
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be positive, got {eps!r}")
    t = np.asarray(t, dtype=float)
    s = np.clip((t + eps) / (2.0 * eps), 0.0, 1.0)
    out = s * s * (3.0 - 2.0 * s)
    return float(out) if out.ndim == 0 else out


def g_epsilon_eval(m: SymMat2, u_value: float, pair: OperatorPair, eps: float) -> float:
    """Pointwise G_eps = H_eps(u) F-(m) + (1 - H_eps(u)) F+(m)."""
    hh = heaviside_smooth(u_value, eps)
    fm = family_extremal(pair.minus, m, "inf")
    fp = family_extremal(pair.plus, m, "sup")
    return hh * fm + (1.0 - hh) * fp


@dataclass(frozen=True)
class SchemeSpec:
    """Finite-difference scheme: 9-point central Hessian or wide stencil.

    kind "central": eigenvalue formulas on the central discrete Hessian.
    kind "wide": K direction pairs at angles k pi / (2K), k = 0..K-1, each
    paired with its orthogonal complement; K even, K >= 4.
    """

    kind: str = "central"
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("central", "wide"):
            raise ConfigurationError(f"scheme kind must be 'central' or 'wide', got {self.kind!r}")
        if self.kind == "wide":
            if not isinstance(self.k, (int, np.integer)) or self.k < 4 or self.k % 2 != 0:
                raise ConfigurationError(
                    f"wide stencil needs an even direction-pair count K >= 4, got {self.k!r}"
                )


def central_hessian(u: np.ndarray, h: float):
    """Interior discrete Hessian entries (u_xx, u_yy, u_xy), shape (nx-2, nx-2).

    u_xy is the four-corner average
    (u[i+1,j+1] - u[i+1,j-1] - u[i-1,j+1] + u[i-1,j-1]) / (4 h^2).
    """
    h2 = h * h
    uxx = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h2
    uyy = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h2
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * h2)
    return uxx, uyy, uxy


def _resolve(op: str, pair: OperatorPair | None, ell: Ellipticity | None, eps):
    """Normalize the (pair, ell) arguments for a selector."""
    if op not in OP_SELECTORS:
        raise ConfigurationError(f"unknown operator selector {op!r}; choose from {OP_SELECTORS}")
    if op in ("F_minus", "F_plus", "G_eps"):
        if pair is None:
            raise ConfigurationError(f"selector {op!r} needs an operator pair")
        ell = pair.ell
    if op in ("M_minus", "M_plus"):
        if ell is None:
            if pair is None:
                raise ConfigurationError(f"selector {op!r} needs ellipticity bounds")
            ell = pair.ell
    if op == "G_eps" and not (eps is not None and eps > 0.0):
        raise ConfigurationError("selector 'G_eps' needs eps > 0")
    return pair, ell


def _frames(u: np.ndarray, h: float, scheme: SchemeSpec, uxx, uyy, uxy):
    """The scheme's discrete Hessians as (a, b, c) entries of [[a, b], [b, c]].

    central: the one central Hessian.  wide: per angle i pi / (2K), the
    7-point second differences v.H.v along v = (c, s) and its orthogonal
    complement, diag(d1, d2) in the frame (v, v_perp); H takes its mixed
    term from the diagonal in the direction's quadrant.
    """
    if scheme.kind == "central":
        return [(uxx, uxy, uyy)]
    h2 = h * h
    dp = (u[2:, 2:] + u[:-2, :-2] - 2.0 * u[1:-1, 1:-1]) / h2  # NE, SW
    dm = (u[:-2, 2:] + u[2:, :-2] - 2.0 * u[1:-1, 1:-1]) / h2  # NW, SE
    uxy_p = 0.5 * (dp - uxx - uyy)
    uxy_m = 0.5 * (uxx + uyy - dm)
    frames = []
    for i in range(scheme.k):
        th = i * math.pi / (2 * scheme.k)
        c, s = math.cos(th), math.sin(th)
        frames.append((c * c * uxx + s * s * uyy + 2.0 * c * s * uxy_p, 0.0,
                       s * s * uxx + c * c * uyy - 2.0 * c * s * uxy_m))
    return frames


def _over_frames(frames, fam: MatrixFamily | None, ell: Ellipticity, inf: bool, sup: bool):
    """(min over the frames of the inf side, max over them of the sup side)."""
    if fam is not None and fam.kind == "finite_set" and len(frames) > 1:
        raise ConfigurationError("finite_set families are not rotation closed; "
                                 "wide stencils are unsupported")
    lo = hi = None
    for a, b, c in frames:
        f_lo, f_hi = _extremal_sides(fam, ell, a, b, c, inf, sup)
        if inf:
            lo = f_lo if lo is None else np.minimum(lo, f_lo)
        if sup:
            hi = f_hi if hi is None else np.maximum(hi, f_hi)
    return lo, hi


def residual_interior(
    u: np.ndarray,
    h: float,
    op: str,
    scheme: SchemeSpec,
    pair: OperatorPair | None = None,
    ell: Ellipticity | None = None,
    eps: float | None = None,
) -> np.ndarray:
    """Residual of the selected operator on the interior block, shape (nx-2, nx-2).

    The laplacian is the trace of the central Hessian on either scheme.  Both
    schemes read only the 3x3 neighbourhood of each node, which fits inside
    the one-node Dirichlet ring for every interior node.
    """
    pair, ell = _resolve(op, pair, ell, eps)
    uxx, uyy, uxy = central_hessian(u, h)
    if op == "laplacian":
        return uxx + uyy
    frames = _frames(u, h, scheme, uxx, uyy, uxy)
    if op == "M_minus":
        return _over_frames(frames, None, ell, True, False)[0]
    if op == "M_plus":
        return _over_frames(frames, None, ell, False, True)[1]
    if op == "F_minus":
        return _over_frames(frames, pair.minus, ell, True, False)[0]
    if op == "F_plus":
        return _over_frames(frames, pair.plus, ell, False, True)[1]
    # G_eps: one family on both sides takes both from the same eigenvalues
    if pair.minus == pair.plus:
        fm, fp = _over_frames(frames, pair.minus, ell, True, True)
    else:
        fm = _over_frames(frames, pair.minus, ell, True, False)[0]
        fp = _over_frames(frames, pair.plus, ell, False, True)[1]
    hh = heaviside_smooth(u[1:-1, 1:-1], eps)
    return hh * fm + (1.0 - hh) * fp


def discrete_residual(
    fld: GridField,
    op: str,
    scheme: SchemeSpec,
    pair: OperatorPair | None = None,
    ell: Ellipticity | None = None,
    eps: float | None = None,
) -> GridField:
    """Residual field of the selected operator; zero on the Dirichlet ring."""
    if not np.all(np.isfinite(fld.values)):
        raise InputError("field contains non-finite values")
    out = np.zeros_like(fld.values)
    out[1:-1, 1:-1] = residual_interior(fld.values, fld.spec.h, op, scheme,
                                        pair=pair, ell=ell, eps=eps)
    return GridField(fld.spec, out)
