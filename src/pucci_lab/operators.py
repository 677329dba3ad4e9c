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

In 2-D the Pucci operators need no eigenvalues.  With m = (lam + Lam) / 2,
d = (Lam - lam) / 2, tr = a + c and gap = e2 - e1 = sqrt((a - c)^2 + 4 b^2)
for M = [[a, b], [b, c]], |e1| + |e2| = max(|tr|, gap), so

    M-+(M) = m tr -+ d max(|tr|, gap).

The matrix attaining it is m I -+ (d / gap) [[a - c, 2b], [2b, c - a]] where
gap > |tr| (eigenvalues of opposite sign), and (m -+ d sign tr) I elsewhere,
which is the band midpoint m I at M = 0.

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
One kernel per family gives one side of tr(A M) on a frame, the inf or the
sup, and the residual takes the min (inf side) or max (sup side) over the
frames.  A selector resolves to the families it runs, as (inf side, sup
side): F- runs its minus family's inf side, F+ its plus family's sup side,
G_eps both, blended by H_eps; M- and M+ run the full Pucci class, and the
laplacian the identity's inf side on the central Hessian whatever the
scheme.  On request the kernel also returns the matrix attaining its side,
the policy; ``linearize`` turns it into the Jacobian of the residual at
that policy, as coefficients on the second differences (three on the central
scheme, four on the wide one), and ``jacobian_apply`` applies it matrix-free.
Each kernel takes a grid or a stack of grids, shape (..., nx, nx), and returns
interior blocks (..., nx-2, nx-2), bit for bit those of each grid alone.
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
        # float bounds: integer weights would make the kernels' arrays integer
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "Lam", float(self.Lam))


def eig2(m: SymMat2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, ascending, by the closed form
    (entries below about 1e154 in magnitude, where its squares stay finite)."""
    mean = 0.5 * (m.a + m.c)
    rad = math.sqrt((0.5 * (m.a - m.c)) ** 2 + m.b * m.b)
    return mean - rad, mean + rad


def pucci_eval(m: SymMat2, ell: Ellipticity, branch: str) -> float:
    """Pucci extremal value M-(m) (branch="minus") or M+(m) (branch="plus")."""
    if branch not in ("minus", "plus"):
        raise ConfigurationError(f"branch must be 'minus' or 'plus', got {branch!r}")
    return family_extremal(MatrixFamily("full_pucci", ell), m, "sup" if branch == "plus" else "inf")


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
    return float(_extremal_side(fam, m.a, m.b, m.c, mode == "sup")[0])


def _extremal_side(fam: MatrixFamily, a, b, c, sup: bool, policy: bool = False):
    """(value, active): inf (``sup`` False) or sup of tr(A M) over the family,
    entrywise for M = [[a, b], [b, c]]; with ``policy``, ``active`` is the
    matrix attaining it as (A11, A12, A22) entries, else None."""
    if fam.kind == "full_pucci":
        # the closed form and policy of the module docstring, d negated on the inf side
        m = 0.5 * (fam.ell.Lam + fam.ell.lam)
        d = 0.5 * (fam.ell.Lam - fam.ell.lam) * (1.0 if sup else -1.0)
        tr = a + c
        gap = np.sqrt((a - c) ** 2 + (2.0 * b) ** 2)  # e2 - e1
        value = m * tr + d * np.maximum(np.abs(tr), gap)
        if not policy:
            return value, None
        # the policy base I + k [[a - c, 2b], [2b, c - a]], written over gap and tr
        split = gap > np.abs(tr)
        k = np.divide(d, np.where(split, gap, np.inf), out=gap)  # 0 where not split
        base = np.multiply(d, np.where(split, 0.0, np.sign(tr)), out=tr)
        base += m
        g = k * (a - c)
        k *= 2.0 * b
        a11 = base + g
        base -= g
        return value, (a11, k, base)
    if fam.kind == "identity_only":
        return a + c, (1.0, 0.0, 1.0)
    if fam.kind == "frobenius_ball":
        # A = I + r M / ||M||_F with r = -r0 (inf) or r0 (sup), and I at M = 0
        r = fam.r0 if sup else -fam.r0
        nrm = np.sqrt(a * a + 2.0 * b * b + c * c)
        k = np.divide(r, nrm, out=np.zeros_like(nrm), where=nrm > 0.0) if policy else None
        return (a + c) + r * nrm, (1.0 + k * a, k * b, 1.0 + k * c) if policy else None
    # finite_set: tr(A M) = A.a m.a + 2 A.b m.b + A.c m.c for symmetric A, M
    vals = np.stack([mm.a * a + 2.0 * mm.b * b + mm.c * c for mm in fam.members])
    pick = vals.argmax(axis=0) if sup else vals.argmin(axis=0)
    value = np.take_along_axis(vals, pick[None], axis=0)[0]
    entries = np.array([(mm.a, mm.b, mm.c) for mm in fam.members])
    return value, tuple(np.moveaxis(entries[pick], -1, 0)) if policy else None


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

    kind "central": each family's closed form on the central discrete Hessian.
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
    """Interior discrete Hessian entries (u_xx, u_yy, u_xy), shape (..., nx-2, nx-2).

    u_xy is the four-corner average
    (u[i+1,j+1] - u[i+1,j-1] - u[i-1,j+1] + u[i-1,j-1]) / (4 h^2).
    """
    h2 = h * h
    uxx = (u[..., 2:, 1:-1] - 2.0 * u[..., 1:-1, 1:-1] + u[..., :-2, 1:-1]) / h2
    uyy = (u[..., 1:-1, 2:] - 2.0 * u[..., 1:-1, 1:-1] + u[..., 1:-1, :-2]) / h2
    uxy = (u[..., 2:, 2:] - u[..., 2:, :-2] - u[..., :-2, 2:] + u[..., :-2, :-2]) / (4.0 * h2)
    return uxx, uyy, uxy


def _resolve(op: str, scheme: SchemeSpec, pair: OperatorPair | None,
             ell: Ellipticity | None, eps):
    """The scheme a selector runs on and its families, as (scheme, inf side,
    sup side) with None for a side it does not run (module docstring).  M-
    and M+ take ``ell``, or the pair's when ``ell`` is None."""
    if op not in OP_SELECTORS:
        raise ConfigurationError(f"unknown operator selector {op!r}; choose from {OP_SELECTORS}")
    if op == "laplacian":
        scheme, pair = SchemeSpec(), OperatorPair.identity(Ellipticity(1.0, 1.0))
    elif op[0] == "M":
        if ell is None and pair is None:
            raise ConfigurationError(f"selector {op!r} needs ellipticity bounds")
        pair = OperatorPair.pucci(pair.ell if ell is None else ell)
    elif pair is None:
        raise ConfigurationError(f"selector {op!r} needs an operator pair")
    if op == "G_eps" and not (eps is not None and eps > 0.0):
        raise ConfigurationError("selector 'G_eps' needs eps > 0")
    return (scheme, None if op.endswith("plus") else pair.minus,
            pair.plus if op.endswith(("plus", "eps")) else None)


def _frames(u: np.ndarray, h: float, scheme: SchemeSpec):
    """The scheme's discrete Hessians as (a, b, c, rot) for [[a, b], [b, c]].

    central: the one central Hessian, rot None.  wide: per angle i pi / (2K),
    the 7-point second differences v.H.v along v = (c, s) and its orthogonal
    complement, diag(d1, d2) in the frame (v, v_perp), rot (c, s); H takes
    its mixed term from the diagonal in the direction's quadrant.
    """
    uxx, uyy, uxy = central_hessian(u, h)
    if scheme.kind == "central":
        return [(uxx, uxy, uyy, None)]
    h2 = h * h
    dp = (u[..., 2:, 2:] + u[..., :-2, :-2] - 2.0 * u[..., 1:-1, 1:-1]) / h2  # NE, SW
    dm = (u[..., :-2, 2:] + u[..., 2:, :-2] - 2.0 * u[..., 1:-1, 1:-1]) / h2  # NW, SE
    uxy_p = 0.5 * (dp - uxx - uyy)
    uxy_m = 0.5 * (uxx + uyy - dm)
    frames = []
    for i in range(scheme.k):
        th = i * math.pi / (2 * scheme.k)
        c, s = math.cos(th), math.sin(th)
        frames.append((c * c * uxx + s * s * uyy + 2.0 * c * s * uxy_p, 0.0,
                       s * s * uxx + c * c * uyy - 2.0 * c * s * uxy_m, (c, s)))
    return frames


def _frame_coefs(act, rot):
    """Coefficients of tr(A frame), A = (A11, A12, A22), as ``linearize``
    returns them: (k_xx, k_yy, k_xy) centrally, (k_xx, k_yy, k_p, k_m) wide."""
    a11, a12, a22 = act
    if rot is None:  # 2 A12 u_xy = A12 (u_xy+ + u_xy-)
        return a11, a22, a12
    c, s = rot  # the frame is diagonal: A12 meets a zero
    return (c * c * a11 + s * s * a22, s * s * a11 + c * c * a22,
            2.0 * c * s * a11, -2.0 * c * s * a22)


def _over_frames(frames, fam: MatrixFamily, sup: bool, policy: bool = False):
    """(value, coefs): the min over the frames of the inf side (``sup``
    False) or the max of the sup side, and with ``policy`` the coefficients
    (``_frame_coefs``) of the matrix and frame attaining it."""
    if fam.kind == "finite_set" and len(frames) > 1:
        raise ConfigurationError("finite_set families are not rotation closed; "
                                 "wide stencils are unsupported")
    value = coefs = None
    for a, b, c, rot in frames:
        f, act = _extremal_side(fam, a, b, c, sup, policy)
        if policy:
            new = _frame_coefs(act, rot)
            coefs = new if value is None else tuple(
                np.where(f > value if sup else f < value, x, y) for x, y in zip(new, coefs))
        value = f if value is None else (np.maximum if sup else np.minimum)(value, f)
    return value, coefs


def residual_interior(u: np.ndarray, h: float, op: str, scheme: SchemeSpec,
                      pair: OperatorPair | None = None, ell: Ellipticity | None = None,
                      eps: float | None = None) -> np.ndarray:
    """Residual of the selected operator on the interior block, shape (..., nx-2, nx-2).

    The laplacian is the trace of the central Hessian on either scheme.  Both
    schemes read only the 3x3 neighbourhood of each node, which fits inside
    the one-node Dirichlet ring for every interior node.
    """
    return _residual(u, h, op, scheme, pair, ell, eps, False)[0]


def linearize(u: np.ndarray, h: float, op: str, scheme: SchemeSpec,
              pair: OperatorPair | None = None, ell: Ellipticity | None = None,
              eps: float | None = None):
    """The residual (``residual_interior``, bit for bit) and the Jacobian of
    its active policy, as ``(value, coefs, diag)``, each (..., nx-2, nx-2).

    The policy holds each node's attaining matrix (and frame).  Its Jacobian
    applied to an increment d is k_xx d_xx + k_yy d_yy + k_p d_xy+ + k_m d_xy-
    + diag d, on the central second differences and the 7-point mixed
    differences u_xy+- of the module docstring.  ``coefs`` is (k_xx, k_yy,
    k_p, k_m) on the wide scheme and (k_xx, k_yy, k_xy) with k_p = k_m = k_xy
    on the central scheme and for the laplacian; ``diag`` is H'(u) (F- - F+)
    for G_eps and None otherwise.  ``jacobian_apply`` evaluates it.
    """
    return _residual(u, h, op, scheme, pair, ell, eps, True)


def _residual(u, h, op, scheme, pair, ell, eps, policy):
    scheme, *fams = _resolve(op, scheme, pair, ell, eps)
    frames = _frames(u, h, scheme)
    sides = [_over_frames(frames, fam, sup, policy)
             for fam, sup in zip(fams, (False, True)) if fam is not None]
    del frames
    if len(sides) == 1:
        return (*sides[0], None)
    (fm, k_m), (fp, k_p) = sides
    hh = heaviside_smooth(u[..., 1:-1, 1:-1], eps)
    gg = 1.0 - hh
    value = hh * fm + gg * fp
    if not policy:
        return value, None, None
    # hh k_m + gg k_p, blended in k_m's arrays (the identity's are scalars)
    coefs = tuple(hh * x + gg * y if np.isscalar(x) else
                  np.add(np.multiply(x, hh, out=x), gg * y, out=x) for x, y in zip(k_m, k_p))
    # d H / d t = 3 s (1 - s) / eps, s clamped to [0, 1] as in heaviside_smooth
    s = np.clip((u[..., 1:-1, 1:-1] + eps) / (2.0 * eps), 0.0, 1.0)
    diag = (3.0 / eps) * s * (1.0 - s) * (fm - fp)
    return value, coefs, diag


def jacobian_apply(coefs, diag, d: np.ndarray, h: float) -> np.ndarray:
    """The policy Jacobian of ``linearize`` applied to the increment ``d``,
    (..., nx, nx), zero on the ring; returns the interior (..., nx-2, nx-2).

    By the definitions of u_xy+- it is w_x d_xx + w_y d_yy + (k_p / 2) D+ -
    (k_m / 2) D- (+ diag d) with w = k + (k_m - k_p) / 2 on both axes.  The
    central scheme's three coefficients are k_p = k_m = k_xy, which keeps
    only the four-corner part of D+ - D-.
    """
    k_xx, k_yy, *k_mixed = coefs
    mid = d[..., 1:-1, 1:-1]
    out = d[..., 2:, 2:] + d[..., :-2, :-2]
    t = np.empty_like(mid)
    if len(k_mixed) == 1:
        out -= d[..., :-2, 2:]
        out -= d[..., 2:, :-2]
        out *= k_mixed[0]
    else:
        k_p, k_m = k_mixed
        shift = 0.5 * (k_m - k_p)
        k_xx, k_yy = k_xx + shift, k_yy + shift
        out -= 2.0 * mid
        out *= k_p
        np.add(d[..., :-2, 2:], d[..., 2:, :-2], out=t)
        t -= 2.0 * mid
        t *= k_m
        out -= t
    out *= 0.5
    for k, fwd, back in ((k_xx, d[..., 2:, 1:-1], d[..., :-2, 1:-1]),
                         (k_yy, d[..., 1:-1, 2:], d[..., 1:-1, :-2])):
        np.add(fwd, back, out=t)
        t -= mid
        t -= mid
        t *= k
        out += t
    out /= h * h
    if diag is not None:
        np.multiply(diag, mid, out=t)
        out += t
    return out


def discrete_residual(fld: GridField, op: str, scheme: SchemeSpec,
                      pair: OperatorPair | None = None, ell: Ellipticity | None = None,
                      eps: float | None = None) -> GridField:
    """Residual field of the selected operator; zero on the Dirichlet ring."""
    if not np.all(np.isfinite(fld.values)):
        raise InputError("field contains non-finite values")
    out = np.zeros_like(fld.values)
    out[1:-1, 1:-1] = residual_interior(fld.values, fld.spec.h, op, scheme,
                                        pair=pair, ell=ell, eps=eps)
    return GridField(fld.spec, out)
