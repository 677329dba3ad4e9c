"""Correctness checks computed apart from pucci_lab.

Every check here uses its own numpy code and the closed forms of the
problems, never a pucci_lab function, so a fault in the program cannot hide
in the check that judges it.  Each check returns a list of problems; an
empty list means the output passed.

The discrete operator is the central 9-point Hessian

    u_xx = (u[i+1,j] - 2u + u[i-1,j]) / h^2,  u_yy likewise,
    u_xy = (u[i+1,j+1] - u[i+1,j-1] - u[i-1,j+1] + u[i-1,j-1]) / (4 h^2),

its eigenvalues by the closed form of a symmetric 2x2 matrix, the Pucci
envelopes M-(e) = lam sum e+ - Lam sum e-, M+(e) = Lam sum e+ - lam sum e-,
and G_eps = H_eps(u) M- + (1 - H_eps(u)) M+ with the cubic smoothstep
H_eps(t) = 3s^2 - 2s^3, s = clamp((t + eps) / (2 eps), 0, 1).
"""

from __future__ import annotations

import math

import numpy as np

# Own recomputations differ from the program's in the order of floating-point
# operations; at nx <= 129 second differences of O(1) fields carry about
# 1e-11 of roundoff, which is 0.1% of a 1e-8 tolerance.
ROUNDOFF_SHARE = 0.01


def central_hessian(u: np.ndarray, h: float):
    h2 = h * h
    c = u[1:-1, 1:-1]
    uxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / h2
    uyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / h2
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * h2)
    return uxx, uyy, uxy


def pucci(uxx, uyy, uxy, lam: float, Lam: float, branch: str):
    mean = 0.5 * (uxx + uyy)
    rad = np.sqrt(0.25 * (uxx - uyy) ** 2 + uxy * uxy)
    e1, e2 = mean - rad, mean + rad
    pos = np.maximum(e1, 0.0) + np.maximum(e2, 0.0)
    neg = np.minimum(e1, 0.0) + np.minimum(e2, 0.0)
    if branch == "minus":
        return lam * pos + Lam * neg
    return Lam * pos + lam * neg


def smoothstep(t, eps: float):
    s = np.clip((t + eps) / (2.0 * eps), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def central_residual(u: np.ndarray, h: float, op: str, lam: float, Lam: float,
                     eps: float | None = None) -> np.ndarray:
    """Interior residual of M_minus or G_eps (full Pucci pair) on the
    central scheme, shape (nx - 2, nx - 2)."""
    uxx, uyy, uxy = central_hessian(u, h)
    lo = pucci(uxx, uyy, uxy, lam, Lam, "minus")
    if op == "M_minus":
        return lo
    if op == "G_eps":
        hh = smoothstep(u[1:-1, 1:-1], eps)
        return hh * lo + (1.0 - hh) * pucci(uxx, uyy, uxy, lam, Lam, "plus")
    raise ValueError(f"no independent residual for {op!r}")


def residual_within(u: np.ndarray, h: float, op: str, tol: float, lam: float, Lam: float,
                    eps: float | None = None, frozen: np.ndarray | None = None) -> list[str]:
    """The converged field's own-code residual stays within the solve tolerance
    on every interior node that is not frozen."""
    res = np.abs(central_residual(u, h, op, lam, Lam, eps))
    if frozen is not None:
        res = np.where(frozen[1:-1, 1:-1], 0.0, res)
    worst = float(res.max())
    if not worst <= tol * (1.0 + ROUNDOFF_SHARE):
        return [f"{op} residual {worst:.3e} exceeds tol {tol:.1e}"]
    return []


def max_principle(u: np.ndarray, held: np.ndarray) -> list[str]:
    """The discrete maximum principle: every node lies between the least and
    the greatest held value (the Dirichlet ring, plus frozen nodes)."""
    lo, hi = float(u[held].min()), float(u[held].max())
    below, above = lo - float(u.min()), float(u.max()) - hi
    out = []
    if below > 0.0:
        out.append(f"maximum principle: field dips {below:.3e} under the held minimum")
    if above > 0.0:
        out.append(f"maximum principle: field rises {above:.3e} over the held maximum")
    return out


def ring_mask(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=bool)
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
    return m


# The clamped march returns the iterate after the step that passed its stop
# test, not the one it tested, so the residual may move by that step.  On the
# benchmark's ladders it falls to 0.986-0.998 tol; twice tol leaves room for
# the step without hiding a wrong field.
COMPLEMENTARITY_FACTOR = 2.0


def complementarity(u1: np.ndarray, u2: np.ndarray, f1: np.ndarray, f2: np.ndarray,
                    h: float, eps: float, tol: float, lam: float, Lam: float) -> list[str]:
    """min(u_i, -M-(u_i) + u1 u2 / eps) = 0 on the interior, u_i >= 0, and
    the ring data kept exactly."""
    out = []
    ring = ring_mask(u1.shape[0])
    coup = u1[1:-1, 1:-1] * u2[1:-1, 1:-1] / eps
    for name, u, f in (("u1", u1, f1), ("u2", u2, f2)):
        if float(u.min()) < 0.0:
            out.append(f"{name} takes the negative value {float(u.min()):.3e}")
        if not np.array_equal(u[ring], f[ring]):
            out.append(f"{name} does not keep its ring data")
        uxx, uyy, uxy = central_hessian(u, h)
        comp = np.minimum(u[1:-1, 1:-1], -pucci(uxx, uyy, uxy, lam, Lam, "minus") + coup)
        worst = float(np.abs(comp).max())
        if not worst <= COMPLEMENTARITY_FACTOR * tol:
            out.append(f"{name} complementarity residual {worst:.3e} exceeds "
                       f"{COMPLEMENTARITY_FACTOR:g} tol = {COMPLEMENTARITY_FACTOR * tol:.1e}")
    return out


def overlap_law(eps_list, overlaps) -> list[str]:
    """Criterion 07's law: sup(u1 u2) falls along the eps ladder, and the
    local rates log(o_k / o_k+1) / log(eps_k / eps_k+1) rise strictly and
    stay at or under 2/3 (the overlap is of order eps^(2/3))."""
    out = []
    if any(b >= a for a, b in zip(overlaps, overlaps[1:])):
        out.append(f"overlaps do not fall: {list(overlaps)}")
        return out
    rates = [math.log(overlaps[k] / overlaps[k + 1]) / math.log(eps_list[k] / eps_list[k + 1])
             for k in range(len(overlaps) - 1)]
    if any(b <= a for a, b in zip(rates, rates[1:])):
        out.append(f"overlap rates do not rise: {rates}")
    if max(rates) > 2.0 / 3.0:
        out.append(f"overlap rate {max(rates):.4f} exceeds 2/3")
    return out


def annulus_errors(u4: np.ndarray, u8: np.ndarray, exact: np.ndarray,
                   free: np.ndarray) -> list[str]:
    """Sup error against the closed-form psi over the unfrozen nodes; the
    K = 8 wide stencil must come closer than K = 4."""
    e4 = float(np.abs(u4 - exact)[free].max())
    e8 = float(np.abs(u8 - exact)[free].max())
    return [] if e8 < e4 else [f"wide K=8 error {e8:.3e} is not below K=4 error {e4:.3e}"]


# --- two-plane closed forms -------------------------------------------------
#
# u = alpha d+ - beta d-, d = <x - x0, nu>.  A marching-squares crossing on an
# edge whose ends sit at distances d1 > 0 > -d2 lands at signed distance
# d1 d2 (beta - alpha) / (alpha d1 + beta d2), at most |beta - alpha| h /
# (4 min(alpha, beta)) from the line; it is exactly on the line when
# alpha = beta.


def line_offset_bound(alpha: float, beta: float, h: float) -> float:
    return abs(beta - alpha) * h / (4.0 * min(alpha, beta)) + 1e-12


def signed_distance(pts: np.ndarray, nu, x0) -> np.ndarray:
    return (pts[:, 0] - x0[0]) * nu[0] + (pts[:, 1] - x0[1]) * nu[1]


def zero_set_on_line(vertices: np.ndarray, alpha: float, beta: float, nu, x0,
                     h: float) -> list[str]:
    if vertices.shape[0] == 0:
        return ["zero set is empty"]
    worst = float(np.abs(signed_distance(vertices, nu, x0)).max())
    bound = line_offset_bound(alpha, beta, h)
    return [] if worst <= bound else [
        f"zero-set vertex {worst:.3e} off the line, bound {bound:.3e}"]


def jr_product(j: np.ndarray, alpha: float, beta: float, rel: float = 0.01) -> list[str]:
    """J_r(u+) J_r(u-) = (pi^2 / 4) alpha^2 beta^2 at every radius."""
    target = 0.25 * math.pi ** 2 * alpha ** 2 * beta ** 2
    worst = float(np.abs(np.asarray(j) - target).max()) / target
    return [] if worst <= rel else [f"J_r product off (pi^2/4) a^2 b^2 by {worst:.3e}"]


def growth_constant(alpha: float, beta: float, d0: float, radii) -> float:
    """min over r of sup_{B_r} |u| / r for a base point at signed distance d0."""
    return min(max(alpha * (r + d0), beta * (r - d0)) / r for r in radii)


def growth_matches(M: float, alpha: float, beta: float, d0: float, radii,
                   rel: float = 5e-3) -> list[str]:
    """M = max(alpha, beta), corrected for the base point's offset d0 from the
    line; the relative slack covers the sup's sampling tolerance."""
    want = growth_constant(alpha, beta, d0, radii)
    return [] if abs(M - want) <= rel * want else [f"growth constant {M:.6f}, want {want:.6f}"]


def slopes_match(fit_alpha: float, fit_beta: float, fit_nu, alpha: float, beta: float,
                 nu, rel: float = 0.05, min_dot: float = 0.9995) -> list[str]:
    out = []
    top = max(alpha, beta)
    if abs(fit_alpha - alpha) > rel * top or abs(fit_beta - beta) > rel * top:
        out.append(f"fitted slopes ({fit_alpha:.4f}, {fit_beta:.4f}), want ({alpha:.4f}, {beta:.4f})")
    dot = fit_nu[0] * nu[0] + fit_nu[1] * nu[1]
    if dot < min_dot:
        out.append(f"fitted normal off by {math.degrees(math.acos(min(dot, 1.0))):.3f} degrees")
    return out


def flatness_zero(flat: float, alpha: float, beta: float, h: float) -> list[str]:
    """The level set of a two-plane field is a line: its band half-width is
    0 up to the crossing offsets, so at most twice their bound."""
    bound = 2.0 * line_offset_bound(alpha, beta, h)
    return [] if flat <= bound else [f"flatness {flat:.3e} exceeds {bound:.3e}"]


def cone_floor(eps_found: float, h: float) -> list[str]:
    """A two-plane field increases along its normal, so every rung of the
    dyadic ladder holds and the smallest, 2h, is returned."""
    return [] if abs(eps_found - 2.0 * h) <= 1e-12 else [
        f"cone epsilon {eps_found!r}, want 2h = {2.0 * h!r}"]


def bit_identical(a: np.ndarray, b: np.ndarray) -> list[str]:
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return ["CSV round trip is not bit-identical"]
    return []
