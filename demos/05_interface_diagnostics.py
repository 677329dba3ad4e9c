"""Interface diagnostics on a field with a known free boundary.

A two-plane field alpha <x-x0,nu>+ - beta <x-x0,nu>- has every diagnostic
answer in closed form, so this script walks the whole toolbox across one:
curve extraction, level-pair consistency, the scaled Dirichlet products,
regular-point classification, blow-up slope fits, flatness, and cone
monotonicity.

Run with:  python3 demos/05_interface_diagnostics.py
"""

import math
import os
import tempfile

from pucci_lab import (
    ConeSpec,
    GridSpec,
    TwoPlaneSpec,
    ball_sup,
    boundary_consistency,
    check_alpha_beta,
    classify_regular,
    curve_to_csv,
    epsilon_monotonicity,
    extract_zero_set,
    fit_two_plane,
    flatness_measure,
    j_series_check,
    series_to_csv,
    two_plane_field,
)

g = GridSpec(129)
alpha, beta, angle = 1.0, 2.0, 20.0
u = two_plane_field(TwoPlaneSpec.from_angle(alpha, beta, angle), g)
print(f"two-plane field: alpha = {alpha}, beta = {beta}, normal at {angle} deg, nx = {g.nx}")

# The zero set is a straight line through the center; vertices come clipped
# to the open square and normals point into {u > 0}.
curve = extract_zero_set(u)
k = curve.nearest_vertex((0.5, 0.5))
print(f"\ncurve: {curve.vertices.shape[0]} vertices, {len(curve.segments)} segments")
print(f"  vertex nearest the center {tuple(round(float(v), 4) for v in curve.vertices[k])}, "
      f"normal {tuple(round(float(v), 4) for v in curve.normals[k])}")

# Level-pair consistency compares the level curves u+ = delta+ and
# u- = delta-, delta+- = h Lip(u+-), away from the walls; on a two-plane
# field each sits at most h from the interface, whatever the slopes.
bc = boundary_consistency(u)
print(f"  level-pair consistency {bc:.5f} = {bc / g.h:.2f} h "
      f"(coincident planes read at most 2h)")

# Scaled Dirichlet products over shrinking balls.  For exact planes the
# product J_r(u+) J_r(u-) is radius-free and pins the planar constant.
x0 = tuple(float(v) for v in curve.vertices[k])
radii = (0.05, 0.1, 0.15, 0.2)
series, verdict = j_series_check(u, x0, radii)
print(f"\nJ_r series at the center vertex, radii {radii}")
print("  product:", ", ".join(f"{v:.5f}" for v in series.j))
print(f"  verdict {verdict.verdict}, constancy defect {verdict.constancy_defect:.2e}, "
      f"extrapolated J_0 {series.j0:.5f}")
print(f"  planar two-plane value pi^2 alpha^2 beta^2 / 4 = "
      f"{math.pi ** 2 * alpha ** 2 * beta ** 2 / 4.0:.5f}")

# Linear growth from the interface point: sup |u| over B_r scales like
# max(alpha, beta) r, so its growth exponent, the log-log slope of sup |u|
# over the radii, is 1 and the point classifies as regular (below 3/2).
rec = classify_regular(u, x0, radii)
print(f"\nregularity record at {tuple(round(v, 4) for v in x0)}")
print(f"  growth exponent {rec.growth_exponent:.4f}, regular = {rec.is_regular}")
print(f"  M = {rec.M:.4f}, growth window [{rec.c_lower:.4f}, {rec.C_upper:.4f}], "
      f"zero density {rec.zero_density:.3f}")
print(f"  sup |u| over B_0.1: {ball_sup(u, x0, 0.1):.5f}")

# Blow-up slope fit: rescale u around x0 at each radius and fit one-sided
# slopes along a common normal; the smallest radius must stay above 8h.
# The balance check asks the two slopes to agree; the lopsided datum is
# built to fail it.
fit = fit_two_plane(u, x0, (0.2, 0.14, 0.07))
print(f"\nslope fit: alpha {fit.alpha:.4f}, beta {fit.beta:.4f}, "
      f"nu at {math.degrees(math.atan2(fit.nu[1], fit.nu[0])):.2f} deg, "
      f"residual {fit.residual:.2e}")
print(f"  slope balance: {check_alpha_beta(fit)} (expected FAIL, alpha != beta here)")

even = two_plane_field(TwoPlaneSpec.from_angle(1.0, 1.0, angle), g)
fit_even = fit_two_plane(even, (0.5, 0.5), (0.2, 0.14, 0.07))
print(f"  balanced field alpha = beta = 1: {check_alpha_beta(fit_even)}")

# Flatness and cone monotonicity.  A straight interface traps in a band of
# zero width; the tilt of 20 deg keeps the plane monotone along every
# direction of the 60 deg half-opening cone around its normal.
flat = flatness_measure(u, x0, 0.15)
cone = ConeSpec(fit.nu, math.radians(60.0))
em = epsilon_monotonicity(u, cone, (0.3, 0.7, 0.3, 0.7))
print(f"\nflatness in the 0.15 window {flat:.2e} (h = {g.h:.2e})")
print(f"cone monotonicity scale {em:.5f} (floor 2h = {2 * g.h:.5f})")

# Both curve and series serialize to plain CSV.
with tempfile.TemporaryDirectory() as td:
    cpath = os.path.join(td, "curve.csv")
    spath = os.path.join(td, "jr_series.csv")
    curve_to_csv(curve, cpath)
    series_to_csv(series, spath)
    for path in (cpath, spath):
        with open(path) as fh:
            lines = fh.read().splitlines()
        print(f"\n{os.path.basename(path)}: {len(lines) - 1} data rows")
        print("  " + "\n  ".join(lines[:3]))
print("done")
