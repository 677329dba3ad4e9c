"""Singular barriers, radial profiles, and the fixture catalogue.

Builds the power-law barrier for a few ellipticity bands, checks its linear
gradient bound along a ray, evaluates the annulus profile for two operator
families against hand-computed hold-outs, and lists every named grid fixture
with its value range.

Run with:  python3 demos/02_barriers_and_profiles.py
"""

import math

import numpy as np

from pucci_lab import (
    FIXTURES,
    BarrierSpec,
    Ellipticity,
    GridSpec,
    MatrixFamily,
    barrier_gradient_bound,
    barrier_psi,
    gamma_exponent,
    make_fixture,
    radial_profile,
)

# The planar barrier exponent gamma = (Lam - lam) / lam steepens with the
# ellipticity ratio; at lam = Lam it collapses to the harmonic power.
print("barrier exponents in the plane")
for lam, Lam in ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (0.5, 2.0)):
    g = gamma_exponent(Ellipticity(lam, Lam))
    print(f"  (lam, Lam) = ({lam:g}, {Lam:g})   gamma = {g:g}")

# psi = c ((r/|x|)^gamma - 1) vanishes on |x| = r and blows up at the center.
# Inside the ball it dominates the linear bound (c gamma / r)(r - |x|).
spec = BarrierSpec(c=1.0, r=0.4, gamma=1.0, center=(0.0, 0.0))
dist = np.linspace(0.05, 0.4, 8)
vals = barrier_psi(spec, dist, np.zeros_like(dist))
bound = barrier_gradient_bound(spec, dist)
print("\nbarrier along a ray, c = 1, r = 0.4, gamma = 1")
print("  dist    psi      linear bound")
for d, v, b in zip(dist, vals, bound):
    print(f"  {d:.3f}  {v:8.4f}  {b:8.4f}  ok={v >= b - 1e-12}")

# Annulus profiles phi with F-(D^2 phi) = 0, phi(r/2) = 1, phi(r) = 0.
# Exactly solvable hold-outs: the Pucci profile at (1, 2) is linear-in-1/rho
# with phi(3r/4) = 1/3, the Laplacian profile is logarithmic with
# phi(3r/4) = log(4/3)/log 2 and outer slope sigma r = 1/log 2.
r = 0.4
cases = {
    "pucci (1,2)": (MatrixFamily("full_pucci", Ellipticity(1.0, 2.0)), 1.0 / 3.0),
    "laplacian": (MatrixFamily("identity_only", Ellipticity(1.0, 1.0)),
                  math.log(4.0 / 3.0) / math.log(2.0)),
}
print(f"\nannulus profiles on r/2 <= rho <= r, r = {r}")
for name, (fam, hold) in cases.items():
    prof = radial_profile(fam, r=r)
    mid = float(np.interp(0.75 * r, prof.rho_samples, prof.phi_values))
    print(f"  {name:12s} phi(3r/4) = {mid:.8f}  (exact {hold:.8f}, "
          f"err {abs(mid - hold):.2e})   sigma = {prof.sigma:.6f}")

# Every named fixture on one small grid.  Scalar names return one field;
# the two last names return the (f1, f2) pair for the two-species system.
g = GridSpec(65)
print(f"\nfixture catalogue at nx = {g.nx}")
for name in FIXTURES:
    out = make_fixture(g, name)
    if isinstance(out, tuple):
        (a, b) = out
        print(f"  {name:18s} pair, ranges [{a.values.min():.3g}, {a.values.max():.3g}] "
              f"and [{b.values.min():.3g}, {b.values.max():.3g}]")
    else:
        print(f"  {name:18s} range [{out.values.min():.3g}, {out.values.max():.3g}]")
print("done")
