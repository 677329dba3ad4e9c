"""Extremal operators on symmetric 2x2 matrices.

Evaluates the Pucci envelopes and the structured-family operators on a few
hand-picked matrices, then spot-checks the order and scaling identities the
rest of the laboratory leans on: the operator chain, positive homogeneity,
super/subadditivity, the ellipticity increments, and duality under sign flip.

Run with:  python3 demos/01_operator_algebra.py
"""

import numpy as np

from pucci_lab import (
    Ellipticity,
    MatrixFamily,
    OperatorPair,
    SymMat2,
    eig2,
    family_extremal,
    g_epsilon_eval,
    heaviside_smooth,
    pucci_eval,
)

ell = Ellipticity(1.0, 2.0)

# a trace-free saddle, a tilted indefinite matrix, and the identity
mats = {
    "saddle": SymMat2(1.0, 0.0, -1.0),
    "tilted": SymMat2(1.3, 0.4, -0.7),
    "identity": SymMat2(1.0, 0.0, 1.0),
}

print("Pucci envelopes at (lam, Lam) = (1, 2)")
for name, m in mats.items():
    e1, e2 = eig2(m)
    lo = pucci_eval(m, ell, "minus")
    hi = pucci_eval(m, ell, "plus")
    print(f"  {name:9s} eig ({e1:+.4f}, {e2:+.4f})   M- {lo:+.4f}   M+ {hi:+.4f}")

# Structured families give operators squeezed between the envelopes of
# their band.  The Frobenius ball ||A - I||_F <= r0 is rotation closed, like
# every family the laboratory knows, and needs a band covering [1 - r0, 1 + r0].
frob = MatrixFamily("frobenius_ball", Ellipticity(0.5, 1.5), r0=0.5)

print("\noperator chain  M- <= F- <= tr <= F+ <= M+  (frobenius_ball r0 = 0.5, band (0.5, 1.5))")
for name, m in mats.items():
    chain = (
        pucci_eval(m, frob.ell, "minus"),
        family_extremal(frob, m, "inf"),
        m.a + m.c,
        family_extremal(frob, m, "sup"),
        pucci_eval(m, frob.ell, "plus"),
    )
    ordered = all(x <= y + 1e-12 for x, y in zip(chain, chain[1:]))
    print(f"  {name:9s} " + "  ".join(f"{v:+.4f}" for v in chain) + f"   ordered={ordered}")

# Randomized identity checks.  Everything here should sit at rounding level.
rng = np.random.default_rng(7)
worst = {"homogeneity": 0.0, "duality": 0.0, "superadd": 0.0, "increment": 0.0}
for _ in range(500):
    a, b, c = rng.normal(size=3)
    m = SymMat2(a, b, c)
    m2 = SymMat2(*rng.normal(size=3))
    t = float(rng.uniform(0.1, 10.0))
    # positive 1-homogeneity of both branches
    worst["homogeneity"] = max(
        worst["homogeneity"],
        abs(pucci_eval(SymMat2(t * a, t * b, t * c), ell, "minus") - t * pucci_eval(m, ell, "minus")),
    )
    # duality: M+(-m) = -M-(m)
    worst["duality"] = max(
        worst["duality"],
        abs(pucci_eval(SymMat2(-a, -b, -c), ell, "plus") + pucci_eval(m, ell, "minus")),
    )
    # the inf branch is superadditive
    s = SymMat2(m.a + m2.a, m.b + m2.b, m.c + m2.c)
    gap = pucci_eval(s, ell, "minus") - pucci_eval(m, ell, "minus") - pucci_eval(m2, ell, "minus")
    worst["superadd"] = max(worst["superadd"], max(-gap, 0.0) if gap < 0 else 0.0)
    # ellipticity increments against a PSD perturbation vv^T
    v = rng.normal(size=2)
    p = SymMat2(v[0] * v[0], v[0] * v[1], v[1] * v[1])
    mp = SymMat2(m.a + p.a, m.b + p.b, m.c + p.c)
    inc = pucci_eval(mp, ell, "plus") - pucci_eval(m, ell, "plus")
    tr_p = p.a + p.c
    bad = max(ell.lam * tr_p - inc, inc - ell.Lam * tr_p, 0.0)
    worst["increment"] = max(worst["increment"], bad)

print("\nworst identity violations over 500 random matrices")
for k, v in worst.items():
    print(f"  {k:12s} {v:.2e}")

# The regularized scalar operator blends the two branches through the
# smoothstep H_eps of the solution value: all F- deep in {u > 0}, all F+
# deep in {u < 0}, an even mixture on the interface.
pair = OperatorPair.pucci(ell)
m = mats["tilted"]
eps = 0.1
print(f"\nG_eps blend on the tilted matrix, eps = {eps}")
for u_val in (-2 * eps, -eps / 2, 0.0, eps / 2, 2 * eps):
    h_val = heaviside_smooth(u_val, eps)
    g_val = g_epsilon_eval(m, u_val, pair, eps)
    print(f"  u = {u_val:+.3f}   H_eps = {h_val:.5f}   G_eps = {g_val:+.5f}")
print("done")
