"""Solving the regularized scalar problem and sweeping epsilon.

Solves G_eps(u) = 0 on the unit square for the standard sign-changing datum,
shows the Newton convergence record, then runs the warm-started epsilon
continuation and checks that the limit candidate stays between the two
extremal-operator solutions of the same datum.

Run with:  python3 demos/03_scalar_problem.py   (a few seconds)
"""

import numpy as np

from pucci_lab import (
    Ellipticity,
    GridSpec,
    OperatorPair,
    SolveConfig,
    epsilon_sweep,
    make_fixture,
    sandwich_check,
    solve_dirichlet,
)

ell = Ellipticity(1.0, 2.0)
pair = OperatorPair.pucci(ell)
g = GridSpec(65)
datum = make_fixture(g, "sign_change")
cfg = SolveConfig(tol=1e-8, eps=0.05)

# One solve at a fixed eps.  Damped Newton stops when the sup-norm residual
# of the central discretization drops under tol; the history has one entry
# per Newton iterate, and the telemetry says why it stopped.
res = solve_dirichlet(datum, "G_eps", cfg, pair=pair)
print(f"single solve, nx = {g.nx}, eps = {cfg.eps}")
print(f"  converged        {res.converged} after {res.iterations} Newton iterates "
      f"({res.telemetry['krylov_iterations']} BiCGSTAB steps), "
      f"stop reason {res.telemetry['stop_reason']}")
print(f"  final residual   {res.final_residual:.3e}")
print(f"  Lipschitz        {res.lipschitz_seminorm:.6f}")
print("  residual per iterate:", ", ".join(f"{r:.1e}" for r in res.residual_history))

# Epsilon continuation: each solve warm-starts the next, the report keeps
# the consecutive sup-norm gaps and the last field as the limit candidate.
eps_list = (0.2, 0.1, 0.05, 0.025)
sweep = epsilon_sweep(datum, eps_list, cfg, pair)
print(f"\ncontinuation over eps = {eps_list}")
print("  eps     Newton iterates   residual    Lipschitz")
for e in sweep.entries:
    print(f"  {e.eps:<6g} {e.iterations:15d}   {e.final_residual:.2e}   {e.lipschitz_seminorm:.6f}")
print("  consecutive sup gaps:", ", ".join(f"{gp:.2e}" for gp in sweep.gaps))
print(f"  gaps shrinking: {all(b < a for a, b in zip(sweep.gaps, sweep.gaps[1:]))}")

# Comparison sandwich: the M- solution sits below every G_eps solution of
# the same datum and the M+ solution above, up to solver tolerance and the
# O(h^2) consistency of the stencils.
lower = solve_dirichlet(datum, "M_minus", cfg, ell=ell)
upper = solve_dirichlet(datum, "M_plus", cfg, ell=ell)
slack = 2.0 * cfg.tol + 10.0 * g.h ** 2
rep = sandwich_check(sweep.limit, lower.field, upper.field, slack=slack)
print(f"\nsandwich M- <= limit <= M+ with slack {slack:.2e}")
print(f"  violating nodes {len(rep.nodes)}, worst excess {rep.worst:.2e}")

under = float(np.maximum(lower.field.values - sweep.limit.values, 0.0).max())
over = float(np.maximum(sweep.limit.values - upper.field.values, 0.0).max())
print(f"  raw one-sided excesses: below {under:.2e}, above {over:.2e}")
print("done")
