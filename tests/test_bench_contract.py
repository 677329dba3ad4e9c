"""The benchmark's calling contract.

The benchmark under bench/ reaches the package through module attributes,
keywords and positional arguments of its own (its tracer reads the scheme
as ``residual_interior``'s fourth positional argument).  Here the tracer is
installed as a traced benchmark run installs it, and every workload builds
its fixtures and makes its one untimed call per code path, so a change to
the package that breaks one of those names fails here rather than in a
benchmark run.  bench/ is only read.
"""

import importlib
import os

from pucci_lab import barriers, cli, freeboundary, grid, monotonicity, solver

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


def test_bench_workloads_set_up_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    tr = tracing.Tracer()
    tracing.install_all(tr, dict(grid=grid, solver=solver, barriers=barriers,
                                 monotonicity=monotonicity, freeboundary=freeboundary, cli=cli))
    try:
        for name, workload in workloads.WORKLOADS.items():
            workdir = tmp_path / name
            workdir.mkdir()
            wl = workload(1, str(workdir))
            wl.build()
            wl.warm()
    finally:
        tr.uninstall()
    seen = {}
    for name, _, _, _, attrs in tr.spans:
        seen.setdefault(name, []).append(attrs)
    for name in ("operators.residual_interior", "solver.solve_dirichlet",
                 "solver.solve_segregation", "barriers.make_fixture",
                 "grid.field_to_csv", "freeboundary.classify_regular",
                 "monotonicity.j_series_check", "freeboundary.fit_two_plane"):
        assert name in seen, name
    assert {a["scheme"] for a in seen["operators.residual_interior"]} == {"central", "wide"}
    assert all("iterations" in a for a in seen["solver.solve_dirichlet"])
