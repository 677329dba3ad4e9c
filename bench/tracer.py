"""Spans around the calls into pucci_lab's modules, recorded from the
benchmark's side.

``Tracer.install`` replaces a module attribute with a wrapper that records a
span (name, start, end, parent) and, for some functions, attributes read
from the arguments or the result.  A name that one module imports from
another is wrapped where it is looked up (``solver.residual_interior``,
``freeboundary.lipschitz_seminorm``), so the calls the package makes to
itself are seen.  Spans are kept in memory and written out once, at the end.
A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, module, attr: str, name: str, args_attrs=None, result_attrs=None):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            attrs = args_attrs(args, kwargs) if args_attrs is not None else {}
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if result_attrs is not None:
                attrs.update(result_attrs(out))
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def uninstall(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def child_time(self) -> list[float]:
        """Per span, the time covered by its direct children (children of one
        span run one after another, so their durations add)."""
        cover = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        return cover

    def write(self, path: str, phases: dict):
        with open(path, "w") as fh:
            json.dump({"phases": phases,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op function, with an
    attribute read from its arguments, against the bare one; the median of
    ``repeats`` batches of ``calls`` calls."""
    def batch(ns):
        t0 = time.perf_counter()
        for _ in range(calls):
            ns.f(None, 0.0, None, None)
        return time.perf_counter() - t0

    bare = types.SimpleNamespace(f=lambda u, h, op, scheme: None)
    wrapped = types.SimpleNamespace(f=bare.f)
    tr = Tracer()
    tr.install(wrapped, "f", "calibrate", args_attrs=lambda args, kwargs: {"nodes": 0})
    diffs = []
    for _ in range(repeats):
        diffs.append(batch(wrapped) - batch(bare))
        tr.spans.clear()
    return max(statistics.median(diffs), 0.0) / calls


def _residual_attrs(args, kwargs):
    u, scheme = args[0], args[3]  # every caller passes (u, h, op, scheme) by position
    return {"scheme": scheme.kind, "nodes": (u.shape[0] - 2) * (u.shape[1] - 2)}


def _solve_result(res):
    return {"iterations": int(res.iterations), "converged": bool(res.converged)}


def install_all(tracer: Tracer, mods) -> None:
    """Wrap every public function the workloads reach, in each namespace
    that looks it up.  ``mods`` maps module names to the imported modules."""
    g, sv, bar, mono, fb, cli = (mods[k] for k in (
        "grid", "solver", "barriers", "monotonicity", "freeboundary", "cli"))
    for ns in (sv, cli):
        tracer.install(ns, "residual_interior", "operators.residual_interior",
                       args_attrs=_residual_attrs)
    for attr in ("solve_dirichlet", "solve_segregation"):
        tracer.install(sv, attr, f"solver.{attr}", result_attrs=_solve_result)
    tracer.install(sv, "epsilon_sweep", "solver.epsilon_sweep")
    for ns in (g, fb):
        tracer.install(ns, "bilinear_sample", "grid.bilinear_sample")
    for ns in (g, cli):
        tracer.install(ns, "field_to_csv", "grid.field_to_csv")
        tracer.install(ns, "field_from_csv", "grid.field_from_csv")
    for ns in (bar, cli):
        tracer.install(ns, "make_fixture", "barriers.make_fixture")
    for ns in (mono, cli):
        tracer.install(ns, "j_series_check", "monotonicity.j_series_check")
    tracer.install(mono, "positive_cell_fraction", "monotonicity.positive_cell_fraction")
    tracer.install(fb, "lipschitz_seminorm", "freeboundary.lipschitz_seminorm")
    for attr in ("extract_zero_set", "classify_regular", "fit_two_plane",
                 "boundary_consistency", "epsilon_monotonicity", "flatness_measure",
                 "curve_to_csv"):
        for ns in (fb, cli):
            tracer.install(ns, attr, f"freeboundary.{attr}")
    tracer.install(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, setup_window, round_window, cli_runs) -> dict:
    """Per-layer figures of one traced set-up and one traced round.

    ``cli_runs`` lists, in order, each CLI command run in the round: its name
    and the sum of the stage timings its manifest records.
    """
    cover = tracer.child_time()
    by_name: dict[str, list[tuple[float, dict, float]]] = {}
    for idx, (name, t0, t1, _, attrs) in enumerate(tracer.spans):
        if round_window[0] <= t0 and t1 <= round_window[1]:
            by_name.setdefault(name, []).append((t1 - t0, attrs, t1 - t0 - cover[idx]))
    setup_make = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans
                     if name == "barriers.make_fixture"
                     and setup_window[0] <= t0 and t1 <= setup_window[1])

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(d for d, _, _ in spans(name)))

    def mean_ms(name):
        s = spans(name)
        return 1e3 * total(name) / len(s) if s else 0.0

    def ns_per_node(kind):
        sel = [(d, a["nodes"]) for d, a, _ in spans("operators.residual_interior")
               if a["scheme"] == kind]
        nodes = sum(n for _, n in sel)
        return 1e9 * sum(d for d, _ in sel) / nodes if nodes else 0.0

    solves = spans("solver.solve_dirichlet") + spans("solver.solve_segregation")
    iterations = sum(a["iterations"] for _, a, _ in solves)
    solve_s = float(sum(d for d, _, _ in solves))
    cli_spans = [d for d, _, _ in spans("cli.main")]
    cli_time = {c: float(sum(d for d, (cmd, _) in zip(cli_spans, cli_runs) if cmd == c))
                for c in ("diagnose", "verify")}
    return {
        "operators.residual_calls": len(spans("operators.residual_interior")),
        "operators.residual_s": total("operators.residual_interior"),
        "operators.central_ns_per_node": ns_per_node("central"),
        "operators.wide_ns_per_node": ns_per_node("wide"),
        "solver.iterations": iterations,
        "solver.solve_s": solve_s,
        "solver.us_per_iteration": 1e6 * solve_s / iterations if iterations else 0.0,
        "solver.self_s": float(sum(s for _, _, s in solves)),
        "solver.wasted_iterations": sum(a["iterations"] for _, a, _ in solves
                                        if not a["converged"]),
        "grid.bilinear_sample_calls": len(spans("grid.bilinear_sample")),
        "grid.bilinear_sample_s": total("grid.bilinear_sample"),
        "grid.field_to_csv_s": total("grid.field_to_csv"),
        "grid.field_from_csv_s": total("grid.field_from_csv"),
        "monotonicity.j_series_check_calls": len(spans("monotonicity.j_series_check")),
        "monotonicity.j_series_check_ms": mean_ms("monotonicity.j_series_check"),
        "monotonicity.positive_cell_fraction_s": total("monotonicity.positive_cell_fraction"),
        "freeboundary.extract_zero_set_calls": len(spans("freeboundary.extract_zero_set")),
        "freeboundary.extract_zero_set_s": total("freeboundary.extract_zero_set"),
        "freeboundary.classify_regular_ms": mean_ms("freeboundary.classify_regular"),
        "freeboundary.fit_two_plane_ms": mean_ms("freeboundary.fit_two_plane"),
        "freeboundary.boundary_consistency_ms": mean_ms("freeboundary.boundary_consistency"),
        "freeboundary.epsilon_monotonicity_ms": mean_ms("freeboundary.epsilon_monotonicity"),
        "freeboundary.lipschitz_calls": len(spans("freeboundary.lipschitz_seminorm")),
        "barriers.make_fixture_s": setup_make,
        "cli.diagnose_s": cli_time["diagnose"],
        "cli.verify_s": cli_time["verify"],
        "cli.overhead_s": sum(cli_spans) - sum(s for _, s in cli_runs),
    }
