"""One workload in one process: set-up, timed rounds, checks, and the
outcome as one JSON line on standard output.

``run.py`` starts this file with numpy's thread pools capped through the
environment, so the caps hold before numpy is first imported here.  The
set-up clock starts before that import.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def timed_rounds(wl, seconds: float, tally: dict) -> list[float]:
    """Whole rounds until the next one, judged by the last, would pass
    ``seconds`` of measured time; at least one."""
    times: list[float] = []
    while True:
        t0 = time.perf_counter()
        rd = wl.round()
        times.append(time.perf_counter() - t0)
        account(wl, rd, tally)
        if sum(times) + times[-1] > seconds:
            return times


def account(wl, rd, tally: dict) -> None:
    tally["attempted"] += len(rd.ops)
    tally["failed_ops"].update(label for label, ok in rd.ops if not ok)
    tally["failed"] += sum(1 for _, ok in rd.ops if not ok)
    tally["problems"] += wl.check(rd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (its import is part of the set-up)
    from pucci_lab import barriers, cli, freeboundary, grid, monotonicity, solver

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.build()
    wl.warm()
    result = {"setup_s": time.perf_counter() - T_START, "params": wl.params}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = {"attempted": 0, "failed": 0, "failed_ops": set(), "problems": []}
    if not args.trace:
        result["round_s"] = timed_rounds(wl, args.seconds, tally)
    else:
        # one traced set-up and round; the overhead is the round's span count
        # times the measured cost of one wrapper, because the drift of the
        # machine's speed between two rounds is larger than the overhead
        span_cost = tracing.span_cost()
        tr = tracing.Tracer()
        mods = dict(grid=grid, solver=solver, barriers=barriers, monotonicity=monotonicity,
                    freeboundary=freeboundary, cli=cli)
        tracing.install_all(tr, mods)
        try:
            s0 = time.perf_counter()
            wl.build()
            s1 = time.perf_counter()
            rd = wl.round()
            r1 = time.perf_counter()
        finally:
            tr.uninstall()
        account(wl, rd, tally)
        layers = tracing.layer_metrics(tr, (s0, s1), (s1, r1), rd.cli_runs)
        layers["trace.wall_s"] = r1 - s1
        layers["trace.overhead_s"] = span_cost * sum(
            1 for span in tr.spans if s1 <= span[1] and span[2] <= r1)
        result["layers"] = layers
        result["round_s"] = [r1 - s1]
        if args.trace_out:
            tr.write(args.trace_out, {"setup": [s0, s1], "round": [s1, r1]})
    result.update(attempted=tally["attempted"], failed=tally["failed"],
                  failed_ops=sorted(tally["failed_ops"]), problems=tally["problems"],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
