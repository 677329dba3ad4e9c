"""Steadiness of the benchmark: run each workload ten times, with the seeds
1 to 10, and report for every end-to-end metric the median, the quartiles
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.

    python3 bench/steady.py [--workload NAME ...]

A spread passes at a third of its bound or less.  The share of failed
operations must be the same in every run of a workload.  The figures go to
bench/out/steady-<workload>.json as well.  Exit code 0 when every spread
passes and every run's checks passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(workload: str, runs: list[dict], spec: dict) -> bool:
    ok = all(r["correct"] for r in runs)
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    print(f"\n{workload}: {len(runs)} runs, failed share {sorted(str(s) for s in shares)}"
          f"{'' if len(shares) == 1 else '  <-- differs between runs'}")
    ok = ok and len(shares) == 1
    print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        steady = spread <= metric["bound"] / 3.0
        verdict = "ok" if steady else "TOO WIDE"
        ok = ok and steady
        print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{metric['bound']:>7.3g}  {verdict}")
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"]}
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"steady-{workload}.json"), "w") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ns = ap.parse_args(argv)
    ok = True
    for workload in ns.workload or names:
        runs = []
        for seed in SEEDS:
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            m = runs[-1]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in m.items()), flush=True)
        ok = summarize(workload, runs, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
