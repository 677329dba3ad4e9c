"""pucci-lab benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken from this file's place in the repository.
The workload runs in a single worker process (worker.py) whose environment
caps numpy's thread pools to the cores this process may use.  Set-up is
measured nine times, in the worker and in eight set-up-only processes, four
started before the worker and four after it, and reported as the median.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced round (spans
go to bench/out/trace-<workload>-seed<N>.json).  The workload and metric
names and the units are those of BENCHMARK.json at the repository root.

Exit codes: 0 with a result whose checks passed, 1 with a result whose
checks failed, 2 without a result (bad arguments, no pucci_lab sources or
BENCHMARK.json, a worker that crashed or overran the deadline).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# set-up-only processes on each side of the worker, so that the set-up
# samples of one run are spread over its whole length
SETUP_PROBES_EACH_SIDE = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("deadline passed before the worker could start")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran the {DEADLINE_S:g} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(ns: argparse.Namespace, workdir: str, deadline: float) -> dict:
    common = ["--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
              "--workdir", workdir]
    probes = 0 if ns.trace else SETUP_PROBES_EACH_SIDE

    def setup_probes():
        return [run_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]

    setups = setup_probes()
    extra = ["--trace", str(ns.trace)]
    if ns.trace:
        extra += ["--trace-out", os.path.join(OUT, f"trace-{ns.workload}-seed{ns.seed}.json")]
    res = run_worker(common + extra, deadline)
    res["setup_runs"] = setups + [res["setup_s"]] + setup_probes()
    return res


def report(ns: argparse.Namespace, spec: dict, res: dict) -> dict:
    if ns.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(res["setup_runs"]),
                  "wall_s": statistics.median(res["round_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"the worker reported no {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    if not os.path.isfile(SPEC):
        print(f"error: no {SPEC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not ns.seconds > 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pucci_lab", "__init__.py")):
        print(f"error: no pucci_lab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT, f"run-{ns.workload}-seed{ns.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        res = measure(ns, workdir, deadline)
        out = report(ns, spec, res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{ns.workload} seed={ns.seed} params={json.dumps(res['params'])}")
    print(f"rounds: {len(res['round_s'])}, round seconds {[round(t, 4) for t in res['round_s']]}, "
          f"set-up seconds {[round(t, 4) for t in res['setup_runs']]}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed "
          f"{res['failed_ops']}")
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
