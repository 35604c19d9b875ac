"""Record the benchmark's numbers for the current engine.

    python3 perfbench/baseline.py [--seeds 1-10] [--out FILE] [WORKLOAD ...]

Runs run.py for BENCHMARK.json's run_seconds, untraced once per seed and
traced once at seed 1, for each workload (default: all), and writes one
JSON file with every run's
result, the median and quartiles of each end-to-end metric with the
quartile spread as a share of the median, the per-layer self times,
counters and shares of the traced run, and the host it ran on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
import workloads

TRACE_SEED = 1


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(run.OUT_DIR, f"{workload}-seed{seed}"
                           f"-trace{trace}.json")) as fh:
        detail = json.load(fh)
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']}"
          f" failed={result['failed']}", file=sys.stderr)
    return result, detail


def _relative(arg):
    """A path inside the checkout relative to its root; others as is."""
    if arg.startswith(run.ROOT + os.sep):
        return os.path.relpath(arg, run.ROOT)
    return arg


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def record(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        result, detail = _run(workload, seed, seconds, 0)
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "exit2_ops": detail["exit2_ops"],
                     "passes": len(detail["passes"]),
                     "raw_wall_s": detail["raw_wall_s"],
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
    result, detail = _run(workload, TRACE_SEED, seconds, 1)
    plain, traced = detail["passes"]
    out = {"untraced": {"runs": runs}, "traced": {
        "seed": TRACE_SEED, "correct": result["correct"],
        "failed": result["failed"],
        "wall_s": traced["wall_s"], "untraced_wall_s": plain["net_wall_s"],
        "partition_err": detail["partition_err"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "shares": detail["shares"],
        "ops": [{"argv": [_relative(a) for a in rec["argv"]], "rc": rec["rc"],
                 "latency_s": rec["latency_s"]} for rec in traced["ops"]],
    }}
    if len(runs) >= 2:
        out["untraced"]["summary"] = {
            name: _summary([r["metrics"][name] for r in runs])
            for name, _ in run.END_TO_END}
    return out, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out",
                        default=os.path.join(run.HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {"recorded": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
           "seconds": seconds, "seed_argument": "--seed",
           "workloads": {}}
    for name in args.workloads:
        doc["workloads"][name], traced = record(name, args.seeds, seconds)
    doc["host"] = {"nproc": traced["nproc"],
                   "blas_threads": traced["blas_threads"],
                   "blas_env": {k: os.environ.get(k) for k in (
                       "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "LOVELOCK_MASS_THREADS")},
                   "python": platform.python_version(),
                   "machine": platform.machine()}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
