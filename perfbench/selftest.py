"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks:
- a different seed changes every workload's inputs but not its shape
  (subcommands, dimensions, quadrature levels, suites);
- BENCHMARK.json names the workloads and metrics that run.py reports;
- in a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero and prints no result;
- for the given workloads (default: the two quickest), a traced pass at
  two seeds passes every op check and gives the same quadrature.nodes,
  curvature.riemann_points and multiindex.table_terms;
- a known fixed cost added to every curvature.riemann call of
  verify-sweep (tracer.add_cost) raises the host-scaled wall_s by that
  cost at the reference speed, within 15%.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run
import tracer
import workloads
from probe import SpeedProbe

SEEDS = (1, 2)
SEED_FREE_COUNTS = ("quadrature.nodes", "curvature.riemann_points",
                    "multiindex.table_terms")
QUICK = ("verify-sweep", "penrose-n5")
SHAPE_FLAGS = ("--k", "--n", "--quad-level", "--suite", "--as", "--metric")
# about 5 s over the 173 riemann calls of verify-sweep on a 2-vCPU host
INJECT = {"module": "curvature", "function": "riemann", "repeats": 15}
SCALING_TOL = 0.15


def _shape(op):
    argv = op["argv"]
    flags = {f: argv[argv.index(f) + 1] for f in SHAPE_FLAGS if f in argv}
    return argv[0], flags, op["ok_rc"], op["check"]["kind"]


def _inputs(name, seed, workdir):
    """The op list with any config file's contents in place of its path."""
    seed_dir = os.path.join(workdir, f"inputs-{name}-{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    ops = workloads.make_ops(name, seed, seed_dir)
    for op in ops:
        argv = op["argv"]
        if "--config" in argv:
            j = argv.index("--config") + 1
            with open(argv[j]) as fh:
                argv[j] = fh.read()
    return ops


def check_inputs(workdir):
    for name in workloads.WORKLOADS:
        a, b = (_inputs(name, seed, workdir) for seed in SEEDS)
        assert a == _inputs(name, SEEDS[0], workdir), \
            f"{name}: a seed does not reproduce its inputs"
        assert [_shape(op) for op in a] == [_shape(op) for op in b], \
            f"{name}: the seed changed the op list's shape"
        assert all(x["argv"] != y["argv"] for x, y in zip(a, b)), \
            f"{name}: the seed left some inputs unchanged"


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert names == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert set().union(*workloads.LAYERS.values()) == set(run.LAYER_TIMES), \
        "workloads.LAYERS must name every timed layer"


def check_bare_directory(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mass-k2", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout, \
        "run.py must fail without printing a result when src/ is missing"


def check_counts(name, workdir):
    counts = []
    for seed in SEEDS:
        seed_dir = os.path.join(workdir, f"{name}-{seed}")
        os.makedirs(seed_dir)
        ops = workloads.make_ops(name, seed, seed_dir)
        res = run.run_pass(ops, True, False, seed_dir, "traced",
                           time.monotonic() + run.RUN_BUDGET_S,
                           os.path.join(run.OUT_DIR, "selftest.log"))
        failed = [r["failure"] for r in res["ops"] if r["failure"]]
        assert not failed, f"{name} seed {seed}: {failed}"
        counts.append({k: res["counts"].get(k, 0) for k in SEED_FREE_COUNTS})
    assert counts[0] == counts[1], \
        f"{name}: counts depend on the seed: {counts}"
    assert all(counts[0].values()), f"{name}: a count is zero: {counts[0]}"
    return counts[0]


def reference_cost(repeats, trials=40):
    """Time of tracer.fixed_work(repeats) at the reference host speed,
    scaled like a setup interpreter: by the probe just before and after."""
    probe = SpeedProbe()
    costs = []
    for _ in range(trials):
        before = probe.median_duration(5)
        t0 = time.perf_counter()
        tracer.fixed_work(repeats)
        raw = time.perf_counter() - t0
        speed = 0.5 * (before + probe.median_duration(5))
        costs.append(raw * run.PROBE_REF_S / speed)
    return statistics.median(costs)


def check_scaling(workdir, name="verify-sweep", inject=INJECT):
    """Plain and slowed passes, alternating; the scaled wall_s difference
    must match the injected calls times their reference cost."""
    seed_dir = os.path.join(workdir, f"scaling-{name}")
    os.makedirs(seed_dir)
    ops = workloads.make_ops(name, SEEDS[0], seed_dir)
    deadline = time.monotonic() + 4 * run.RUN_BUDGET_S
    log = os.path.join(run.OUT_DIR, "selftest.log")
    plain, slowed, costs = [], [], []
    for i in range(2):
        plain.append(run.run_pass(ops, False, True, seed_dir, f"plain{i}",
                                  deadline, log))
        slowed.append(run.run_pass(ops, False, True, seed_dir, f"slow{i}",
                                   deadline, log, inject=inject))
        costs.append(reference_cost(inject["repeats"]))
    failed = [r["failure"] for p in plain + slowed for r in p["ops"]
              if r["failure"]]
    assert not failed, f"{name} scaling passes: {failed}"
    calls = slowed[0]["injected_calls"]
    expected = calls * statistics.fmean(costs)

    def gain(key):
        return (statistics.fmean(p[key] for p in slowed)
                - statistics.fmean(p[key] for p in plain))

    got = gain("scaled_wall_s")
    print(f"{name}: {calls} slowed calls, scaled wall_s +{got:.3f} s for "
          f"+{expected:.3f} s injected at the reference speed "
          f"(raw +{gain('wall_s'):.3f} s)")
    assert abs(got / expected - 1.0) <= SCALING_TOL, \
        f"{name}: scaled wall_s moved {got:.3f} s, not {expected:.3f} s"


def main(names):
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        check_inputs(workdir)
        check_benchmark_json()
        check_bare_directory(workdir)
        for name in names:
            print(name, check_counts(name, workdir))
        check_scaling(workdir)
    finally:
        shutil.rmtree(workdir)
    print("selftest ok")


if __name__ == "__main__":
    main(sys.argv[1:] or QUICK)
