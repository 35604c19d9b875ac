"""Benchmark of the lovelock-mass CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a seeded list of
`lovelock-mass` command lines (see workloads.py), run in a fresh
interpreter per pass through `lovelock_mass.cli.main`, one op after
another, with the machine's default BLAS threading.

--trace 0 times the untraced program.  Three fresh interpreters import
the package and generate the inputs (setup_s is their host-scaled median).
Passes then run back to back, the next one only while it is expected to
end within --seconds; at least one always runs (at --seconds 20 nearly
every run is one pass, so the check that reruns write the same outputs
needs a longer --seconds).  Prints setup_s, wall_s (median pass time),
op_gmean_s (geometric mean op latency over all passes) and peak_rss_mb
(median per pass).  The geometric mean weighs
the 3 ms and the 10 s ops alike; a median of 1 to 16 ops of such
different sizes is whichever op lands in the middle, whose fit time
moves with the seed.

wall_s and op_gmean_s are given at a reference host speed.  A shared
2-vCPU x86_64 host runs the same code up to 1.6 times slower for seconds
at a time, as other tenants load its cores, which spreads single-pass
times by 20-30%.  So each timed pass samples a fixed probe kernel ten
times a second (probe.py), and an op's time, less the probe time inside
it, is scaled by PROBE_REF_S over the median probe duration around the
op.  A setup interpreter's time is scaled by PROBE_REF_S over the probe
time just before and after it.  Raw times are printed to stderr and kept
in the details file.

--trace 1 runs one untraced and one traced pass and prints the per-layer
self times and counters of the traced one, and the untraced pass's op
time both raw (host.raw_wall_s) and host-scaled (host.scaled_wall_s), so
that a consumer can see when the scaling and the raw time part ways.  It checks that the self times
partition the traced op time within 2%, that time outside every named
layer (cli.self, the root) stays under 5% of it, that each layer the
workload is meant to measure (workloads.LAYERS) was entered, and that
both passes wrote byte-identical outputs.

Every op output is checked (workloads.check_op).  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  Details go to
.perfbench/ in the checkout.  Exits non-zero without a result when the
checkout has no src/lovelock_mass or a pass cannot complete.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

SETUP_PROBES = 3
# the whole run must end within 180 s
RUN_BUDGET_S = 170.0
PARTITION_TOL = 0.02
# largest share of traced time that no named layer below cli.main covers
CATCH_ALL_MAX_SHARE = 0.05
# probe kernel duration that defines the reference host speed
PROBE_REF_S = 0.5e-3
# probes used for an op shorter than the probe interval
NEAREST_PROBES = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_gmean_s", "s"),
              ("peak_rss_mb", "MB")]
LAYER_TIMES = [
    "curvature.riemann", "curvature.p_tensor", "curvature.p_tensor_general",
    "curvature.lovelock_L", "curvature.weyl_sigma2_split",
    "curvature.divergence_of_P", "multiindex.table", "metrics.build",
    "metrics.eval", "quadrature.rule", "quadrature.self", "mass.fit",
    "graphcase.bulk", "graphcase.quermass", "graphcase.pointwise",
    "cli.self",
]
COUNTERS = [
    "curvature.riemann_calls", "curvature.riemann_points",
    "curvature.riemann_reused", "multiindex.table_builds",
    "multiindex.table_terms", "metrics.eval_points", "quadrature.nodes",
    "mass.fit_calls", "mass.fit_saturating", "mass.fit_warnings",
]
PER_LAYER = ([(f"{layer}_s", "s") for layer in LAYER_TIMES]
             + [(name, "count") for name in COUNTERS]
             + [("process.cpu_s", "s"), ("trace.overhead_frac", "ratio"),
                ("host.raw_wall_s", "s"), ("host.scaled_wall_s", "s")])


class RunError(Exception):
    """A pass could not complete; the run prints no result."""


def _child(args, deadline, log_path):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget exhausted before a pass could start")
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py")] + args,
                cwd=ROOT, stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"child {args[0]} exceeded the time budget; "
                           f"see {log_path}")
    if proc.returncode != 0:
        raise RunError(f"child {args[0]} exited {proc.returncode}; "
                       f"see {log_path}")


def measure_setup(workload, seed, workdir, deadline, log_path):
    """Raw and host-scaled times of fresh setup interpreters; each is
    scaled by the probe kernel timed just before and after it."""
    probe = SpeedProbe()
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(probe_dir)
        before = probe.median_duration()
        t0 = time.perf_counter()
        _child(["setup", workload, str(seed), probe_dir], deadline, log_path)
        raw.append(time.perf_counter() - t0)
        speed = 0.5 * (before + probe.median_duration())
        scaled.append(raw[-1] * PROBE_REF_S / speed)
    return raw, scaled


def host_scaled(rec, probes):
    """Op time less the probe time inside it, raw and at the reference
    speed."""
    t0, t1 = rec["t0"], rec["t1"]
    inside = [d for start, d in probes if t0 <= start < t1]
    around = inside
    if len(around) < NEAREST_PROBES:
        mid = 0.5 * (t0 + t1)
        around = [d for _, d in sorted(probes, key=lambda p: abs(p[0] - mid))
                  [:NEAREST_PROBES]]
    net = t1 - t0 - sum(inside)
    return net, net * PROBE_REF_S / statistics.median(around)


def run_pass(ops, traced, probe, workdir, tag, deadline, log_path,
             inject=None):
    """Run the ops once in a fresh interpreter; return its result with
    each op's output bytes and failure reason added.  inject, if given,
    adds a fixed cost to a layer (see tracer.add_cost)."""
    pass_dir = os.path.join(workdir, tag)
    os.makedirs(pass_dir)
    outs = [os.path.join(pass_dir, f"op{j:02d}.json") for j in range(len(ops))]
    spec = {"argvs": [op["argv"] + ["--out", out]
                      for op, out in zip(ops, outs)],
            "traced": traced, "probe": probe, "inject": inject,
            "spans_path": os.path.join(OUT_DIR, f"{tag}-spans.json")}
    spec_path = os.path.join(pass_dir, "spec.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    _child(["pass", spec_path, result_path], deadline, log_path)
    elapsed = time.perf_counter() - t0
    with open(result_path) as fh:
        res = json.load(fh)
    res["process_s"] = elapsed
    for op, rec, out in zip(ops, res["ops"], outs):
        rec["argv"] = op["argv"]
        rec["latency_s"] = rec["t1"] - rec["t0"]
        if res["probes"]:
            rec["net_s"], rec["scaled_s"] = host_scaled(rec, res["probes"])
        rec["output"] = None
        if rec["error"] is not None:
            rec["failure"] = rec["error"].strip().splitlines()[-1]
            continue
        try:
            with open(out, "rb") as fh:
                rec["output"] = fh.read()
            rec["failure"] = workloads.check_op(op, rec["rc"],
                                                json.loads(rec["output"]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["failure"] = f"unreadable output: {exc!r}"
    res["wall_s"] = sum(rec["latency_s"] for rec in res["ops"])
    if res["probes"]:
        res["net_wall_s"] = sum(rec["net_s"] for rec in res["ops"])
        res["scaled_wall_s"] = sum(rec["scaled_s"] for rec in res["ops"])
        res["probe_count"] = len(res.pop("probes"))
    return res


def differing_outputs(a, b):
    """Indices of ops whose output bytes differ between two passes."""
    return [j for j, (x, y) in enumerate(zip(a["ops"], b["ops"]))
            if x["output"] != y["output"]]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seed, seconds, workdir, deadline, log_path, detail):
    ops = workloads.make_ops(workload, seed, workdir)
    setup_raw, setup = measure_setup(workload, seed, workdir, deadline,
                                     log_path)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(ops, False, True, workdir,
                               f"pass{len(passes)}", deadline, log_path))
        elapsed = time.monotonic() - start
        if elapsed + passes[-1]["process_s"] > seconds:
            break
    mismatch = [differing_outputs(passes[0], p) for p in passes[1:]]
    detail.update(setup_raw_s=setup_raw, setup_scaled_s=setup, passes=passes,
                  rerun_mismatch=mismatch)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
        "op_gmean_s": statistics.geometric_mean(
            rec["scaled_s"] for p in passes for rec in p["ops"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return passes, not any(mismatch), metrics


def traced_run(workload, seed, workdir, deadline, log_path, detail):
    ops = workloads.make_ops(workload, seed, workdir)
    plain = run_pass(ops, False, True, workdir, "untraced", deadline,
                     log_path)
    traced = run_pass(ops, True, False, workdir,
                      f"{workload}-seed{seed}-traced", deadline, log_path)
    mismatch = differing_outputs(plain, traced)
    wall = traced["wall_s"]
    partition_err = abs(sum(traced["self_s"].values()) - wall) / wall
    values = {f"{layer}_s": traced["self_s"].get(layer, 0.0)
              for layer in LAYER_TIMES}
    values.update({name: traced["counts"].get(name, 0) for name in COUNTERS})
    values["process.cpu_s"] = traced["cpu_s"]
    values["trace.overhead_frac"] = wall / plain["net_wall_s"] - 1.0
    values["host.raw_wall_s"] = plain["net_wall_s"]
    values["host.scaled_wall_s"] = plain["scaled_wall_s"]
    unknown = set(traced["self_s"]) - set(LAYER_TIMES)
    shares = {layer: traced["self_s"].get(layer, 0.0) / wall
              for layer in LAYER_TIMES}
    # a wrapper that is missing leaves its layer at 0 and its time in
    # whatever layer called it, often cli.self
    unentered = [layer for layer in workloads.LAYERS[workload]
                 if shares[layer] <= 0.0]
    problems = []
    if mismatch:
        problems.append(f"ops {mismatch} wrote other outputs than untraced")
    if partition_err > PARTITION_TOL:
        problems.append(f"self times miss the op time by {partition_err:.3f}")
    if unknown:
        problems.append(f"unknown layers {sorted(unknown)}")
    if unentered:
        problems.append(f"layers never entered {unentered}")
    if shares["cli.self"] > CATCH_ALL_MAX_SHARE:
        problems.append(f"cli.self share {shares['cli.self']:.3f} is above "
                        f"{CATCH_ALL_MAX_SHARE}")
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    detail.update(passes=[plain, traced], partition_err=partition_err,
                  shares=shares, trace_problems=problems)
    ok = not problems
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}
    return [plain, traced], ok, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "lovelock_mass",
                                       "__init__.py")):
        print(f"error: no src/lovelock_mass under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    log_path = base + ".log"
    open(log_path, "w").close()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            passes, ok, metrics = traced_run(args.workload, args.seed,
                                             workdir, deadline, log_path,
                                             detail)
        else:
            passes, ok, metrics = timed_run(args.workload, args.seed,
                                            args.seconds, workdir, deadline,
                                            log_path, detail)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
    records = [rec for p in passes for rec in p["ops"]]
    failed = [rec for rec in records if rec["failure"] is not None]
    for rec in failed:
        print(f"FAILED {' '.join(rec['argv'])}: {rec['failure']}",
              file=sys.stderr)
    for rec in records:
        del rec["output"]
    detail["exit2_ops"] = sum(rec["rc"] == 2 for rec in records)
    detail["metrics"] = metrics
    if not args.trace:
        detail["raw_wall_s"] = statistics.median(p["net_wall_s"]
                                                 for p in passes)
        print(f"wall_s {metrics['wall_s']['value']:.4g} scaled, "
              f"{detail['raw_wall_s']:.4g} raw; setup_s "
              f"{metrics['setup_s']['value']:.4g} scaled, "
              f"{statistics.median(detail['setup_raw_s']):.4g} raw",
              file=sys.stderr)
    detail_path = base + ".json"
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{args.workload} seed={args.seed}: {len(records)} ops, "
          f"{len(failed)} failed, {detail['exit2_ops']} exit 2 (fit warning); "
          f"details in {os.path.relpath(detail_path, ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": ok and not failed,
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
