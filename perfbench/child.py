"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py pass SPEC.json RESULT.json
    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR

`pass` imports lovelock_mass from the checkout's src/, optionally
installs the outside-in tracer, runs every op of SPEC through
`lovelock_mass.cli.main(argv + ["--out", path])` and writes latencies,
exit codes, resource use and (traced) per-layer data to RESULT.
`setup` does only what a pass does before its first op: import the
package and generate the seeded inputs.

An untraced pass can also sample host speed with probe.SpeedProbe; the
parent uses the samples to express op times at a reference host speed.
SPEC's "inject" ({"module", "function", "repeats"}) adds a fixed cost to
one package function (tracer.add_cost), for the self-test.
"""

import json
import os
import resource
import sys
import time
import traceback

from probe import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import lovelock_mass
    import lovelock_mass.cli
    where = os.path.dirname(os.path.abspath(lovelock_mass.__file__))
    if where != os.path.join(SRC, "lovelock_mass"):
        raise ImportError(f"lovelock_mass imported from {where}, not {SRC}")
    return lovelock_mass.cli


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if absent."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_ops(cli, argvs):
    ops = []
    for argv in argvs:
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code!r})"
        except Exception:
            # record and go on: one failing op must not hide the others
            error = traceback.format_exc()
        ops.append({"rc": rc, "t0": t0, "t1": time.perf_counter(),
                    "error": error})
    return ops


def run_pass(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli = import_package()
    tracer = injected = None
    if spec["traced"] or spec["inject"]:
        import tracer as tracing
    if spec["traced"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if spec["inject"]:
        inject = spec["inject"]
        injected = tracing.add_cost(inject["module"], inject["function"],
                                    inject["repeats"])
    probes = []
    cpu0 = time.process_time()
    if spec["probe"]:
        with SpeedProbe() as probe:
            ops = run_ops(cli, spec["argvs"])
        probes = probe.samples
    else:
        ops = run_ops(cli, spec["argvs"])
    cpu_s = time.process_time() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"ops": ops, "probes": probes, "cpu_s": cpu_s,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "blas_threads": blas_threads(),
           "nproc": len(os.sched_getaffinity(0))}
    if injected is not None:
        out["injected_calls"] = injected["calls"]
    if tracer is not None:
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = dict(tracer.counts)
        with open(spec["spans_path"], "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def run_setup(workload, seed, workdir):
    import_package()
    import workloads
    workloads.make_ops(workload, int(seed), workdir)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "pass":
        run_pass(*rest)
    elif mode == "setup":
        run_setup(*rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
