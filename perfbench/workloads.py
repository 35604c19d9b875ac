"""Workload definitions: seeded `lovelock-mass` command lines and their checks.

Each workload is a fixed list of ops.  An op is one command line plus the
check its JSON output must pass.  The seed only picks the physical inputs
(masses, couplings, semiaxes, the verify seed); the op list, dimensions
and quadrature levels never change with it, so node, chunk and term
counts are the same for every seed.
"""

import json
import os
import random

WORKLOADS = ("mass-k2", "lovelock-k3", "penrose-n5", "verify-sweep")

# layers each workload is there to measure; its traced run must enter
# every one, so a tracer wrapper that is missing fails the trace check.
# Together they name every timed layer.
LAYERS = {
    "mass-k2": ("curvature.riemann", "curvature.p_tensor", "mass.fit",
                "metrics.build", "metrics.eval", "quadrature.rule",
                "quadrature.self", "cli.self"),
    "lovelock-k3": ("curvature.p_tensor_general", "multiindex.table",
                    "curvature.riemann", "mass.fit", "quadrature.rule",
                    "quadrature.self"),
    "penrose-n5": ("graphcase.bulk", "graphcase.quermass",
                   "curvature.riemann", "curvature.lovelock_L",
                   "metrics.eval"),
    "verify-sweep": ("metrics.eval", "curvature.weyl_sigma2_split",
                     "curvature.divergence_of_P", "graphcase.pointwise",
                     "curvature.riemann", "mass.fit"),
}

VERIFY_SUITES = ("divergence", "graph-identity", "sigma2", "hypersurface",
                 "l2-24h4", "invariance")
POINTWISE_SUITES = VERIFY_SUITES[:-1]


def _mass_op(argv, expect, rtol):
    return {"argv": ["mass"] + argv, "ok_rc": [0, 2],
            "check": {"kind": "mass", "expect": expect, "rtol": rtol}}


def _ops_mass_k2(rng):
    # one mass of each sign: the fit costs about 1.4 s more for m > 0,
    # so a seeded sign would swing the pass time by some 14%
    plus, minus = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    alpha = rng.uniform(0.02, 0.2)
    m2 = rng.uniform(0.5, 2.0)
    m3 = rng.uniform(0.5, 2.0)
    return [
        _mass_op(["--metric", "schwarzschild", "--k", "2", "--n", "6",
                  "--m", repr(m1), "--quad-level", "4"], m1 ** 2, 1e-3)
        for m1 in (plus, minus)
    ] + [
        _mass_op(["--metric", "egb", "--n", "6", "--alpha", repr(alpha),
                  "--m", repr(m2), "--as", "egb", "--quad-level", "4"],
                 m2, 1e-3),
        # the only op at the default quadrature level
        _mass_op(["--metric", "schwarzschild", "--k", "2", "--n", "5",
                  "--m", repr(m3)], m3 ** 2, 1e-3),
    ]


def _ops_lovelock_k3(rng):
    # one op only: an n=7, level-3 op next to it made a run take up to
    # 53 s on a slow shared host, too long for a full benchmark of 92 runs
    m = rng.uniform(0.5, 2.0)
    return [_mass_op(["--metric", "schwarzschild", "--k", "3", "--n", "8",
                      "--m", repr(m), "--quad-level", "2"], m ** 3, 5e-3)]


def _ops_penrose_n5(rng, workdir):
    m = rng.uniform(0.5, 2.0)
    axes = [rng.uniform(0.8, 2.0) for _ in range(5)]
    config = os.path.join(workdir, "penrose-ellipsoid.json")
    with open(config, "w") as fh:
        json.dump({"metric": {"family": "none", "n": 5},
                   "horizon": {"type": "ellipsoid", "semiaxes": axes},
                   "quad_level": 16}, fh, sort_keys=True)
    return [
        {"argv": ["penrose", "--metric", "schwarzschild-graph", "--n", "5",
                  "--m", repr(m), "--quad-level", "4"],
         "ok_rc": [0],
         "check": {"kind": "penrose-mass", "expect": m ** 2, "rtol": 1e-3}},
        {"argv": ["penrose", "--config", config], "ok_rc": [0],
         "check": {"kind": "bound-chain"}},
    ]


def _ops_verify_sweep(seed):
    vseed = str(seed % 2 ** 32)
    runs = [(s, 5) for s in VERIFY_SUITES]
    runs += [(s, n) for n in (6, 7) for s in POINTWISE_SUITES]
    return [{"argv": ["verify", "--suite", s, "--n", str(n), "--seed", vseed],
             "ok_rc": [0], "check": {"kind": "verify"}} for s, n in runs]


def make_ops(workload, seed, workdir):
    """The op list of a workload for a seed; writes any config file it
    needs into workdir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "mass-k2":
        return _ops_mass_k2(rng)
    if workload == "lovelock-k3":
        return _ops_lovelock_k3(rng)
    if workload == "penrose-n5":
        return _ops_penrose_n5(rng, workdir)
    if workload == "verify-sweep":
        return _ops_verify_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _rel_ok(value, expect, rtol):
    return abs(value - expect) <= rtol * abs(expect)


def check_op(op, rc, doc):
    """Return None if the op passed, else a one-line reason."""
    if rc not in op["ok_rc"]:
        return f"exit code {rc!r}, expected one of {op['ok_rc']}"
    chk = op["check"]
    kind = chk["kind"]
    if kind == "mass":
        value = doc["value"]
        if not _rel_ok(value, chk["expect"], chk["rtol"]):
            return (f"mass {value!r} differs from {chk['expect']!r} "
                    f"by more than {chk['rtol']} relative")
    elif kind == "penrose-mass":
        value = doc["mass"]
        if not _rel_ok(value, chk["expect"], chk["rtol"]):
            return (f"penrose mass {value!r} differs from {chk['expect']!r} "
                    f"by more than {chk['rtol']} relative")
    elif kind == "bound-chain":
        b = doc["bounds"]
        for hi, lo in zip(b, b[1:]):
            # equal neighbours may differ in the last bit
            if lo > hi + 1e-12 * abs(hi):
                return f"bound chain increases: {b!r}"
    elif kind == "verify":
        failed = [c["name"] for c in doc["checks"] if not c["pass"]]
        if failed:
            return f"verify checks failed: {failed}"
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return None
