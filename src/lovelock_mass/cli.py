"""Command-line front end.

Subcommands:
  mass     flux-limit mass of a configured metric family
  flux     flux-versus-radius table as CSV
  verify   randomized identity suites with residuals and pass/fail
  penrose  bulk + horizon-boundary report with the bound chain

Configuration is a single JSON document (--config); individual flags
override config fields.  Numbers are serialized with full double
precision so reruns with the same config and seed are bit-identical.
Exit codes: 0 success, 1 error (usage errors too), 2 fit warning,
3 violated bound.
"""

import argparse
import json
import math
import os
import sys

import numpy as np
# imported with the CLI rather than at the first verify seed
import numpy.random  # noqa: F401

from . import curvature, graphcase, mass as massmod, metrics, quadrature

_MAX_DIMENSION = 8

_CONFIG_KEYS = {"metric", "mass", "quad_level", "seed", "alpha", "horizon",
                "suite", "n", "tolerance"}
_METRIC_KEYS = {"family", "k", "n", "m", "alpha", "chart", "u"}
_MASS_KEYS = {"k", "as", "radii", "r0", "ratio", "count"}


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _thread_cap():
    """Validate the LOVELOCK_MASS_THREADS cap and apply it if possible."""
    raw = os.environ.get("LOVELOCK_MASS_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise SystemExit(_fail(
            f"LOVELOCK_MASS_THREADS must be a positive integer, got {raw!r}"))
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=cap)
    except ImportError:
        # computation is deterministic regardless; the cap is best-effort
        print(f"note: LOVELOCK_MASS_THREADS={cap} not applied: "
              "threadpoolctl is not installed", file=sys.stderr)


def _number(value, name, integer=False, low=None):
    """A config or flag number as float (int when integer).  What float()
    and int() would turn into a traceback or truncate in silence is an
    error: a non-number, a bool, a fractional integer, a value below low."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value) if integer else float(value)
    if low is not None and not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for sub, allowed in (("metric", _METRIC_KEYS), ("mass", _MASS_KEYS)):
        section = cfg.get(sub, {})
        if not isinstance(section, dict):
            raise ValueError(f"config {sub} must be a JSON object")
        extra = set(section) - allowed
        if extra:
            raise ValueError(f"unknown {sub} config keys: {sorted(extra)}")
    return cfg


def _build_metric(mcfg):
    family = mcfg.get("family")
    if family is None:
        raise ValueError("metric.family is required")
    n = _number(mcfg.get("n", 0), "metric.n", integer=True)
    if n < 4:
        raise ValueError("metric.n must be an integer >= 4")
    if n > _MAX_DIMENSION:
        raise ValueError(
            f"dimension {n} exceeds the supported maximum {_MAX_DIMENSION} "
            "(deterministic product quadrature only)")
    if family == "euclidean":
        return metrics.euclidean(n)
    if family == "schwarzschild":
        k = _number(mcfg.get("k", 2), "metric.k", integer=True)
        m = _number(mcfg.get("m", 1.0), "metric.m")
        chart = mcfg.get("chart", "conformal")
        return metrics.schwarzschild_family(k, n, m, chart=chart)
    if family == "egb":
        return metrics.egb_blackhole(n, _number(mcfg.get("alpha", 0.0),
                                                "metric.alpha"),
                                     _number(mcfg.get("m", 1.0), "metric.m"))
    if family == "conformal-radial":
        expr = mcfg.get("u")
        if expr is None:
            raise ValueError("conformal-radial needs metric.u "
                             "(expression in r)")
        return metrics.conformal_radial(n, expr)
    raise ValueError(f"unknown metric.family {family!r}")


def _build_graph(mcfg, n):
    family = mcfg.get("family")
    if family == "schwarzschild-graph":
        return graphcase.schwarzschild_graph(
            n, _number(mcfg.get("m", 1.0), "metric.m"),
            k=_number(mcfg.get("k", 2), "metric.k", integer=True))
    if family == "egb-graph":
        return graphcase.egb_graph(n, _number(mcfg.get("alpha", 0.0),
                                              "metric.alpha"),
                                   _number(mcfg.get("m", 1.0), "metric.m"))
    if family in (None, "none"):
        return None
    raise ValueError(f"unknown graph family {family!r}")


def _build_horizon(hcfg, n):
    if hcfg in (None, "none"):
        return None
    if not isinstance(hcfg, dict):
        raise ValueError('config horizon must be a JSON object or "none"')
    kind = hcfg.get("type")
    if kind == "sphere":
        return graphcase.sphere_surface(
            n, _number(hcfg["radius"], "horizon.radius"))
    if kind == "ellipsoid":
        axes = hcfg["semiaxes"]
        if not isinstance(axes, list) or len(axes) != n:
            raise ValueError(f"horizon needs a list of {n} semiaxes, "
                             f"got {axes!r}")
        return graphcase.Ellipsoid(np.array(
            [_number(a, "horizon.semiaxes") for a in axes]))
    raise ValueError(f"unknown horizon type {kind!r}")


def _radii(mass_cfg):
    """Configured radii or schedule, checked before any flux is integrated."""
    radii = mass_cfg.get("radii")
    if radii is None:
        radii = massmod.default_radii(
            _number(mass_cfg.get("r0", 20.0), "mass.r0"),
            _number(mass_cfg.get("ratio", 2.0), "mass.ratio"),
            _number(mass_cfg.get("count", 4), "mass.count", integer=True))
    elif isinstance(radii, list):
        radii = [_number(r, "mass.radii") for r in radii]
    return massmod._checked_radii(radii)


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _merge_flags(cfg, args):
    mcfg = dict(cfg.get("metric", {}))
    if args.metric is not None:
        mcfg["family"] = args.metric
    for key in ("k", "n", "m", "alpha"):
        if getattr(args, key) is not None:
            mcfg[key] = getattr(args, key)
    cfg = dict(cfg)
    cfg["metric"] = mcfg
    mass_cfg = dict(cfg.get("mass", {}))
    # penrose has neither --as nor the radius flags
    for key in ("k", "as", "radii", "r0", "ratio", "count"):
        if getattr(args, key, None) is not None:
            mass_cfg[key] = getattr(args, key)
    cfg["mass"] = mass_cfg
    if args.quad_level is not None:
        cfg["quad_level"] = args.quad_level
    return cfg


def _rule_from(cfg, n):
    level = _number(cfg.get("quad_level", massmod.default_level(n)),
                    "quad_level", integer=True)
    if level < 2:
        raise ValueError("quad_level must be >= 2")
    return quadrature.sphere_rule(n, level)


def _flux_inputs(args):
    """Merged config plus the metric, radii, rule and order k it names."""
    cfg = _merge_flags(_load_config(args.config), args)
    g = _build_metric(cfg.get("metric", {}))
    mass_cfg = cfg.get("mass", {})
    radii = _radii(mass_cfg)
    rule = _rule_from(cfg, g.n)
    k = _number(mass_cfg.get("k", cfg.get("metric", {}).get("k", 2)), "k",
                integer=True)
    return cfg, g, radii, rule, k


def cmd_mass(args):
    cfg, g, radii, rule, k = _flux_inputs(args)
    which = cfg.get("mass", {}).get("as")
    if which is None:
        which = {1: "adm", 2: "gbc"}.get(k, "mk")
    alpha = _number(cfg.get("alpha", cfg.get("metric", {}).get("alpha", 0.0)),
                    "alpha")
    est = massmod.mass(which, g, radii, rule, k=k, alpha=alpha)
    doc = massmod.mass_estimate_dict(est)
    doc["metric"] = g.name
    doc["quad_level"] = rule.level
    _emit(doc, args.out)
    print(f"mass = {est.value!r}  (model={est.model}, "
          f"exponent={est.fit_exponent!r}, residual={est.residual!r})",
          file=sys.stderr)
    return 2 if est.warning else 0


def cmd_flux(args):
    _, g, radii, rule, k = _flux_inputs(args)
    series = massmod.FluxSeries(
        radii=radii, flux=[massmod.flux("mk", g, r, rule, k=k) for r in radii],
        integrand_id=f"m{k} n={g.n} k={k}")
    text = massmod.flux_series_csv(series)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _suite_divergence(n, rng):
    g = metrics.conformal_radial(n, "3/10/(1 + r**2)")
    pts = rng.uniform(1.5, 4.0, size=(12, n)) * rng.choice([-1, 1], size=(12, n))
    checks = []
    for k in (1, 2):
        res = float(np.abs(curvature.divergence_of_P(k, g, pts)).max())
        checks.append(("divergence-conformal-k%d" % k, res, 1e-6))
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.4, -0.3], [1.5, 2.0])
    res = float(np.abs(curvature.divergence_of_P(2, f.metric, pts)).max())
    checks.append(("divergence-graph-k2", res, 1e-4))
    return checks


def _suite_graph_identity(n, rng):
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.5, -0.4], [1.4, 2.1])
    pts = rng.normal(size=(20, n)) * 2.0
    res = float(np.max(graphcase.graph_divergence_identity_residual(f, pts)))
    return [("graph-divergence-identity", res, 1e-4)]


def _suite_sigma2(n, rng):
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.6, 0.5], [1.3, 1.9])
    pts = rng.normal(size=(25, n)) * 1.5
    g = f.metric
    bund = curvature.riemann(g, pts)
    L2 = curvature.lovelock_L(2, g, pts, bund=bund)
    w2, s2 = curvature.weyl_sigma2_split(g, pts, bund=bund)
    scale = 1.0 + float(np.abs(L2).max())
    res = float(np.abs(L2 - (w2 + 8.0 * (n - 2) * (n - 3) * s2)).max()) / scale
    return [("weyl-sigma2-split", res, 1e-9)]


def _suite_hypersurface(n, rng):
    checks = []
    rho = 2.0
    S = graphcase.sphere_surface(n, rho)
    hd = graphcase.surface_hypersurface_data(S, np.eye(n)[0])
    res = float(np.abs(hd.eigenvalues - 1.0 / rho).max())
    checks.append(("sphere-umbilic", res, 1e-10))
    res = abs(hd.mean_curvatures[2] - math.comb(n - 1, 3) / rho ** 3)
    checks.append(("sphere-H3", res, 1e-10))
    axes = 1.0 + rng.uniform(0.0, 1.0, size=n)
    E = graphcase.Ellipsoid(axes)
    om = rng.normal(size=n)
    om /= np.linalg.norm(om)
    hd = graphcase.surface_hypersurface_data(E, om)
    lam = hd.eigenvalues
    # scalar curvature of the induced metric vs twice the second
    # elementary symmetric function (Gauss equation, flat ambient)
    res = abs(hd.induced_scalar - 2.0 * graphcase.elementary_symmetric(
        lam[None, :], 2)[0])
    checks.append(("gauss-2H2", float(res), 1e-12))
    # contracted Gauss identity: -(Ric - R/2 h) : A = 3 H_3 in the
    # principal frame, where Ric_aa = lam_a (H_1 - lam_a)
    H1 = lam.sum()
    ric = lam * (H1 - lam)
    Rhat = float(hd.induced_scalar)
    lhs = -np.sum((ric - 0.5 * Rhat) * lam)
    rhs = 3.0 * graphcase.elementary_symmetric(lam[None, :], 3)[0]
    checks.append(("contracted-gauss-3H3", float(abs(lhs - rhs)), 1e-9))
    return checks


def _suite_l2_24h4(n, rng):
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.7, -0.6], [1.2, 1.7])
    pts = rng.normal(size=(25, n)) * 1.5
    L2 = curvature.lovelock_L(2, f.metric, pts)
    h4 = np.array([graphcase.graph_hypersurface_data(f, p).mean_curvatures[3]
                   for p in pts])
    scale = 1.0 + float(np.abs(L2).max())
    res = float(np.abs(L2 - 24.0 * h4).max()) / scale
    return [("l2-equals-24H4", res, 1e-8)]


def _suite_invariance(n, rng):
    g = metrics.schwarzschild_family(2, n, 1.0, chart="conformal")
    rule = quadrature.sphere_rule(n, 3)
    prof = metrics.radial_decay_profile(0.1, 1.0)
    c = metrics.perturbation_change(n, prof, decay=1.0)
    _, _, delta = massmod.invariance_check(g, c, 2, rule=rule)
    return [("mass-coordinate-invariance", float(abs(delta)), 5e-3)]


_SUITES = {
    "divergence": _suite_divergence,
    "graph-identity": _suite_graph_identity,
    "sigma2": _suite_sigma2,
    "hypersurface": _suite_hypersurface,
    "l2-24h4": _suite_l2_24h4,
    "invariance": _suite_invariance,
}


def cmd_verify(args):
    cfg = _load_config(args.config)
    suite = args.suite or cfg.get("suite")
    if suite not in _SUITES:
        return _fail(f"unknown suite {suite!r}; available: "
                     f"{sorted(_SUITES)}")
    n = args.n if args.n is not None else cfg.get("n")
    n = 5 if n is None else _number(n, "n", integer=True)
    if not 4 <= n <= _MAX_DIMENSION:
        return _fail(f"n must be in [4, {_MAX_DIMENSION}]")
    seed = _number(args.seed if args.seed is not None else cfg.get("seed", 0),
                   "seed", integer=True)
    rng = np.random.default_rng(seed)
    checks = _SUITES[suite](n, rng)
    doc = {"suite": suite, "n": n, "seed": seed, "checks": []}
    ok = True
    for name, residual, tol in checks:
        residual = float(residual)
        passed = residual <= tol
        ok = ok and passed
        doc["checks"].append({"name": name, "residual": float(residual),
                              "tolerance": float(tol), "pass": bool(passed)})
        print(f"{name}: residual={residual!r} tol={tol!r} "
              f"{'PASS' if passed else 'FAIL'}", file=sys.stderr)
    _emit(doc, args.out)
    return 0 if ok else 1


def cmd_penrose(args):
    cfg = _merge_flags(_load_config(args.config), args)
    mcfg = cfg.get("metric", {})
    n = _number(mcfg.get("n", 0), "metric.n", integer=True)
    if not 4 <= n <= _MAX_DIMENSION:
        return _fail(f"need metric.n in [4, {_MAX_DIMENSION}]")
    f = _build_graph(mcfg, n)
    horizon = _build_horizon(cfg.get("horizon"), n)
    if horizon is None and f is not None:
        horizon = f.horizon
    if horizon is None:
        return _fail("penrose requires a horizon description")
    rule = _rule_from(cfg, n)
    tol = _number(cfg.get("tolerance", 2e-3), "tolerance", low=0.0)
    report = graphcase.penrose_report(f, horizon, rule=rule)
    doc = graphcase.penrose_report_dict(report)
    doc["n"] = n
    _emit(doc, args.out)
    if float(np.min(report.slack)) < -tol:
        print("bound violated beyond tolerance", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exiting 1 on a usage error: 2 is the fit-warning code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "config": dict(help="JSON configuration file"),
    "out": dict(help="JSON output path (default stdout)"),
    "quad-level": dict(dest="quad_level", type=int),
    "seed": dict(type=int),
    "suite": dict(help=f"one of {sorted(_SUITES)}"),
    "metric": dict(help="metric family name"),
    "k": dict(type=int),
    "n": dict(type=int),
    "m": dict(type=float),
    "alpha": dict(type=float),
    "as": dict(choices=massmod._KINDS),
    "radii": dict(type=lambda s: [float(v) for v in s.split(",")]),
    "r0": dict(type=float),
    "ratio": dict(type=float),
    "count": dict(type=int),
    "csv": dict(help="CSV output path (default stdout)"),
}
_METRIC_FLAGS = ("metric", "k", "n", "m", "alpha")
_RADIUS_FLAGS = ("radii", "r0", "ratio", "count")
# each subcommand takes only the flags it reads
_COMMANDS = {
    "mass": (cmd_mass, "extrapolated mass of a metric",
             ("config", "out", "quad-level", *_METRIC_FLAGS, "as",
              *_RADIUS_FLAGS)),
    "flux": (cmd_flux, "flux-vs-radius CSV table",
             ("config", "quad-level", *_METRIC_FLAGS, *_RADIUS_FLAGS, "csv")),
    "verify": (cmd_verify, "randomized identity suites",
               ("config", "out", "seed", "suite", "n")),
    "penrose": (cmd_penrose, "bulk/boundary mass report",
                ("config", "out", "quad-level", *_METRIC_FLAGS)),
}


def _build_parser():
    parser = _Parser(
        prog="lovelock-mass",
        description="Flux-integral masses of asymptotically flat metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# the argparse tree, built once at import; parse_args keeps no state on it
# between calls
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    _thread_cap()
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, metrics.DomainError, OSError, KeyError) as exc:
        return _fail(str(exc))
    except ArithmeticError as exc:
        # overflow or division by zero in user text, e.g. a metric profile
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
