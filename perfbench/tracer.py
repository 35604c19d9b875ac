"""Outside-in tracer: times the package's layers without touching its source.

`install(tracer)` replaces module attributes of `lovelock_mass` with timing
wrappers.  A function is replaced in every package module that binds it,
so `from .multiindex import p_tensor_table` style imports are covered too.
The metric factories are wrapped so that every MetricField they return
gets timed evaluators, patched in place to keep object identity (the
curvature cache keys on it).

Each call records a span (layer, start, end, parent) in memory; a layer's
self time is its span durations minus the time its child spans cover, so
the self times of all layers partition the time of the root spans.

`add_cost` uses the same rebinding to add a known fixed cost to one
function; the self-test uses it to check that a slowdown of the program
shows in the host-scaled times at its true size.
"""

import functools
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

_MARK = "__perfbench_traced__"

CURVATURE = {
    "riemann": "curvature.riemann",
    "p_tensor": "curvature.p_tensor",
    "p_tensor_general": "curvature.p_tensor_general",
    "lovelock_L": "curvature.lovelock_L",
    "weyl_sigma2_split": "curvature.weyl_sigma2_split",
    "divergence_of_P": "curvature.divergence_of_P",
}
TABLES = ("lovelock_scalar_table", "p_tensor_table", "lovelock_einstein_table")
METRIC_FACTORIES = ("euclidean", "radial_metric", "schwarzschild_family",
                    "conformal_radial", "with_tau", "graph_metric",
                    "egb_blackhole", "pushforward", "from_g_only")
GRAPH_FACTORIES = ("radial_graph", "schwarzschild_graph", "egb_graph",
                   "gaussian_bump_graph", "sum_graph", "linear_graph",
                   "quadratic_graph")
GRAPHCASE = {
    "bulk_mass": "graphcase.bulk",
    "quermassintegral": "graphcase.quermass",
    "surface_area": "graphcase.quermass",
    "horizon_boundary_term": "graphcase.quermass",
    "af_chain_bounds": "graphcase.quermass",
    "graph_L2": "graphcase.pointwise",
    "graph_divergence_identity_residual": "graphcase.pointwise",
    "graph_hypersurface_data": "graphcase.pointwise",
    "surface_hypersurface_data": "graphcase.pointwise",
    "hypersurface_data": "graphcase.pointwise",
}
EVALUATORS = ("eval_g", "eval_dg", "eval_d2g", "eval_d3g")


def batch_points(x):
    """Number of points in a (n,) or (..., n) batch."""
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(np.prod(shape[:-1]))


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._returned = {}

    def timed(self, layer, fn):
        """Wrap fn so each call records a span of the given layer."""
        spans, stack, self_s = self.spans, self._stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[frame[0]] = (layer, t0, t1, parent)
                self_s[layer] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        setattr(wrapper, _MARK, True)
        return wrapper

    def seen_before(self, obj):
        """True if obj was already returned (by identity, while alive)."""
        ref = self._returned.get(id(obj))
        if ref is not None and ref() is obj:
            return True
        self._returned[id(obj)] = weakref.ref(obj)
        return False


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lovelock_mass"
                                  or name.startswith("lovelock_mass."))]


def _replace(orig, new):
    """Rebind every package-level name that refers to orig."""
    hits = 0
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
                hits += 1
    if not hits:
        raise RuntimeError(f"tracer found no binding of {orig!r}")


_WORK = np.random.default_rng(1).normal(size=(2048, 6, 6))


def fixed_work(repeats):
    """A fixed CPU cost: batched 6x6 products and a Python loop, the mix
    of the package's own small-batch work."""
    s = 0.0
    for _ in range(repeats):
        s += float(np.einsum("xij,xjk->xik", _WORK, _WORK).sum())
        for i in range(1000):
            s += i * 1e-9
    return s


def add_cost(module, name, repeats):
    """Rebind lovelock_mass.<module>.<name> wherever the package binds it,
    so that each call first runs fixed_work(repeats).  Returns a Counter
    whose "calls" entry counts the calls."""
    import importlib
    fn = getattr(importlib.import_module(f"lovelock_mass.{module}"), name)
    calls = Counter()

    @functools.wraps(fn)
    def slowed(*args, **kwargs):
        calls["calls"] += 1
        fixed_work(repeats)
        return fn(*args, **kwargs)

    _replace(fn, slowed)
    return calls


def _wrap_evaluators(tracer, g):
    for attr in EVALUATORS:
        fn = getattr(g, attr)
        if getattr(fn, _MARK, False):
            continue

        def counted(x, *args, _fn=fn, **kwargs):
            tracer.counts["metrics.eval_points"] += batch_points(x)
            return _fn(x, *args, **kwargs)

        # MetricField is frozen; patch in place so id(g) is unchanged
        object.__setattr__(g, attr, tracer.timed("metrics.eval", counted))


def install(tracer):
    """Wrap the public layer functions of an imported lovelock_mass."""
    import lovelock_mass.cli as cli
    from lovelock_mass import (curvature, graphcase, mass, metrics,
                               multiindex, quadrature)

    t = tracer
    _replace(cli.main, t.timed("cli.self", cli.main))

    riemann = curvature.riemann

    def riemann_counted(g, x, *args, **kwargs):
        out = riemann(g, x, *args, **kwargs)
        t.counts["curvature.riemann_calls"] += 1
        t.counts["curvature.riemann_points"] += batch_points(x)
        if t.seen_before(out):
            t.counts["curvature.riemann_reused"] += 1
        return out

    _replace(riemann, t.timed("curvature.riemann", riemann_counted))
    for name, layer in CURVATURE.items():
        if name != "riemann":
            fn = getattr(curvature, name)
            _replace(fn, t.timed(layer, fn))

    for name in TABLES:
        table = getattr(multiindex, name)

        def table_counted(*args, _table=table, **kwargs):
            misses = _table.cache_info().misses
            out = _table(*args, **kwargs)
            if _table.cache_info().misses > misses:
                t.counts["multiindex.table_builds"] += 1
                t.counts["multiindex.table_terms"] += len(out.signs)
            return out

        _replace(table, t.timed("multiindex.table", table_counted))

    for name in METRIC_FACTORIES:
        factory = getattr(metrics, name)

        def built(*args, _factory=factory, **kwargs):
            g = _factory(*args, **kwargs)
            if isinstance(g, metrics.MetricField):
                _wrap_evaluators(t, g)
            return g

        _replace(factory, t.timed("metrics.build", built))
    for name in GRAPH_FACTORIES:
        fn = getattr(graphcase, name)
        _replace(fn, t.timed("metrics.build", fn))
    profile = metrics.RadialProfile
    profile.__init__ = t.timed("metrics.build", profile.__init__)

    rule = quadrature.sphere_rule
    _replace(rule, t.timed("quadrature.rule", rule))
    for name in ("surface_integral", "ball_integral"):
        integral = getattr(quadrature, name)

        def integral_counted(F, *args, _integral=integral, **kwargs):
            def counted_F(pts):
                t.counts["quadrature.nodes"] += batch_points(pts)
                return F(pts)
            return _integral(counted_F, *args, **kwargs)

        _replace(integral, t.timed("quadrature.self", integral_counted))

    fit = mass.extrapolate_limit

    def fit_counted(*args, **kwargs):
        est = fit(*args, **kwargs)
        t.counts["mass.fit_calls"] += 1
        t.counts["mass.fit_saturating"] += est.model == "saturating"
        t.counts["mass.fit_warnings"] += bool(est.warning)
        return est

    _replace(fit, t.timed("mass.fit", fit_counted))

    for name, layer in GRAPHCASE.items():
        fn = getattr(graphcase, name)
        _replace(fn, t.timed(layer, fn))
