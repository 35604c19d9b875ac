"""Closed-form metric families and their pointwise derivative evaluators.

Every metric is presented in a single Cartesian chart on (a subset of)
R^n.  Rotationally symmetric families A(rho) drho^2 + rho^2 dTheta^2
are realized through x = rho * omega, which turns them into
g_ij = delta_ij + (A(r) - 1) x_i x_j / r^2.  Their profiles are
RadialProfile objects: plain functions of r, or text in r, which a
second-order jet differentiates to round-off in one forward pass (no
symbolic step); exp, log, sqrt, sin and cos here act on arrays and jets.

Evaluator conventions
---------------------
Evaluators take a point (n,) or a batch (B, n), and raise ValueError on
more leading axes.  g has shape (..., n, n) and dg (..., n, n, n) with
the derivative index last (dg[..., i, j, k] = d_k g_ij); ... is () or
(B,).  Every family gives its curvature in closed form by
eval_curvature, (B, n) -> R_IJ of shape (B, C(n,2), C(n,2)) on the
index pairs of multiindex.pairs, both pairs lowered; only the
from_g_only adapter has none.  No metric has a second or third
derivative evaluator: eval_d2g and eval_d3g are None throughout.
"""

import ast
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .multiindex import pair_product

__all__ = [
    "DomainError",
    "MetricField",
    "CoordinateChange",
    "RadialProfile",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "euclidean",
    "radial_metric",
    "schwarzschild_family",
    "conformal_radial",
    "with_tau",
    "schwarzschild_conformal_profile",
    "graph_metric",
    "egb_blackhole",
    "egb_horizon_radius",
    "pushforward",
    "from_g_only",
    "identity_change",
    "rotation_change",
    "perturbation_change",
    "radial_decay_profile",
    "fd_step_first",
    "fd_step_second",
    "central_difference",
]

TAU_INFINITE = float("inf")


class DomainError(ValueError):
    """A metric was evaluated outside its domain of definition."""


def fd_step_first(x):
    """Step for first-order central differences, scaled to the point."""
    r = np.linalg.norm(np.atleast_2d(x), axis=-1)
    return np.maximum(1.0, r) * 6e-6


def fd_step_second(x):
    """Step for second-order (and nested) central differences."""
    r = np.linalg.norm(np.atleast_2d(x), axis=-1)
    return np.maximum(1.0, r) * 3e-4


def _batch(x):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    if pts.ndim != 2:
        raise ValueError(f"points must have shape (n,) or (B, n), got {pts.shape}")
    return pts, False


def _unbatch(out, single):
    return out[0] if single else out


def central_difference(fun, pts, h):
    """Partial derivatives of a batched evaluator by central differences.

    Stacks (fun(x + h e_i) - fun(x - h e_i)) / (2h) over i on a new last
    axis; pts has shape (B, n) and h one step per point.
    """
    cols = []
    for i in range(pts.shape[-1]):
        step = np.zeros_like(pts)
        step[:, i] = h
        diff = fun(pts + step) - fun(pts - step)
        cols.append(diff / (2.0 * h).reshape((-1,) + (1,) * (diff.ndim - 1)))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class MetricField:
    """A Riemannian metric on a region of R^n given by pointwise evaluators.

    Fields
    ------
    n : dimension (>= 4 for all mass computations)
    eval_g, eval_dg : batched evaluators, see module docstring for the
        index layout
    eval_d2g, eval_d3g : always None; nothing differentiates g twice
    tau : declared decay order of g - delta (TAU_INFINITE for exact flat)
    name : short identifier used in reports
    eval_curvature : closed form (B, n) -> R_IJ of shape
        (B, C(n,2), C(n,2)), the CurvatureBundle's pair_lo and the only
        source of curvature riemann reads; None only for from_g_only, on
        which riemann raises ValueError
    """

    n: int
    eval_g: Callable
    eval_dg: Callable
    eval_d2g: Optional[Callable]
    eval_d3g: Optional[Callable]
    tau: float
    name: str = "metric"
    eval_curvature: Optional[Callable] = None


@dataclass(frozen=True)
class CoordinateChange:
    """A diffeomorphism given by the inverse map psi: xhat -> x.

    forward evaluates psi; jacobian gives its derivative d psi^i / d xhat^a
    (layout [..., i, a]) and d_jacobian the second derivative (layout
    [..., i, a, b]), both taking the base point x = psi(xhat) alone, as
    pushforward hands it on.  decay is the decay order of phi in
    xhat = x + phi.
    """

    forward: Callable
    jacobian: Callable
    d_jacobian: Callable
    decay: float
    name: str = "change"


class _Jet:
    """Second-order Taylor jet (v, v', v'') of a function of r over numpy
    arrays (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM
    2008, ch. 13): + - * / ** and the module's exp, log, sqrt, sin and
    cos carry the first two derivatives along with the value."""

    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def chain(self, f0, f1, f2):
        """f(u) from f, f', f'' at the value: (f o u)'' = f''(u) u'^2 + f'(u) u''."""
        return _Jet(f0, f1 * self.d1, f2 * self.d1 ** 2 + f1 * self.d2)

    def __add__(self, o):
        o = o if isinstance(o, _Jet) else _Jet(o)
        return _Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __mul__(self, o):
        o = o if isinstance(o, _Jet) else _Jet(o)
        return _Jet(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                    self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)

    def __truediv__(self, o):
        o = o if isinstance(o, _Jet) else _Jet(o)
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        return _Jet(q, q1, (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v)

    def __pow__(self, p):
        if isinstance(p, _Jet):
            return exp(p * log(self))
        v = self.v
        return self.chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self * -1.0

    def __pos__(self):
        return self

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __rtruediv__(self, o):
        return _Jet(o) / self

    def __rpow__(self, base):
        f0, lb = base ** self.v, np.log(base)
        return self.chain(f0, lb * f0, lb * lb * f0)


def _elementary(f, derivs):
    """f on plain arrays, and on jets by the chain rule with
    derivs(v, f(v)) = (f'(v), f''(v))."""
    def fn(u):
        if not isinstance(u, _Jet):
            return f(u)
        f0 = f(u.v)
        return u.chain(f0, *derivs(u.v, f0))
    return fn


exp = _elementary(np.exp, lambda v, e: (e, e))
log = _elementary(np.log, lambda v, _: (1.0 / v, -1.0 / v ** 2))
sqrt = _elementary(np.sqrt, lambda v, s: (0.5 / s, -0.25 / (s * v)))
sin = _elementary(np.sin, lambda v, s: (np.cos(v), -s))
cos = _elementary(np.cos, lambda v, c: (-np.sin(v), -c))
# log(1 + u) without the cancellation of 1 + u for small u
_log1p = _elementary(np.log1p, lambda v, _: (1.0 / (1.0 + v), -1.0 / (1.0 + v) ** 2))

_TEXT_FUNCTIONS = {"exp": exp, "log": log, "sqrt": sqrt, "sin": sin, "cos": cos}
_TEXT_OPERATORS = (ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
                   ast.Pow, ast.UAdd, ast.USub)


def _whitelisted(node):
    """True if node is built of numbers, r, pi, E, + - * / ** and one-argument
    calls of exp, log, sqrt, sin and cos; numbers become floats, so no
    integer power can grow without bound."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value = float(node.value)
        return True
    if isinstance(node, ast.Name):
        return node.id in ("r", "pi", "E")
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _TEXT_FUNCTIONS
                and not node.keywords and len(node.args) == 1
                and _whitelisted(node.args[0]))
    return (isinstance(node, _TEXT_OPERATORS)
            and all(map(_whitelisted, ast.iter_child_nodes(node))))


def _read_profile(text):
    """Compile text in r (with ^ read as **) to a function of r; text
    outside the _whitelisted grammar raises ValueError."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        if not _whitelisted(tree.body):
            raise SyntaxError
    except (SyntaxError, ValueError):
        raise ValueError(f"profile text must be an expression in r, "
                         f"got {text!r}") from None
    code = compile(tree, "<profile>", "eval")
    names = dict(_TEXT_FUNCTIONS, pi=math.pi, E=math.e, __builtins__={})
    return lambda r: eval(code, names, {"r": r})


def _filled(values, r):
    return np.broadcast_to(np.asarray(values, dtype=float), r.shape).copy()


class RadialProfile:
    """A scalar profile c(r) with derivatives to second order.

    fn is a function of r written with + - * / ** and this module's exp,
    log, sqrt, sin and cos, which act on plain arrays and on jets alike;
    text in r is compiled to such a function (numbers, r, pi, E, those
    operators with ^ read as **, and those five functions).  jet(r) gives
    (c, c', c'') in one forward pass of Taylor arithmetic; calling the
    profile evaluates c alone on plain arrays.
    """

    def __init__(self, fn):
        self.fn = _read_profile(fn) if isinstance(fn, str) else fn

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return _filled(self.fn(r), r)

    def jet(self, r):
        r = np.asarray(r, dtype=float)
        out = self.fn(_Jet(r, np.ones_like(r), np.zeros_like(r)))
        if not isinstance(out, _Jet):  # a constant profile
            out = _Jet(out)
        return _filled(out.v, r), _filled(out.d1, r), _filled(out.d2, r)

    def d1(self, r):
        return self.jet(r)[1]

    def d2(self, r):
        return self.jet(r)[2]


def _radial_jets(pts, r, c1, c2=None):
    """dc[..., k] of c(|x|) at batched points from c' = c1 at r = |x|;
    (dc, d2c[..., k, l]) when c'' = c2 is given too."""
    u = pts / r[:, None]
    dc = c1[:, None] * u
    if c2 is None:
        return dc
    P = np.eye(pts.shape[-1])[None] - u[:, :, None] * u[:, None, :]
    return dc, c2[:, None, None] * u[:, :, None] * u[:, None, :] + (c1 / r)[:, None, None] * P


def radial_metric(n, a_profile, b_profile, tau, r_min=0.0,
                  domain_check=None, name="radial"):
    """Metric g_ij = a(r) delta_ij + b(r) x_i x_j with analytic dg and
    closed-form curvature (the warped-product curvature of a rotationally
    symmetric metric; Petersen, Riemannian Geometry, 3rd ed., 2016).

    b_profile may be None for a conformal (pure a) metric.  Queries with
    r <= r_min, or failing the optional domain_check(r) predicate, raise
    DomainError.
    """
    eye = np.eye(n)

    def _check(r):
        if np.any(r <= r_min):
            raise DomainError(
                f"{name}: point with |x| = {float(np.min(r)):.6g} outside "
                f"domain |x| > {r_min:.6g}")
        if domain_check is not None:
            ok = domain_check(r)
            if not np.all(ok):
                bad = float(r[np.argmin(ok)])
                raise DomainError(f"{name}: point with |x| = {bad:.6g} "
                                  "outside metric domain")

    def _parts(x):
        pts, single = _batch(x)
        r = np.linalg.norm(pts, axis=-1)
        _check(r)
        return pts, single, r

    def eval_g(x):
        pts, single, r = _parts(x)
        g = a_profile(r)[:, None, None] * eye[None]
        if b_profile is not None:
            g = g + b_profile(r)[:, None, None] * pts[:, :, None] * pts[:, None, :]
        return _unbatch(g, single)

    def eval_dg(x):
        pts, single, r = _parts(x)
        da = _radial_jets(pts, r, a_profile.jet(r)[1])
        out = eye[None, :, :, None] * da[:, None, None, :]
        if b_profile is not None:
            b0, b1, _ = b_profile.jet(r)
            db = _radial_jets(pts, r, b1)
            xx = pts[:, :, None] * pts[:, None, :]
            # d_k (x_i x_j) = delta_ik x_j + delta_jk x_i
            d1xx = (eye[None, :, None, :] * pts[:, None, :, None]
                    + eye[None, None, :, :] * pts[:, :, None, None])
            out = out + xx[:, :, :, None] * db[:, None, None, :] + b0[:, None, None, None] * d1xx
        return _unbatch(out, single)

    def eval_curvature(pts):
        # A dr^2 + phi^2 dTheta^2 with A = a + b r^2, phi = r sqrt(a) (jets
        # in r here) has sectional curvature K_rad on planes holding
        # nu = x/r and K_tan on planes tangent to the spheres, so
        # R = delta o M with M = alpha delta + beta nu nu^T (o: the
        # Kulkarni-Nomizu product)
        pts, _, r = _parts(pts)
        rj, aj = _Jet(r, 1.0), _Jet(*a_profile.jet(r))
        bj = _Jet(*b_profile.jet(r)) if b_profile is not None else _Jet(0.0 * r)
        a, a1, b = aj.v, aj.d1, bj.v
        A, phi = aj + bj * rj ** 2, rj * sqrt(aj)
        k_rad = -(phi.d2 / A.v - phi.d1 * A.d1 / (2.0 * A.v ** 2)) / phi.v
        # (1 - phi'^2 / A) / phi^2 without the cancellation of 1 - phi'^2/A
        k_tan = (b - a1 / r - a1 ** 2 / (4.0 * a)) / (a * A.v)
        alpha = k_tan * a ** 2 / 2.0
        beta = k_tan * a * b * r ** 2 + (k_rad - k_tan) * a * A.v
        nu = pts / r[:, None]
        M = (alpha[:, None, None] * eye
             + beta[:, None, None] * nu[:, :, None] * nu[:, None, :])
        return pair_product(eye, M) + pair_product(M, eye)

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=tau, name=name,
                       eval_curvature=eval_curvature)


def euclidean(n):
    """The flat metric on R^n."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(n)

    def eval_g(x):
        pts, single = _batch(x)
        return _unbatch(np.broadcast_to(eye, (len(pts), n, n)).copy(), single)

    def eval_dg(x):
        pts, single = _batch(x)
        return _unbatch(np.zeros((len(pts), n, n, n)), single)

    def eval_curvature(pts):
        return np.zeros((len(pts), math.comb(n, 2), math.comb(n, 2)))

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=TAU_INFINITE, name="euclidean",
                       eval_curvature=eval_curvature)


def schwarzschild_family(k, n, m, chart="conformal"):
    """Static spherically symmetric metric with mass-power parameter m.

    In the rho chart: (1 - 2m/rho^(n/k-2))^(-1) drho^2 + rho^2 dTheta^2,
    realized in Cartesian components.  In the conformal chart:
    (1 + m/(2 r^(n/k-2)))^(4k/(n-2k)) * delta.  Negative m is accepted
    wherever the metric stays positive definite.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k < n / 2):
        raise ValueError("require integer 1 <= k < n/2")
    q = n / k - 2.0
    if chart == "conformal":
        a = RadialProfile(lambda r: (1 + m / 2 / r ** q) ** (4 * k / (n - 2 * k)))
        r_min = 0.0 if m >= 0 else float((-m / 2) ** (1 / q))
        return radial_metric(n, a, None, tau=q, r_min=r_min,
                             name=f"schwarzschild(k={k},n={n},m={m},conformal)")
    if chart == "rho":
        def b(r):
            # (A - 1) / r^2 with A = 1 / (1 - G), without the cancellation
            G = 2 * m / r ** q
            return G / ((1 - G) * r ** 2)

        r_min = 0.0 if m <= 0 else float((2 * m) ** (1 / q))

        def domain_check(rv):
            # positive-definite radial direction: A > 0
            return 1 - 2 * m * rv ** (-q) > 0

        return radial_metric(n, RadialProfile(lambda r: 1.0), RadialProfile(b),
                             tau=q, r_min=r_min, domain_check=domain_check,
                             name=f"schwarzschild(k={k},n={n},m={m},rho)")
    raise ValueError(f"unknown chart {chart!r}; use 'rho' or 'conformal'")


def schwarzschild_conformal_profile(k, n, m):
    """The radial exponent u with e^(-2u) delta equal to the conformal chart.

    Defined by u = -(2k/(n-2k)) * log(1 + m/(2 r^(n/k-2))).
    """
    q = n / k - 2.0
    return RadialProfile(lambda r: -(2 * k / (n - 2 * k)) * _log1p(m / 2 / r ** q))


def conformal_radial(n, u):
    """Conformally flat metric g = e^(-2u(r)) delta from a radial exponent.

    u may be a RadialProfile, or a function of r or text in r for one.
    """
    if not isinstance(u, RadialProfile):
        u = RadialProfile(u)
    # decay read off from the profile is the caller's business; assume the
    # exponent itself decays like r^-tau with tau unknown: keep a sentinel
    # unless the caller wraps the result.
    return radial_metric(n, RadialProfile(lambda r: exp(-2 * u.fn(r))), None,
                         tau=np.nan, name="conformal-radial")


def with_tau(g, tau):
    """Copy of a MetricField with the declared decay order replaced."""
    return replace(g, tau=tau)


def graph_metric(f):
    """Induced metric delta + df x df of a graph over flat space.

    f must provide batched grad/hess evaluators (see graphcase).  g and
    dg are assembled from them, and so is the curvature, by the Gauss
    equation with w = 1 + |df|^2: R_ijkl = (f_ik f_jl - f_il f_jk) / w,
    the second exterior power of D^2 f over w.
    """
    n = f.n
    eye = np.eye(n)

    def eval_g(x):
        pts, single = _batch(x)
        df = f.grad(pts)
        g = eye[None] + df[:, :, None] * df[:, None, :]
        return _unbatch(g, single)

    def eval_dg(x):
        pts, single = _batch(x)
        df = f.grad(pts)
        d2f = f.hess(pts)
        # d_k (f_i f_j) = f_ik f_j + f_i f_jk
        out = (d2f[:, :, None, :] * df[:, None, :, None]
               + df[:, :, None, None] * d2f[:, None, :, :])
        return _unbatch(out, single)

    def eval_curvature(pts):
        df = f.grad(pts)
        d2f = f.hess(pts)
        w = 1.0 + np.einsum('xi,xi->x', df, df)
        return pair_product(d2f, d2f) / w[:, None, None]

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=getattr(f, "tau", np.nan),
                       name=f"graph({getattr(f, 'name', 'f')})",
                       eval_curvature=eval_curvature)


def egb_horizon_radius(n, alpha, m):
    """Largest root r0 of 1 + (r^2/at)(1 - sqrt(1 + 4 at m / r^n)) = 0.

    Here at = 2 (n-2)(n-3) alpha.  Squared, the equation is the polynomial
    G(r) = 2 r^(n-2) + at r^(n-4) - 4m = 0, whose positive root is
    bisected down to neighbouring floats.  Squaring adds the root of the
    other sign of the square root when at < 0, so a root with
    r^(n-2) > 4m is rejected.  Returns 0.0 when the profile has no
    positive root (e.g. m <= 0 or alpha = 0 with m <= 0).
    """
    at = 2.0 * (n - 2) * (n - 3) * alpha
    if at == 0.0:
        return (2.0 * m) ** (1.0 / (n - 2)) if m > 0 else 0.0
    if m <= 0:
        return 0.0

    def G(r):
        return 2.0 * r ** (n - 2) + at * r ** (n - 4) - 4.0 * m

    lo, hi = 0.0, max(1.0, (4.0 * m) ** (1.0 / (n - 2)))
    while G(hi) <= 0:
        hi *= 2.0
    if G(lo) >= 0:
        return 0.0
    mid = 0.5 * hi
    while lo < mid < hi:
        lo, hi = (mid, hi) if G(mid) < 0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    r = lo if -G(lo) < G(hi) else hi
    return r if r ** (n - 2) <= 4.0 * m else 0.0


def _egb_one_minus_F(n, alpha, m, r):
    """1 - F(r) of the EGB black hole, the conjugate form of
    -(r^2/at)(1 - sqrt(1 + 4 at m / r^n)), stable for large r."""
    at = 2.0 * (n - 2) * (n - 3) * alpha
    return 4.0 * m / (r ** (n - 2) * (1.0 + sqrt(1.0 + 4.0 * at * m / r ** n)))


def egb_blackhole(n, alpha, m):
    """Static Gauss-Bonnet-corrected black hole metric in the r chart.

    g = F(r)^(-1) dr^2 + r^2 dTheta^2 with
    F = 1 + (r^2/at)(1 - sqrt(1 + 4 at m / r^n)), at = 2(n-2)(n-3) alpha.
    alpha = 0 falls back to the k=1 member of schwarzschild_family.
    """
    if alpha == 0.0:
        return schwarzschild_family(1, n, m, chart="rho")
    def b(r):
        G = _egb_one_minus_F(n, alpha, m, r)
        return G / ((1 - G) * r ** 2)

    # F is complex inside r^n = -4 at m when at m < 0 and no horizon covers it
    at_m = 2.0 * (n - 2) * (n - 3) * alpha * m
    r0 = max(egb_horizon_radius(n, alpha, m),
             (-4.0 * at_m) ** (1.0 / n) if at_m < 0 else 0.0)
    return radial_metric(n, RadialProfile(lambda r: 1.0), RadialProfile(b),
                         tau=float(n - 2), r_min=r0,
                         name=f"egb(n={n},alpha={alpha},m={m})")


def identity_change(n):
    """The trivial coordinate change."""
    return replace(rotation_change(np.eye(n)), name="identity")


def rotation_change(Q):
    """Rigid rotation xhat = Q^T x, i.e. psi(xhat) = Q xhat."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if not np.allclose(Q @ Q.T, np.eye(n), atol=1e-12):
        raise ValueError("rotation matrix must be orthogonal")

    def forward(x):
        pts, single = _batch(x)
        return _unbatch(pts @ Q.T, single)

    def jacobian(base):
        pts, single = _batch(base)
        return _unbatch(np.broadcast_to(Q, (len(pts), n, n)).copy(), single)

    def d_jacobian(base):
        pts, single = _batch(base)
        return _unbatch(np.zeros((len(pts), n, n, n)), single)

    return CoordinateChange(forward=forward, jacobian=jacobian,
                            d_jacobian=d_jacobian, decay=TAU_INFINITE,
                            name="rotation")


def radial_decay_profile(eps, tau_phi):
    """Profile c(r) = eps * (1 + r^2)^(-tau_phi/2) for perturbation maps."""
    return RadialProfile(lambda r: eps * (1 + r ** 2) ** (-tau_phi / 2))


def perturbation_change(n, profile, decay):
    """Coordinate change xhat = x + phi(x) with phi^i = x^i c(|x|).

    The inverse map psi is evaluated by Newton iteration; the Jacobian
    and its derivative come from the closed form of D phi at the base
    point.
    """
    eye = np.eye(n)

    def _phi_parts(pts, order):
        # phi and D phi, and D^2 phi when order is 2
        r = np.linalg.norm(pts, axis=-1)
        r = np.maximum(r, 1e-300)
        c0, c1, c2 = profile.jet(r)
        if order == 1:
            dc = _radial_jets(pts, r, c1)
        else:
            dc, d2c = _radial_jets(pts, r, c1, c2)
        phi = c0[:, None] * pts
        dphi = eye[None] * c0[:, None, None] + pts[:, :, None] * dc[:, None, :]
        if order == 1:
            return phi, dphi
        d2phi = (eye[None, :, :, None] * dc[:, None, None, :]
                 + eye[None, :, None, :] * dc[:, None, :, None]
                 + pts[:, :, None, None] * d2c[:, None, :, :])
        return phi, dphi, d2phi

    def forward(x):
        pts, single = _batch(x)
        cur = pts.copy()
        for _ in range(60):
            phi, dphi = _phi_parts(cur, 1)
            res = cur + phi - pts
            if np.max(np.abs(res)) < 1e-14 * max(1.0, np.max(np.abs(pts))):
                break
            M = eye[None] + dphi
            cur = cur - np.linalg.solve(M, res[..., None])[..., 0]
        else:
            raise RuntimeError("perturbation inverse did not converge")
        return _unbatch(cur, single)

    def jacobian(base):
        pts, single = _batch(base)
        _, dphi = _phi_parts(pts, 1)
        J = np.linalg.inv(eye[None] + dphi)
        return _unbatch(J, single)

    def d_jacobian(base):
        pts, single = _batch(base)
        _, dphi, d2phi = _phi_parts(pts, 2)
        J = np.linalg.inv(eye[None] + dphi)
        # d_b J^i_a = -J^i_p (d_s d_q phi^p) J^q_a J^s_b
        dJ = -np.einsum('xip,xpqs,xqa,xsb->xiab', J, d2phi, J, J,
                        optimize=True)
        return _unbatch(dJ, single)

    return CoordinateChange(forward=forward, jacobian=jacobian,
                            d_jacobian=d_jacobian, decay=decay,
                            name="perturbation")


def pushforward(g, c):
    """The metric g expressed in the new coordinates of a CoordinateChange.

    ghat_ab(xhat) = J^i_a J^j_b g_ij(psi(xhat)); the first derivative is
    assembled by the chain rule, and the curvature pulled back from g's:
    Rhat_abcd = J^i_a J^j_b J^k_c J^l_d R_ijkl(psi(xhat)), on pairs
    Rhat = L^T R L with L the second exterior power of J.  The declared
    decay is the slower of g's and the change's.  Each evaluator solves
    for the base point psi(xhat) once and hands it to the Jacobians.
    """
    n = g.n

    def eval_g(x):
        pts, single = _batch(x)
        base = c.forward(pts)
        J = c.jacobian(base)
        gv = g.eval_g(base)
        out = np.einsum('xia,xij,xjb->xab', J, gv, J, optimize=True)
        return _unbatch(out, single)

    def eval_dg(x):
        pts, single = _batch(x)
        base = c.forward(pts)
        J = c.jacobian(base)
        dJ = c.d_jacobian(base)
        gv = g.eval_g(base)
        dgv = g.eval_dg(base)
        out = (np.einsum('xiac,xij,xjb->xabc', dJ, gv, J, optimize=True)
               + np.einsum('xia,xij,xjbc->xabc', J, gv, dJ, optimize=True)
               + np.einsum('xia,xijs,xsc,xjb->xabc', J, dgv, J, J,
                           optimize=True))
        return _unbatch(out, single)

    def eval_curvature(pts):
        base = c.forward(pts)
        J = c.jacobian(base)
        L = pair_product(J, J)
        return L.swapaxes(1, 2) @ g.eval_curvature(base) @ L

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=min(g.tau, c.decay),
                       name=f"pushforward({g.name},{c.name})",
                       eval_curvature=(None if g.eval_curvature is None
                                       else eval_curvature))


def from_g_only(n, eval_g_batched, tau, name="fd-metric"):
    """Adapter: build a MetricField from a bare batched g evaluator.

    dg is a central finite difference on the tight step.  The metric has
    no curvature hook, so riemann raises ValueError on it.
    """
    def eval_dg(x):
        pts, single = _batch(x)
        return _unbatch(central_difference(eval_g_batched, pts,
                                           fd_step_first(pts)), single)

    def eval_g(x):
        pts, single = _batch(x)
        return _unbatch(eval_g_batched(pts), single)

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=tau, name=name)
