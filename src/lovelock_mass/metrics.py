"""Closed-form metric families and their pointwise derivative evaluators.

Every metric is presented in a single Cartesian chart on (a subset of)
R^n.  Rotationally symmetric families A(rho) drho^2 + rho^2 dTheta^2
are realized through x = rho * omega, which turns them into
g_ij = delta_ij + (A(r) - 1) x_i x_j / r^2.

Evaluator conventions
---------------------
Evaluators take a point (n,) or a batch (B, n), and raise ValueError on
more leading axes.  g has shape (..., n, n) and dg (..., n, n, n) with
the derivative index last (dg[..., i, j, k] = d_k g_ij); ... is () or
(B,).  Every family gives its curvature in closed form by
eval_curvature, (B, n) -> R_ijkl of shape (B, n, n, n, n); only the
from_g_only adapter has none.  No metric has a second or third
derivative evaluator: eval_d2g and eval_d3g are None throughout.
"""

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import sympy as sp

__all__ = [
    "DomainError",
    "MetricField",
    "CoordinateChange",
    "RadialProfile",
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
    derivative_provenance : "analytic" when dg and the curvature come
        from closed forms, "finite-difference" otherwise
    name : short identifier used in reports
    eval_curvature : closed form (B, n) -> R_ijkl in the CurvatureBundle
        layout, the only source of curvature riemann reads; None only
        for from_g_only, on which riemann raises ValueError
    """

    n: int
    eval_g: Callable
    eval_dg: Callable
    eval_d2g: Optional[Callable]
    eval_d3g: Optional[Callable]
    tau: float
    derivative_provenance: str = "analytic"
    name: str = "metric"
    eval_curvature: Optional[Callable] = None


@dataclass(frozen=True)
class CoordinateChange:
    """A diffeomorphism given by the inverse map psi: xhat -> x.

    forward evaluates psi, jacobian its derivative d psi^i / d xhat^a
    (layout [..., i, a]), d_jacobian the second derivative with layout
    [..., i, a, b].  Both derivatives take the base point psi(xhat) as
    an optional base= when the caller has it already.  decay is the
    decay order of phi in xhat = x + phi.
    """

    n: int
    forward: Callable
    jacobian: Callable
    d_jacobian: Callable
    decay: float
    name: str = "change"


class RadialProfile:
    """A scalar profile c(r) with derivatives to second order.

    Constructed from a sympy expression in a single symbol, or from text
    in a positive symbol r; derivatives are generated symbolically and
    lambdified once.
    """

    def __init__(self, expr, symbol=None):
        if isinstance(expr, str):
            symbol = sp.Symbol("r", positive=True)
            expr = sp.sympify(expr, locals={"r": symbol})
            if expr.free_symbols - {symbol}:
                raise ValueError("profile text must be an expression in r, "
                                 f"got {str(expr)!r}")
        if symbol is None:
            free = sorted(expr.free_symbols, key=str) if hasattr(expr, "free_symbols") else []
            if len(free) > 1:
                raise ValueError("profile expression must have one free symbol")
            symbol = free[0] if free else sp.Symbol("r", positive=True)
        expr = sp.sympify(expr)
        self.expr = expr
        self.symbol = symbol
        ds = [expr]
        for _ in range(2):
            ds.append(sp.diff(ds[-1], symbol))
        self._fns = [sp.lambdify(symbol, d, modules="numpy") for d in ds]

    def _eval(self, order, r):
        r = np.asarray(r, dtype=float)
        out = self._fns[order](r)
        return np.broadcast_to(np.asarray(out, dtype=float), r.shape).copy()

    def __call__(self, r):
        return self._eval(0, r)

    def d1(self, r):
        return self._eval(1, r)

    def d2(self, r):
        return self._eval(2, r)


def _radial_jets(pts, r, d1, d2):
    """Yield dc[...,k] and d2c[...,k,l] of c(|x|) at batched points from
    the radial derivative functions d1, d2 of c, each only when asked
    for: a caller that needs dc alone does not evaluate c''."""
    u = pts / r[:, None]
    c1 = d1(r)
    yield c1[:, None] * u
    P = np.eye(pts.shape[-1])[None] - u[:, :, None] * u[:, None, :]
    c2 = d2(r)
    yield c2[:, None, None] * u[:, :, None] * u[:, None, :] + (c1 / r)[:, None, None] * P


def _scalar_radial_derivatives(profile, pts, r, order):
    """Cartesian derivatives up to the given order (1 or 2) of c(|x|)
    at batched points.

    Returns (c, dc[...,k], d2c[...,k,l]) cut after order.
    """
    jets = _radial_jets(pts, r, profile.d1, profile.d2)
    return (profile(r),) + tuple(itertools.islice(jets, order))


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
        _, da = _scalar_radial_derivatives(a_profile, pts, r, 1)
        out = eye[None, :, :, None] * da[:, None, None, :]
        if b_profile is not None:
            b0, db = _scalar_radial_derivatives(b_profile, pts, r, 1)
            xx = pts[:, :, None] * pts[:, None, :]
            # d_k (x_i x_j) = delta_ik x_j + delta_jk x_i
            d1xx = (eye[None, :, None, :] * pts[:, None, :, None]
                    + eye[None, None, :, :] * pts[:, :, None, None])
            out = out + xx[:, :, :, None] * db[:, None, None, :] + b0[:, None, None, None] * d1xx
        return _unbatch(out, single)

    def eval_curvature(pts):
        # A dr^2 + phi^2 dTheta^2 with A = a + b r^2, phi = r sqrt(a) has
        # sectional curvature K_rad on planes holding nu = x/r and K_tan
        # on planes tangent to the spheres, so R = delta o M with
        # M = alpha delta + beta nu nu^T (o: Kulkarni-Nomizu product)
        pts, _, r = _parts(pts)
        a, a1, a2 = a_profile(r), a_profile.d1(r), a_profile.d2(r)
        b, b1 = ((b_profile(r), b_profile.d1(r)) if b_profile is not None
                 else (np.zeros_like(r), np.zeros_like(r)))
        A = a + b * r ** 2
        dA = a1 + b1 * r ** 2 + 2.0 * b * r
        s = np.sqrt(a)
        phi, dphi = r * s, s + r * a1 / (2.0 * s)
        d2phi = a1 / s + r * (a2 / (2.0 * s) - a1 ** 2 / (4.0 * a * s))
        k_rad = -(d2phi / A - dphi * dA / (2.0 * A ** 2)) / phi
        # (1 - phi'^2 / A) / phi^2 without the cancellation of 1 - phi'^2/A
        k_tan = (b - a1 / r - a1 ** 2 / (4.0 * a)) / (a * A)
        alpha = k_tan * a ** 2 / 2.0
        beta = k_tan * a * b * r ** 2 + (k_rad - k_tan) * a * A
        nu = pts / r[:, None]
        M = (alpha[:, None, None] * eye
             + beta[:, None, None] * nu[:, :, None] * nu[:, None, :])
        # T = delta_ik M_jl, then + delta_jl M_ik, then R = T - T[k <-> l];
        # rebinding keeps at most two (B, n, n, n, n) arrays alive
        T = eye[None, :, None, :, None] * M[:, None, :, None, :]
        T = T + T.transpose(0, 2, 1, 4, 3)
        return T - T.swapaxes(3, 4)

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=tau, derivative_provenance="analytic", name=name,
                       eval_curvature=eval_curvature)


def _const_profile(value):
    r = sp.Symbol("r", positive=True)
    return RadialProfile(sp.Float(value) + 0 * r, r)


def euclidean(n):
    """The flat metric on R^n."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(n)

    def eval_g(x):
        pts, single = _batch(x)
        return _unbatch(np.broadcast_to(eye, (len(pts), n, n)).copy(), single)

    def _zeros(extra):
        def ev(x):
            pts, single = _batch(x)
            return _unbatch(np.zeros((len(pts),) + (n,) * extra), single)
        return ev

    return MetricField(n=n, eval_g=eval_g, eval_dg=_zeros(3),
                       eval_d2g=None, eval_d3g=None,
                       tau=TAU_INFINITE, name="euclidean",
                       eval_curvature=_zeros(4))


def schwarzschild_family(k, n, m, chart="conformal"):
    """Static spherically symmetric metric with mass-power parameter m.

    In the rho chart: (1 - 2m/rho^(n/k-2))^(-1) drho^2 + rho^2 dTheta^2,
    realized in Cartesian components.  In the conformal chart:
    (1 + m/(2 r^(n/k-2)))^(4k/(n-2k)) * delta.  Negative m is accepted
    wherever the metric stays positive definite.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k < n / 2):
        raise ValueError("require integer 1 <= k < n/2")
    q = sp.Rational(n, k) - 2
    qf = n / k - 2.0
    r = sp.Symbol("r", positive=True)
    if chart == "conformal":
        phi = 1 + sp.Rational(1, 2) * m / r ** q
        a = phi ** sp.Rational(4 * k, n - 2 * k)
        r_min = 0.0 if m >= 0 else float((-m / 2) ** (1 / qf))
        return radial_metric(n, RadialProfile(a, r), None, tau=qf,
                             r_min=r_min,
                             name=f"schwarzschild(k={k},n={n},m={m},conformal)")
    if chart == "rho":
        A = (1 - 2 * m / r ** q) ** (-1)
        b = (A - 1) / r ** 2
        r_min = 0.0 if m <= 0 else float((2 * m) ** (1 / qf))

        def domain_check(rv):
            # positive-definite radial direction: A > 0
            return 1 - 2 * m * rv ** (-qf) > 0

        return radial_metric(n, _const_profile(1.0), RadialProfile(b, r),
                             tau=qf, r_min=r_min, domain_check=domain_check,
                             name=f"schwarzschild(k={k},n={n},m={m},rho)")
    raise ValueError(f"unknown chart {chart!r}; use 'rho' or 'conformal'")


def schwarzschild_conformal_profile(k, n, m):
    """The radial exponent u with e^(-2u) delta equal to the conformal chart.

    Defined by u = -(2k/(n-2k)) * log(1 + m/(2 r^(n/k-2))).
    """
    r = sp.Symbol("r", positive=True)
    q = sp.Rational(n, k) - 2
    u = -sp.Rational(2 * k, n - 2 * k) * sp.log(1 + sp.Rational(1, 2) * m / r ** q)
    return RadialProfile(u, r)


def conformal_radial(n, u):
    """Conformally flat metric g = e^(-2u(r)) delta from a radial exponent.

    u may be a RadialProfile, a sympy expression in one symbol or text
    in r.
    """
    if not isinstance(u, RadialProfile):
        u = RadialProfile(u)
    a = sp.exp(-2 * u.expr)
    # decay read off from the profile is the caller's business; assume the
    # exponent itself decays like r^-tau with tau unknown: keep a sentinel
    # unless the caller wraps the result.
    return radial_metric(n, RadialProfile(a, u.symbol), None,
                         tau=np.nan, name="conformal-radial")


def with_tau(g, tau):
    """Copy of a MetricField with the declared decay order replaced."""
    return replace(g, tau=tau)


def graph_metric(f):
    """Induced metric delta + df x df of a graph over flat space.

    f must provide batched grad/hess evaluators (see graphcase).  g and
    dg are assembled from them, and so is the curvature, by the Gauss
    equation with w = 1 + |df|^2: R_ijkl = (f_ik f_jl - f_il f_jk) / w.
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
        # hh[x, i, j, k, l] = f_ik f_jl
        hh = d2f[:, :, None, :, None] * d2f[:, None, :, None, :]
        return (hh - hh.swapaxes(3, 4)) / w[:, None, None, None, None]

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=getattr(f, "tau", np.nan),
                       derivative_provenance="analytic",
                       name=f"graph({getattr(f, 'name', 'f')})",
                       eval_curvature=eval_curvature)


def egb_horizon_radius(n, alpha, m):
    """Largest root r0 of 1 + (r^2/at)(1 - sqrt(1 + 4 at m / r^n)) = 0.

    Here at = 2 (n-2)(n-3) alpha.  Returns 0.0 when the profile has no
    positive root (e.g. m <= 0 or alpha = 0 with m <= 0).
    """
    at = 2.0 * (n - 2) * (n - 3) * alpha
    if at == 0.0:
        return (2.0 * m) ** (1.0 / (n - 2)) if m > 0 else 0.0

    def F(rv):
        # conjugate form of 1 + (r^2/at)(1 - sqrt(1 + 4 at m / r^n)),
        # stable for large r
        y = 4.0 * at * m / rv ** n
        return 1.0 - 4.0 * m / (rv ** (n - 2) * (1.0 + np.sqrt(1.0 + y)))

    if m <= 0:
        return 0.0
    from scipy.optimize import brentq
    lo = 1e-8
    hi = max(1.0, (4.0 * m) ** (1.0 / (n - 2)))
    while F(hi) <= 0:
        hi *= 2.0
    return float(brentq(F, lo, hi, xtol=1e-14, rtol=8.9e-16))


def _egb_one_minus_F(n, alpha, m):
    """Symbol r and 1 - F(r) of the EGB black hole in conjugate form,
    stable for large r."""
    at = 2 * (n - 2) * (n - 3) * sp.nsimplify(alpha, rational=False)
    r = sp.Symbol("r", positive=True)
    return r, 4 * m / (r ** (n - 2) * (1 + sp.sqrt(1 + 4 * at * m / r ** n)))


def egb_blackhole(n, alpha, m):
    """Static Gauss-Bonnet-corrected black hole metric in the r chart.

    g = F(r)^(-1) dr^2 + r^2 dTheta^2 with
    F = 1 + (r^2/at)(1 - sqrt(1 + 4 at m / r^n)), at = 2(n-2)(n-3) alpha.
    alpha = 0 falls back to the k=1 member of schwarzschild_family.
    """
    if alpha == 0.0:
        return schwarzschild_family(1, n, m, chart="rho")
    r, G = _egb_one_minus_F(n, alpha, m)
    F = 1 - G
    b = G / (F * r ** 2)
    r0 = egb_horizon_radius(n, alpha, m)
    return radial_metric(n, _const_profile(1.0), RadialProfile(b, r),
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

    def jacobian(x, base=None):
        pts, single = _batch(x)
        return _unbatch(np.broadcast_to(Q, (len(pts), n, n)).copy(), single)

    def d_jacobian(x, base=None):
        pts, single = _batch(x)
        return _unbatch(np.zeros((len(pts), n, n, n)), single)

    return CoordinateChange(n=n, forward=forward, jacobian=jacobian,
                            d_jacobian=d_jacobian, decay=TAU_INFINITE,
                            name="rotation")


def radial_decay_profile(eps, tau_phi):
    """Profile c(r) = eps * (1 + r^2)^(-tau_phi/2) for perturbation maps."""
    r = sp.Symbol("r", positive=True)
    return RadialProfile(eps * (1 + r ** 2) ** (-sp.nsimplify(tau_phi) / 2), r)


def perturbation_change(n, profile, decay):
    """Coordinate change xhat = x + phi(x) with phi^i = x^i c(|x|).

    The inverse map psi is evaluated by Newton iteration; the Jacobian
    and its derivative come from the closed form of D phi at the base
    point, which they solve for only when not given it.
    """
    eye = np.eye(n)

    def _phi_parts(pts, order):
        # phi and D phi, and D^2 phi when order is 2
        r = np.linalg.norm(pts, axis=-1)
        r = np.maximum(r, 1e-300)
        c0, dc, *d2c = _scalar_radial_derivatives(profile, pts, r, order)
        phi = c0[:, None] * pts
        dphi = eye[None] * c0[:, None, None] + pts[:, :, None] * dc[:, None, :]
        if order == 1:
            return phi, dphi
        d2phi = (eye[None, :, :, None] * dc[:, None, None, :]
                 + eye[None, :, None, :] * dc[:, None, :, None]
                 + pts[:, :, None, None] * d2c[0][:, None, :, :])
        return phi, dphi, d2phi

    def _solved(pts, base):
        return forward(pts) if base is None else _batch(base)[0]

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

    def jacobian(x, base=None):
        pts, single = _batch(x)
        _, dphi = _phi_parts(_solved(pts, base), 1)
        J = np.linalg.inv(eye[None] + dphi)
        return _unbatch(J, single)

    def d_jacobian(x, base=None):
        pts, single = _batch(x)
        _, dphi, d2phi = _phi_parts(_solved(pts, base), 2)
        J = np.linalg.inv(eye[None] + dphi)
        # d_b J^i_a = -J^i_p (d_s d_q phi^p) J^q_a J^s_b
        dJ = -np.einsum('xip,xpqs,xqa,xsb->xiab', J, d2phi, J, J,
                        optimize=True)
        return _unbatch(dJ, single)

    return CoordinateChange(n=n, forward=forward, jacobian=jacobian,
                            d_jacobian=d_jacobian, decay=decay,
                            name="perturbation")


def pushforward(g, c):
    """Metric of g in the coordinates of c (identity passes through)."""
    if c.name == "identity":
        return g
    return _pushforward(g, c)


def _pushforward(g, c):
    """The metric g expressed in the new coordinates of a CoordinateChange.

    ghat_ab(xhat) = J^i_a J^j_b g_ij(psi(xhat)); the first derivative is
    assembled by the chain rule, and the curvature pulled back from g's:
    Rhat_abcd = J^i_a J^j_b J^k_c J^l_d R_ijkl(psi(xhat)).  The declared
    decay is the slower of g's and the change's.  Each evaluator solves
    for the base point psi(xhat) once and hands it to the Jacobians.
    """
    n = g.n

    def eval_g(x):
        pts, single = _batch(x)
        base = c.forward(pts)
        J = c.jacobian(pts, base=base)
        gv = g.eval_g(base)
        out = np.einsum('xia,xij,xjb->xab', J, gv, J, optimize=True)
        return _unbatch(out, single)

    def eval_dg(x):
        pts, single = _batch(x)
        base = c.forward(pts)
        J = c.jacobian(pts, base=base)
        dJ = c.d_jacobian(pts, base=base)
        gv = g.eval_g(base)
        dgv = g.eval_dg(base)
        out = (np.einsum('xiac,xij,xjb->xabc', dJ, gv, J, optimize=True)
               + np.einsum('xia,xij,xjbc->xabc', J, gv, dJ, optimize=True)
               + np.einsum('xia,xijs,xsc,xjb->xabc', J, dgv, J, J,
                           optimize=True))
        return _unbatch(out, single)

    def eval_curvature(pts):
        base = c.forward(pts)
        J = c.jacobian(pts, base=base)
        R = g.eval_curvature(base)
        return np.einsum('xia,xjb,xkc,xld,xijkl->xabcd', J, J, J, J, R,
                         optimize=True)

    return MetricField(n=n, eval_g=eval_g, eval_dg=eval_dg,
                       eval_d2g=None, eval_d3g=None,
                       tau=min(g.tau, c.decay),
                       derivative_provenance=g.derivative_provenance,
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
                       tau=tau, derivative_provenance="finite-difference",
                       name=name)
