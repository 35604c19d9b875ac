"""Flux integrands and extrapolated mass limits.

Each mass is the r -> infinity limit of a normalized surface flux over
coordinate spheres:

    m_1  : (1/(2(n-1) omega)) int (g_ij,i - g_ii,j) nu_j dS
    m_2  : c2(n) int P^{ijkl} d_l g_jk nu_i dS
    m_k  : c(n,k) int P_(k)^{ijml} d_l g_jm nu_i dS
    EGB  : (1/(2(n-1) omega)) int {(g_ij,j - g_jj,i)
                                   + 2 alpha P^{ijkl} g_jk,l} nu_i dS

with ordinary partial derivatives of the metric components throughout.
The limit is extrapolated from a geometric radius schedule by fitting a
power-law residual; when a single power law cannot represent the tail,
a saturating profile m (1 + c r^-s)^-p is fitted instead and the model
choice is reported.  Both fits solve for their linear coefficients in
closed form and search only the nonlinear parameters (variable
projection, Golub & Pereyra 2003) with one Levenberg-Marquardt search
(More 1978, the MINPACK algorithm) written in numpy.
"""

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import curvature, metrics, quadrature

__all__ = [
    "FluxSeries",
    "MassEstimate",
    "ck_constant",
    "default_radii",
    "default_level",
    "flux",
    "mass",
    "extrapolate_limit",
    "spherically_symmetric_mass",
    "invariance_check",
    "flux_series_csv",
    "mass_estimate_dict",
]

# curvature bundles per chunk of this many sphere nodes: the GBC flux on
# 8192 nodes at n = 6 took 0.17 s in 512-node chunks and 0.31 s in
# 2048-node ones, with one BLAS thread
_CHUNK = 512
_KINDS = ("adm", "gbc", "mk", "egb")
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def ck_constant(n, k):
    """Normalization of the order-k mass flux; c(n,1) and c(n,2) reduce
    to the first- and second-order constants."""
    return math.factorial(n - 2 * k) / (
        2.0 ** (k - 1) * math.factorial(n - 1) * quadrature.sphere_volume(n))


def _checked_radii(radii):
    """The radii as a float array; ValueError unless there are at least 4,
    all positive and strictly increasing."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or len(r) < 4 or not (np.all(r > 0) and np.all(np.diff(r) > 0)):
        raise ValueError("need at least 4 positive, strictly increasing "
                         f"radii, got {r.tolist()}")
    return r


@dataclass(frozen=True)
class FluxSeries:
    """Finite flux samples on at least 4 positive, strictly increasing
    sphere radii, both held as float arrays."""

    radii: np.ndarray
    flux: np.ndarray
    integrand_id: str

    def __post_init__(self):
        r = _checked_radii(self.radii)
        f = np.asarray(self.flux, dtype=float)
        if f.shape != r.shape:
            raise ValueError("radii and flux lengths differ")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"flux samples must be finite, got {f.tolist()}")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "flux", f)


@dataclass(frozen=True)
class MassEstimate:
    """Extrapolated flux limit with fit diagnostics."""

    value: float
    fit_exponent: float
    residual: float
    samples: FluxSeries
    model: str = "power-law"
    warning: bool = False


def default_radii(r0=20.0, ratio=2.0, count=4):
    """Geometric radius schedule r0 * ratio^j, increasing from r0 > 0."""
    if not (r0 > 0 and ratio > 1):
        raise ValueError(f"radius schedule needs r0 > 0 and ratio > 1, "
                         f"got r0={r0!r}, ratio={ratio!r}")
    return r0 * ratio ** np.arange(count)


def default_level(n):
    """Default sphere-rule level by dimension (node-count control)."""
    if n <= 6:
        return 6
    if n == 7:
        return 4
    return 3


def _rule_for(n, rule):
    """The given sphere rule, or the default-level rule on S^(n-1)."""
    return rule if rule is not None else quadrature.sphere_rule(n, default_level(n))


def _chunked(fun, pts, chunk=_CHUNK):
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        out[lo:lo + chunk] = fun(pts[lo:lo + chunk])
    return out


def _check_kind(kind, n, k):
    """Raise ValueError for an unknown kind, or for an order-k mass
    outside 1 <= k < n/2, before any flux is integrated."""
    if kind not in _KINDS:
        raise ValueError(f"unknown mass kind {kind!r}")
    if kind == "mk" and not 1 <= k < n / 2:
        raise ValueError(f"require 1 <= k < n/2, got k={k}, n={n}")


def _adm_density(dg, nu):
    """(g_ij,i - g_ii,j) nu_j at each node."""
    return (np.einsum('xiji,xj->x', dg, nu)
            - np.einsum('xiij,xj->x', dg, nu))


def _integrand(kind, g, r, k, alpha):
    """Batched flux integrand of one mass kind on the sphere of radius r.

    Each chunk builds one curvature bundle and shares it between the
    flux vector P^{ijml} d_l g_jm and the metric derivatives.
    """
    def piece(p):
        nu = p / r
        if kind == "adm":
            return _adm_density(g.eval_dg(p), nu)
        bund = curvature.riemann(g, p)
        if kind == "mk":
            Y = curvature.p_tensor_general(k, g, p, bund=bund, flux=True)
        else:
            Y = curvature.p_tensor(g, p, bund=bund, flux=True)
        pk = np.einsum('xi,xi->x', Y, nu)
        if kind == "egb":
            return _adm_density(bund.dg, nu) + 2.0 * alpha * pk
        return pk

    return lambda pts: _chunked(piece, pts)


def flux(kind, g, r, rule=None, *, k=2, alpha=0.0):
    """Normalized flux of one mass kind through the sphere of radius r.

    kind is "adm", "gbc" (second order), "mk" (order k) or "egb"
    (first order plus 2 alpha times the second-order integrand).
    """
    _check_kind(kind, g.n, k)
    rule = _rule_for(g.n, rule)
    raw = quadrature.surface_integral(_integrand(kind, g, r, k, alpha),
                                      r, rule)
    n = g.n
    if kind == "gbc":
        return ck_constant(n, 2) * raw
    if kind == "mk":
        return ck_constant(n, k) * raw
    return raw / (2.0 * (n - 1) * quadrature.sphere_volume(n))


def mass(kind, g, radii=None, rule=None, *, k=2, alpha=0.0):
    """Extrapolated mass of one kind (see flux) on a radius schedule.

    The second-order mass is defined for n >= 5; in n = 4 the
    normalization degenerates and the flux limit vanishes identically,
    so 0 is returned with a warning.  The order-k mass needs
    1 <= k < n/2.  The kind, the order and the radii are checked before
    any flux is integrated.
    """
    n = g.n
    _check_kind(kind, n, k)
    radii = _checked_radii(default_radii() if radii is None else radii)
    if kind == "gbc" and n == 4:
        warnings.warn("the second-order mass vanishes identically in n=4")
        samples = FluxSeries(radii=radii, flux=np.zeros(len(radii)),
                             integrand_id="gbc[n=4]")
        return MassEstimate(value=0.0, fit_exponent=float("inf"),
                            residual=0.0, samples=samples, model="degenerate")
    rule = _rule_for(n, rule)
    integrand_id = {"adm": f"adm[n={n}]", "gbc": f"gbc[n={n}]",
                    "mk": f"m{k}[n={n}]",
                    "egb": f"egb[n={n},alpha={alpha}]"}[kind]
    vals = [flux(kind, g, r, rule, k=k, alpha=alpha) for r in radii]
    return extrapolate_limit(FluxSeries(radii=radii, flux=vals,
                                        integrand_id=integrand_id))


def _projection(basis, y, q):
    """Residual Phi c - y at the least-squares c of the basis Phi(q), its
    Jacobian in q and c, or None where the basis is invalid or singular.

    basis(q) gives Phi (N, L) and its derivatives dPhi (P, N, L), or None.
    With G = Phi^T Phi the Jacobian is P_perp dPhi c - Phi G^-1 dPhi^T res
    (Golub & Pereyra, Inverse Problems 19, 2003)."""
    parts = basis(q)
    if parts is None:
        return None
    Phi, dPhi = parts
    G = Phi.T @ Phi
    try:
        # a 1 x 1 Gram matrix is inverted without the LAPACK call
        Gi = 1.0 / G if G.size == 1 else np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return None
    coef = Gi @ (Phi.T @ y)
    res = Phi @ coef - y
    if not math.isfinite(res.sum()):
        return None
    A = (dPhi @ coef).T
    jac = A - Phi @ (Gi @ (Phi.T @ A + (res @ dPhi).T))
    if not math.isfinite(jac.sum()):
        jac = np.where(np.isfinite(jac), jac, 0.0)
    return res, jac, coef


def _lm_parameter(lam, sg, delta, par):
    """More's Levenberg-Marquardt parameter par >= 0 and step w, in the
    right singular basis of the scaled Jacobian S (squared singular values
    lam, sg = S U^T res), with |w| within 10% of the trust radius delta
    unless the Gauss-Newton step (par = 0) fits inside it."""
    def step(par):
        # w(par), |w| and w^T (S^T S + par)^-1 w / |w|^2
        w, norm2, curv = [], 0.0, 0.0
        for v, b in zip(lam, sg):
            d = v + par
            x = -b / d if d > 0 else 0.0
            w.append(x)
            norm2 += x * x
            curv += x * x / d if d > 0 else 0.0
        return w, math.sqrt(norm2), curv / norm2 if norm2 else 0.0

    w, norm, curv = step(0.0)
    fp = norm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    # Newton iteration on |w(par)| = delta within safeguards [lo, hi]
    lo = fp / delta / curv if min(lam) > 0 else 0.0
    gnorm = math.sqrt(sum(b * b for b in sg))
    hi = gnorm / delta or _TINY / min(delta, 0.1)
    par = min(max(par, lo), hi) or gnorm / norm
    for it in range(1, 11):
        par = par or max(_TINY, 0.001 * hi)
        w, norm, curv = step(par)
        prev, fp = fp, norm - delta
        if abs(fp) <= 0.1 * delta or (lo == 0 and fp <= prev < 0) or it == 10:
            return par, w
        if fp > 0:
            lo = max(lo, par)
        else:
            hi = min(hi, par)
        par = max(lo, par + fp / delta / curv)


def _varpro_fit(basis, y, q0, max_nfev, tol=1e-8):
    """Variable-projection Levenberg-Marquardt fit of y ~ Phi(q) c.

    The linear coefficients c are the least-squares ones at each q
    (_projection), so the search runs over q alone.  The search is More's
    scaled trust-region Levenberg-Marquardt (More, The Levenberg-Marquardt
    algorithm: implementation and theory, LNM 630, 1978) with the MINPACK
    defaults: initial radius 100 |D q0|, column-norm scaling D, and
    ftol = xtol = gtol = tol.  Returns (q, residual, c); a start where the
    basis is invalid raises ValueError.
    """
    q = np.array(q0, dtype=float)
    with np.errstate(all="ignore"):
        cur = _projection(basis, y, q)
        if cur is None:
            raise ValueError(f"fit basis invalid at the start {q0!r}")
        f, J, coef = cur
        fnorm = math.sqrt(f @ f)
        nfev, par, diag, first = 1, 0.0, None, True
        while True:
            cn = np.sqrt(np.einsum('ij,ij->j', J, J))
            if diag is None:
                diag = np.where(cn == 0, 1.0, cn)
                xnorm = math.sqrt((diag * q) @ (diag * q))
                delta = 100.0 * xnorm or 100.0
            if fnorm == 0 or (np.abs(J.T @ f) <= tol * fnorm * cn).all():
                return q, f, coef
            diag = np.maximum(diag, cn)
            U, sv, Vt = np.linalg.svd(J / diag, full_matrices=False)
            lam, sg = (sv * sv).tolist(), (sv * (U.T @ f)).tolist()
            while True:
                par, w = _lm_parameter(lam, sg, delta, par)
                pnorm = math.sqrt(sum(x * x for x in w))
                if first:
                    delta = min(delta, pnorm)
                trial = q + np.dot(w, Vt) / diag
                new = _projection(basis, y, trial)
                nfev += 1
                fnorm1 = math.sqrt(new[0] @ new[0]) if new else math.inf
                # actual and predicted reductions of |f|^2, relative
                actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
                t1 = math.sqrt(sum(v * x * x for v, x in zip(lam, w))) / fnorm
                t2 = math.sqrt(par) * pnorm / fnorm
                prered, dirder = t1 * t1 + 2.0 * t2 * t2, -(t1 * t1 + t2 * t2)
                ratio = actred / prered if prered != 0 else 0.0
                if ratio <= 0.25:
                    t = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                    if 0.1 * fnorm1 >= fnorm or t < 0.1:
                        t = 0.1
                    delta, par = t * min(delta, pnorm / 0.1), par / t
                elif par == 0 or ratio >= 0.75:
                    delta, par = 2.0 * pnorm, 0.5 * par
                if ratio >= 1e-4:
                    q, (f, J, coef), fnorm = trial, new, fnorm1
                    xnorm = math.sqrt((diag * q) @ (diag * q))
                    first = False
                for eps in (tol, _EPS):
                    if (abs(actred) <= eps and prered <= eps and ratio <= 2.0
                            or delta <= eps * xnorm):
                        return q, f, coef
                if nfev >= max_nfev:
                    return q, f, coef
                if ratio >= 1e-4:
                    break


def _best_fit(basis, y, starts, max_nfev, tol=0.0):
    """(q, c, max residual) of the best _varpro_fit over starts in order,
    skipping a start where the basis is invalid (None if all are); a later
    fit wins only with a strictly smaller residual, and one <= tol stops
    the search (a zero residual cannot be beaten)."""
    best = None
    for q0 in starts:
        try:
            q, res, coef = _varpro_fit(basis, y, q0, max_nfev=max_nfev)
        except ValueError:
            continue
        res = float(np.max(np.abs(res)))
        if best is None or res < best[2]:
            best = (q, coef, res)
        if res <= tol:
            break
    return best


def _fit_power_law(r, f):
    """Best fit of f ~ m + a r^-s, s in [1e-3, 50]; returns (m, a, s,
    maxresidual).  Raises ValueError when the basis r^-s is invalid at
    every start, e.g. when it underflows at huge radii."""
    d = np.diff(f)
    s0 = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = d[1:] / d[:-1]
        lr = np.log(r[1:] / r[:-1])
        cand = -np.log(np.abs(rho)) / lr[:-1]
        cand = cand[np.isfinite(cand) & (cand > 0)]
    if len(cand):
        # the median by hand: np.median imports numpy.ma on first use
        c = np.sort(cand)
        s0 = float(c[(len(c) - 1) // 2] + c[len(c) // 2]) / 2.0
    log_r = np.log(r)

    def basis(q):
        # s is clipped to its bounds, where the basis stops moving
        s = min(max(q[0], 1e-3), 50.0)
        t = r ** -s
        dt = -log_r * t if s == q[0] else np.zeros_like(t)
        return (np.column_stack([np.ones_like(r), t]),
                np.column_stack([np.zeros_like(t), dt])[None])

    best = _best_fit(basis, f, [[s] for s in {s0, 1.0, 2.0, 4.0}
                                if 1e-3 <= s <= 50.0], max_nfev=100)
    if best is None:
        raise ValueError(f"no power-law fit r^-s of the flux series on "
                         f"radii {r.tolist()}: the basis is invalid at "
                         f"every start")
    q, coef, res = best
    return coef[0], coef[1], min(max(q[0], 1e-3), 50.0), res


def _fit_saturating(r, f, s_hint):
    """Best fit of f ~ m (1 + c r^-s)^-p; returns (m, s, maxres) or None.

    m enters linearly and (c, s, p) go to _varpro_fit.  The starts of a
    fixed grid run in turn until one leaves a residual at round-off; the
    smallest residual wins.
    """
    if np.any(f == 0) or np.min(f) * np.max(f) < 0:
        return None
    sign = np.sign(f[-1])
    fa = sign * f
    log_r = np.log(r)

    def basis(q):
        c, s, pw = q
        t = r ** -s
        base = 1.0 + c * t
        if base.min() <= 0:
            return None
        phi = base ** -pw
        u = pw * phi * t / base
        # d phi / d(c, s, p)
        dphi = np.array([-u, c * log_r * u, -np.log(base) * phi])
        return phi[:, None], dphi[:, :, None]

    starts = [[c0, max(s_hint, 0.05), pw0]
              for pw0, c0 in itertools.product((1.0, 5.0, 20.0), (0.5, -0.5))]
    best = _best_fit(basis, fa, starts, max_nfev=4000,
                     tol=1e-13 * (1.0 + float(np.max(np.abs(f)))))
    if best is None:
        return None
    q, coef, res = best
    return sign * coef[0], float(q[1]), res


def extrapolate_limit(series):
    """Extrapolate the r -> infinity limit of a flux series.

    Fits m + a r^-s first; if that leaves residuals above round-off, a
    saturating power profile is tried as well and the better model wins.
    A constant series, or a fit whose term a r^-s is ~ 0 on the samples
    (|a| r_0^-s at the smallest radius r_0), gives the last value with an
    infinite exponent (model "constant").  Every model sets the warning
    flag when its max residual exceeds 1e-6 (1 + max|f|) or the steps
    between neighbouring samples grow; a series on which no power law can
    be fitted at all raises ValueError.
    """
    r, f = series.radii, series.flux
    scale = 1.0 + float(np.max(np.abs(f)))
    if np.max(f) - np.min(f) <= 1e-13 * scale:
        return MassEstimate(value=float(f[-1]), fit_exponent=float("inf"),
                            residual=float(np.max(f) - np.min(f)),
                            samples=series, model="constant")
    m_a, a_a, s_a, res_a = _fit_power_law(r, f)
    value, expo, resid, model = float(m_a), float(s_a), res_a, "power-law"
    if abs(a_a) * r[0] ** -s_a <= 1e-12 * scale:
        value, expo, model = float(f[-1]), float("inf"), "constant"
    elif res_a > 1e-9 * scale:
        sat = _fit_saturating(r, f, s_a)
        if sat is not None and sat[2] < res_a:
            value, expo, resid, model = float(sat[0]), float(sat[1]), sat[2], "saturating"
    warn = (resid > 1e-6 * scale
            or bool(np.any(np.diff(np.abs(np.diff(f))) > 1e-12 * scale)))
    return MassEstimate(value=value, fit_exponent=expo, residual=resid,
                        samples=series, model=model, warning=warn)


def spherically_symmetric_mass(u, n, radii=None):
    """Second-order mass of g = e^(-2u(r)) delta via the radial shortcut.

    The flux of such a metric reduces to r^(n-2) u'(r)^2, whose limit is
    extrapolated on the standard schedule.
    """
    radii = default_radii(count=6) if radii is None else np.asarray(radii, float)
    vals = radii ** (n - 2) * u.d1(radii) ** 2
    series = FluxSeries(radii=radii, flux=vals,
                        integrand_id=f"radial-m2[n={n}]")
    return extrapolate_limit(series)


def invariance_check(g, c, k, radii=None, rule=None):
    """Masses of g and of its pushforward under a coordinate change.

    Returns (estimate, estimate_pushforward, delta).
    """
    rule = _rule_for(g.n, rule)
    est = mass("mk", g, radii, rule, k=k)
    ghat = metrics.pushforward(g, c)
    est_hat = mass("mk", ghat, radii, rule, k=k)
    return est, est_hat, est_hat.value - est.value


def flux_series_csv(series):
    """CSV text (columns r, flux) with an integrand header comment."""
    buf = io.StringIO()
    buf.write(f"# integrand={series.integrand_id}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r", "flux"])
    for r, fl in zip(series.radii, series.flux):
        writer.writerow([repr(float(r)), repr(float(fl))])
    return buf.getvalue()


def mass_estimate_dict(est):
    """JSON-ready dict of a MassEstimate (17 significant digits)."""
    return {
        "value": float(est.value),
        "fit_exponent": float(est.fit_exponent),
        "residual": float(est.residual),
        "model": est.model,
        "warning": bool(est.warning),
        "samples": [{"r": float(r), "flux": float(f)}
                    for r, f in zip(est.samples.radii, est.samples.flux)],
        "integrand": est.samples.integrand_id,
    }
