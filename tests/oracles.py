"""Independent brute-force reference implementations for the tests.

Except where said below, nothing here shares contraction or
differentiation code with the library: deltas are permutation sums,
derivatives are finite-difference stencils applied to metric values
only, L_2 comes from the norm formula with loop-built curvature, and
surface integrals go through an explicit hyperspherical-angle
parametrization with difference-quotient fundamental forms.

sympy_profiles pairs each radial profile factory's RadialProfile with
the same profile as a sympy expression, and sympy_jet differentiates
such an expression symbolically and evaluates it with 50 digits: the
reference for the library's second-order jets.

p_tensor_closed_form is the Ricci-form closed formula for P_(2) on the
library's curvature bundle, the reference for the delta-table tensor;
it reads Ricci from ricci_lowered, the contraction g^{jl} R_ijkl of the
rank-4 tensor, which is the reference for the bundle's Ricci read-off.
christoffel_curvature is the library's former curvature route: R_ijkl
by differentiating the Christoffel symbols, from g, dg and d2g.
christoffel_metric swaps a metric's closed-form curvature for it, given
a d2g evaluator: radial_d2g (the former analytic d2g of radial metrics,
with the profiles radial_profiles captures from a family factory), the
graph d2g of christoffel_graph_metric (third derivatives of f by
central differences of the analytic Hessian), or a central difference
of dg (fd_d2g).

The reference term-table builders are the library's former nested-loop
builders: one Python loop per term, over canonical matchings and
ascending block orderings, sharing only the permutation signs with the
library.  The gather engine at the end is the library's former L_k,
P_(k) and E^(k) engine, the reference for the wedge-power one:
delta-contraction term tables, each term gathered factor by factor out
of the rank-4 R_ab^cd (multiindex.unpair of mixed_pair, the
coordinate curvature operator R_I^J raised here with inv(g), not with
the library's frame) and summed per slot.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import sympy as sp

from lovelock_mass import graphcase, metrics
from lovelock_mass.multiindex import pair_product, relative_sign, unpair

_MAX_BRUTE_ORDER = 5


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def brute_delta(upper, lower):
    """Generalized Kronecker delta by the defining permutation sum.

    Refuses order r > 5: the r! cost is a guard, not a numerical limit.
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("index lists must have equal length")
    r = len(upper)
    if r > _MAX_BRUTE_ORDER:
        raise ValueError(f"brute_delta limited to order {_MAX_BRUTE_ORDER}")
    total = 0
    for sigma in itertools.permutations(range(r)):
        term = 1
        for a in range(r):
            if upper[sigma[a]] != lower[a]:
                term = 0
                break
        if term:
            total += _perm_sign(sigma)
    return total


@dataclass(frozen=True)
class FDConfig:
    """Central-difference steps per derivative order.

    All stencils are second-order accurate, so truncation errors scale
    as step1**2, step2**2 and step3**2 on the respective orders; with
    richardson, first derivatives are refined to fourth order.
    """

    step1: float = 1e-5
    step2: float = 5e-4
    step3: float = 4e-3
    richardson: bool = False

    def __post_init__(self):
        if min(self.step1, self.step2, self.step3) <= 0:
            raise ValueError("steps must be positive")


def _central_d1(fun, x, h, richardson=False):
    n = len(x)
    probe = np.asarray(fun(x[None, :]))[0]
    out = np.empty(probe.shape + (n,))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        d = (fun((x + e)[None, :])[0] - fun((x - e)[None, :])[0]) / (2 * h)
        if richardson:
            d2 = (fun((x + e / 2)[None, :])[0]
                  - fun((x - e / 2)[None, :])[0]) / h
            d = (4.0 * d2 - d) / 3.0
        out[..., k] = d
    return out


def _central_d2(fun, x, h):
    n = len(x)
    f0 = np.asarray(fun(x[None, :]))[0]
    out = np.empty(f0.shape + (n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = h
        out[..., k, k] = (fun((x + ek)[None, :])[0] - 2 * f0
                          + fun((x - ek)[None, :])[0]) / h ** 2
        for l in range(k + 1, n):
            el = np.zeros(n)
            el[l] = h
            mixed = (fun((x + ek + el)[None, :])[0]
                     - fun((x + ek - el)[None, :])[0]
                     - fun((x - ek + el)[None, :])[0]
                     + fun((x - ek - el)[None, :])[0]) / (4 * h ** 2)
            out[..., k, l] = mixed
            out[..., l, k] = mixed
    return out


def fd_metric_derivatives(g, x, config=None):
    """(dg, d2g, d3g) of a metric field from metric values alone.

    Layouts match the library: derivative indices trail the component
    indices.  d3g is the first difference of the second-difference
    field, so its accuracy is the loosest of the three.
    """
    config = config if config is not None else FDConfig()
    x = np.asarray(x, dtype=float)
    dg = _central_d1(g.eval_g, x, config.step1, config.richardson)
    d2g = _central_d2(g.eval_g, x, config.step2)

    def d2_field(pts):
        return np.stack([_central_d2(g.eval_g, p, config.step2) for p in pts])

    d3g = _central_d1(d2_field, x, config.step3)
    return dg, d2g, d3g


def _d1_order4(fun, x, h):
    """Fourth-order first differences of a batched field, one point."""
    n = len(x)
    probe = np.asarray(fun(x[None, :]))[0]
    out = np.zeros(probe.shape + (n,))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        for off, c in _D1_STENCIL:
            out[..., k] += c * np.asarray(fun((x + off * e)[None, :]))[0]
        out[..., k] /= h
    return out


def _loop_christoffel(g, x, h):
    """Gamma^k_ij at one point by loops over FD metric derivatives."""
    n = len(x)
    gx = np.asarray(g.eval_g(x[None, :]))[0]
    ginv = np.linalg.inv(gx)
    dg = _d1_order4(g.eval_g, x, h)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for s in range(n):
                    acc += ginv[k, s] * (dg[s, i, j] + dg[s, j, i]
                                         - dg[i, j, s])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def direct_L2(g, x, h1=1e-3, h2=5e-3):
    """L_2 = |Rm|^2 - 4|Ric|^2 + R^2 with loop-built FD curvature.

    Fourth-order stencils throughout keep the truncation error below
    the 1e-9 cross-check tolerance on smooth metrics.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    gx = np.asarray(g.eval_g(x[None, :]))[0]
    ginv = np.linalg.inv(gx)
    gamma = _loop_christoffel(g, x, h1)
    dgamma = np.zeros((n, n, n, n))  # [k, i, j, l] = d_l Gamma^k_ij
    for l in range(n):
        e = np.zeros(n)
        e[l] = 1.0
        for off, c in _D1_STENCIL:
            dgamma[..., l] += c * _loop_christoffel(g, x + off * h2 * e, h1)
        dgamma[..., l] /= h2
    rm_up = np.zeros((n, n, n, n))  # R^m_{ijk}
    for m in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    val = dgamma[m, j, k, i] - dgamma[m, i, k, j]
                    for s in range(n):
                        val += (gamma[m, i, s] * gamma[s, j, k]
                                - gamma[m, j, s] * gamma[s, i, k])
                    rm_up[m, i, j, k] = val
    rm = np.zeros((n, n, n, n))  # R_{ijkl}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = 0.0
                    for m in range(n):
                        acc += rm_up[m, i, j, l] * gx[m, k]
                    rm[i, j, k, l] = acc
    ric = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            acc = 0.0
            for j in range(n):
                for l in range(n):
                    acc += ginv[j, l] * rm[i, j, k, l]
            ric[i, k] = acc
    scal = 0.0
    for i in range(n):
        for k in range(n):
            scal += ginv[i, k] * ric[i, k]
    rm_sq = 0.0
    for i, j, k, l in itertools.product(range(n), repeat=4):
        up = 0.0
        for a, b, c, d in itertools.product(range(n), repeat=4):
            up += (ginv[i, a] * ginv[j, b] * ginv[k, c] * ginv[l, d]
                   * rm[a, b, c, d])
        rm_sq += up * rm[i, j, k, l]
    ric_sq = 0.0
    for i in range(n):
        for k in range(n):
            up = 0.0
            for a in range(n):
                for c in range(n):
                    up += ginv[i, a] * ginv[k, c] * ric[a, c]
            ric_sq += up * ric[i, k]
    return rm_sq - 4.0 * ric_sq + scal ** 2


# ---------------------------------------------------------------------------
# parametric surface integrals


def _hyperspherical(theta):
    """Unit vectors from angles (N, n-1); angles [0,pi]^(n-2) x [0,2pi)."""
    theta = np.atleast_2d(theta)
    N, d = theta.shape
    n = d + 1
    out = np.empty((N, n))
    sin_prod = np.ones(N)
    for j in range(d - 1):
        out[:, j] = sin_prod * np.cos(theta[:, j])
        sin_prod = sin_prod * np.sin(theta[:, j])
    out[:, n - 2] = sin_prod * np.cos(theta[:, d - 1])
    out[:, n - 1] = sin_prod * np.sin(theta[:, d - 1])
    return out


_D1_STENCIL = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0),
               (1, 8.0 / 12.0), (2, -1.0 / 12.0))
_D2_STENCIL = ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
               (1, 16.0 / 12.0), (2, -1.0 / 12.0))


def _tangent_basis(omega):
    """Orthonormal bases of omega-perp via Householder reflections.

    Returns (N, n, n-1); column a is the a-th basis vector.  The
    reflection maps e_1 to +-omega, so its remaining columns span the
    orthogonal complement exactly.
    """
    omega = np.atleast_2d(omega)
    N, n = omega.shape
    sign = np.where(omega[:, 0] >= 0, 1.0, -1.0)
    v = omega.copy()
    v[:, 0] += sign
    H = np.eye(n)[None] - 2.0 * v[:, :, None] * v[:, None, :] \
        / np.einsum('xi,xi->x', v, v)[:, None, None]
    return H[:, :, 1:]


def _chart_points(surface, omega, basis, u):
    """Embed the local chart c(u) = normalize(omega + basis @ u)."""
    w = omega + np.einsum('xia,xa->xi', basis, u)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return np.asarray(surface.embed(w))


def _chart_jets(surface, omega, basis, h=2e-2):
    """Point, tangents and second derivatives of the chart at u = 0.

    The chart is sphere-orthonormal at the origin, so the parameter
    sphere has unit area element there and every difference quotient is
    well conditioned (no polar degeneracy).
    """
    omega = np.atleast_2d(omega)
    N, n = omega.shape
    d = n - 1
    X = _chart_points(surface, omega, basis, np.zeros((N, d)))
    T = np.zeros((N, d, n))
    S = np.zeros((N, d, d, n))
    for a in range(d):
        e = np.zeros(d)
        e[a] = 1.0
        for off, c in _D1_STENCIL:
            T[:, a, :] += c * _chart_points(surface, omega, basis,
                                            np.tile(off * h * e, (N, 1)))
        T[:, a, :] /= h
        for off, c in _D2_STENCIL:
            S[:, a, a, :] += c * _chart_points(surface, omega, basis,
                                               np.tile(off * h * e, (N, 1)))
        S[:, a, a, :] /= h ** 2
        for b in range(a + 1, d):
            eb = np.zeros(d)
            eb[b] = 1.0
            acc = np.zeros((N, n))
            for o1, c1 in _D1_STENCIL:
                for o2, c2 in _D1_STENCIL:
                    acc += c1 * c2 * _chart_points(
                        surface, omega, basis,
                        np.tile((o1 * e + o2 * eb) * h, (N, 1)))
            acc /= h ** 2
            S[:, a, b, :] = acc
            S[:, b, a, :] = acc
    return X, T, S


def _fundamental_forms(surface, omega, basis, h=2e-2):
    """First/second fundamental forms and outward normal at directions."""
    X, T, S = _chart_jets(surface, omega, basis, h=h)
    G = np.einsum('xai,xbi->xab', T, T)
    if np.linalg.det(G).min() < 1e-12:
        raise ValueError("degenerate embedding (singular metric)")
    _, _, vt = np.linalg.svd(T)
    nu = vt[:, -1, :]
    sign = np.sign(np.einsum('xi,xi->x', nu, X))
    nu = nu * sign[:, None]
    # sign convention: the round sphere has positive principal curvatures
    B = -np.einsum('xabi,xi->xab', S, nu)
    return X, G, B, nu


def _principal_curvatures_param(G, B):
    lam = np.linalg.eigvals(np.linalg.solve(G, B))
    return np.sort(lam.real, axis=-1)


def _elementary(lam, k):
    N, d = lam.shape
    out = np.zeros(N)
    for combo in itertools.combinations(range(d), k):
        out += np.prod(lam[:, combo], axis=1)
    return out


def _intrinsic_scalar(surface, omega, basis, h=2e-2, block=2048):
    """Scalar curvature of the induced metric, computed intrinsically.

    The chart metric G(u) is differentiated twice by stencils around
    u = 0; curvature then comes from the coordinate formula with plain
    loops.  No use of the ambient second fundamental form.  Every
    stencil point is u = h * m for an integer vector m, and each is
    embedded once per chart (the stencils of G and of its derivatives
    share most of them), block directions at a time.
    """
    omega = np.atleast_2d(omega)
    if len(omega) > block:
        return np.concatenate([
            _intrinsic_scalar(surface, omega[lo:lo + block],
                              basis[lo:lo + block], h, block)
            for lo in range(0, len(omega), block)])
    N, n = omega.shape
    d = n - 1
    unit = np.eye(d, dtype=int)
    points, metrics_at = {}, {}

    def X(m):
        key = tuple(m)
        if key not in points:
            points[key] = _chart_points(surface, omega, basis,
                                        np.tile(h * m, (N, 1)))
        return points[key]

    def Gfun(m):
        # tangents of X(u) = embed(c(u)) at u = h * m
        key = tuple(m)
        if key not in metrics_at:
            T = np.zeros((N, d, n))
            for a in range(d):
                for off, c in _D1_STENCIL:
                    T[:, a, :] += c * X(m + off * unit[a])
                T[:, a, :] /= h
            metrics_at[key] = np.einsum('xai,xbi->xab', T, T)
        return metrics_at[key]

    zero = np.zeros(d, dtype=int)
    G = Gfun(zero)
    dG = np.zeros((N, d, d, d))  # [..., c] = d_c G_ab
    d2G = np.zeros((N, d, d, d, d))
    for c in range(d):
        for off, cf in _D1_STENCIL:
            dG[..., c] += cf * Gfun(off * unit[c])
        dG[..., c] /= h
        for off, cf in _D2_STENCIL:
            d2G[..., c, c] += cf * Gfun(off * unit[c])
        d2G[..., c, c] /= h ** 2
        for cc in range(c + 1, d):
            acc = np.zeros((N, d, d))
            for o1, c1 in _D1_STENCIL:
                for o2, c2 in _D1_STENCIL:
                    acc += c1 * c2 * Gfun(o1 * unit[c] + o2 * unit[cc])
            acc /= h ** 2
            d2G[..., c, cc] = acc
            d2G[..., cc, c] = acc
    Ginv = np.linalg.inv(G)
    gamma = np.zeros((N, d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = np.zeros(N)
                for s in range(d):
                    acc += Ginv[:, k, s] * (dG[:, s, i, j] + dG[:, s, j, i]
                                            - dG[:, i, j, s])
                gamma[:, k, i, j] = 0.5 * acc
    # d_l Ginv^{ks} = -(Ginv dG_l Ginv)^{ks}
    dGinv = np.zeros((N, d, d, d))
    for l in range(d):
        for k in range(d):
            for s in range(d):
                acc = np.zeros(N)
                for a in range(d):
                    for b in range(d):
                        acc += Ginv[:, k, a] * dG[:, a, b, l] * Ginv[:, b, s]
                dGinv[:, k, s, l] = -acc
    dgamma = np.zeros((N, d, d, d, d))  # [x, k, i, j, l] = d_l Gamma^k_ij
    for k in range(d):
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    acc = np.zeros(N)
                    for s in range(d):
                        acc += Ginv[:, k, s] * (
                            d2G[:, s, i, j, l] + d2G[:, s, j, i, l]
                            - d2G[:, i, j, s, l])
                        acc += dGinv[:, k, s, l] * (
                            dG[:, s, i, j] + dG[:, s, j, i] - dG[:, i, j, s])
                    dgamma[:, k, i, j, l] = 0.5 * acc
    scal = np.zeros(N)
    for i in range(d):
        for j in range(d):
            ric = np.zeros(N)
            for m in range(d):
                ric += dgamma[:, m, i, j, m] - dgamma[:, m, m, j, i]
                for s in range(d):
                    ric += (gamma[:, m, m, s] * gamma[:, s, i, j]
                            - gamma[:, m, i, s] * gamma[:, s, m, j])
            scal += Ginv[:, i, j] * ric
    return scal


def _direction_grid(n, nodes_polar=16, nodes_azimuth=32):
    """Product Gauss grid of sphere directions with analytic weights.

    Hyperspherical angles with Gauss-Legendre polar nodes and uniform
    azimuth; the sin-power Jacobian is applied in closed form, so the
    weights integrate the round measure exactly in the limit.
    """
    d = n - 1
    t, w = np.polynomial.legendre.leggauss(nodes_polar)
    th = 0.5 * math.pi * (t + 1.0)
    thw = 0.5 * math.pi * w
    phi = 2.0 * math.pi * (np.arange(nodes_azimuth) + 0.5) / nodes_azimuth
    phw = np.full(nodes_azimuth, 2.0 * math.pi / nodes_azimuth)
    axes = [th] * (d - 1) + [phi]
    waxes = [thw] * (d - 1) + [phw]
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*waxes, indexing="ij")
    theta = np.stack([gr.ravel() for gr in grids], axis=-1)
    weights = np.ones(theta.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    for j in range(d - 1):
        weights = weights * np.sin(theta[:, j]) ** (d - 1 - j)
    return _hyperspherical(theta), weights


def parametric_surface_integrals(surface, functional, nodes_polar=16,
                                 nodes_azimuth=32, h=2e-2, n=None):
    """Integral of a curvature functional over a parametric surface.

    functional is one of 'area', 'H1', 'H2', 'H3', 'inducedR', or a
    sequence of them, which returns the list of their integrals from one
    pass over the fundamental forms.  All geometry comes from difference
    quotients of local tangent-plane charts of the direction sphere; the
    area element is the ratio of chart volume forms, which is sqrt(det G)
    because the chart is sphere-orthonormal at its origin.  n is the
    ambient dimension; it is read from surface.n when omitted.
    """
    names = [functional] if isinstance(functional, str) else list(functional)
    for name in names:
        if name not in ("area", "H1", "H2", "H3", "inducedR"):
            raise ValueError(f"unknown functional {name!r}")
    if n is None:
        n = surface.n
    omega, weights = _direction_grid(n, nodes_polar, nodes_azimuth)
    basis = _tangent_basis(omega)
    _, G, B, _ = _fundamental_forms(surface, omega, basis, h=h)
    dA = np.sqrt(np.linalg.det(G))
    lam = None
    out = []
    for name in names:
        if name == "area":
            vals = np.ones(len(omega))
        elif name == "inducedR":
            vals = _intrinsic_scalar(surface, omega, basis, h=h)
        else:
            if lam is None:
                lam = _principal_curvatures_param(G, B)
            vals = _elementary(lam, int(name[1]))
        out.append(float(np.dot(weights, dA * vals)))
    return out[0] if isinstance(functional, str) else out


# ---------------------------------------------------------------------------
# closed-form second-order flux tensor


def ricci_lowered(bund):
    """(R_ik, R): R_ik = g^{jl} R_ijkl and R = g^{ik} R_ik, contracted
    from the rank-4 R_ijkl of a curvature bundle."""
    ric = np.einsum('xjl,xijkl->xik', bund.ginv, unpair(bund.pair_lo))
    return ric, np.einsum('xik,xik->x', bund.ginv, ric)


def p_tensor_closed_form(bund):
    """P^{ijkl} = R^{ijkl} + R^{jk} g^{il} - R^{jl} g^{ik} - R^{ik} g^{jl}
    + R^{il} g^{jk} + (R/2)(g^{ik} g^{jl} - g^{il} g^{jk})
    on a curvature bundle, indices raised here from R_ijkl and
    ricci_lowered."""
    ginv = bund.ginv
    rm_up = np.einsum('xabcd,xai,xbj,xck,xdl->xijkl', unpair(bund.pair_lo),
                      ginv, ginv, ginv, ginv, optimize=True)
    ricci, R = ricci_lowered(bund)
    ric_up = np.einsum('xia,xab,xbj->xij', ginv, ricci, ginv,
                       optimize=True)
    return (rm_up
            + np.einsum('xjk,xil->xijkl', ric_up, ginv)
            - np.einsum('xjl,xik->xijkl', ric_up, ginv)
            - np.einsum('xik,xjl->xijkl', ric_up, ginv)
            + np.einsum('xil,xjk->xijkl', ric_up, ginv)
            + 0.5 * R[:, None, None, None, None]
            * (np.einsum('xik,xjl->xijkl', ginv, ginv)
               - np.einsum('xil,xjk->xijkl', ginv, ginv)))


# ---------------------------------------------------------------------------
# Christoffel route: curvature from second derivatives of g


def christoffel_curvature(gv, dg, d2g):
    """R_ijkl at a batch by differentiating the Christoffel symbols,
    R^m_ijk = d_i Gamma^m_jk - d_j Gamma^m_ik + Gamma Gamma."""
    ginv = np.linalg.inv(gv)
    # U[x,s,i,j] = d_j g_si + d_i g_sj - d_s g_ij
    U = dg + dg.transpose(0, 1, 3, 2) - dg.transpose(0, 3, 1, 2)
    gamma = 0.5 * np.einsum('xks,xsij->xkij', ginv, U)
    dU = (d2g + d2g.transpose(0, 1, 3, 2, 4)
          - d2g.transpose(0, 3, 1, 2, 4))
    dginv = -np.einsum('xka,xabl,xbs->xksl', ginv, dg, ginv, optimize=True)
    dgamma = 0.5 * (np.einsum('xksl,xsij->xkijl', dginv, U)
                    + np.einsum('xks,xsijl->xkijl', ginv, dU))
    r_updown = (np.einsum('xmjki->xmijk', dgamma)
                - np.einsum('xmikj->xmijk', dgamma)
                + np.einsum('xmis,xsjk->xmijk', gamma, gamma)
                - np.einsum('xmjs,xsik->xmijk', gamma, gamma))
    return np.einsum('xmijl,xmk->xijkl', r_updown, gv)


def christoffel_metric(g, eval_d2g):
    """g with its curvature hook replaced by the Christoffel route on
    the batched second-derivative evaluator eval_d2g, R_ijkl read on the
    index pairs i1 < i2, j1 < j2 in lexicographic order."""
    i1, i2 = np.triu_indices(g.n, 1)

    def eval_curvature(pts):
        R = christoffel_curvature(g.eval_g(pts), g.eval_dg(pts),
                                  eval_d2g(pts))
        return R[:, i1[:, None], i2[:, None], i1, i2]

    return dataclasses.replace(g, eval_curvature=eval_curvature)


def fd_d2g(g):
    """Batched d2g of g by central differences of eval_dg on the wide
    step."""
    return lambda pts: metrics.central_difference(
        g.eval_dg, pts, metrics.fd_step_second(pts))


def radial_profiles(factory, *args, **kwargs):
    """(g, a_profile, b_profile): factory(*args, **kwargs), a radial
    family, with the profiles it passed to metrics.radial_metric."""
    seen = []
    build = metrics.radial_metric

    def spy(n, a_profile, b_profile, *rest, **kw):
        seen.append((a_profile, b_profile))
        return build(n, a_profile, b_profile, *rest, **kw)

    with mock.patch.object(metrics, "radial_metric", spy):
        g = factory(*args, **kwargs)
    return (g,) + seen[-1]


def radial_families(n):
    """radial_profiles of each radial family at dimension n: Schwarzschild
    in both charts, EGB and conformal-radial."""
    yield radial_profiles(metrics.schwarzschild_family, 2, n, 1.0,
                          chart="conformal")
    yield radial_profiles(metrics.schwarzschild_family, 1, n, 0.8,
                          chart="rho")
    yield radial_profiles(metrics.egb_blackhole, n, 0.05, 0.8)
    yield radial_profiles(metrics.conformal_radial, n, "1/4/(1 + r**2)")


def sympy_profiles():
    """(label, profile, expr, r_min) for each profile factory: the
    RadialProfile it builds and the same profile as a sympy expression
    in a positive r, written from the factory's docstring formula."""
    r = sp.Symbol("r", positive=True)
    for k, n, m in ((2, 6, 1.0), (2, 5, -0.6), (1, 5, 0.8), (3, 8, 1.2)):
        q = sp.Rational(n, k) - 2
        phi = 1 + sp.Float(m) / (2 * r ** q)
        r_neg = float((-m / 2) ** (1 / q)) if m < 0 else 0.0
        _, a, _ = radial_profiles(metrics.schwarzschild_family, k, n, m)
        yield (f"conformal k={k} n={n} m={m}", a,
               phi ** sp.Rational(4 * k, n - 2 * k), r_neg)
        yield (f"exponent k={k} n={n} m={m}",
               metrics.schwarzschild_conformal_profile(k, n, m),
               -sp.Rational(2 * k, n - 2 * k) * sp.log(phi), r_neg)
        if m > 0:
            r_hor = float((2 * m) ** (1 / q))
            _, _, b = radial_profiles(metrics.schwarzschild_family, k, n, m,
                                      chart="rho")
            yield (f"rho k={k} n={n} m={m}", b,
                   (1 / (1 - 2 * sp.Float(m) / r ** q) - 1) / r ** 2, r_hor)
            yield (f"slope k={k} n={n} m={m}",
                   graphcase.schwarzschild_slope_profile(k, n, m),
                   sp.sqrt(2 * sp.Float(m) / (r ** q - 2 * sp.Float(m))), r_hor)
    for n, alpha, m in ((6, 0.05, 0.8), (5, 0.1, 1.5)):
        at = 2 * (n - 2) * (n - 3) * sp.Float(alpha)
        F = 1 + r ** 2 / at * (1 - sp.sqrt(1 + 4 * at * sp.Float(m) / r ** n))
        r0 = metrics.egb_horizon_radius(n, alpha, m)
        _, _, b = radial_profiles(metrics.egb_blackhole, n, alpha, m)
        yield f"egb n={n} alpha={alpha}", b, (1 / F - 1) / r ** 2, r0
        yield (f"egb slope n={n} alpha={alpha}",
               graphcase.egb_graph_slope_profile(n, alpha, m),
               sp.sqrt(1 / F - 1), r0)
    for eps, tau in ((0.1, 1.0), (0.3, 2.5)):
        yield (f"decay eps={eps} tau={tau}",
               metrics.radial_decay_profile(eps, tau),
               sp.Float(eps) * (1 + r ** 2) ** (-sp.Float(tau) / 2), 0.0)
    for text, u in (("3/10/(1 + r**2)", sp.Rational(3, 10) / (1 + r ** 2)),
                    ("sin(r)/r^2", sp.sin(r) / r ** 2)):
        _, a, _ = radial_profiles(metrics.conformal_radial, 5, text)
        yield f"conformal-radial {text}", a, sp.exp(-2 * u), 0.0


def sympy_jet(expr, points, dps=50):
    """(c, c', c'') of a sympy expression in r at float points, rows of
    an array: differentiated symbolically and evaluated with dps
    digits, so round-off in the reference is far below a double's."""
    (r,) = expr.free_symbols
    fns = [sp.lambdify(r, sp.diff(expr, r, j), modules="mpmath")
           for j in range(3)]
    with mpmath.workdps(dps):
        return np.array([[float(f(mpmath.mpf(float(x)))) for x in points]
                         for f in fns])


def radial_d2g(a_profile, b_profile, pts):
    """Analytic d_k d_l g_ij of a(r) delta_ij + b(r) x_i x_j at a batch;
    b_profile may be None."""
    eye = np.eye(pts.shape[-1])
    r = np.linalg.norm(pts, axis=-1)
    _, a1, a2 = a_profile.jet(r)
    _, d2a = metrics._radial_jets(pts, r, a1, a2)
    out = eye[None, :, :, None, None] * d2a[:, None, None, :, :]
    if b_profile is not None:
        b0, b1, b2 = b_profile.jet(r)
        db, d2b = metrics._radial_jets(pts, r, b1, b2)
        xx = pts[:, :, None] * pts[:, None, :]
        d1xx = (eye[None, :, None, :] * pts[:, None, :, None]
                + eye[None, None, :, :] * pts[:, :, None, None])
        d2xx = (eye[:, None, :, None] * eye[None, :, None, :]
                + eye[:, None, None, :] * eye[None, :, :, None])[None]
        out = (out
               + xx[:, :, :, None, None] * d2b[:, None, None, :, :]
               + d1xx[:, :, :, :, None] * db[:, None, None, None, :]
               + d1xx[:, :, :, None, :] * db[:, None, None, :, None]
               + b0[:, None, None, None, None] * d2xx)
    return out


def christoffel_graph_metric(f):
    """graph_metric(f) on the Christoffel route, with the d2g
    d_k d_l (f_i f_j) built from d3f = central differences of f.hess."""
    def eval_d2g(pts):
        df = f.grad(pts)
        d2f = f.hess(pts)
        d3f = metrics.central_difference(f.hess, pts, metrics.fd_step_first(pts))
        return (d3f[:, :, None, :, :] * df[:, None, :, None, None]
                + d2f[:, :, None, :, None] * d2f[:, None, :, None, :]
                + d2f[:, :, None, None, :] * d2f[:, None, :, :, None]
                + df[:, :, None, None, None] * d3f[:, None, :, :, :])

    return christoffel_metric(metrics.graph_metric(f), eval_d2g)


# ---------------------------------------------------------------------------
# reference delta-contraction term tables


def canonical_matchings(values):
    """Orderings of values into ascending 2-blocks with ascending block heads.

    There are (2m-1)!! of them for 2m values; they form a transversal of
    the hyperoctahedral subgroup (block flips and block permutations).
    """
    values = sorted(values)
    out = []

    def rec(rem, acc):
        if not rem:
            out.append(tuple(acc))
            return
        a = rem[0]
        for b in rem[1:]:
            rest = [v for v in rem if v not in (a, b)]
            rec(rest, acc + [a, b])

    rec(values, [])
    return out


def ascending_block_orderings(values, nblocks):
    """Orderings of values whose first nblocks consecutive pairs ascend."""
    out = []
    for perm in itertools.permutations(values):
        if all(perm[2 * t] < perm[2 * t + 1] for t in range(nblocks)):
            out.append(perm)
    return out


@dataclass(frozen=True)
class GroupedTermTable:
    """Flat term list for one delta-contracted curvature polynomial.

    Each term contributes sign * prod_t Rmix[f[t,0], f[t,1], f[t,2], f[t,3]]
    to one output slot.  Terms are sorted by output slot so consumers
    can reduce with np.add.reduceat.

    Fields: n, k, constant (absorbed multiplicity, exact up front),
    signs (T,), factors (T, q, 4) with q factors of the mixed Riemann
    tensor, group_starts: start offsets of equal-slot runs, group_index
    (G, p): the slot label of each run (p = 0 for scalars).
    """

    n: int
    k: int
    constant: float
    signs: np.ndarray
    factors: np.ndarray
    group_starts: np.ndarray
    group_index: np.ndarray


def _pack(n, k, constant, terms, out_width):
    """Sort raw (sign, factors, out_slot) terms into a GroupedTermTable."""
    if not terms:
        empty = np.zeros(0, dtype=np.intp)
        return GroupedTermTable(
            n, k, constant,
            signs=np.zeros(0),
            factors=np.zeros((0, 0, 4), dtype=np.intp),
            group_starts=empty,
            group_index=np.zeros((0, out_width), dtype=np.intp),
        )
    terms.sort(key=lambda t: t[2])
    signs = np.array([t[0] for t in terms], dtype=float)
    q = len(terms[0][1])
    factors = np.array([t[1] for t in terms], dtype=np.intp).reshape(len(terms), q, 4)
    starts = [0]
    for i in range(1, len(terms)):
        if terms[i][2] != terms[i - 1][2]:
            starts.append(i)
    group_starts = np.array(starts, dtype=np.intp)
    group_index = np.array([terms[i][2] for i in starts],
                           dtype=np.intp).reshape(len(starts), out_width)
    return GroupedTermTable(n, k, constant, signs, factors, group_starts,
                            group_index)


def lovelock_scalar_table(n, k):
    """Term table for the k-th Gauss-Bonnet curvature L_k at dimension n.

    L_k = constant * sum(sign * prod_t Rmix[u_{2t}, u_{2t+1}, l_{2t}, l_{2t+1}])
    with Rmix[a, b, c, d] = R_{ab}^{cd}.
    """
    terms = []
    for subset in itertools.combinations(range(n), 2 * k):
        for up in canonical_matchings(subset):
            for lo in ascending_block_orderings(subset, k):
                sgn = relative_sign(lo, up)
                fac = tuple((up[2 * t], up[2 * t + 1], lo[2 * t], lo[2 * t + 1])
                            for t in range(k))
                terms.append((sgn, fac, ()))
    constant = float(2 ** k * math.factorial(k))
    return _pack(n, k, constant, terms, 0)


def p_tensor_table(n, k):
    """Term table for the coefficient tensor C of the rank-4 P field.

    P^{stlm} = constant * C[s,t,a,b] g^{al} g^{bm} where C collects the
    delta-contracted products of (k-1) mixed Riemann factors.  Only
    slots with s < t are stored; the s > t half is the negative.
    """
    terms = []
    for s in range(n):
        for t in range(s + 1, n):
            pool = [a for a in range(n) if a not in (s, t)]
            for sub in itertools.combinations(pool, 2 * k - 2):
                block = list(sub) + [s, t]
                ups = canonical_matchings(sub) if sub else [()]
                for up_i in ups:
                    up = tuple(up_i) + (s, t)
                    for lo in ascending_block_orderings(block, k - 1):
                        sgn = relative_sign(lo, up)
                        fac = tuple((up[2 * q], up[2 * q + 1], lo[2 * q], lo[2 * q + 1])
                                    for q in range(k - 1))
                        terms.append((sgn, fac, (s, t, lo[2 * k - 2], lo[2 * k - 1])))
    constant = 4.0 ** (k - 1) * math.factorial(k - 1) / 2.0 ** k
    return _pack(n, k, constant, terms, 4)


def lovelock_einstein_table(n, k):
    """Term table for the divergence-free curvature 2-tensor of order k.

    E_{ij} = -(1/2^{k+1}) g_{li} D^l_j with D = constant * grouped sum of
    k mixed Riemann factors; slots are (l, j).
    """
    terms = []
    for subset in itertools.combinations(range(n), 2 * k + 1):
        for l in subset:
            rem_u = [a for a in subset if a != l]
            for j in subset:
                rem_l = [a for a in subset if a != j]
                for up_i in canonical_matchings(rem_u):
                    up = (l,) + tuple(up_i)
                    for lo_i in ascending_block_orderings(rem_l, k):
                        lo = (j,) + tuple(lo_i)
                        sgn = relative_sign(lo, up)
                        fac = tuple((up[1 + 2 * q], up[2 + 2 * q],
                                     lo[1 + 2 * q], lo[2 + 2 * q])
                                    for q in range(k))
                        terms.append((sgn, fac, (l, j)))
    constant = 4.0 ** k * math.factorial(k)
    return _pack(n, k, constant, terms, 2)


# ---------------------------------------------------------------------------
# the gather engine: array-indexed delta-contraction term tables, summed
# term by term out of the gathered Riemann factors


def gathered_products(table, rmix):
    """prod[x, T] = sign_T * product of table factors gathered from rmix."""
    B = rmix.shape[0]
    T = len(table.signs)
    prod = np.broadcast_to(table.signs, (B, T)).copy()
    for t in range(table.factors.shape[1]):
        f = table.factors[:, t]
        prod *= rmix[:, f[:, 0], f[:, 1], f[:, 2], f[:, 3]]
    return prod


@lru_cache(maxsize=None)
def _pattern(q, f):
    """Terms of one sorted (2q + f)-subset as (signs, ups, los).

    ups[T] and los[T] are the upper and lower rows of term T as
    positions in the subset: the f free positions, then q factor
    blocks.  The other upper indices run over canonical matchings, the
    lower ones over orderings with q ascending blocks.
    """
    m = 2 * q + f
    signs, ups, los = [], [], []
    for fu in itertools.combinations(range(m), f):
        rest = [p for p in range(m) if p not in fu]
        lowers = ascending_block_orderings(rest + list(fu), q)
        lo_signs = np.array([_perm_sign(lo) for lo in lowers], dtype=float)
        # moving the free indices to the front of both rows crosses the
        # same 2q indices twice: the sign stays
        lo_rows = np.roll(np.array(lowers, dtype=np.intp).reshape(-1, m), f,
                          axis=1)
        for up in canonical_matchings(rest):
            up = up + fu
            # both rows order range(m): the sign of lo -> up
            signs.append(_perm_sign(up) * lo_signs)
            ups.append(np.broadcast_to(up[2 * q:] + up[:2 * q], lo_rows.shape))
            los.append(lo_rows)
    return np.concatenate(signs), np.concatenate(ups), np.concatenate(los)


def delta_table(n, k, q, f, constant):
    """Term table with q Riemann factors and f free index pairs at
    dimension n, the pattern of one subset mapped onto every subset;
    the slot of a term is its free upper then free lower indices."""
    m = 2 * q + f
    if m > n:
        return _pack(n, k, constant, [], 2 * f)
    signs, ups, los = _pattern(q, f)
    subsets = np.array(list(itertools.combinations(range(n), m)),
                       dtype=np.intp).reshape(-1, m)
    U = subsets[:, ups].reshape(-1, m)
    L = subsets[:, los].reshape(-1, m)
    slots = np.concatenate([U[:, :f], L[:, :f]], axis=1)
    key = slots @ n ** np.arange(2 * f - 1, -1, -1)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    factors = np.concatenate([U[:, f:].reshape(len(U), q, 2),
                              L[:, f:].reshape(len(L), q, 2)], axis=2)
    return GroupedTermTable(n, k, constant,
                            signs=np.tile(signs, len(subsets))[order],
                            factors=factors[order],
                            group_starts=starts,
                            group_index=slots[order][starts])


def gather_p_table(n, k):
    """Gather table of the coefficient tensor C of P_(k), s < t slots."""
    return delta_table(n, k, k - 1, 2,
                       4.0 ** (k - 1) * math.factorial(k - 1) / 2.0 ** k)


def gather_einstein_table(n, k):
    """Gather table of D, the free-index sum of E^(k), slots (l, j)."""
    return delta_table(n, k, k, 1, 4.0 ** k * math.factorial(k))


def slot_sums(table, rmix):
    """out[x, *slot]: the grouped sum of the table's gathered terms in
    each slot (zero in slots without terms), 6e6 terms at a time."""
    B = len(rmix)
    out = np.zeros((B,) + (table.n,) * table.group_index.shape[1])
    gi = tuple(table.group_index.T)
    T = len(table.signs)
    step = max(1, 6_000_000 // max(T, 1))
    for lo in range(0, B, step):
        hi = min(B, lo + step)
        prod = np.broadcast_to(table.signs, (hi - lo, T)).copy()
        for t in range(table.factors.shape[1]):
            f = table.factors[:, t]
            prod *= rmix[lo:hi, f[:, 0], f[:, 1], f[:, 2], f[:, 3]]
        out[(slice(lo, hi),) + gi] = np.add.reduceat(prod, table.group_starts,
                                                     axis=1)
    return out


def mixed_pair(bund):
    """R_I^J = R_IE (Lambda^2 g^-1)_EJ on the pairs of a curvature bundle,
    g^-1 = inv(g): the curvature operator in coordinates."""
    ginv = np.linalg.inv(bund.g)
    return bund.pair_lo @ pair_product(ginv, ginv)


def gather_p_tensor(table, bund):
    """P_(k)^{stlm} from a gather table of C with s < t slots."""
    C = slot_sums(table, unpair(mixed_pair(bund)))
    C = C - C.transpose(0, 2, 1, 3, 4)
    return table.constant * np.einsum('xstab,xal,xbm->xstlm', C, bund.ginv,
                                      bund.ginv)


def gather_einstein(table, bund):
    """E^(k)_ij from a gather table of D."""
    D = table.constant * slot_sums(table, unpair(mixed_pair(bund)))
    return -(1.0 / 2.0 ** (table.k + 1)) * np.einsum('xli,xlj->xij', bund.g, D)
