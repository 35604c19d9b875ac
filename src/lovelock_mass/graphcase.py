"""Graph hypersurfaces over flat space and their boundary geometry.

A graph x -> (x, f(x)) carries the induced metric delta + df x df.  For
these metrics the second-order curvature integrand is an exact flat
divergence, which turns the mass into a bulk integral of L_2 plus a
horizon boundary term built from the third mean curvature of the
horizon.  This module supplies the graph families, the pointwise
identities, the bulk and boundary integrals, second-fundamental-form
data, and the monotone chain of boundary functionals used in the
Penrose-type comparisons.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import curvature, mass as _mass, metrics, quadrature
from .metrics import RadialProfile, sqrt
from .multiindex import unpair

__all__ = [
    "GraphFunction",
    "HypersurfaceData",
    "PenroseReport",
    "Ellipsoid",
    "sphere_surface",
    "radial_graph",
    "schwarzschild_graph",
    "schwarzschild_slope_profile",
    "egb_graph",
    "egb_graph_slope_profile",
    "gaussian_bump_graph",
    "sum_graph",
    "linear_graph",
    "quadratic_graph",
    "graph_L2",
    "graph_divergence_identity_residual",
    "bulk_mass",
    "hypersurface_data",
    "graph_hypersurface_data",
    "surface_hypersurface_data",
    "elementary_symmetric",
    "surface_area",
    "quermassintegral",
    "horizon_boundary_term",
    "penrose_report",
    "penrose_report_dict",
    "radial_graph_formulas",
    "adm_graph_mass",
    "egb_graph_penrose",
]


@dataclass(frozen=True)
class GraphFunction:
    """A graph function over (a region of) R^n with batched derivatives.

    grad/hess map (B, n) points to arrays with 1/2 trailing index axes;
    the induced metric takes its curvature from these two alone.  tau is
    the decay order of the induced metric (grad = O(r^(-tau/2))).
    horizon optionally describes the inner boundary where |grad f| blows
    up, r_min the radius below which the graph is not defined.
    """

    n: int
    grad: Callable
    hess: Callable
    tau: float
    horizon: Optional["Ellipsoid"] = None
    r_min: float = 0.0
    name: str = "graph"

    @cached_property
    def metric(self):
        return metrics.graph_metric(self)


# ---------------------------------------------------------------------------
# graph families


def radial_graph(n, slope, tau, r_min=0.0, horizon=None, name="radial-graph"):
    """Rotationally symmetric graph from its radial slope profile f'(r).

    The gradient and Hessian of f follow from the slope and its first
    derivative; the value of f itself is never needed.
    """

    def derivative(order):
        def ev(x):
            pts = np.asarray(x, dtype=float)
            r = np.linalg.norm(pts, axis=-1)
            if np.any(r <= r_min):
                raise metrics.DomainError(
                    f"{name}: point inside domain radius {r_min:.6g}")
            if order == 1:
                return metrics._radial_jets(pts, r, slope(r))
            s0, s1, _ = slope.jet(r)
            return metrics._radial_jets(pts, r, s0, s1)[1]
        return ev

    return GraphFunction(n=n, grad=derivative(1), hess=derivative(2),
                         tau=tau, horizon=horizon, r_min=r_min, name=name)


def schwarzschild_slope_profile(k, n, m):
    """Slope f'(r) = sqrt(2m / (r^(n/k-2) - 2m)) of the static graph."""
    q = n / k - 2.0
    return RadialProfile(lambda r: sqrt(2 * m / (r ** q - 2 * m)))


def schwarzschild_graph(n, m, k=2):
    """Graph realization of the k-th static family (rho chart).

    The horizon is the round sphere of radius rho_0 with
    rho_0^(n/k-2) = 2m, where the slope blows up.  Requires
    1 <= k < n/2 and m > 0.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k < n / 2):
        raise ValueError("require integer 1 <= k < n/2")
    if m <= 0:
        raise ValueError("graph realization requires m > 0")
    q = n / k - 2.0
    rho0 = (2.0 * m) ** (1.0 / q)
    return radial_graph(n, schwarzschild_slope_profile(k, n, m),
                        tau=q, r_min=rho0,
                        horizon=sphere_surface(n, rho0),
                        name=f"schwarzschild-graph(k={k},n={n},m={m})")


def egb_graph_slope_profile(n, alpha, m):
    """Slope sqrt(1/F - 1) of the Gauss-Bonnet-corrected black hole."""
    def slope(r):
        G = metrics._egb_one_minus_F(n, alpha, m, r)
        return sqrt(G / (1 - G))

    return RadialProfile(slope)


def egb_graph(n, alpha, m):
    """Graph realization of the Gauss-Bonnet-corrected black hole."""
    r0 = metrics.egb_horizon_radius(n, alpha, m)
    if r0 <= 0:
        raise ValueError("no horizon for these parameters")
    return radial_graph(n, egb_graph_slope_profile(n, alpha, m),
                        tau=float(n - 2), r_min=r0,
                        horizon=sphere_surface(n, r0),
                        name=f"egb-graph(n={n},alpha={alpha},m={m})")


def gaussian_bump_graph(n, centers, amplitudes, widths, name="bumps"):
    """Sum of Gaussian bumps; decays faster than any power."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    eye = np.eye(n)

    def _parts(x):
        pts = np.asarray(x, dtype=float)
        # y[b, a, i] = x_i - c_{a,i}
        y = pts[:, None, :] - centers[None, :, :]
        q = np.einsum('bai,bai->ba', y, y)
        E = amplitudes[None, :] * np.exp(-q / (2.0 * widths[None, :] ** 2))
        return y, E

    def grad(x):
        y, E = _parts(x)
        return np.einsum('ba,bai->bi', -E / widths[None, :] ** 2, y)

    def hess(x):
        y, E = _parts(x)
        w2 = widths[None, :] ** 2
        return (np.einsum('bai,baj->bij', (E / w2 ** 2)[:, :, None] * y, y)
                - np.einsum('ba,ij->bij', E / w2, eye))

    return GraphFunction(n=n, grad=grad, hess=hess, tau=float("inf"),
                         name=name)


def sum_graph(*parts, name="sum"):
    """Pointwise sum of graph functions over the same base dimension."""
    n = parts[0].n
    if any(p.n != n for p in parts):
        raise ValueError("summands live over different dimensions")

    def grad(x):
        return sum(p.grad(x) for p in parts)

    def hess(x):
        return sum(p.hess(x) for p in parts)

    tau = min(p.tau for p in parts)
    r_min = max(p.r_min for p in parts)
    return GraphFunction(n=n, grad=grad, hess=hess, tau=tau, r_min=r_min,
                         name=name)


def linear_graph(n, v):
    """Affine graph; the induced metric is flat."""
    v = np.asarray(v, dtype=float)

    def grad(x):
        pts = np.asarray(x, dtype=float)
        return np.broadcast_to(v, pts.shape).copy()

    def hess(x):
        return np.zeros((len(x), n, n))

    return GraphFunction(n=n, grad=grad, hess=hess, tau=float("inf"),
                         name="linear")


def quadratic_graph(n, H, v=None, name="quadratic"):
    """Graph with constant Hessian H (paraboloid for H = identity)."""
    H = np.asarray(H, dtype=float)
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float)

    def grad(x):
        pts = np.asarray(x, dtype=float)
        return pts @ H.T + v

    def hess(x):
        pts = np.asarray(x, dtype=float)
        return np.broadcast_to(H, (len(pts), n, n)).copy()

    return GraphFunction(n=n, grad=grad, hess=hess, tau=2.0, name=name)


# ---------------------------------------------------------------------------
# pointwise identities


def graph_L2(f, x):
    """L_2 on a graph as P^{ijkl} R_ijkl, with R_ijkl = (f_ik f_jl -
    f_il f_jk) / (1 + |df|^2), the graph metric's curvature unpaired."""
    pts, single = metrics._batch(x)
    g = f.metric
    bund = curvature.riemann(g, pts)
    P = curvature.p_tensor(g, pts, bund=bund)
    out = np.einsum('xijkl,xijkl->x', P, unpair(bund.pair_lo))
    return metrics._unbatch(out, single)


def graph_divergence_identity_residual(f, x):
    """|d_i(P^{ijkl} d_l g_jk) - L_2 / 2| with the outer d_i by differences."""
    pts, single = metrics._batch(x)
    g = f.metric

    def Q(p):
        return curvature.p_tensor(g, p, flux=True)

    dQ = metrics.central_difference(Q, pts, metrics.fd_step_second(pts))
    # left-to-right sum over the diagonal, not np.trace, to keep its rounding
    div = sum(dQ[:, i, i] for i in range(f.n))
    out = np.abs(div - 0.5 * curvature.lovelock_L(2, g, pts))
    return metrics._unbatch(out, single)


# ---------------------------------------------------------------------------
# bulk integral


def _inner_radius(f):
    """Inner radius of the bulk integrals: just outside the graph's domain."""
    return f.r_min * (1.0 + 1e-3) if f.r_min > 0 else 0.0


def bulk_mass(f, rule=None, r_inner=None, r_outer=float("inf"),
              radial_level=64):
    """Second-order mass of a graph as (c2/2) * integral of L_2, flat measure.

    The domain is the annulus r_inner < r < r_outer; r_inner defaults to
    just outside the graph's inner domain radius.  A tail probe guards
    against non-integrable L_2 when the outer radius is infinite.
    """
    n = f.n
    rule = _mass._rule_for(n, rule)
    if r_inner is None:
        r_inner = _inner_radius(f)
    g = f.metric

    def F(pts):
        return curvature.lovelock_L(2, g, pts)

    if np.isinf(r_outer):
        probe = max(100.0, 10.0 * max(r_inner, 1.0))
        direction = np.zeros(n)
        direction[0] = 1.0
        sample = np.abs([float(F((rv * direction)[None, :])[0]) * rv ** (n - 1)
                         for rv in (probe, 2 * probe, 4 * probe)])
        if sample[0] > 1e-12 and not (sample[2] <= sample[1] <= sample[0]):
            raise FloatingPointError(
                "L_2 tail does not decay; bulk integral diverges")
    raw = quadrature.ball_integral(F, r_inner, r_outer, rule,
                                   radial_level=radial_level)
    return 0.5 * _mass.ck_constant(n, 2) * raw


# ---------------------------------------------------------------------------
# hypersurfaces


def elementary_symmetric(values, k):
    """Elementary symmetric polynomial e_k over the trailing axis."""
    values = np.asarray(values, dtype=float)
    coeffs = np.ones(values.shape[:-1] + (1,))
    for j in range(values.shape[-1]):
        v = values[..., j:j + 1]
        grown = np.concatenate([coeffs, np.zeros_like(coeffs[..., :1])], axis=-1)
        grown[..., 1:] += coeffs * v
        coeffs = grown
    if k >= coeffs.shape[-1]:
        return np.zeros(values.shape[:-1])
    return coeffs[..., k]


@dataclass(frozen=True)
class HypersurfaceData:
    """Principal and mean curvatures at one point of a hypersurface."""

    eigenvalues: np.ndarray
    mean_curvatures: np.ndarray  # H_1 .. H_4
    induced_scalar: float


def _hypersurface_data(lam):
    """HypersurfaceData from the principal curvatures lam (Gauss equation
    for the induced scalar)."""
    lam = np.sort(lam)
    Hks = np.array([elementary_symmetric(lam, k) for k in (1, 2, 3, 4)])
    return HypersurfaceData(eigenvalues=lam,
                            mean_curvatures=Hks,
                            induced_scalar=float(2.0 * Hks[1]))


def graph_hypersurface_data(f, at):
    """Hypersurface data of the graph of f inside R^(n+1) at a point.

    The shape operator solves the generalized eigenproblem A v = lambda
    g v with A = hess/sqrt(1 + |df|^2) and g the induced metric.
    """
    x = np.asarray(at, dtype=float)
    df = f.grad(x[None, :])[0]
    H = f.hess(x[None, :])[0]
    W = 1.0 + df @ df
    A = H / math.sqrt(W)
    g = np.eye(f.n) + np.outer(df, df)
    lam = np.linalg.eigvals(np.linalg.solve(g, A))
    return _hypersurface_data(lam.real)


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid sum x_i^2 / a_i^2 = 1 in R^n (sphere when axes agree)."""

    semiaxes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "semiaxes",
                           np.asarray(self.semiaxes, dtype=float))
        if np.any(self.semiaxes <= 0):
            raise ValueError("semiaxes must be positive")

    @property
    def n(self):
        return len(self.semiaxes)

    def embed(self, omega):
        """Map unit-sphere directions onto the surface."""
        return np.atleast_2d(omega) * self.semiaxes[None, :]

    def _gradient(self, omega):
        """Dx = omega / a, half the gradient of sum x_i^2 / a_i^2 at
        x = a omega, and its norm |Dx|."""
        Dx = np.atleast_2d(omega) / self.semiaxes[None, :]
        return Dx, np.linalg.norm(Dx, axis=-1)

    def area_element(self, omega):
        """Surface measure Jacobian relative to the parameter sphere."""
        return float(np.prod(self.semiaxes)) * self._gradient(omega)[1]

    def quermass_densities(self, omega, ks):
        """e_k of the principal curvatures times the area element at
        unit-sphere directions, one (N,) row per k in ks (k = 0 gives
        the area element itself).

        Closed form, with no shape operator and no eigensolve: the
        principal curvatures are those of diag(alpha), alpha = a^-2,
        compressed to the tangent space nu^perp and divided by |Dx|, so
        e_k = sum_j Dx_j^2 e_k(alpha without alpha_j) / |Dx|^(k+2).
        """
        Dx, norm = self._gradient(omega)
        J = float(np.prod(self.semiaxes)) * norm
        alpha = self.semiaxes ** -2.0
        minors = np.array([[elementary_symmetric(np.delete(alpha, j), k)
                            for j in range(self.n)] for k in ks])
        tangential = np.einsum('kj,xj->kx', minors, Dx * Dx)
        return [J * (t / norm ** (k + 2)) if k else J
                for t, k in zip(tangential, ks)]

    def _shape_operator(self, x):
        """Second fundamental form at batched surface points, as (B, n, n)
        matrices on R^n that vanish along the normal."""
        x = np.atleast_2d(x)
        a2 = self.semiaxes ** 2
        Dx = x / a2[None, :]
        norm = np.linalg.norm(Dx, axis=-1)
        nu = Dx / norm[:, None]
        P = np.eye(self.n)[None] - nu[:, :, None] * nu[:, None, :]
        return (np.einsum('xab,b,xbc->xac', P, 1.0 / a2, P, optimize=True)
                / norm[:, None, None])

    def principal_curvatures(self, x):
        """Principal curvatures at surface points (batched)."""
        lam = np.linalg.eigvalsh(self._shape_operator(x))
        # drop the null direction along the normal
        keep = np.arange(self.n) != np.argmin(np.abs(lam), axis=-1)[:, None]
        return lam[keep].reshape(len(lam), self.n - 1)


def sphere_surface(n, radius):
    """Round sphere of the given radius as a degenerate ellipsoid."""
    return Ellipsoid(semiaxes=np.full(n, float(radius)))


def surface_hypersurface_data(surface, omega):
    """Hypersurface data of a parametric surface at one direction."""
    x = surface.embed(np.asarray(omega, dtype=float)[None, :])
    return _hypersurface_data(surface.principal_curvatures(x)[0])


def hypersurface_data(source, at):
    """Dispatch on GraphFunction (point) or Ellipsoid (unit direction)."""
    if isinstance(source, GraphFunction):
        return graph_hypersurface_data(source, at)
    if isinstance(source, Ellipsoid):
        return surface_hypersurface_data(source, at)
    raise TypeError(f"unsupported hypersurface source {type(source)!r}")


def _rule_sum(rule, values):
    """Weighted sum of node values, as a pairwise sum: a threaded BLAS dot
    splits long sums by thread count and so changes their last bits."""
    return float(np.sum(rule.weights * values))


def surface_area(surface, rule):
    """Total surface measure via the mapped sphere rule."""
    return _rule_sum(rule, surface.area_element(rule.nodes))


def _quermass_integrals(surface, ks, rule):
    """Integrals of H_k over the surface for each k in ks (H_0 = 1 gives
    the area), from one closed-form pass over the rule's nodes."""
    return [_rule_sum(rule, d)
            for d in surface.quermass_densities(rule.nodes, ks)]


def quermassintegral(surface, k, rule):
    """Integral of the k-th mean curvature H_k over the surface."""
    return _quermass_integrals(surface, (k,), rule)[0]


def horizon_boundary_term(f, sigma, rule):
    """Horizon contribution c2(n) * integral of 3 H_3 over sigma.

    H_3 is taken with respect to flat R^n; f, when given, must be a
    graph over the same R^n as sigma, and may be None for a bare-surface
    evaluation.
    """
    n = _horizon_dimension(f, sigma)
    return _mass.ck_constant(n, 2) * 3.0 * quermassintegral(sigma, 3, rule)


def _horizon_dimension(f, sigma):
    """Ambient dimension of a graph f (or None) with horizon sigma."""
    if sigma is None:
        raise ValueError("horizon surface required")
    if f is not None and f.n != sigma.n:
        raise ValueError(f"graph over R^{f.n} with a horizon in R^{sigma.n}")
    return sigma.n


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PenroseReport:
    """Mass decomposition and the chain of boundary lower bounds.

    af_chain lists, in weakening order: the horizon boundary term, and
    the three isoperimetric-type bounds built from the integrals of
    2 H_2, H_1, and the area.  slack[i] = mass - af_chain[i].
    """

    bulk_term: float
    boundary_term: float
    mass: float
    af_chain: np.ndarray
    slack: np.ndarray


def af_chain_bounds(sigma, rule):
    """The four boundary quantities of the comparison chain; the first is
    the horizon boundary term."""
    n = sigma.n
    omega = quadrature.sphere_volume(n)
    int_h3, int_h2, int_h1, area = _quermass_integrals(sigma, (3, 2, 1, 0),
                                                       rule)
    b0 = _mass.ck_constant(n, 2) * 3.0 * int_h3
    b1 = 0.25 * (2.0 * int_h2 / ((n - 1) * (n - 2) * omega)) ** ((n - 4) / (n - 3))
    b2 = 0.25 * (int_h1 / ((n - 1) * omega)) ** ((n - 4) / (n - 2))
    b3 = 0.25 * (area / omega) ** ((n - 4) / (n - 1))
    return np.array([b0, b1, b2, b3])


def penrose_report(f, sigma, rule=None, radial_level=64):
    """Mass = bulk + horizon boundary, with the chain of lower bounds.

    With f None only the boundary chain is evaluated (bulk 0), which is
    the bare-horizon comparison mode.
    """
    rule = _mass._rule_for(_horizon_dimension(f, sigma), rule)
    if f is not None:
        bulk = bulk_mass(f, rule=rule, radial_level=radial_level)
    else:
        bulk = 0.0
    chain = af_chain_bounds(sigma, rule)
    boundary = float(chain[0])
    total = bulk + boundary
    return PenroseReport(bulk_term=bulk, boundary_term=boundary, mass=total,
                         af_chain=chain, slack=total - chain)


def penrose_report_dict(report):
    """JSON-ready dict of a PenroseReport; per_component repeats it for
    the one component, the graph with its horizon."""
    doc = {
        "bulk": float(report.bulk_term),
        "boundary": float(report.boundary_term),
        "mass": float(report.mass),
        "bounds": [float(b) for b in report.af_chain],
        "slack": [float(s) for s in report.slack],
    }
    return dict(doc, per_component=[dict(doc)])


def radial_graph_formulas(slope, r, n):
    """Closed forms for a radial graph: (L_2, mass density).

    L_2 = 24 [C(n-1,4) fr^4 / (r^4 (1+fr^2)^2)
              + C(n-1,3) fr^3 frr / (r^3 (1+fr^2)^3)],
    mass density = r^(n-4) fr^4 / 4, whose r -> infinity limit is the
    second-order mass.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise metrics.DomainError("radial formulas need r > 0")
    fr, frr, _ = slope.jet(r)
    W = 1.0 + fr ** 2
    L2 = 24.0 * (math.comb(n - 1, 4) * fr ** 4 / (r ** 4 * W ** 2)
                 + math.comb(n - 1, 3) * fr ** 3 * frr / (r ** 3 * W ** 3))
    density = r ** (n - 4) * fr ** 4 / 4.0
    return L2, density


def adm_graph_mass(f, rule=None, alpha=0.0, sigma=None, radial_level=64):
    """First-order mass of a graph from its bulk curvature integral.

    m = (1/(2(n-1) omega)) [ int (R + alpha L_2) dV_flat
                             + int_sigma (H_1 + 6 alpha H_3) dS ]
    where the boundary term appears only with a horizon sigma.
    """
    n = f.n
    rule = _mass._rule_for(n, rule)
    sigma = sigma if sigma is not None else f.horizon
    g = f.metric

    def F(pts):
        bund = curvature.riemann(g, pts)
        out = bund.scalar.copy()
        if alpha != 0.0:
            out = out + alpha * curvature.lovelock_L(2, g, pts, bund=bund)
        return out

    bulk = quadrature.ball_integral(F, _inner_radius(f), float("inf"), rule,
                                    radial_level=radial_level)
    boundary = 0.0
    if sigma is not None:
        int_h1, int_h3 = _quermass_integrals(sigma, (1, 3), rule)
        boundary = int_h1 + 6.0 * alpha * int_h3
    norm = 2.0 * (n - 1) * quadrature.sphere_volume(n)
    return (bulk + boundary) / norm


def egb_graph_penrose(f, sigma, alpha, rule=None, radial_level=64):
    """Gauss-Bonnet-corrected Penrose comparison for a graph with horizon.

    Returns a dict with the computed mass, the area-based lower bound
    (1/2)(|S|/omega)^((n-2)/(n-1)) + (alpha/2)(n-2)(n-3)(|S|/omega)^((n-4)/(n-1)),
    and the slack.  sigma defaults to f.horizon.
    """
    sigma = sigma if sigma is not None else f.horizon
    n = _horizon_dimension(f, sigma)
    rule = _mass._rule_for(n, rule)
    m_val = adm_graph_mass(f, rule=rule, alpha=alpha, sigma=sigma,
                           radial_level=radial_level)
    ratio = surface_area(sigma, rule) / quadrature.sphere_volume(n)
    bound = (0.5 * ratio ** ((n - 2) / (n - 1))
             + 0.5 * alpha * (n - 2) * (n - 3) * ratio ** ((n - 4) / (n - 1)))
    return {"mass": m_val, "bound": bound, "slack": m_val - bound,
            "alpha": alpha}
