"""Deterministic quadrature on coordinate spheres and radial shells.

The sphere rule is a product rule in hyperspherical angles: each polar
angle theta_j carries a sin^p weight that is folded into a Gauss-Jacobi
rule by the substitution t = cos(theta), and the azimuth is a uniform
(trapezoidal) rule, which is exact for trigonometric polynomials of
degree below the node count.  The resulting rule integrates polynomial
restrictions of degree <= 2*level - 1 exactly.

The Gauss-Jacobi nodes are the eigenvalues of the symmetric Jacobi
matrix (Golub & Welsch, Calculation of Gauss quadrature rules, Math.
Comp. 23, 1969), polished by Newton steps on the orthonormal three-term
recurrence; the weights are the Christoffel function 1 / sum_j p_j(t)^2
of the orthonormal polynomials, which is accurate to a few ulp where
the eigenvector weights of Golub-Welsch lose digits at the ends.

Every rule is reduced by rule_sum, numpy's pairwise sum of weights times
values, so no integral depends on the BLAS thread count.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereRule",
    "sphere_volume",
    "sphere_rule",
    "rule_sum",
    "surface_integral",
    "ball_integral",
]


def sphere_volume(n):
    """Surface measure omega_{n-1} of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _orthonormal(t, beta, mu0):
    """Orthonormal polynomials p_0..p_K of the symmetric Jacobi matrix with
    off-diagonals sqrt(beta[..., :K]) at the points t, and p_K'."""
    p_prev, p = np.zeros_like(t), np.broadcast_to(mu0 ** -0.5, t.shape)
    dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
    out, b_prev = [p], 0.0
    for b in np.sqrt(np.moveaxis(beta, -1, 0))[..., None]:
        # b p_{k+1} = t p_k - b_k p_{k-1}, differentiated alongside
        p_prev, p, dp_prev, dp = (p, (t * p - b_prev * p_prev) / b,
                                  dp, (p + t * dp - b_prev * dp_prev) / b)
        out.append(p)
        b_prev = b
    return out, dp


def _gauss_jacobi(level, a):
    """Nodes and weights of the level-point Gauss rules for (1 - t^2)^a,
    one row per entry of a (a scalar gives one rule)."""
    a = np.asarray(a, dtype=float)[..., None]
    k = np.arange(1.0, level + 1)
    # squared off-diagonals of the Jacobi matrix of alpha = beta = a
    beta = k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1))
    gamma = np.vectorize(math.gamma)
    mu0 = 2.0 ** (2 * a + 1) * gamma(a + 1) ** 2 / gamma(2 * a + 2)
    jac = np.zeros(a.shape[:-1] + (level, level))
    i = np.arange(level - 1)
    jac[..., i, i + 1] = jac[..., i + 1, i] = np.sqrt(beta[..., :-1])
    t = np.linalg.eigvalsh(jac)
    for _ in range(2):
        ps, dp = _orthonormal(t, beta, mu0)
        t = t - ps[-1] / dp
    t = 0.5 * (t - t[..., ::-1])
    ps, _ = _orthonormal(t, beta[..., :-1], mu0)
    w = 1.0 / sum(p * p for p in ps)
    return t, 0.5 * (w + w[..., ::-1])


@dataclass(frozen=True)
class SphereRule:
    """Nodes (unit vectors) and positive weights summing to omega_{n-1}."""

    n: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray


def sphere_rule(n, level):
    """Product quadrature rule on the unit sphere S^{n-1} in R^n.

    level is the Gauss node count per polar angle; the azimuth gets
    2*level uniform nodes, for level**(n-2) * 2*level nodes total.
    """
    if n < 3:
        raise ValueError("sphere_rule requires ambient dimension n >= 3")
    if level < 2:
        raise ValueError("level must be at least 2")
    # polar angle j = 1..n-2 carries sin^(n-1-j), so a = (n-2-j)/2
    polar_t, polar_w = _gauss_jacobi(level, (n - 2 - np.arange(1, n - 1)) / 2.0)
    m_az = 2 * level
    phi = 2.0 * math.pi * np.arange(m_az) / m_az
    az_w = np.full(m_az, 2.0 * math.pi / m_az)

    grids = np.meshgrid(*polar_t, phi, indexing="ij")
    wgrids = np.meshgrid(*polar_w, az_w, indexing="ij")
    tcols = [gr.ravel() for gr in grids[:-1]]
    phicol = grids[-1].ravel()
    weights = np.ones_like(phicol)
    for wg in wgrids:
        weights = weights * wg.ravel()

    N = len(phicol)
    nodes = np.empty((N, n))
    sin_prod = np.ones(N)
    for j, t in enumerate(tcols):
        nodes[:, j] = sin_prod * t
        sin_prod = sin_prod * np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes[:, n - 2] = sin_prod * np.cos(phicol)
    nodes[:, n - 1] = sin_prod * np.sin(phicol)
    return SphereRule(n=n, level=level, nodes=nodes, weights=weights)


def _finite_values(F, r, rule):
    """F at the rule's nodes on the sphere of radius r; non-finite values
    raise FloatingPointError."""
    vals = np.asarray(F(r * rule.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = rule.nodes[int(np.argmax(~np.isfinite(vals)))]
        raise FloatingPointError(
            f"integrand non-finite at node direction {bad.tolist()} (r={r})")
    return vals


def rule_sum(rule, values):
    """Weighted sum of node values, as a pairwise sum: a threaded BLAS dot
    splits long sums by thread count and so changes their last bits."""
    return float(np.sum(rule.weights * values))


def surface_integral(F, r, rule):
    """Integral of F over the coordinate sphere of radius r.

    F is a batched evaluator (N, n) -> (N,).  The outward unit normal at
    a node is the node vector itself.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    vals = _finite_values(F, r, rule)
    return float(r ** (rule.n - 1) * rule_sum(rule, vals))


def ball_integral(F, r_inner, r_outer, rule, radial_level=48):
    """Integral of F over a ball or annulus in flat Lebesgue measure.

    Gauss-Legendre in the radius composed with sphere shells.  An
    infinite r_outer is handled by the substitution r = r_inner + t/(1-t)
    on t in [0, 1), which assumes the integrand decays polynomially.
    """
    if not (0 <= r_inner and (np.isinf(r_outer) or r_inner < r_outer)):
        raise ValueError("require 0 <= r_inner < r_outer")
    t, w = _gauss_jacobi(radial_level, 0.0)
    if np.isinf(r_outer):
        tt = 0.5 * (t + 1.0)
        radii = r_inner + tt / (1.0 - tt)
        rad_w = 0.5 * w / (1.0 - tt) ** 2
    else:
        radii = 0.5 * (r_outer - r_inner) * t + 0.5 * (r_outer + r_inner)
        rad_w = 0.5 * (r_outer - r_inner) * w
    total = 0.0
    for rv, wv in zip(radii, rad_w):
        vals = _finite_values(F, rv, rule)
        total += wv * rv ** (rule.n - 1) * rule_sum(rule, vals)
    return total
