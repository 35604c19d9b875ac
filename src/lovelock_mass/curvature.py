"""Pointwise curvature engine.

Christoffel symbols, the Riemann tensor under the convention

    R^m_{ijk} = d_i Gamma^m_{jk} - d_j Gamma^m_{ik}
                + Gamma^m_{is} Gamma^s_{jk} - Gamma^m_{js} Gamma^s_{ik},
    R_{ijkl} = R^m_{ijl} g_{mk},    R_{ik} = g^{jl} R_{ijkl},

and the derived objects: scalar curvature, Weyl/sigma_2 split, the
Gauss-Bonnet curvatures L_k, the divergence-free curvature 2-tensors
E^(k), and the rank-4 flux tensors P_(k).

riemann has one route for every metric: R_ijkl from the metric's
closed-form eval_curvature (warped-product curvature for radial
metrics, the Gauss equation for graphs, a pullback through the
Jacobian for pushforwards), the other curvature fields from it, and
Gamma from dg and g^-1 when first read.  No second derivative of g is
evaluated; a metric without the hook raises ValueError.

L_k, E^(k) and P_(k) share one engine, the double-form route (Labbi,
Double forms, curvature structures and the (p,q)-curvatures, Trans. AMS
357, 2005; formulas in multiindex): the wedge power W_q of the
curvature operator R_I^J on 2q-subsets is built one factor at a time,
and each free-index slot sums signed entries of W_{k-1} (P) or W_k (E);
L_k is the trace of W_k.  For P_(3) at n = 8 that is 67 564 products
and 6 300 read-off terms per point, against 226 800 two-factor terms of
the expanded delta contraction.

All operations are batched over points; a CurvatureBundle holds the
arrays for one batch, and callers that need several curvature objects
on the same batch compute it once and pass it on with bund=.

Every einsum here with three or more operands passes optimize=True, so
numpy contracts it pairwise instead of in one loop nest over all its
indices (n^8 per point for the Weyl raise).  Every operand carries the
point index x, so each pairwise step is a matmul batched over points,
one product of at most n^5 multiply-adds per point; the results do not
depend on the BLAS thread count (the CLI rerun test compares outputs at
one and two threads).
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .multiindex import (lovelock_scalar_table, p_tensor_table,
                         lovelock_einstein_table)
from . import metrics as _metrics

__all__ = [
    "CurvatureBundle",
    "riemann",
    "lovelock_L",
    "gauss_bonnet_L2_direct",
    "p_tensor",
    "p_tensor_general",
    "lovelock_einstein",
    "weyl_sigma2_split",
    "divergence_of_P",
    "kulkarni_nomizu",
]

# batch-size * row-width budget for the wedge buffers
_TERM_BUDGET = 6_000_000


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of one metric on one batch of points.

    Index layout mirrors the formulas: gamma[..., k, i, j] = Gamma^k_ij,
    riemann_lo[..., i, j, k, l] = R_ijkl, riemann_mix[..., a, b, c, d]
    = R_ab^cd, ricci[..., i, k] = R_ik, scalar[...] = R.
    """

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    riemann_lo: np.ndarray
    riemann_mix: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray

    @cached_property
    def gamma(self):
        """Gamma^k_ij from dg and ginv, built on first use: of the
        library only divergence_of_P reads it."""
        dg = self.dg
        # U[x,s,i,j] = d_j g_si + d_i g_sj - d_s g_ij
        U = dg + dg.transpose(0, 1, 3, 2) - dg.transpose(0, 3, 1, 2)
        return 0.5 * np.einsum('xks,xsij->xkij', self.ginv, U)


def riemann(g, x):
    """Full curvature bundle at a batch of points."""
    pts, _ = _metrics._batch(x)
    if g.eval_curvature is None:
        raise ValueError(f"{g.name}: metric has no closed-form curvature "
                         "(eval_curvature is None)")
    gv = g.eval_g(pts)
    dg = g.eval_dg(pts)
    ginv = np.linalg.inv(gv)
    riemann_lo = g.eval_curvature(pts)
    riemann_mix = np.einsum('xijef,xec,xfd->xijcd', riemann_lo, ginv, ginv,
                            optimize=True)
    ricci = np.einsum('xjl,xijkl->xik', ginv, riemann_lo)
    scalar = np.einsum('xik,xik->x', ginv, ricci)
    return CurvatureBundle(g=gv, ginv=ginv, dg=dg,
                           riemann_lo=riemann_lo, riemann_mix=riemann_mix,
                           ricci=ricci, scalar=scalar)


def _chunks(B, T):
    step = max(1, _TERM_BUDGET // max(T, 1))
    for lo in range(0, B, step):
        yield lo, min(B, lo + step)


def _wedge_sums(table, rmix):
    """sums[G, x]: the read-off of the table's wedge power of rmix in
    the slot run G.  Each chunk of points works points-last, so every
    gather of the plan copies whole rows."""
    B = len(rmix)
    out = np.empty((len(table.group_starts), B))
    width = max([len(table.signs), len(table.pairs)]
                + [r.shape[1] for r, _, _ in table.plan])
    pairs = (slice(None),) + tuple(table.pairs.T)
    for lo, hi in _chunks(B, width):
        R = np.ascontiguousarray(rmix[lo:hi][pairs].T)
        W = R if table.q else np.ones((1, hi - lo))
        for r_index, w_index, signs in table.plan:
            nxt = np.zeros((r_index.shape[1], hi - lo))
            for r, w, s in zip(r_index, w_index, signs):
                term = R[r]
                term *= W[w]
                if s > 0:
                    nxt += term
                else:
                    nxt -= term
            W = nxt
        out[:, lo:hi] = np.add.reduceat(W[table.index] * table.signs[:, None],
                                        table.group_starts, axis=0)
    return out


def lovelock_L(k, g, x, bund=None):
    """k-th Gauss-Bonnet curvature L_k; L_1 is the scalar curvature.

    Returns 0 with a warning when 2k > n; k = n/2 is the Euler-density
    borderline and is allowed.
    """
    pts, single = _metrics._batch(x)
    n = g.n
    if 2 * k > n:
        warnings.warn(f"L_{k} vanishes identically for 2k > n = {n}")
        out = np.zeros(len(pts))
        return out[0] if single else out
    if bund is None:
        bund = riemann(g, pts)
    table = lovelock_scalar_table(n, k)
    out = table.constant * _wedge_sums(table, bund.riemann_mix)[0]
    return out[0] if single else out


def _ricci_norm_sq(bund):
    """|Ric|^2 = R_ij R^ij at each point."""
    ric_up = np.einsum('xia,xab,xbj->xij', bund.ginv, bund.ricci, bund.ginv,
                       optimize=True)
    return np.einsum('xij,xij->x', bund.ricci, ric_up)


def gauss_bonnet_L2_direct(g, x, bund=None):
    """L_2 from curvature norms: |Rm|^2 - 4 |Ric|^2 + R^2."""
    pts, single = _metrics._batch(x)
    if bund is None:
        bund = riemann(g, pts)
    norm_rm = np.einsum('xabcd,xcdab->x', bund.riemann_mix, bund.riemann_mix)
    out = norm_rm - 4.0 * _ricci_norm_sq(bund) + bund.scalar ** 2
    return out[0] if single else out


def p_tensor(g, x, bund=None):
    """The rank-4 flux tensor P^{ijkl} of the second-order mass: P_(2)."""
    return p_tensor_general(2, g, x, bund=bund)


def p_tensor_general(k, g, x, bund=None):
    """The order-k rank-4 flux tensor P_(k), read off W_{k-1}.

    P_(1)^{ijlm} = (g^{il} g^{jm} - g^{im} g^{jl}) / 2; P_(2) is p_tensor,
    checked against its closed form in Ricci terms by the tests.  Returns
    the array P[..., i, j, l, m] = P_(k)^{ijlm}, all zeros with a warning
    when 2k > n.
    """
    pts, single = _metrics._batch(x)
    n = g.n
    if 2 * k > n:
        warnings.warn(f"P_({k}) vanishes identically for 2k > n = {n}")
        Z = np.zeros((len(pts), n, n, n, n))
        return Z[0] if single else Z
    if bund is None:
        bund = riemann(g, pts)
    table = p_tensor_table(n, k)
    # C is allocated before the wedge temporaries and none of them is
    # alive at the einsum, so the einsum's arrays fit blocks riemann
    # freed: otherwise mass-k2's peak memory rose by 20 MB
    C = np.zeros((len(pts), n, n, n, n))
    sums = _wedge_sums(table, bund.riemann_mix).T
    s, t, a, b = table.group_index.T
    C[:, s, t, a, b] = C[:, t, s, b, a] = sums
    C[:, t, s, a, b] = C[:, s, t, b, a] = -sums
    del sums
    ginv = bund.ginv
    P = table.constant * np.einsum('xstab,xal,xbm->xstlm', C, ginv, ginv,
                                   optimize=True)
    return P[0] if single else P


def lovelock_einstein(k, g, x, bund=None):
    """The divergence-free symmetric curvature 2-tensor of order k.

    k = 1 gives Ric - (R/2) g; the k = 2 tensor matches the expanded
    quadratic-curvature form (tested).  Indices are both covariant.
    """
    pts, single = _metrics._batch(x)
    n = g.n
    if 2 * k > n:
        raise ValueError(f"require 2k <= n, got k={k}, n={n}")
    if bund is None:
        bund = riemann(g, pts)
    table = lovelock_einstein_table(n, k)
    D = np.zeros((len(pts), n, n))
    D[(slice(None),) + tuple(table.group_index.T)] = (
        table.constant * _wedge_sums(table, bund.riemann_mix).T)
    E = -(1.0 / 2.0 ** (k + 1)) * np.einsum('xli,xlj->xij', bund.g, D)
    return E[0] if single else E


def weyl_sigma2_split(g, x, bund=None):
    """Split L_2 into Weyl and Schouten parts.

    Returns (|W|^2, sigma_2) with sigma_2 the second elementary symmetric
    function of the Schouten tensor, so that
    L_2 = |W|^2 + 8 (n-2)(n-3) sigma_2.
    """
    pts, single = _metrics._batch(x)
    n = g.n
    if bund is None:
        bund = riemann(g, pts)
    gv, ginv = bund.g, bund.ginv
    R = bund.scalar
    schouten = (bund.ricci - (R / (2.0 * (n - 1)))[:, None, None] * gv) / (n - 2)
    W = bund.riemann_lo - kulkarni_nomizu(schouten, gv)
    W_hi = np.einsum('xijkl,xia,xjb,xkc,xld->xabcd', W, ginv, ginv, ginv, ginv,
                     optimize=True)
    weyl_norm_sq = np.einsum('xijkl,xijkl->x', W, W_hi)
    sigma2 = ((n * R ** 2 / (n - 1) - 4.0 * _ricci_norm_sq(bund))
              / (8.0 * (n - 2) ** 2))
    if single:
        return weyl_norm_sq[0], sigma2[0]
    return weyl_norm_sq, sigma2


def kulkarni_nomizu(A, B):
    """Kulkarni-Nomizu product of symmetric 2-tensor batches.

    (A o B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.
    """
    return (np.einsum('xik,xjl->xijkl', A, B)
            + np.einsum('xjl,xik->xijkl', A, B)
            - np.einsum('xil,xjk->xijkl', A, B)
            - np.einsum('xjk,xil->xijkl', A, B))


def divergence_of_P(k, g, x):
    """Covariant divergence on the first slot of P_(k); expected ~ 0.

    div[..., j, k, l] = d_i P^{ijkl} + Gamma-correction terms on all four
    slots.  The outer partial derivative is a central difference of the
    P field with the wide step, so the result is a numerical residual,
    not an exact zero.
    """
    pts, single = _metrics._batch(x)
    dP = _metrics.central_difference(lambda p: p_tensor_general(k, g, p),
                                     pts, _metrics.fd_step_second(pts))
    bund = riemann(g, pts)
    P = p_tensor_general(k, g, pts, bund=bund)
    gamma = bund.gamma
    div = (np.einsum('xijkli->xjkl', dP)
           + np.einsum('xiis,xsjkl->xjkl', gamma, P)
           + np.einsum('xjis,xiskl->xjkl', gamma, P)
           + np.einsum('xkis,xijsl->xjkl', gamma, P)
           + np.einsum('xlis,xijks->xjkl', gamma, P))
    return div[0] if single else div
