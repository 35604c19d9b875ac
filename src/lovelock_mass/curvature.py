"""Pointwise curvature engine.

Christoffel symbols, the Riemann tensor under the convention

    R^m_{ijk} = d_i Gamma^m_{jk} - d_j Gamma^m_{ik}
                + Gamma^m_{is} Gamma^s_{jk} - Gamma^m_{js} Gamma^s_{ik},
    R_{ijkl} = R^m_{ijl} g_{mk},    R_{ik} = g^{jl} R_{ijkl},

and the derived objects: scalar curvature, Weyl/sigma_2 split, the
Gauss-Bonnet curvatures L_k, the divergence-free curvature 2-tensors
E^(k), and the rank-4 flux tensors P_(k).

riemann has one route for every metric: R_IJ on the index pairs of
multiindex.pairs from the metric's closed-form eval_curvature
(warped-product curvature for radial metrics, the Gauss equation for
graphs, a pullback through the Jacobian for pushforwards), with g,
g^-1 and dg.  Every other field of the bundle (Gamma, the pair matrix
R_I^J, the mixed Ricci tensor and R) is built from these when first
read, none rank 4: R = L_1 and Ricci, from E^(1) = Ric - (R/2) g, are
k = 1 read-offs of the engine below.  No second derivative of g is
evaluated; a metric without the hook raises ValueError.

L_k, E^(k) and P_(k) share one engine, the double-form route (Labbi,
Double forms, curvature structures and the (p,q)-curvatures, Trans. AMS
357, 2005; formulas in multiindex): the wedge power W_q of the
curvature operator R_I^J on 2q-subsets is built one factor at a time,
and each free-index slot sums signed entries of W_{k-1} (P) or W_k (E);
L_k is the trace of W_k.  For P_(3) at n = 8 that is 67 564 products
and 6 300 read-off terms per point, against 226 800 two-factor terms of
the expanded delta contraction.  The mass flux reads only the vector
P^{ijml} d_l g_jm, which p_tensor_general(flux=True) sums straight
from W_{k-1} and d_l g_jm with two raised indices, without P.

All operations are batched over points; a CurvatureBundle holds the
arrays for one batch, and callers that need several curvature objects
on the same batch compute it once and pass it on with bund=.

Raising a pair of indices is one (C(n,2), C(n,2)) matmul per point
with the second exterior power of g^-1: R_I^J and P_(k) are built
that way, and the raised d_l g_jm of the flux vector is two
(n, n) matmuls per point and index j.  Squared norms are traces of
mixed matrices: |Rm|^2 = 4 tr(R_I^J R_J^K), each pair counted twice,
and |Ric|^2 = tr(R_i^j R_j^k).  No result depends on the BLAS thread
count (the CLI rerun test compares outputs at one and two threads).
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .multiindex import (lovelock_scalar_table, p_tensor_table,
                         lovelock_einstein_table, pairs, pair_rank,
                         pair_product, unpair)
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

# batch-size * row-width budget for the wedge buffers: at 1e6 (8 MB a
# buffer) the P_(2) flux vector on 2048 points at n = 6 took 12 ms, at
# 6e6 31 ms (one BLAS thread)
_TERM_BUDGET = 1_000_000


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of one metric on one batch of points.

    riemann fills g, g^-1, dg and pair_lo[..., I, J] = R_IJ, the
    curvature on the pairs I = (i1 < i2), J = (j1 < j2) of
    multiindex.pairs; every other field is built from them on first read,
    and none is rank 4.  Index layout mirrors the formulas:
    gamma[..., k, i, j] = Gamma^k_ij, ginv_pairs[..., I, J] = the second
    exterior power of g^-1, pair[..., I, J] = R_I^J (the curvature
    operator), ricci_mix[..., i, k] = R_i^k (lower index first, as in
    pair) and scalar[...] = R.
    """

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    pair_lo: np.ndarray

    @cached_property
    def gamma(self):
        """Gamma^k_ij from dg and ginv: of the library only divergence_of_P
        reads it."""
        dg = self.dg
        # U[x,s,i,j] = d_j g_si + d_i g_sj - d_s g_ij
        U = dg + dg.transpose(0, 1, 3, 2) - dg.transpose(0, 3, 1, 2)
        return 0.5 * np.einsum('xks,xsij->xkij', self.ginv, U)

    @cached_property
    def ginv_pairs(self):
        return pair_product(self.ginv, self.ginv)

    @cached_property
    def pair(self):
        """R_I^J = R_IE ginv_pairs[E, J], summed over the pairs E."""
        return self.pair_lo @ self.ginv_pairs

    @cached_property
    def ricci_mix(self):
        """R_i^k = (R/2) delta_i^k - D^k_i / 4, D the read-off of
        E^(1) = Ric - (R/2) g in lovelock_einstein."""
        table = lovelock_einstein_table(self.g.shape[-1], 1)
        D = table.constant * _slot_matrix(table, self.pair)
        return (0.5 * self.scalar[:, None, None] * np.eye(table.n)
                - D.transpose(0, 2, 1) / 4.0)

    @cached_property
    def scalar(self):
        """R = L_1, twice the trace of pair."""
        return _lovelock_sum(self.g.shape[-1], 1, self.pair)


def riemann(g, x):
    """Curvature bundle at a batch of points: g, g^-1, dg and R_IJ from
    the metric's closed form; the other fields on first read."""
    pts, _ = _metrics._batch(x)
    if g.eval_curvature is None:
        raise ValueError(f"{g.name}: metric has no closed-form curvature "
                         "(eval_curvature is None)")
    gv = g.eval_g(pts)
    return CurvatureBundle(g=gv, ginv=np.linalg.inv(gv), dg=g.eval_dg(pts),
                           pair_lo=g.eval_curvature(pts))


def _chunks(B, T):
    step = max(1, _TERM_BUDGET // max(T, 1))
    for lo in range(0, B, step):
        yield lo, min(B, lo + step)


def _wedge_power(table, pair, width):
    """Yield (lo, hi, W) over chunks of points: W[e, x - lo] the entries of
    the table's wedge power of pair[x] that its read-off reads, points-last
    so every gather of the plan copies whole rows.  width is the row count
    of the caller's read-off; each chunk keeps its buffers in budget."""
    B = len(pair)
    flat = pair.reshape(B, -1)
    width = max([width, flat.shape[1]]
                + [r.shape[1] for r, _, _ in table.plan])
    for lo, hi in _chunks(B, width):
        R = np.ascontiguousarray(flat[lo:hi].T)
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
        yield lo, hi, W


def _wedge_sums(table, pair):
    """sums[G, x]: the read-off of the table's wedge power of the pair
    matrices pair[x, I, J] in the slot run G."""
    out = np.empty((len(table.group_starts), len(pair)))
    for lo, hi, W in _wedge_power(table, pair, len(table.signs)):
        out[:, lo:hi] = np.add.reduceat(W[table.index] * table.signs[:, None],
                                        table.group_starts, axis=0)
    return out


def _slot_matrix(table, pair):
    """out[x, U, L]: the read-off of the table's wedge power of pair[x] in
    the slot (U, L), U and L its free upper and lower index or the
    pair_rank of its free index pairs; zero in slots without terms."""
    slots, size = table.group_index, table.n
    if slots.shape[1] == 4:  # (s, t, a, b) -> the ranks of (s, t), (a, b)
        slots = pair_rank(size)[slots[:, ::2], slots[:, 1::2]]
        size = pair.shape[-1]
    out = np.zeros((len(pair), size, size))
    out[:, slots[:, 0], slots[:, 1]] = _wedge_sums(table, pair).T
    return out


def _lovelock_sum(n, k, pair):
    """L_k of the pair matrices pair[x]: constant times the trace of W_k."""
    table = lovelock_scalar_table(n, k)
    return table.constant * _wedge_sums(table, pair)[0]


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
    out = _lovelock_sum(n, k, bund.pair)
    return out[0] if single else out


def _trace_sq(mix):
    """tr(M M) of each mixed matrix M; see the module notes on norms."""
    return np.einsum('xij,xji->x', mix, mix)


def gauss_bonnet_L2_direct(g, x, bund=None):
    """L_2 from curvature norms: |Rm|^2 - 4 |Ric|^2 + R^2."""
    pts, single = _metrics._batch(x)
    if bund is None:
        bund = riemann(g, pts)
    out = (4.0 * _trace_sq(bund.pair) - 4.0 * _trace_sq(bund.ricci_mix)
           + bund.scalar ** 2)
    return out[0] if single else out


def p_tensor(g, x, bund=None, *, flux=False):
    """The rank-4 flux tensor P^{ijkl} of the second-order mass: P_(2);
    with flux=True the flux vector P^{ijml} d_l g_jm (p_tensor_general)."""
    return p_tensor_general(2, g, x, bund=bund, flux=flux)


@lru_cache(maxsize=None)
def _flux_readoff(n, k):
    """The read-off of p_tensor_table(n, k) regrouped by the flux vector's
    free index.

    P^{ijml} = constant C[i,j,a,b] g^{am} g^{bl} with C antisymmetric in
    (i, j) and in (a, b), so Y^i = P^{ijml} d_l g_jm = constant
    C[i,j,a,b] H[j,a,b] with H[j,a,b] = g^{am} g^{bl} d_l g_jm, and a
    read-off term sign * W[e] of the slot (s, t, a, b), s < t, a < b,
    adds sign * W[e] D[t,ab] to Y^s and subtracts sign * W[e] D[s,ab] from
    Y^t, D[j,ab] = H[j,a,b] - H[j,b,a].  Returns (w_rows, d_rows, runs):
    term T multiplies W[w_rows[T]] by row d_rows[T] of [D; -D] (D flat
    over (j, ab), ab the rank of the pair a < b), which carries the sign,
    and runs holds (i, lo, hi): terms lo..hi-1 sum to Y^i.
    """
    table = p_tensor_table(n, k)
    rank = pair_rank(n)
    s, t, a, b = np.repeat(table.group_index,
                           np.diff(table.group_starts,
                                   append=len(table.index)), axis=0).T
    ab, npairs = rank[a, b], math.comb(n, 2)
    half = n * npairs
    neg = np.where(table.signs < 0, half, 0)
    rows = np.concatenate([s, t])
    d_rows = np.concatenate([neg + t * npairs + ab,
                             half - neg + s * npairs + ab])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=n))
    runs = tuple((int(rows[lo]), int(lo), int(hi))
                 for lo, hi in zip(bounds[:-1], bounds[1:]))
    return np.tile(table.index, 2)[order], d_rows[order], runs


def _flux_vector(table, bund):
    """Y[x, i] = P_(k)^{ijml} d_l g_jm straight from the wedge power (see
    _flux_readoff), with neither C nor P built."""
    n = table.n
    w_rows, d_rows, runs = _flux_readoff(n, table.k)
    i1, i2 = pairs(n)
    ginv = bund.ginv[:, None]
    H = ginv @ (bund.dg @ ginv)
    D = (H[:, :, i1, i2] - H[:, :, i2, i1]).reshape(len(H), -1).T
    D = np.concatenate([D, -D])
    Y = np.zeros((n, len(H)))
    for lo, hi, W in _wedge_power(table, bund.pair, len(w_rows)):
        terms = W[w_rows]
        terms *= D[d_rows, lo:hi]
        for i, a, b in runs:
            Y[i, lo:hi] = terms[a:b].sum(axis=0)
    return table.constant * Y.T


def p_tensor_general(k, g, x, bund=None, *, flux=False):
    """The order-k rank-4 flux tensor P_(k), read off W_{k-1}.

    P_(1)^{ijlm} = (g^{il} g^{jm} - g^{im} g^{jl}) / 2; P_(2) is p_tensor,
    checked against its closed form in Ricci terms by the tests.  Returns
    the array P[..., i, j, l, m] = P_(k)^{ijlm}, all zeros with a warning
    when 2k > n.  With flux=True it returns only the vector the mass flux
    reads, Y[..., i] = P_(k)^{ijml} d_l g_jm, and builds neither P nor
    the raised curvature.
    """
    pts, single = _metrics._batch(x)
    n = g.n
    if 2 * k > n:
        warnings.warn(f"P_({k}) vanishes identically for 2k > n = {n}")
        Z = np.zeros((len(pts), n) if flux else (len(pts), n, n, n, n))
        return Z[0] if single else Z
    if bund is None:
        bund = riemann(g, pts)
    table = p_tensor_table(n, k)
    if flux:
        Y = _flux_vector(table, bund)
        return Y[0] if single else Y
    # C on pairs, P^{ST, LM} = constant C[S, A] ginv_pairs[A, LM]
    C = _slot_matrix(table, bund.pair)
    P = unpair(table.constant * (C @ bund.ginv_pairs))
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
    D = table.constant * _slot_matrix(table, bund.pair)
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
    eye = np.eye(n)
    R = bund.scalar
    # the mixed Schouten tensor S_i^k and W_I^J = R_I^J - (S o delta)_I^J
    S = (bund.ricci_mix - (R / (2.0 * (n - 1)))[:, None, None] * eye) / (n - 2)
    W = bund.pair - pair_product(S, eye) - pair_product(eye, S)
    weyl_norm_sq = 4.0 * _trace_sq(W)
    sigma2 = ((n * R ** 2 / (n - 1) - 4.0 * _trace_sq(bund.ricci_mix))
              / (8.0 * (n - 2) ** 2))
    return (_metrics._unbatch(weyl_norm_sq, single),
            _metrics._unbatch(sigma2, single))


def kulkarni_nomizu(A, B):
    """Kulkarni-Nomizu product of symmetric 2-tensor batches.

    (A o B)_ijkl = A_ik B_jl + A_jl B_ik - A_il B_jk - A_jk B_il.
    """
    return unpair(pair_product(A, B) + pair_product(B, A))


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
