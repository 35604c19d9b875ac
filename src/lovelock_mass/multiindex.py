"""Combinatorial kernel for antisymmetrized tensor contractions.

Relative permutation signs, index pairs and precomputed wedge tables
for the delta-contracted curvature polynomials.  All public indices are
0-based; the classical formulas use 1-based labels, shift by one when
comparing with a textbook display.

Curvature is a matrix on the pairs I = (i1 < i2) of pairs(n).
pair_product gives second exterior powers (A = B) and Kulkarni-Nomizu
products (A o B = pair_product(A, B) + pair_product(B, A)) in that
form; pair_rank gives the position of a pair in that order, and unpair
gives the rank-4 tensor of a pair matrix.

The Gauss-Bonnet curvature L_k, the Lovelock tensor E^(k) and the flux
tensor P_(k) are one contraction: a generalized delta of order 2q + f
against q mixed Riemann factors R_{ab}^{cd}, with f upper and f lower
indices left free (f = 0 for L_k, 1 for E^(k), 2 for P_(k)).

All three are built as double forms (Labbi, Trans. AMS 357, 2005).  R
is a matrix R_I^J on the pairs of range(n), and its wedge power W_q on
the 2q-subsets K, L satisfies

    W_q[K, L] = sum eps(K; I, K-I) eps(L; J, L-J) R_I^J W_{q-1}[K-I, L-J]

over the pairs I of K that hold min K and all pairs J of L, with
W_0 = 1 and eps the sign of the sorted set -> (pair, rest).  The slot
(u, l) of f free upper and f free lower indices then reads

    sum_S sgn(S -> u K) sgn(S -> l L) W_q[K, L],   K = S - u, L = S - l,

over the (2q + f)-subsets S that hold u and l.  For f = 0 there is one
slot, the trace of W_q: L_k reads W_k on its diagonal.

From k = 3 on the tables serve the curvature operator of an
orthonormal frame, a symmetric matrix, so every W_q is symmetric and so
is every read-off: slot (l, u) sums the terms of slot (u, l) with K and
L swapped.  Such a WedgeTable (frame set) reads only the K <= L half of
W_q and of R, and sums only the slots with u <= l (as base-n numbers);
the caller fills the other half of a slot matrix by symmetry.  Below
k = 3 a table reads the coordinate operator R_I^J and all of W_q.  The
plan builds, step by step, only the entries of W_p that the next step
or the read-off reads; plan and read-off are built from one pattern
over the positions of a sorted subset, mapped onto every subset of
range(n) by array indexing.  grouped_runs orders the terms so that the
slots of each term count form one run, summed by one reshape.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "relative_sign",
    "pairs",
    "pair_rank",
    "pair_product",
    "unpair",
    "grouped_runs",
    "WedgeTable",
    "lovelock_scalar_table",
    "p_tensor_table",
    "lovelock_einstein_table",
]


def relative_sign(src, dst):
    """Sign of the permutation carrying tuple src onto tuple dst.

    Both tuples must contain the same distinct elements.
    """
    idx = [src.index(v) for v in dst]
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def pairs(n):
    """(i1, i2), the pairs i1 < i2 of range(n) in lexicographic order: the
    one pair order of the package (read-only, as every caller shares it)."""
    sub = np.ascontiguousarray(_subsets(n, 2).T)
    sub.flags.writeable = False
    return tuple(sub)


@lru_cache(maxsize=None)
def pair_rank(n):
    """rank[i, j] = rank[j, i], the index of the pair {i, j} in pairs(n)."""
    rank = np.zeros((n, n), dtype=np.intp)
    i1, i2 = pairs(n)
    rank[i1, i2] = rank[i2, i1] = np.arange(len(i1))
    rank.flags.writeable = False
    return rank


def pair_product(A, B):
    """out[..., I, J] = A_i1j1 B_i2j2 - A_i1j2 B_i2j1 over the pairs
    I = (i1 < i2), J = (j1 < j2) of batched (..., n, n) matrices."""
    n = A.shape[-1]
    a1b1, a2b2, a1b2, a2b1 = _pair_entries(n)
    A = A.reshape(A.shape[:-2] + (n * n,))
    B = B.reshape(B.shape[:-2] + (n * n,))
    out = np.take(A, a1b1, axis=-1) * np.take(B, a2b2, axis=-1)
    out -= np.take(A, a1b2, axis=-1) * np.take(B, a2b1, axis=-1)
    return out


@lru_cache(maxsize=None)
def _pair_entries(n):
    """The flat entries (i1, j1), (i2, j2), (i1, j2), (i2, j1) of an (n, n)
    matrix over the pairs I = (i1 < i2), J = (j1 < j2), each (C(n,2), C(n,2))."""
    i1, i2 = pairs(n)
    a, b = i1[:, None] * n, i2[:, None] * n
    return a + i1, b + i2, a + i2, b + i1


def unpair(P):
    """The rank-4 tensor T[..., i, j, k, l] antisymmetric in (i, j) and in
    (k, l) whose pair matrix is P[..., I, J]."""
    n = (1 + math.isqrt(1 + 8 * P.shape[-1])) // 2
    i1, i2 = pairs(n)
    a, b = i1[:, None], i2[:, None]
    T = np.zeros(P.shape[:-2] + (n, n, n, n))
    T[..., a, b, i1, i2] = T[..., b, a, i2, i1] = P
    T[..., b, a, i1, i2] = T[..., a, b, i2, i1] = -P
    return T


@dataclass(frozen=True)
class WedgeTable:
    """Wedge-power plan and read-off of one free-index curvature tensor.

    R is the curvature operator over the pairs of pairs(n): the
    symmetric frame matrix R_AB (CurvatureBundle.frame_pair) when frame
    is set, else the coordinate matrix R_I^J (CurvatureBundle.pair);
    frame is set from k = 3 on.  R is flattened over its (I, J) entries,
    I * C(n,2) + J, and W_p the same way over its (K, L) entries, K and
    L the sorted 2p-subsets, so W_0 = 1 and W_1 = R.  With frame set
    every index below reads an entry with K <= L (I <= J for R).  The
    table reads W_q, and plan[p - 2] = (r_index, w_index, signs) builds
    the entries of W_p that the next step reads, from R and W_{p-1}:

        W_p[:] = sum_t signs[t] * R[r_index[t]] * W_{p-1}[w_index[t]]

    The read-off of W_q sums signs[T] * W[index[T]] over runs of terms:
    runs holds (r0, r1, t0, t1), terms t0..t1-1 in r1 - r0 equal runs
    that fill slot rows r0..r1-1, and row G is the slot group_index[G],
    its free upper then free lower indices (upper <= lower with frame).
    """

    n: int
    k: int
    q: int
    constant: float
    frame: bool
    plan: tuple
    signs: np.ndarray
    index: np.ndarray
    runs: tuple
    group_index: np.ndarray


def _subsets(n, m):
    """The sorted m-subsets of range(n) in lexicographic order, (N, m)."""
    return np.array(list(itertools.combinations(range(n), m)),
                    dtype=np.intp).reshape(math.comb(n, m), m)


def _ranks(sub, n):
    """Lexicographic rank of the sorted subsets sub[..., m] among the
    m-subsets of range(n): as base-n numbers they ascend with it."""
    powers = n ** np.arange(sub.shape[-1] - 1, -1, -1)
    return np.searchsorted(_subsets(n, sub.shape[-1]) @ powers, sub @ powers)


def _splits(m, f, first=False):
    """(heads, rests, signs) over the f-subsets head of the positions
    range(m), only those holding position 0 if first: rest holds the
    other positions, sign is that of range(m) -> head + rest."""
    heads = [head for head in itertools.combinations(range(m), f)
             if not first or 0 in head]
    rests = [tuple(p for p in range(m) if p not in head) for head in heads]
    signs = [relative_sign(tuple(range(m)), head + rest)
             for head, rest in zip(heads, rests)]
    return (np.array(heads, dtype=np.intp).reshape(len(heads), f),
            np.array(rests, dtype=np.intp).reshape(len(heads), m - f),
            np.array(signs, dtype=float))


def _wedge_step(n, q):
    """The plan entry of W_q at dimension n, q >= 2.

    W_q[K, L] = sum eps(K; I, K-I) eps(L; J, L-J) R_I^J W_{q-1}[K-I, L-J]
    over the pairs I of K that hold min K and all pairs J of L.  Term
    t = (I, J) is a pair of positions in K and in L, so its sign is the
    same for every entry.
    """
    sub = _subsets(n, 2 * q)
    hi, ri, si = _splits(2 * q, 2, first=True)
    hj, rj, sj = _splits(2 * q, 2)
    row = _ranks(sub[:, hi], n) * math.comb(n, 2)
    col = _ranks(sub[:, hj], n)
    kr = _ranks(sub[:, ri], n) * math.comb(n, 2 * q - 2)
    lr = _ranks(sub[:, rj], n)
    shape = (len(hi) * len(hj), len(sub) ** 2)
    r_index = (row.T[:, None, :, None] + col.T[None, :, None, :]).reshape(shape)
    w_index = (kr.T[:, None, :, None] + lr.T[None, :, None, :]).reshape(shape)
    return r_index, w_index, np.outer(si, sj).ravel()


def grouped_runs(key):
    """(order, runs, starts) of items grouped by equal key, for sums of
    each group as one reshape per group size.

    order sorts the items by the size of their group, then by key, keeping
    the item order within a group; runs holds (r0, r1, t0, t1): items
    order[t0:t1] form the groups r0..r1-1, all of the same size, one after
    the other; the items of group G start at order[starts[G]].
    """
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    group = np.cumsum(np.diff(sorted_key, prepend=sorted_key[:1]) != 0)
    counts = np.bincount(group)
    position = np.empty_like(counts)
    position[np.argsort(counts, kind="stable")] = np.arange(len(counts))
    order = order[np.argsort(position[group], kind="stable")]
    counts = np.sort(counts)
    ends = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    bounds = np.flatnonzero(np.diff(counts, prepend=-1, append=-1))
    runs = tuple((int(r0), int(r1), int(ends[r0]), int(ends[r1]))
                 for r0, r1 in zip(bounds[:-1], bounds[1:]))
    return order, runs, ends[:-1]


def _fold(flat, size, frame):
    """Flat entries K * size + L of a symmetric (size, size) matrix moved
    to the K <= L half; unchanged without frame."""
    if not frame:
        return flat
    K, L = np.divmod(flat, size)
    return np.minimum(K, L) * size + np.maximum(K, L)


def _readoff(n, q, f, frame):
    """(signs, index, runs, group_index) of the read-off of W_q with f
    free index pairs; with frame only on the slots (u, l) with u <= l.

    The slot (u, l) of f ascending upper and f ascending lower indices
    collects sgn(S -> u K) sgn(S -> l L) W_q[K, L] over the (2q + f)-subsets
    S that hold u and l, with K = S - u and L = S - l (read at K <= L with
    frame).  Slots are sorted by their term count, then by (u, l); within
    a slot terms keep the subset order.
    """
    sub = _subsets(n, 2 * q + f)
    heads, rests, signs = _splits(2 * q + f, f)
    # heads ascend with position, so u <= l is head iu <= head il
    h = len(heads)
    iu, il = np.triu_indices(h) if frame else np.indices((h, h)).reshape(2, -1)
    rank = _ranks(sub[:, rests], n)
    index = _fold(rank[:, iu] * math.comb(n, 2 * q) + rank[:, il],
                  math.comb(n, 2 * q), frame).ravel()
    up = sub[:, heads]
    slots = np.concatenate([up[:, iu], up[:, il]],
                           axis=2).reshape(len(sub) * len(iu), 2 * f)
    order, runs, starts = grouped_runs(
        slots @ n ** np.arange(2 * f - 1, -1, -1))
    return (np.tile(np.outer(signs, signs)[iu, il], len(sub))[order],
            index[order], runs, slots[order][starts])


def _wedge_table(n, k, q, f, constant):
    """The read-off of W_q with f free index pairs and its plan (both
    empty when 2q + f > n).  Walking back from the read-off, each step
    builds only the entries of W_p that its reader reads (K <= L with
    frame); W_0 and W_1 need no step.

    Below k = 3 the plan is empty or builds only the diagonal of W_2
    (L_2), and E^(2) is on no mass path, so the frame would only add
    its own cost: those tables read the coordinate operator.
    """
    frame = k >= 3
    signs, index, runs, slots = _readoff(n, q, f, frame)
    steps = [_wedge_step(n, p) for p in range(2, q + 1) if 2 * q + f <= n]
    plan = []
    reads = index
    for p in range(len(steps) + 1, 1, -1):
        r_index, w_index, step_signs = steps[p - 2]
        used, inverse = np.unique(reads, return_inverse=True)
        if plan:
            plan[0] = (plan[0][0], inverse.reshape(reads.shape), plan[0][2])
        else:
            index = inverse.reshape(reads.shape)
        reads = _fold(w_index[:, used], math.comb(n, 2 * p - 2), frame)
        plan.insert(0, (_fold(r_index[:, used], math.comb(n, 2), frame),
                        reads, step_signs))
    return WedgeTable(n, k, q, constant, frame, tuple(plan), signs, index,
                      runs, slots)


@lru_cache(maxsize=None)
def lovelock_scalar_table(n, k):
    """Wedge table for the k-th Gauss-Bonnet curvature L_k at dimension n.

    L_k = constant * the trace of W_k, the read-off with no free index.
    """
    return _wedge_table(n, k, k, 0, float(2 ** k * math.factorial(k)))


@lru_cache(maxsize=None)
def p_tensor_table(n, k):
    """Wedge table for the coefficient tensor C of the rank-4 P field.

    P^{stlm} = constant * C[s,t,a,b] g^{al} g^{bm} with C the read-off of
    W_{k-1} in the slots (s, t, a, b), s < t and a < b; C is
    antisymmetric in (s, t) and in (a, b).  In the frame (k >= 3) g^-1 is
    the unit matrix, C is symmetric under (s, t) <-> (a, b) and only the
    slots with (s, t) <= (a, b) are read off.
    """
    return _wedge_table(n, k, k - 1, 2,
                        4.0 ** (k - 1) * math.factorial(k - 1) / 2.0 ** k)


@lru_cache(maxsize=None)
def lovelock_einstein_table(n, k):
    """Wedge table for the divergence-free curvature 2-tensor of order k.

    E_{ij} = -(1/2^{k+1}) g_{li} D^l_j with D = constant * the read-off
    of W_k in the slots (l, j).  In the frame (k >= 3) g is the unit
    matrix, D is symmetric and only the slots with l <= j are read off.
    """
    return _wedge_table(n, k, k, 1, 4.0 ** k * math.factorial(k))
