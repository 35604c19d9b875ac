"""Combinatorial kernel for antisymmetrized tensor contractions.

Generalized Kronecker deltas, permutation signs, and precomputed term
tables for the delta-contracted curvature polynomials.  All public
indices are 0-based; the classical formulas use 1-based labels, shift
by one when comparing with a textbook display.

The Gauss-Bonnet curvature L_k, the Lovelock tensor E^(k) and the flux
tensor P_(k) are one contraction: a generalized delta of order 2q + f
against q mixed Riemann factors R_{ab}^{cd}, with f upper and f lower
indices left free (f = 0 for L_k, 1 for E^(k), 2 for P_(k)).  One
builder makes all three term tables.  It writes the terms of a single
sorted (2q + f)-subset once per (q, f), as a pattern over the positions
0..2q+f-1, and maps that pattern onto every subset of range(n) by array
indexing.  In each term the f free indices come first on both rows of
the delta; free upper indices ascend, so P stores only its s < t half.

The pattern exploits the symmetry R_{ab}^{cd} = R_{ba}^{dc} and the
pair-exchange symmetry of the delta symbol to shrink the permutation
sum: the other upper indices run over canonical matchings only and the
lower ones over orderings with ascending canonical blocks, with the
absorbed multiplicity restored as an overall integer factor.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "gen_kronecker_delta",
    "permutation_sign",
    "relative_sign",
    "canonical_matchings",
    "ascending_block_orderings",
    "GroupedTermTable",
    "lovelock_scalar_table",
    "p_tensor_table",
    "lovelock_einstein_table",
]

MAX_DELTA_ORDER = 6


def permutation_sign(perm):
    """Sign of a permutation given as a tuple of distinct integers."""
    return relative_sign(tuple(sorted(perm)), tuple(perm))


def relative_sign(src, dst):
    """Sign of the permutation carrying tuple src onto tuple dst.

    Both tuples must contain the same distinct elements.
    """
    idx = [src.index(v) for v in dst]
    sign, seen = 1, [False] * len(idx)
    for i in range(len(idx)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = idx[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _delta_cached(upper, lower):
    # Laplace expansion of det(delta^{u_a}_{l_b}) in exact ints.
    r = len(upper)
    if r == 1:
        return 1 if upper[0] == lower[0] else 0
    total = 0
    for b, lv in enumerate(lower):
        if upper[0] != lv:
            continue
        minor = _delta_cached(upper[1:], lower[:b] + lower[b + 1:])
        total += (-1) ** b * minor
    return total


def gen_kronecker_delta(upper, lower, n=None):
    """Generalized Kronecker delta of matching upper/lower index tuples.

    Returns det(delta^{u_a}_{l_b}), an integer in {-1, 0, +1}.  Raises
    ValueError on length mismatch, empty tuples, order above
    MAX_DELTA_ORDER, or (when n is given) out-of-range entries.
    """
    upper, lower = tuple(upper), tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("upper and lower index tuples differ in length")
    if not 1 <= len(upper) <= MAX_DELTA_ORDER:
        raise ValueError(f"delta order must be in [1, {MAX_DELTA_ORDER}]")
    if n is not None:
        for v in upper + lower:
            if not 0 <= v < n:
                raise ValueError(f"index {v} out of range for dimension {n}")
    if len(set(upper)) < len(upper) or set(upper) != set(lower):
        return 0
    return _delta_cached(upper, lower)


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


@lru_cache(maxsize=None)
def _pattern(q, f):
    """Terms of one sorted (2q + f)-subset as (signs, ups, los).

    ups[T] and los[T] are the upper and lower rows of term T as
    positions in the subset: the f free positions, then q factor
    blocks.  The lower rows are orderings of the non-free upper
    positions followed by the free ones; that order fixes the order of
    the terms within each slot, and with it the rounding of the sums.
    """
    m = 2 * q + f
    signs, ups, los = [], [], []
    for fu in itertools.combinations(range(m), f):
        rest = [p for p in range(m) if p not in fu]
        lowers = ascending_block_orderings(rest + list(fu), q)
        for up in canonical_matchings(rest):
            up = up + fu
            for lo in lowers:
                signs.append(relative_sign(lo, up))
                # moving the free indices to the front of both rows
                # crosses the same 2q indices twice: the sign stays
                ups.append(up[2 * q:] + up[:2 * q])
                los.append(lo[2 * q:] + lo[:2 * q])
    return (np.array(signs, dtype=float),
            np.array(ups, dtype=np.intp).reshape(-1, m),
            np.array(los, dtype=np.intp).reshape(-1, m))


def _delta_table(n, k, q, f, constant):
    """Term table with q Riemann factors and f free index pairs at
    dimension n; the slot of a term is its free upper then free lower
    indices."""
    m = 2 * q + f
    if m > n:
        # no subset, no terms: skip the pattern, which costs (2q + f)!
        return GroupedTermTable(n, k, constant, signs=np.zeros(0),
                                factors=np.zeros((0, 0, 4), dtype=np.intp),
                                group_starts=np.zeros(0, dtype=np.intp),
                                group_index=np.zeros((0, 2 * f), dtype=np.intp))
    signs, ups, los = _pattern(q, f)
    subsets = np.array(list(itertools.combinations(range(n), m)),
                       dtype=np.intp).reshape(-1, m)
    U = subsets[:, ups].reshape(-1, m)
    L = subsets[:, los].reshape(-1, m)
    slots = np.concatenate([U[:, :f], L[:, :f]], axis=1)
    # each slot as one base-n number; the stable sort keeps the subset
    # and pattern order of the terms within a slot
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


@lru_cache(maxsize=None)
def lovelock_scalar_table(n, k):
    """Term table for the k-th Gauss-Bonnet curvature L_k at dimension n.

    L_k = constant * sum(sign * prod_t Rmix[u_{2t}, u_{2t+1}, l_{2t}, l_{2t+1}])
    with Rmix[a, b, c, d] = R_{ab}^{cd}.
    """
    return _delta_table(n, k, k, 0, float(2 ** k * math.factorial(k)))


@lru_cache(maxsize=None)
def p_tensor_table(n, k):
    """Term table for the coefficient tensor C of the rank-4 P field.

    P^{stlm} = constant * C[s,t,a,b] g^{al} g^{bm} where C collects the
    delta-contracted products of (k-1) mixed Riemann factors.  Only
    slots (s, t, a, b) with s < t are stored; the s > t half is the
    negative.
    """
    return _delta_table(n, k, k - 1, 2,
                        4.0 ** (k - 1) * math.factorial(k - 1) / 2.0 ** k)


@lru_cache(maxsize=None)
def lovelock_einstein_table(n, k):
    """Term table for the divergence-free curvature 2-tensor of order k.

    E_{ij} = -(1/2^{k+1}) g_{li} D^l_j with D = constant * grouped sum of
    k mixed Riemann factors; slots are (l, j).
    """
    return _delta_table(n, k, k, 1, 4.0 ** k * math.factorial(k))
