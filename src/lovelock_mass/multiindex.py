"""Combinatorial kernel for antisymmetrized tensor contractions.

Generalized Kronecker deltas, permutation signs, and precomputed term
tables for the delta-contracted curvature polynomials.  All public
indices are 0-based; the classical formulas use 1-based labels, shift
by one when comparing with a textbook display.

The term tables exploit the symmetry R_{ab}^{cd} = R_{ba}^{dc} and the
pair-exchange symmetry of the delta symbol to shrink the permutation
sum: the upper multi-index runs over canonical matchings only and the
lower one over orderings with ascending canonical blocks, with the
absorbed multiplicity restored as an overall integer factor.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "gen_kronecker_delta",
    "antisymmetric_index_pairs",
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


def antisymmetric_index_pairs(n, k):
    """Yield (increasing 2k-subset, multiplicity) for the delta-sum support.

    Each strictly increasing 2k-tuple over range(n) is produced once
    together with the number of signed permutations it represents, so
    the full antisymmetrized sum has sum-of-multiplicities
    (2k)! * C(n, 2k) terms.  Empty for 2k > n.
    """
    if 2 * k > n:
        return
    mult = math.factorial(2 * k)
    for subset in itertools.combinations(range(n), 2 * k):
        yield subset, mult


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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
