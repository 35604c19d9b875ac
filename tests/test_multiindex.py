import itertools
import types
import warnings

import numpy as np
import pytest

from lovelock_mass import multiindex as mi

import oracles


def test_permutation_sign_cycles():
    assert mi.relative_sign((0, 1, 2), (1, 2, 0)) == 1
    assert mi.relative_sign((0, 1, 2), (0, 2, 1)) == -1
    assert mi.relative_sign((3, 1, 2), (1, 2, 3)) == 1


def test_scalar_table_matches_raw_delta_contraction():
    # the reduced term table must equal the defining contraction
    # (1/2^k) delta^{I}_{J} prod R_{i i'}^{j j'} summed over all tuples,
    # evaluated on a genuine curvature tensor
    from lovelock_mass import curvature, graphcase

    n = 5
    rng = np.random.default_rng(2)
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.6, -0.5], [1.3, 1.8])
    x = rng.normal(size=(1, n))
    bund = curvature.riemann(f.metric, x)
    rmix = np.einsum('xijab,xak,xbl->xijkl', mi.unpair(bund.pair_lo),
                     bund.ginv, bund.ginv)[0]  # R_ab^cd
    for k in (1, 2):
        raw = 0.0
        for idx in itertools.product(range(n), repeat=2 * k):
            for jdx in itertools.product(range(n), repeat=2 * k):
                # the delta vanishes unless jdx permutes distinct idx
                if len(set(idx)) < 2 * k or set(idx) != set(jdx):
                    continue
                d = oracles.brute_delta(idx, jdx)
                if d == 0:
                    continue
                term = d
                for a in range(k):
                    term *= rmix[idx[2 * a], idx[2 * a + 1],
                                 jdx[2 * a], jdx[2 * a + 1]]
                raw += term
        raw /= 2.0 ** k
        lib = float(curvature.lovelock_L(k, f.metric, x, bund=bund)[0])
        assert abs(raw - lib) <= 1e-10 * (1.0 + abs(lib))


def _bump_bundle(n, points, seed):
    """A bump-graph metric (not conformally flat), points and their bundle."""
    from lovelock_mass import curvature, graphcase

    rng = np.random.default_rng(seed)
    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.6, -0.5], [1.3, 1.8])
    x = rng.normal(size=(points, n))
    return f.metric, x, curvature.riemann(f.metric, x)


def _assert_engine_matches(n, k, p_table, e_table, points, seed):
    """P_(k) and E^(k) of the library against the gather engine on the
    given term tables, to 1e-12 of the largest entry."""
    from lovelock_mass import curvature

    g, x, bund = _bump_bundle(n, points, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # P_(k) vanishes for 2k > n
        P = curvature.p_tensor_general(k, g, x, bund=bund)
    pairs = [(P, oracles.gather_p_tensor(p_table, bund))]
    if 2 * k <= n:
        pairs.append((curvature.lovelock_einstein(k, g, x, bund=bund),
                      oracles.gather_einstein(e_table, bund)))
    for new, ref in pairs:
        assert new.shape == ref.shape
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max(), (n, k)


def test_term_tables_match_reference_builders():
    # L_k, P_(k) and E^(k) from the wedge engine against the gather
    # engine on the nested-loop tables, to 1e-12 of the largest value.
    # 2k > n gives empty tables.  L(8, 4) is left out for time.
    from lovelock_mass import curvature

    cases = [(n, k) for n in range(4, 8) for k in range(1, n // 2 + 2)]
    cases += [(8, k) for k in (1, 2, 3)]
    for n, k in cases:
        new, ref = mi.lovelock_scalar_table(n, k), oracles.lovelock_scalar_table(n, k)
        assert (new.n, new.k, new.constant) == (ref.n, ref.k, ref.constant)
        if 2 * k > n:
            for name in ("lovelock_scalar_table", "p_tensor_table",
                         "lovelock_einstein_table"):
                assert not len(getattr(mi, name)(n, k).signs)
                assert not len(getattr(oracles, name)(n, k).signs)
        else:
            g, x, bund = _bump_bundle(n, 4, n)
            L = curvature.lovelock_L(k, g, x, bund=bund)
            L_ref = ref.constant * oracles.gathered_products(
                ref, mi.unpair(oracles.mixed_pair(bund))).sum(axis=1)
            assert np.abs(L - L_ref).max() <= 1e-12 * np.abs(L_ref).max(), (n, k)
            _assert_engine_matches(n, k, oracles.p_tensor_table(n, k),
                                   oracles.lovelock_einstein_table(n, k),
                                   points=4, seed=n)


def test_wedge_engine_matches_gather_engine():
    # the wedge-power P_(k) and E^(k) against the per-term gather engine
    # they replaced, on 16 points of a bump graph: every k with 2k <= n,
    # and one k with 2k > n, where both are empty
    for n in range(4, 9):
        for k in range(1, n // 2 + 2):
            _assert_engine_matches(n, k, oracles.gather_p_table(n, k),
                                   oracles.gather_einstein_table(n, k),
                                   points=16, seed=10 + n)


def test_wedge_plan_starts_from_the_curvature_operator():
    # W_0 = 1 and W_1 = R need no plan step, so W_q takes q - 1 steps
    # (none when the read-off with f free pairs is empty, 2q + f > n)
    for n in range(4, 9):
        for k in range(1, n // 2 + 1):
            for table, q, f in ((mi.lovelock_scalar_table(n, k), k, 0),
                                (mi.lovelock_einstein_table(n, k), k, 1),
                                (mi.p_tensor_table(n, k), k - 1, 2)):
                assert table.q == q
                steps = max(q - 1, 0) if 2 * q + f <= n else 0
                assert len(table.plan) == steps, (n, k, f)


def test_folded_readoffs_match_unfolded_on_symmetric_operators():
    # on a random symmetric operator R (a frame's curvature operator) the
    # read-offs of L_k, E^(k) and P_(k) equal the gather engine's, which
    # reads every term of the rank-4 R_ab^cd: from k = 3 on the tables
    # build only the K <= L half of W_q and sum only the u <= l slots
    from lovelock_mass import curvature

    rng = np.random.default_rng(60)
    for n in range(5, 9):
        i1, i2 = mi.pairs(n)
        A = rng.normal(size=(3, len(i1), len(i1)))
        R = A + A.swapaxes(1, 2)
        bund = types.SimpleNamespace(g=np.zeros((3, n, n)), pair=R,
                                     frame_pair=R)
        rmix = mi.unpair(R)
        for k in range(1, n // 2 + 1):
            table = mi.lovelock_scalar_table(n, k)
            assert table.frame == (k >= 3)
            L = curvature._wedge_sums(table, bund)[0]
            ref = oracles.gathered_products(
                oracles.delta_table(n, k, k, 0, 1.0), rmix).sum(axis=1)
            assert np.abs(L - ref).max() <= 1e-13 * np.abs(ref).max(), (n, k)
            C = curvature._slot_matrix(mi.p_tensor_table(n, k), bund)
            ref = oracles.slot_sums(oracles.gather_p_table(n, k), rmix)
            ref = ref[:, i1[:, None], i2[:, None], i1, i2]
            assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max(), (n, k)
            if 2 * k < n:
                D = curvature._slot_matrix(mi.lovelock_einstein_table(n, k),
                                           bund)
                ref = oracles.slot_sums(oracles.gather_einstein_table(n, k),
                                        rmix)
                assert np.abs(D - ref).max() <= 1e-13 * np.abs(ref).max(), \
                    (n, k)


def test_frame_tables_read_half_of_the_wedge_power():
    # P_(3) at n = 8: 1 890 of the 3 710 entries of W_2 that the full
    # read-off reads, and 3 360 of its C(8, 6) * 15^2 = 6 300 terms; P_(2)
    # reads all of R_I^J
    table = mi.p_tensor_table(8, 3)
    assert table.frame and table.plan[-1][0].shape[1] == 1890
    assert len(table.signs) == 3360
    table = mi.p_tensor_table(6, 2)
    assert not table.frame and not table.plan and len(table.signs) == 540


def test_pair_product_and_unpair():
    # pair_product(A, A) holds the 2x2 minors of A on the pairs of
    # pairs(n); pair_product(A, B) + pair_product(B, A) is the
    # Kulkarni-Nomizu product on pairs; unpair inverts the pair gather
    from lovelock_mass import curvature

    rng = np.random.default_rng(50)
    for n in (4, 5, 8):
        i1, i2 = mi.pairs(n)
        assert list(zip(i1, i2)) == list(itertools.combinations(range(n), 2))
        A, B = rng.normal(size=(2, 3, n, n))
        minors = mi.pair_product(A, A)
        assert minors.shape == (3, len(i1), len(i1))
        for I, (a, b) in enumerate(zip(i1, i2)):
            for J, (c, d) in enumerate(zip(i1, i2)):
                det = np.linalg.det(A[:, [a, b]][:, :, [c, d]])
                assert np.abs(minors[:, I, J] - det).max() <= 1e-14 * (
                    1 + np.abs(det).max())
        S, T = A + A.swapaxes(1, 2), B + B.swapaxes(1, 2)
        kn = curvature.kulkarni_nomizu(S, T)
        on_pairs = mi.pair_product(S, T) + mi.pair_product(T, S)
        assert np.array_equal(kn[:, i1[:, None], i2[:, None], i1, i2],
                              on_pairs)
        P = rng.normal(size=(3, len(i1), len(i1)))
        R = mi.unpair(P)
        assert R.shape == (3, n, n, n, n)
        assert np.array_equal(R[:, i1[:, None], i2[:, None], i1, i2], P)
        assert np.array_equal(R, -R.transpose(0, 2, 1, 3, 4))
        assert np.array_equal(R, -R.transpose(0, 1, 2, 4, 3))
