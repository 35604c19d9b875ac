import math

import numpy as np
import pytest

from lovelock_mass import (curvature, graphcase, mass as massmod, metrics,
                           quadrature)
from lovelock_mass.multiindex import unpair

import oracles


def _conformal(n=5):
    return metrics.conformal_radial(n, metrics.RadialProfile("3/10/(1 + r**2)"))


def _bump_graph(n=5, seed=20):
    rng = np.random.default_rng(seed)
    return graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                         [0.5, -0.4], [1.4, 2.1])


def _points(rng, n, count):
    return rng.normal(size=(count, n)) * 1.8 + 0.2


def test_flat_bundle_vanishes():
    g = metrics.euclidean(5)
    x = np.array([[1.0, 2.0, -1.0, 0.5, 0.3]])
    bund = curvature.riemann(g, x)
    assert not bund.gamma.any()
    assert not bund.pair_lo.any()
    assert not bund.ricci_mix.any()
    assert not bund.scalar.any()
    assert not curvature.p_tensor(g, x).any()
    assert not curvature.lovelock_einstein(2, g, x).any()


def test_graph_christoffel_closed_form():
    # Gamma^k_ij = f_ij f_k / (1 + |grad f|^2)
    f = _bump_graph()
    g = f.metric
    rng = np.random.default_rng(21)
    pts = _points(rng, 5, 15)
    bund = curvature.riemann(g, pts)
    df = f.grad(pts)
    hess = f.hess(pts)
    w = 1.0 + np.einsum('xi,xi->x', df, df)
    expected = np.einsum('xij,xk->xkij', hess, df) / w[:, None, None, None]
    assert np.abs(bund.gamma - expected).max() < 1e-10


def _shell_points(rng, n, count, lo, hi):
    u = rng.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * rng.uniform(lo, hi, size=(count, 1))


def test_graph_gauss_equation_matches_christoffel_route():
    # the Gauss-equation bundle of a graph metric against riemann on the
    # same metric without eval_curvature, field by field
    rng = np.random.default_rng(26)
    for n in (5, 6, 7, 8):
        H = rng.normal(size=(n, n))
        bumps = graphcase.gaussian_bump_graph(
            n, rng.normal(size=(2, n)) * 3.0, [0.5, -0.4], [1.4, 2.1])
        cases = ((graphcase.quadratic_graph(n, 0.3 * (H + H.T)), 1e-10),
                 (graphcase.sum_graph(graphcase.schwarzschild_graph(n, 0.5),
                                      bumps), 1e-7))
        pts = _shell_points(rng, n, 64, 3.0, 8.0)
        for f, tol in cases:
            assert f.metric.eval_curvature is not None
            fast = curvature.riemann(f.metric, pts)
            ref = curvature.riemann(oracles.christoffel_graph_metric(f), pts)
            for field in _BUNDLE_FIELDS:
                a, b = _field(fast, field), _field(ref, field)
                scale = np.abs(b).max()
                assert scale > 0, (n, field)
                assert np.abs(a - b).max() <= tol * scale, (n, f.name, field)


# the bundle's fields and the tensors built from them: R_ijkl, R_ij^kl and
# the lowered Ricci tensor R_ik
_TENSORS = {"riemann_lo": lambda b: unpair(b.pair_lo),
            "riemann_mix": lambda b: unpair(b.pair),
            "ricci": lambda b: b.ricci_mix @ b.g}
_BUNDLE_FIELDS = ("g", "ginv", "dg", "gamma", "riemann_lo", "riemann_mix",
                  "ricci", "scalar")


def _field(bund, name):
    return _TENSORS[name](bund) if name in _TENSORS else getattr(bund, name)


def _pointwise_gap(a, b):
    """Largest |a - b| of each bundle field at each point over the size
    of b's R_ijkl there."""
    scale = np.abs(b.pair_lo).reshape(len(b.g), -1).max(axis=1)
    return {field: float((np.abs(_field(a, field) - _field(b, field))
                          .reshape(len(scale), -1).max(axis=1) / scale).max())
            for field in _BUNDLE_FIELDS}


def _rotate(field, Q):
    """field[x, i, j, ...] with Q[i, a] applied on every component axis:
    the tensor in the coordinates xhat = Q^T x, either index position."""
    for axis in range(1, field.ndim):
        field = np.moveaxis(np.tensordot(field, Q, axes=([axis], [0])),
                            -1, axis)
    return field


def test_closed_form_curvature_matches_christoffel_route():
    # every family's curvature hook against the Christoffel route of the
    # oracles, field by field, relative to |R_ijkl| at each point
    rng = np.random.default_rng(27)
    for n in (5, 6, 7, 8):
        u = _shell_points(rng, n, 48, 1.0, 1.0)
        pts = u * np.geomspace(1.5, 160.0, len(u))[:, None]
        for g, a, b in oracles.radial_families(n):
            ref = oracles.christoffel_metric(
                g, lambda p, a=a, b=b: oracles.radial_d2g(a, b, p))
            gap = _pointwise_gap(curvature.riemann(g, pts),
                                 curvature.riemann(ref, pts))
            assert max(gap.values()) <= 1e-12, (n, g.name, gap)
        # a pushforward pulls R back through the Jacobian; the oracle
        # differentiates its dg by central differences, whose absolute
        # error is measured against each field's largest value
        base = metrics.schwarzschild_family(2, n, 1.0, chart="conformal")
        ghat = metrics.pushforward(base, metrics.perturbation_change(
            n, metrics.radial_decay_profile(0.1, 1.0), decay=1.0))
        near = pts[np.linalg.norm(pts, axis=1) <= 20.0]
        fast = curvature.riemann(ghat, near)
        ref = curvature.riemann(
            oracles.christoffel_metric(ghat, oracles.fd_d2g(ghat)), near)
        for field in _BUNDLE_FIELDS:
            a, b = _field(fast, field), _field(ref, field)
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max(), (n, field)
        # a rotation moves every bundle field by Q on each index; a
        # transposed Jacobian in the pullback would not
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)) * 2.0,
                                          [0.5, -0.4], [1.4, 2.1])
        xhat = _shell_points(rng, n, 32, 1.0, 6.0)
        rot = curvature.riemann(
            metrics.pushforward(f.metric, metrics.rotation_change(Q)), xhat)
        moved = curvature.riemann(f.metric, xhat @ Q.T)
        for field in _BUNDLE_FIELDS:
            a, b = _field(rot, field), _rotate(_field(moved, field), Q)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (n, field)


def test_riemann_needs_a_curvature_hook():
    n = 5
    x = _points(np.random.default_rng(28), n, 4)
    bare = metrics.from_g_only(n, metrics.euclidean(n).eval_g, tau=np.inf)
    rot = metrics.rotation_change(np.eye(n)[::-1])
    for g in (bare, metrics.pushforward(bare, rot)):
        assert g.eval_curvature is None
        with pytest.raises(ValueError, match="curvature"):
            curvature.riemann(g, x)
    f = _bump_graph(n)
    for g in [bare, metrics.euclidean(n), f.metric,
              metrics.pushforward(f.metric, rot)] + [
                  h for h, _, _ in oracles.radial_families(n)]:
        assert g.eval_d2g is None and g.eval_d3g is None, g.name


def test_riemann_symmetries_and_bianchi():
    rng = np.random.default_rng(22)
    for g in (_conformal(), _bump_graph().metric):
        pts = _points(rng, 5, 20)
        rm = unpair(curvature.riemann(g, pts).pair_lo)
        scale = np.abs(rm).max() + 1e-30
        assert np.abs(rm + rm.transpose(0, 2, 1, 3, 4)).max() / scale < 1e-9
        assert np.abs(rm + rm.transpose(0, 1, 2, 4, 3)).max() / scale < 1e-9
        assert np.abs(rm - rm.transpose(0, 3, 4, 1, 2)).max() / scale < 1e-9
        bianchi = (rm + rm.transpose(0, 2, 3, 1, 4)
                   + rm.transpose(0, 3, 1, 2, 4))
        assert np.abs(bianchi).max() / scale < 1e-9


def test_graph_riemann_closed_form():
    # R_ijkl = (f_ik f_jl - f_il f_jk) / (1 + |grad f|^2)
    f = _bump_graph()
    rng = np.random.default_rng(23)
    pts = _points(rng, 5, 15)
    bund = curvature.riemann(f.metric, pts)
    hess = f.hess(pts)
    df = f.grad(pts)
    w = 1.0 + np.einsum('xi,xi->x', df, df)
    expected = (np.einsum('xik,xjl->xijkl', hess, hess)
                - np.einsum('xil,xjk->xijkl', hess, hess)) / w[:, None, None, None, None]
    assert np.abs(unpair(bund.pair_lo) - expected).max() < 1e-9


def test_paraboloid_origin_values():
    # f = |x|^2/2 at the origin in n=5: R_ijkl = dd - dd, L_2 = 120,
    # P^{1212} = 3, L_1 = R = n(n-1) = 20
    n = 5
    f = graphcase.quadratic_graph(n, np.eye(n))
    x = np.zeros((1, n))
    bund = curvature.riemann(f.metric, x)
    eye = np.eye(n)
    expected = (np.einsum('ik,jl->ijkl', eye, eye)
                - np.einsum('il,jk->ijkl', eye, eye))
    assert np.abs(unpair(bund.pair_lo)[0] - expected).max() < 1e-12
    assert float(bund.scalar[0]) == pytest.approx(20.0, abs=1e-10)
    assert float(curvature.lovelock_L(2, f.metric, x, bund=bund)[0]) == \
        pytest.approx(120.0, abs=1e-8)
    assert float(curvature.gauss_bonnet_L2_direct(f.metric, x, bund=bund)[0]) == \
        pytest.approx(120.0, abs=1e-8)
    P = curvature.p_tensor(f.metric, x, bund=bund)
    assert float(P[0, 0, 1, 0, 1]) == pytest.approx(3.0, abs=1e-10)


def test_three_way_l2_agreement():
    rng = np.random.default_rng(24)
    for g in (_conformal(), _bump_graph().metric):
        pts = _points(rng, 5, 25)
        bund = curvature.riemann(g, pts)
        a = curvature.lovelock_L(2, g, pts, bund=bund)
        b = curvature.gauss_bonnet_L2_direct(g, pts, bund=bund)
        P = curvature.p_tensor(g, pts, bund=bund)
        c = np.einsum('xijkl,xijkl->x', P, unpair(bund.pair_lo))
        scale = 1.0 + np.abs(a).max()
        assert np.abs(a - b).max() / scale < 1e-9
        assert np.abs(a - c).max() / scale < 1e-9
        # fourth, fully independent oracle at a few points
        for x in pts[:3]:
            d = oracles.direct_L2(g, x)
            assert abs(d - curvature.lovelock_L(2, g, x[None, :])[0]) \
                / scale < 1e-9


def test_l1_is_scalar_curvature():
    g = _conformal()
    rng = np.random.default_rng(25)
    pts = _points(rng, 5, 10)
    bund = curvature.riemann(g, pts)
    # one definition: R is the k = 1 read-off of lovelock_L
    assert np.array_equal(curvature.lovelock_L(1, g, pts, bund=bund),
                          bund.scalar)
    _, R = oracles.ricci_lowered(bund)
    assert np.abs(bund.scalar - R).max() < 1e-12


def test_lovelock_l_euler_density_guard():
    g = _conformal(5)
    pts = np.full((2, 5), 2.0)
    with pytest.warns(UserWarning):
        out = curvature.lovelock_L(3, g, pts)
    assert not out.any()


def test_schwarzschild_l2_vanishes_pointwise():
    g = metrics.schwarzschild_family(2, 5, 1.0)
    rng = np.random.default_rng(26)
    pts = rng.uniform(2.0, 6.0, size=(20, 5)) * rng.choice([-1, 1], (20, 5))
    assert np.abs(curvature.lovelock_L(2, g, pts)).max() < 1e-10


def test_p_tensor_symmetries():
    g = _bump_graph().metric
    rng = np.random.default_rng(27)
    pts = _points(rng, 5, 10)
    P = curvature.p_tensor(g, pts)
    scale = np.abs(P).max()
    assert np.abs(P + P.transpose(0, 2, 1, 3, 4)).max() / scale < 1e-12
    assert np.abs(P + P.transpose(0, 1, 2, 4, 3)).max() / scale < 1e-12
    assert np.abs(P - P.transpose(0, 3, 4, 1, 2)).max() / scale < 1e-12
    bianchi = P + P.transpose(0, 2, 3, 1, 4) + P.transpose(0, 3, 1, 2, 4)
    assert np.abs(bianchi).max() / scale < 1e-11


def test_p_tensor_general_reductions():
    g = _bump_graph().metric
    rng = np.random.default_rng(28)
    pts = _points(rng, 5, 10)
    bund = curvature.riemann(g, pts)
    # P_(1)^{ijlm} = (g^{il} g^{jm} - g^{im} g^{jl}) / 2
    P1 = curvature.p_tensor_general(1, g, pts, bund=bund)
    expected = 0.5 * (np.einsum('xik,xjl->xijkl', bund.ginv, bund.ginv)
                      - np.einsum('xil,xjk->xijkl', bund.ginv, bund.ginv))
    assert np.abs(P1 - expected).max() < 1e-12
    lk = curvature.lovelock_L(1, g, pts, bund=bund)
    contracted = np.einsum('xijkl,xijkl->x', P1, unpair(bund.pair_lo))
    assert np.abs(contracted - lk).max() < 1e-9 * (1 + np.abs(lk).max())
    # flat P_(1)^{1212} = 1/2
    flat = metrics.euclidean(5)
    x0 = np.zeros((1, 5))
    P1f = curvature.p_tensor_general(1, flat, x0)
    assert float(P1f[0, 0, 1, 0, 1]) == pytest.approx(0.5)
    # k=2: the delta-table tensor equals the closed-form P, and
    # P_(2) . Rm = L_2, at every dimension the second-order flux runs in
    for n in (5, 6, 7, 8):
        g = _bump_graph(n).metric
        pts = _points(rng, n, 10)
        bund = curvature.riemann(g, pts)
        P2 = curvature.p_tensor_general(2, g, pts, bund=bund)
        Pc = oracles.p_tensor_closed_form(bund)
        scale = np.abs(Pc).max()
        assert scale > 1e-3
        assert np.abs(P2 - Pc).max() < 1e-12 * scale
        assert np.array_equal(curvature.p_tensor(g, pts, bund=bund), P2)
        lk = curvature.lovelock_L(2, g, pts, bund=bund)
        contracted = np.einsum('xijkl,xijkl->x', P2, unpair(bund.pair_lo))
        assert np.abs(contracted - lk).max() < 1e-9 * (1 + np.abs(lk).max())


def _flux_families(n, rng):
    """One metric of every family at dimension n: the radial families of
    the oracles (Schwarzschild in both charts, EGB, conformal-radial
    text), a bump graph, a pushforward and the flat metric."""
    base = metrics.schwarzschild_family(2, n, 1.0, chart="conformal")
    change = metrics.perturbation_change(
        n, metrics.radial_decay_profile(0.1, 1.0), decay=1.0)
    return ([g for g, _, _ in oracles.radial_families(n)]
            + [graphcase.gaussian_bump_graph(
                   n, rng.normal(size=(2, n)), [0.5, -0.4], [1.4, 2.1]).metric,
               metrics.pushforward(base, change), metrics.euclidean(n)])


def test_flux_vector_matches_full_p_contraction():
    # p_tensor_general(flux=True) is P_(k)^{ijml} d_l g_jm without P, for
    # every family, every n the masses run in and every k with 2k <= n
    rng = np.random.default_rng(40)
    for n in (5, 6, 7, 8):
        pts = _shell_points(rng, n, 12, 2.5, 9.0)
        for g in _flux_families(n, rng):
            bund = curvature.riemann(g, pts)
            for k in range(1, n // 2 + 1):
                Y = curvature.p_tensor_general(k, g, pts, bund=bund,
                                               flux=True)
                P = curvature.p_tensor_general(k, g, pts, bund=bund)
                ref = np.einsum('xijml,xjml->xi', P, bund.dg)
                assert Y.shape == (len(pts), n)
                assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max(), \
                    (n, k, g.name)
                if k == 2:
                    assert np.array_equal(
                        curvature.p_tensor(g, pts, bund=bund, flux=True), Y)
            if g.name.startswith("euclidean"):
                assert not Y.any()
    # one point in, one vector out
    g = metrics.schwarzschild_family(2, 6, 1.0)
    x = np.full(6, 3.0)
    assert np.array_equal(curvature.p_tensor(g, x, flux=True),
                          curvature.p_tensor(g, x[None], flux=True)[0])


def test_pair_is_riemann_mix_on_pairs():
    # R_I^J from R_ijkl and the second exterior power of g^-1, against
    # R_ij^kl raised index by index
    rng = np.random.default_rng(41)
    for n in (5, 6, 7, 8):
        i1, i2 = np.triu_indices(n, 1)
        pts = _shell_points(rng, n, 12, 2.5, 9.0)
        for g in _flux_families(n, rng)[:-1]:
            bund = curvature.riemann(g, pts)
            rmix = np.einsum('xijab,xak,xbl->xijkl', unpair(bund.pair_lo),
                             bund.ginv, bund.ginv, optimize=True)
            ref = rmix[:, i1[:, None], i2[:, None], i1[None, :], i2[None, :]]
            assert bund.pair.shape == (len(pts), len(i1), len(i1))
            assert np.abs(bund.pair - ref).max() <= 1e-13 * np.abs(ref).max(), \
                (n, g.name)


def test_ricci_and_scalar_match_rank4_contraction():
    # the k = 1 read-offs R_i^k and R against g^{jl} R_ijkl and its trace
    rng = np.random.default_rng(42)
    for n in (5, 6, 7, 8):
        pts = _shell_points(rng, n, 12, 2.5, 9.0)
        for g in _flux_families(n, rng)[:-1]:
            bund = curvature.riemann(g, pts)
            ricci, R = oracles.ricci_lowered(bund)
            scale = np.abs(bund.pair_lo).max()
            assert np.abs(bund.ricci_mix @ bund.g - ricci).max() \
                <= 1e-13 * scale, (n, g.name)
            assert np.abs(bund.scalar - R).max() <= 1e-13 * scale, (n, g.name)


def test_curvature_reads_build_no_rank4_tensor(monkeypatch):
    # Ricci, R, the curvature scalars and the mass flux read the pair
    # matrices: a rank-4 tensor built on the way would raise
    def forbidden(P):
        raise AssertionError("built a rank-4 tensor")

    monkeypatch.setattr(curvature, "unpair", forbidden)
    rng = np.random.default_rng(43)
    for n in (5, 6):
        g = _bump_graph(n).metric
        pts = _points(rng, n, 6)
        bund = curvature.riemann(g, pts)
        assert bund.ricci_mix.shape == (len(pts), n, n)
        assert np.isfinite(bund.scalar).all()
        w2, s2 = curvature.weyl_sigma2_split(g, pts, bund=bund)
        L2 = curvature.gauss_bonnet_L2_direct(g, pts, bund=bund)
        assert np.isfinite([w2, s2, L2]).all()
        assert np.isfinite(curvature.lovelock_L(2, g, pts, bund=bund)).all()
    rule = quadrature.sphere_rule(6, 2)
    gbc = massmod.flux("gbc", metrics.schwarzschild_family(2, 6, 1.0), 20.0,
                       rule)
    assert np.isfinite(gbc) and gbc > 0


def test_flux_vector_vanishes_with_warning_for_2k_above_n():
    g = metrics.schwarzschild_family(2, 5, 1.0)
    pts = np.full((3, 5), 2.0)
    with pytest.warns(UserWarning, match="vanishes"):
        Y = curvature.p_tensor_general(3, g, pts, flux=True)
    assert Y.shape == (3, 5) and not Y.any()
    with pytest.warns(UserWarning, match="vanishes"):
        y = curvature.p_tensor_general(3, g, pts[0], flux=True)
    assert y.shape == (5,) and not y.any()


def test_lovelock_einstein_identities():
    g = _bump_graph().metric
    rng = np.random.default_rng(29)
    pts = _points(rng, 5, 10)
    bund = curvature.riemann(g, pts)
    E1 = curvature.lovelock_einstein(1, g, pts, bund=bund)
    ricci, R = oracles.ricci_lowered(bund)
    expected = ricci - 0.5 * R[:, None, None] * bund.g
    assert np.abs(E1 - expected).max() < 1e-10
    E2 = curvature.lovelock_einstein(2, g, pts, bund=bund)
    assert np.abs(E2 - E2.transpose(0, 2, 1)).max() < 1e-10
    trace = np.einsum('xij,xij->x', bund.ginv, E2)
    L2 = curvature.lovelock_L(2, g, pts, bund=bund)
    n = 5
    assert np.abs(trace - (4 - n) / 2.0 * L2).max() < 1e-9 * (
        1 + np.abs(L2).max())


def test_lanczos_expanded_form():
    # E^(2) against the expanded second-order Lovelock-Einstein formula
    g = _bump_graph().metric
    rng = np.random.default_rng(30)
    pts = _points(rng, 5, 8)
    bund = curvature.riemann(g, pts)
    ricci = bund.ricci_mix @ bund.g
    ric_up = np.einsum('xia,xab,xjb->xij', bund.ginv, ricci, bund.ginv)
    rm = unpair(bund.pair_lo)
    rm_up = np.einsum('xabcd,xai,xbj,xck,xdl->xijkl', rm, bund.ginv,
                      bund.ginv, bund.ginv, bund.ginv)
    L2 = curvature.lovelock_L(2, g, pts, bund=bund)
    R = bund.scalar
    term1 = 2.0 * R[:, None, None] * ricci
    term2 = -4.0 * np.einsum('xis,xsj->xij',
                             np.einsum('xia,xas->xis', ricci, bund.ginv),
                             ricci)
    term3 = -4.0 * np.einsum('xab,xaibj->xij', ric_up, rm)
    term4 = 2.0 * np.einsum('xiabc,xjabc->xij', rm,
                            np.einsum('xjdef,xda,xeb,xfc->xjabc', rm,
                                      bund.ginv, bund.ginv, bund.ginv))
    lanczos = (term1 + term2 + term3 + term4
               - 0.5 * L2[:, None, None] * bund.g)
    E2 = curvature.lovelock_einstein(2, g, pts, bund=bund)
    scale = 1.0 + np.abs(E2).max()
    assert np.abs(E2 - lanczos).max() / scale < 1e-9


def test_weyl_sigma2_split():
    rng = np.random.default_rng(31)
    n = 5
    g = _bump_graph(n).metric
    pts = _points(rng, n, 20)
    L2 = curvature.lovelock_L(2, g, pts)
    w2, s2 = curvature.weyl_sigma2_split(g, pts)
    scale = 1.0 + np.abs(L2).max()
    assert np.abs(L2 - (w2 + 8 * (n - 2) * (n - 3) * s2)).max() / scale < 1e-9
    # conformally flat: Weyl vanishes identically
    gc = _conformal(n)
    ptsc = rng.uniform(1.5, 4.0, size=(15, n))
    w2c, s2c = curvature.weyl_sigma2_split(gc, ptsc)
    L2c = curvature.lovelock_L(2, gc, ptsc)
    assert np.abs(w2c).max() < 1e-10
    assert np.abs(L2c - 8 * (n - 2) * (n - 3) * s2c).max() < 1e-9 * (
        1 + np.abs(L2c).max())


def test_kulkarni_nomizu_symmetries():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(3, 5, 5))
    A = a + a.transpose(0, 2, 1)
    b = rng.normal(size=(3, 5, 5))
    B = b + b.transpose(0, 2, 1)
    K = curvature.kulkarni_nomizu(A, B)
    assert np.abs(K + K.transpose(0, 2, 1, 3, 4)).max() < 1e-12
    assert np.abs(K + K.transpose(0, 1, 2, 4, 3)).max() < 1e-12
    KA = curvature.kulkarni_nomizu(A, A)
    assert np.abs(KA - KA.transpose(0, 3, 4, 1, 2)).max() < 1e-12


def test_divergence_of_p_analytic():
    g = _conformal(5)
    rng = np.random.default_rng(33)
    pts = rng.uniform(1.5, 4.0, size=(12, 5)) * rng.choice([-1, 1], (12, 5))
    for k in (1, 2):
        assert np.abs(curvature.divergence_of_P(k, g, pts)).max() < 1e-6


def test_divergence_of_p_k3():
    g = metrics.schwarzschild_family(3, 7, 1.0)
    rng = np.random.default_rng(34)
    pts = rng.uniform(2.0, 4.0, size=(4, 7)) * rng.choice([-1, 1], (4, 7))
    assert np.abs(curvature.divergence_of_P(3, g, pts)).max() < 1e-6


def test_divergence_of_p_fd_graph():
    f = _bump_graph()
    rng = np.random.default_rng(35)
    pts = _points(rng, 5, 10)
    assert np.abs(curvature.divergence_of_P(2, f.metric, pts)).max() < 1e-4


def test_conformal_p_tensor_compressed_form():
    # P of a conformally flat metric equals the Kulkarni-Nomizu product
    # (n-3) e^{-2u} (-hess u + (lap u / 2) delta - du x du
    #                - ((n-4)/4) |du|^2 delta) (.) delta, indices raised
    n = 5
    prof = metrics.RadialProfile("3/10/(1 + r**2)")
    g = metrics.conformal_radial(n, prof)
    rng = np.random.default_rng(36)
    pts = rng.uniform(1.5, 3.5, size=(8, n)) * rng.choice([-1, 1], (8, n))
    rr = np.linalg.norm(pts, axis=1)
    u = prof(rr)
    ur = prof.d1(rr)
    urr = prof.d2(rr)
    nu = pts / rr[:, None]
    proj = np.eye(n)[None] - nu[:, :, None] * nu[:, None, :]
    du = ur[:, None] * nu
    hess_u = (urr[:, None, None] * nu[:, :, None] * nu[:, None, :]
              + (ur / rr)[:, None, None] * proj)
    lap_u = urr + (n - 1) * ur / rr
    du2 = ur ** 2
    S = (-hess_u + 0.5 * lap_u[:, None, None] * np.eye(n)[None]
         - du[:, :, None] * du[:, None, :]
         - 0.25 * (n - 4) * du2[:, None, None] * np.eye(n)[None])
    K = curvature.kulkarni_nomizu(S, np.broadcast_to(np.eye(n), (len(pts), n, n)))
    expected_lo_weight = (n - 3) * np.exp(-2 * u)
    # raise all four indices with g^{-1} = e^{2u} delta
    expected = (expected_lo_weight * np.exp(8 * u))[:, None, None, None, None] * K
    P = curvature.p_tensor(g, pts)
    scale = 1.0 + np.abs(P).max()
    assert np.abs(P - expected).max() / scale < 1e-9


def test_riemann_no_alias_after_gc():
    # object ids are reused after garbage collection: a bundle cache keyed
    # on id(g) hands the flat metric the Schwarzschild bundle
    pts = np.full((3, 6), 1.7)
    for i in range(40):
        if i % 2:
            g = metrics.euclidean(6)
            assert not curvature.riemann(g, pts).scalar.any()
        else:
            g = metrics.schwarzschild_family(2, 6, 1.0)
            assert curvature.riemann(g, pts).scalar.any()
        del g
