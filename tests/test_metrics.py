import numpy as np
import pytest

from lovelock_mass import curvature, graphcase, metrics

import oracles


def _random_points(rng, n, count, lo=1.5, hi=4.0):
    pts = rng.uniform(lo, hi, size=(count, n))
    return pts * rng.choice([-1.0, 1.0], size=(count, n))


def _families(n=5):
    for g, _, _ in oracles.radial_families(n):
        yield g


def test_euclidean_is_flat():
    g = metrics.euclidean(5)
    x = np.array([1.0, -2.0, 0.5, 3.0, 0.1])
    assert np.array_equal(g.eval_g(x), np.eye(5))
    assert not g.eval_dg(x).any()
    assert g.eval_d2g is None
    assert not g.eval_curvature(x[None]).any()
    assert np.isinf(g.tau)


def test_evaluators_take_a_point_or_one_batch_axis():
    f = graphcase.schwarzschild_graph(5, 1.0)
    x = np.full((2, 3, 5), 3.0)
    for g in (metrics.euclidean(5), next(_families()), f.metric):
        assert g.eval_g(x[0, 0]).shape == (5, 5)
        assert g.eval_dg(x[0]).shape == (3, 5, 5, 5)
        # extra leading axes used to be flattened into one batch axis
        for ev in (g.eval_g, g.eval_dg):
            with pytest.raises(ValueError, match="shape"):
                ev(x)
    with pytest.raises(ValueError, match="shape"):
        curvature.riemann(f.metric, x)


def _recording(fn, passes):
    """RadialProfile of fn that notes whether each pass got a plain
    array or a jet."""
    def rec(r):
        passes.append("array" if isinstance(r, np.ndarray) else "jet")
        return fn(r)
    return metrics.RadialProfile(rec)


def test_radial_evaluators_take_only_the_jets_they_return():
    # eval_g never hands a profile a jet; eval_dg and eval_curvature
    # make one jet pass per profile
    def a(r):
        return 1 + 1 / (2 * r ** 3)

    def b(r):
        return 1 / (1 + r ** 2)

    plain = metrics.radial_metric(5, metrics.RadialProfile(a),
                                  metrics.RadialProfile(b), tau=1.0)
    x = _random_points(np.random.default_rng(7), 5, 16)
    for name, passes in (("eval_g", ["array"]), ("eval_dg", ["jet"]),
                         ("eval_curvature", ["jet"])):
        seen_a, seen_b = [], []
        g = metrics.radial_metric(5, _recording(a, seen_a),
                                  _recording(b, seen_b), tau=1.0)
        assert np.array_equal(getattr(g, name)(x), getattr(plain, name)(x))
        assert seen_a == passes and seen_b == passes


def test_profile_jets_match_sympy_oracle():
    # c, c' and c'' of every profile factory against symbolic
    # derivatives evaluated with 50 digits, on r in (1.5 r_min, 200]
    for label, prof, expr, r_min in oracles.sympy_profiles():
        rv = np.geomspace(max(1.5 * r_min, 0.1), 200.0, 24)
        ref = oracles.sympy_jet(expr, rv)
        got = np.array(prof.jet(rv))
        assert np.array_equal(got[0], prof(rv)), label
        err = np.abs(got - ref) / np.abs(ref)
        assert err.max() <= 1e-12, (label, err.max(axis=1))


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(10)
    for g, a, b in oracles.radial_families(5):
        pts = _random_points(rng, g.n, 50, lo=2.0, hi=4.0)
        for x in pts[:6]:
            dg, d2g, _ = oracles.fd_metric_derivatives(g, x)
            scale1 = 1.0 + np.abs(dg).max()
            scale2 = 1.0 + np.abs(d2g).max()
            assert np.abs(dg - g.eval_dg(x)).max() <= 1e-6 * scale1
            # the oracle's analytic d2g, which the Christoffel route reads
            assert np.abs(d2g - oracles.radial_d2g(a, b, x[None])[0]).max() \
                <= 1e-4 * scale2
        # cheap first-order screen on the rest of the 50 points
        for x in pts[6:]:
            dg = oracles._central_d1(g.eval_g, x, 1e-5, richardson=True)
            assert np.abs(dg - g.eval_dg(x)).max() <= 1e-5 * (
                1.0 + np.abs(dg).max())


def test_metric_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    for g, a, b in oracles.radial_families(5):
        pts = _random_points(rng, g.n, 20, lo=2.0, hi=5.0)
        gv = g.eval_g(pts)
        assert np.abs(gv - gv.transpose(0, 2, 1)).max() < 1e-14
        assert np.linalg.eigvalsh(gv).min() > 0
        dg = g.eval_dg(pts)
        assert np.abs(dg - dg.transpose(0, 2, 1, 3)).max() < 1e-12
        d2g = oracles.radial_d2g(a, b, pts)
        assert np.abs(d2g - d2g.transpose(0, 1, 2, 4, 3)).max() < 1e-10


def test_declared_decay_rate():
    # |g - delta| must decay at the declared rate within factor 4,
    # sampled at r in {10, 100, 1000}
    for g in _families():
        if not np.isfinite(g.tau) or g.tau <= 0:
            continue
        direction = np.full(g.n, 1.0 / np.sqrt(g.n))
        devs = []
        for r in (10.0, 100.0, 1000.0):
            devs.append(np.abs(g.eval_g(r * direction) - np.eye(g.n)).max())
        for (r1, d1), (r2, d2) in zip(
                zip((10.0, 100.0), devs), zip((100.0, 1000.0), devs[1:])):
            observed = np.log(d1 / d2) / np.log(r2 / r1)
            assert observed >= g.tau / 4.0
            assert observed <= g.tau * 4.0


def test_schwarzschild_conformal_factor_value():
    # k=2, n=6, m=1 conformal chart: factor (1 + 1/(2 r^{n/2-2}))^{4k/(n-2k)}
    g = metrics.schwarzschild_family(2, 6, 1.0, chart="conformal")
    x = np.zeros(6)
    x[1] = 10.0
    expected = (1.0 + 1.0 / (2.0 * 10.0)) ** 4
    gv = g.eval_g(x)
    assert gv[0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(gv, expected * np.eye(6), rtol=1e-12)


def test_schwarzschild_m0_is_flat():
    g = metrics.schwarzschild_family(1, 5, 0.0)
    x = np.array([2.0, 1.0, -1.0, 0.5, 0.3])
    assert np.allclose(g.eval_g(x), np.eye(5), atol=1e-14)


def test_schwarzschild_horizon_domain_error():
    # rho chart: horizon where rho^{n/k-2} = 2m
    g = metrics.schwarzschild_family(2, 6, 1.0, chart="rho")
    rho0 = 2.0 ** (1.0 / (6 / 2 - 2))  # 2m = rho0^{n/2-2}
    inside = np.zeros(6)
    inside[0] = 0.9 * rho0
    with pytest.raises(metrics.DomainError):
        g.eval_g(inside)
    outside = np.zeros(6)
    outside[0] = 1.5 * rho0
    assert np.isfinite(g.eval_g(outside)).all()


def test_conformal_radial_zero_profile():
    g = metrics.conformal_radial(5, metrics.RadialProfile("0"))
    x = np.array([1.0, 2.0, -0.5, 0.3, 0.7])
    assert np.allclose(g.eval_g(x), np.eye(5), atol=1e-15)
    with pytest.raises(metrics.DomainError):
        g.eval_g(np.zeros(5))


def test_conformal_radial_hessian_structure():
    # at x = (r, 0, ..., 0): u_11 = u_rr and u_aa = u_r / r for a >= 2,
    # read off the metric second derivatives of g = e^{-2u} delta
    prof = metrics.RadialProfile("1/3/(1 + r**2)")
    _, a, b = oracles.radial_profiles(metrics.conformal_radial, 5, prof)
    rv = 2.0
    x = np.zeros(5)
    x[0] = rv
    # d_a d_b of the conformal factor F = e^{-2u}:
    # F_ab = e^{-2u} (4 u_a u_b - 2 u_ab); diagonal metric entries carry F
    d2g = oracles.radial_d2g(a, b, x[None])[0]
    u, ur, urr = float(prof(rv)), float(prof.d1(rv)), float(prof.d2(rv))
    F = np.exp(-2 * u)
    f11 = F * (4 * ur * ur - 2 * urr)
    faa = F * (-2 * ur / rv)
    assert d2g[0, 0, 0, 0] == pytest.approx(f11, rel=1e-10)
    assert d2g[0, 0, 1, 1] == pytest.approx(faa, rel=1e-10)
    assert d2g[2, 2, 1, 1] == pytest.approx(faa, rel=1e-10)


def test_graph_metric_inverse_and_determinant():
    rng = np.random.default_rng(12)
    f = graphcase.gaussian_bump_graph(5, rng.normal(size=(2, 5)),
                                      [0.8, -0.6], [1.2, 1.9])
    g = f.metric
    pts = rng.normal(size=(30, 5)) * 2.0
    gv = g.eval_g(pts)
    df = f.grad(pts)
    expected_det = 1.0 + np.einsum('xi,xi->x', df, df)
    assert np.abs(np.linalg.det(gv) - expected_det).max() < 1e-12
    ginv = np.linalg.inv(gv)
    w = expected_det
    expected_inv = np.eye(5)[None] - df[:, :, None] * df[:, None, :] / w[:, None, None]
    assert np.abs(ginv - expected_inv).max() < 1e-10


def test_graph_metric_unit_gradient_entries():
    f = graphcase.linear_graph(5, np.array([1.0, 0, 0, 0, 0]))
    g = f.metric
    x = np.zeros(5)
    gv = g.eval_g(x)
    assert gv[0, 0] == pytest.approx(2.0)
    assert np.linalg.inv(gv)[0, 0] == pytest.approx(0.5)


def test_egb_blackhole_limits():
    x = np.array([3.0, 1.0, 0.5, -1.0, 0.2, 0.1])
    flat = metrics.egb_blackhole(6, 0.1, 0.0)
    assert np.allclose(flat.eval_g(x), np.eye(6), atol=1e-13)
    # alpha -> 0 approaches the k=1 Schwarzschild rho chart
    near = metrics.egb_blackhole(6, 1e-8, 1.0)
    sch = metrics.schwarzschild_family(1, 6, 1.0, chart="rho")
    assert np.abs(near.eval_g(x) - sch.eval_g(x)).max() < 1e-6


def test_egb_horizon_relation():
    # m = r0^{n-2}/2 + (alpha_tilde/4) r0^{n-4}
    n, alpha, m = 6, 0.1, 1.0
    at = 2.0 * (n - 2) * (n - 3) * alpha
    r0 = metrics.egb_horizon_radius(n, alpha, m)
    assert 0.5 * r0 ** (n - 2) + 0.25 * at * r0 ** (n - 4) == \
        pytest.approx(m, rel=1e-12)
    g = metrics.egb_blackhole(n, alpha, m)
    inside = np.zeros(n)
    inside[0] = 0.9 * r0
    with pytest.raises(metrics.DomainError):
        g.eval_g(inside)


def test_egb_horizon_radius_matches_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    eps = np.finfo(float).eps
    found = {True: 0, False: 0}
    for n in (4, 5, 6, 7, 8):
        for alpha in (0.2, 0.05, 1e-4, -1e-4, -0.005, -0.05):
            for m in (0.3, 1.0, 2.5):
                at = 2.0 * (n - 2) * (n - 3) * alpha

                def F(r):
                    return 1.0 - metrics._egb_one_minus_F(n, alpha, m, r)

                # F is real where 1 + 4 at m / r^n >= 0
                lo = 1e-8 if at > 0 else (-4.0 * at * m) ** (1.0 / n) * (1 + 1e-12)
                hi = max(1.0, (4.0 * m) ** (1.0 / (n - 2)), lo)
                while F(hi) <= 0:
                    hi *= 2.0
                r0 = metrics.egb_horizon_radius(n, alpha, m)
                found[r0 > 0] += 1
                if F(lo) >= 0:
                    assert r0 == 0.0, (n, alpha, m)
                else:
                    ref = optimize.brentq(F, lo, hi, xtol=1e-300, rtol=4 * eps)
                    assert r0 == pytest.approx(ref, rel=1e-14, abs=0), (n, alpha, m)
    # both outcomes occur, the no-horizon one through a root of the
    # squared equation that the unsquared one rejects
    assert found[True] > 0 and found[False] > 0
    assert metrics.egb_horizon_radius(6, -0.05, 0.3) == 0.0
    # without a horizon the metric still ends where F turns complex
    g = metrics.egb_blackhole(6, -0.05, 0.3)
    r_c = (4.0 * 2.0 * 4 * 3 * 0.05 * 0.3) ** (1.0 / 6)
    for r, inside in ((0.99 * r_c, True), (1.01 * r_c, False)):
        x = np.zeros(6)
        x[0] = r
        if inside:
            with pytest.raises(metrics.DomainError):
                g.eval_g(x)
        else:
            assert np.isfinite(g.eval_g(x)).all()
    for m in (0.0, -1.0):
        assert metrics.egb_horizon_radius(6, 0.1, m) == 0.0
        assert metrics.egb_horizon_radius(6, -0.01, m) == 0.0
    assert metrics.egb_horizon_radius(6, 0.0, 1.5) == 3.0 ** 0.25
    assert metrics.egb_horizon_radius(6, 0.0, -1.5) == 0.0


def test_egb_scalar_curvature_positive():
    from lovelock_mass import curvature
    g = metrics.egb_blackhole(6, 0.1, 1.0)
    rng = np.random.default_rng(13)
    pts = _random_points(rng, 6, 20, lo=2.0, hi=6.0)
    assert curvature.riemann(g, pts).scalar.min() > 0


def test_pushforward_identity_and_rotation():
    g = metrics.schwarzschild_family(2, 5, 1.0)
    x = np.array([2.0, 1.0, -1.5, 0.5, 0.2])
    ident = metrics.pushforward(g, metrics.identity_change(5))
    assert np.abs(ident.eval_g(x) - g.eval_g(x)).max() < 1e-12
    rng = np.random.default_rng(14)
    Q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    rot = metrics.pushforward(metrics.euclidean(5), metrics.rotation_change(Q))
    assert np.abs(rot.eval_g(x) - np.eye(5)).max() < 1e-12


def test_pushforward_declares_the_slower_decay():
    g = metrics.schwarzschild_family(2, 6, 1.0)  # tau = n/k - 2 = 1
    for decay, expected in ((0.5, 0.5), (3.0, 1.0)):
        c = metrics.perturbation_change(
            6, metrics.radial_decay_profile(0.1, decay), decay=decay)
        assert metrics.pushforward(g, c).tau == expected
    Q = np.linalg.qr(np.random.default_rng(16).normal(size=(6, 6)))[0]
    assert metrics.pushforward(g, metrics.rotation_change(Q)).tau == g.tau


def test_pushforward_derivative_chain_rule():
    # pushed-forward first derivatives must agree with finite
    # differences of the pushed-forward metric itself
    g = metrics.schwarzschild_family(2, 5, 1.0)
    c = metrics.perturbation_change(
        5, metrics.radial_decay_profile(0.1, 1.0), decay=1.0)
    ghat = metrics.pushforward(g, c)
    x = np.array([2.5, -1.0, 1.5, 0.5, -0.4])
    dg_fd = oracles._central_d1(ghat.eval_g, x, 1e-5, richardson=True)
    assert np.abs(dg_fd - ghat.eval_dg(x)).max() < 1e-7


def test_pushforward_solves_once_per_evaluator(monkeypatch):
    # each evaluator of a perturbation pushforward runs the Newton
    # inverse once and hands the base point to the Jacobians: a riemann
    # call (eval_g, eval_dg, eval_curvature) makes three solves
    g = metrics.schwarzschild_family(2, 5, 1.0)
    c = metrics.perturbation_change(
        5, metrics.radial_decay_profile(0.1, 1.0), decay=1.0)
    pts = _random_points(np.random.default_rng(17), 5, 30, lo=3.0, hi=9.0)
    real = np.linalg.solve
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    c.forward(pts)
    per_solve = len(steps)
    assert per_solve > 0
    steps.clear()
    curvature.riemann(metrics.pushforward(g, c), pts)
    assert len(steps) == 3 * per_solve
    # the Jacobians take the solved base point and solve nothing
    base = c.forward(pts)
    steps.clear()
    c.jacobian(base), c.d_jacobian(base)
    assert not steps


def test_radial_profile_from_text():
    # text is compiled to a function of r, as the CLI's conformal-radial
    # family and verify suite pass it; one jet pass gives c, c' and c''
    prof = metrics.RadialProfile("3/10/(1 + r**2)")
    rv = np.array([1.5, 4.0])
    assert np.array_equal(prof(rv), 0.3 / (1 + rv ** 2))
    c, c1, c2 = prof.jet(rv)
    assert np.array_equal(c, prof(rv))
    assert np.allclose(c1, -0.6 * rv / (1 + rv ** 2) ** 2, rtol=1e-14, atol=0)
    assert np.allclose(c2, 0.6 * (3 * rv ** 2 - 1) / (1 + rv ** 2) ** 3,
                       rtol=1e-14, atol=0)
    assert np.array_equal(prof.d1(rv), c1)
    assert np.array_equal(prof.d2(rv), c2)
    with pytest.raises(ValueError, match="expression in r"):
        metrics.RadialProfile("x / r")


def test_profile_text_whitelist():
    # numbers, r, pi, E, + - * / ** (^ read as **) and exp, log, sqrt,
    # sin, cos; everything else is refused before anything runs
    rv = np.array([0.5, 2.0, 7.0])
    for text, expected in (("E**(-r)", np.exp(-rv)), ("r^-2", rv ** -2.0),
                           ("exp(-r)*sqrt(r)", np.exp(-rv) * np.sqrt(rv))):
        assert np.allclose(metrics.RadialProfile(text)(rv), expected,
                           rtol=1e-15, atol=0)
    for text in ("__import__('os')", "r.real", "(lambda: 1)()", "'a'",
                 "besselj(0, r)", "x / r"):
        with pytest.raises(ValueError, match="expression in r"):
            metrics.RadialProfile(text)


def test_coordinate_change_jacobian_consistency():
    c = metrics.perturbation_change(
        5, metrics.radial_decay_profile(0.1, 1.0), decay=1.0)
    rng = np.random.default_rng(15)
    pts = _random_points(rng, 5, 10, lo=2.0, hi=5.0)
    J = c.jacobian(c.forward(pts))
    h = 1e-6
    for a in range(5):
        e = np.zeros(5)
        e[a] = h
        fd = (c.forward(pts + e) - c.forward(pts - e)) / (2 * h)
        assert np.abs(J[:, :, a] - fd).max() < 1e-8
