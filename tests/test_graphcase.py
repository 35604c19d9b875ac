import math

import numpy as np
import pytest

from lovelock_mass import curvature, graphcase, mass as massmod, metrics, quadrature
from lovelock_mass.multiindex import unpair


def test_elementary_symmetric_umbilic_values():
    lam = np.array([[1.0, 1.0, 1.0, 1.0]])
    assert graphcase.elementary_symmetric(lam, 1)[0] == pytest.approx(4.0)
    assert graphcase.elementary_symmetric(lam, 2)[0] == pytest.approx(6.0)
    assert graphcase.elementary_symmetric(lam, 3)[0] == pytest.approx(4.0)
    assert graphcase.elementary_symmetric(lam, 4)[0] == pytest.approx(1.0)
    assert graphcase.elementary_symmetric(lam, 5)[0] == 0.0


def test_round_sphere_hypersurface_data():
    n, rho = 6, 2.5
    hd = graphcase.hypersurface_data(graphcase.sphere_surface(n, rho),
                                     np.eye(n)[2])
    assert np.abs(hd.eigenvalues - 1.0 / rho).max() < 1e-10
    assert hd.mean_curvatures[2] == pytest.approx(
        math.comb(n - 1, 3) / rho ** 3, rel=1e-10)
    assert hd.induced_scalar == pytest.approx(2 * hd.mean_curvatures[1],
                                              rel=1e-12)


def test_radial_graph_principal_curvatures():
    # n-1 eigenvalues f_r/(r sqrt(1+f_r^2)) and one
    # f_rr/(1+f_r^2)^{3/2} for the graph in R^{n+1}
    n = 5
    f = graphcase.schwarzschild_graph(n, 1.0)
    rv = 9.0
    x = np.zeros(n)
    x[0] = rv
    hd = graphcase.hypersurface_data(f, x)
    slope = graphcase.schwarzschild_slope_profile(2, n, 1.0)
    fr, frr = float(slope(rv)), float(slope.d1(rv))
    w = 1.0 + fr ** 2
    lam_t = fr / (rv * math.sqrt(w))
    lam_r = frr / w ** 1.5
    expected = np.sort(np.array([lam_r] + [lam_t] * (n - 1)))
    assert np.abs(np.sort(hd.eigenvalues) - expected).max() < 1e-9


def test_graph_l2_closed_form_points():
    n = 5
    f = graphcase.quadratic_graph(n, np.eye(n))
    assert graphcase.graph_L2(f, np.zeros(n)) == pytest.approx(120.0,
                                                               abs=1e-8)
    lin = graphcase.linear_graph(n, np.array([0.3, -1.0, 0.5, 0.2, 0.1]))
    assert abs(graphcase.graph_L2(lin, np.ones(n))) < 1e-14


def test_graph_l2_matches_curvature_module():
    rng = np.random.default_rng(50)
    f = graphcase.gaussian_bump_graph(5, rng.normal(size=(2, 5)),
                                      [0.6, -0.5], [1.3, 1.8])
    pts = rng.normal(size=(20, 5)) * 1.6
    a = np.array([graphcase.graph_L2(f, p) for p in pts])
    b = curvature.lovelock_L(2, f.metric, pts)
    assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(b).max())


def test_schwarzschild_graph_l2_vanishes():
    f = graphcase.schwarzschild_graph(5, 1.0)
    rng = np.random.default_rng(51)
    pts = rng.uniform(6.0, 12.0, size=(15, 5)) * rng.choice([-1, 1], (15, 5))
    vals = [abs(graphcase.graph_L2(f, p)) for p in pts]
    assert max(vals) < 1e-6


def test_graph_divergence_identity():
    rng = np.random.default_rng(52)
    f = graphcase.gaussian_bump_graph(5, rng.normal(size=(2, 5)),
                                      [0.5, -0.4], [1.4, 2.1])
    pts = rng.normal(size=(20, 5)) * 1.8
    assert np.max(graphcase.graph_divergence_identity_residual(f, pts)) < 1e-4
    lin = graphcase.linear_graph(5, np.array([1.0, 0, 0, 0, 0]))
    assert np.max(graphcase.graph_divergence_identity_residual(
        lin, pts)) < 1e-10


def test_graph_divergence_identity_radial_exponential():
    # radial slope f_r = r e^{-r}
    f = graphcase.radial_graph(5, metrics.RadialProfile("r*exp(-r)"), tau=4.0)
    rng = np.random.default_rng(53)
    pts = rng.uniform(0.8, 3.0, size=(15, 5)) * rng.choice([-1, 1], (15, 5))
    assert np.max(graphcase.graph_divergence_identity_residual(f, pts)) < 1e-4


def test_l2_equals_24_h4_on_graphs():
    rng = np.random.default_rng(54)
    f = graphcase.gaussian_bump_graph(5, rng.normal(size=(2, 5)),
                                      [0.7, -0.6], [1.2, 1.7])
    pts = rng.normal(size=(25, 5)) * 1.5
    L2 = curvature.lovelock_L(2, f.metric, pts)
    h4 = np.array([graphcase.hypersurface_data(f, p).mean_curvatures[3]
                   for p in pts])
    assert np.abs(L2 - 24.0 * h4).max() < 1e-8 * (1 + np.abs(L2).max())


def test_bulk_mass_linear_and_positive():
    lin = graphcase.linear_graph(5, np.array([0.2, 0.1, 0, 0, 0]))
    rule = quadrature.sphere_rule(5, 3)
    assert abs(graphcase.bulk_mass(lin, rule=rule, r_inner=0.5,
                                   r_outer=40.0)) < 1e-12
    # positivity when sampled L_2 >= 0 (convex graph, all principal
    # curvatures positive, hence L_2 = 24 H_4 >= 0)
    f = graphcase.quadratic_graph(5, np.eye(5))
    rng = np.random.default_rng(55)
    pts = rng.uniform(0.2, 3.0, size=(40, 5)) * rng.choice([-1, 1], (40, 5))
    l2 = curvature.lovelock_L(2, f.metric, pts)
    assert l2.min() > -1e-10
    m = graphcase.bulk_mass(f, rule=rule, r_inner=1e-6, r_outer=3.0,
                            radial_level=48)
    assert m > 0


def test_radial_graph_formulas():
    n = 6
    slope = graphcase.schwarzschild_slope_profile(2, n, 1.0)
    with pytest.raises(metrics.DomainError):
        graphcase.radial_graph_formulas(slope, 0.0, n)
    # mass density tends to m^2 = 1 like (1 - 2m/r)^{-2}
    _, dens = graphcase.radial_graph_formulas(slope, 1e4, n)
    assert dens == pytest.approx(1.0, abs=1e-3)
    # the L_2 closed form matches the curvature module on the graph
    f = graphcase.schwarzschild_graph(n, 1.0)
    for rv in (6.0, 9.0, 14.0):
        L2_formula, _ = graphcase.radial_graph_formulas(slope, rv, n)
        x = np.zeros((1, n))
        x[0, 0] = rv
        L2_mod = float(curvature.lovelock_L(2, f.metric, x)[0])
        assert L2_formula == pytest.approx(L2_mod, abs=1e-10)
    # flat slope
    zero = metrics.RadialProfile("0")
    assert graphcase.radial_graph_formulas(zero, 3.0, n) == (0.0, 0.0)


def test_horizon_boundary_term_sphere_value():
    # Schwarzschild horizon sphere rho0 = 4 m^2 in n=5:
    # boundary term = rho0^{n-4}/4 = m^2
    n, m = 5, 1.2
    rho0 = (2 * m) ** (1.0 / (n / 2 - 2))
    rule = quadrature.sphere_rule(n, 4)
    sigma = graphcase.sphere_surface(n, rho0)
    term = graphcase.horizon_boundary_term(None, sigma, rule)
    assert term == pytest.approx(0.25 * rho0 ** (n - 4), rel=1e-10)
    assert term == pytest.approx(m ** 2, rel=1e-10)
    # shrinking the sphere sends the term to zero
    small = graphcase.horizon_boundary_term(
        None, graphcase.sphere_surface(n, 1e-3), rule)
    assert abs(small) < 1e-3
    # no surface at all is a typed error, not an attribute lookup failure
    with pytest.raises(ValueError, match="horizon surface required"):
        graphcase.horizon_boundary_term(None, None, rule)


def test_af_chain_coincides_on_round_spheres():
    rule = quadrature.sphere_rule(5, 4)
    chain = graphcase.af_chain_bounds(graphcase.sphere_surface(5, 2.0), rule)
    assert np.abs(np.diff(chain)).max() < 1e-10


def test_af_chain_strictly_decreasing_on_ellipsoid():
    rule = quadrature.sphere_rule(5, 8)
    E = graphcase.Ellipsoid(np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
    chain = graphcase.af_chain_bounds(E, rule)
    assert np.all(np.diff(chain) < -1e-3)


def test_level_set_gauss_equation_scaling():
    # tangential ambient curvature of the graph metric restricted to a
    # level-set sphere equals f_r^2/(1+f_r^2) times the intrinsic
    # curvature of the round sphere of that radius
    n = 5
    f = graphcase.schwarzschild_graph(n, 1.0)
    slope = graphcase.schwarzschild_slope_profile(2, n, 1.0)
    rv = 8.0
    x = np.zeros((1, n))
    x[0, 0] = rv
    rm = unpair(curvature.riemann(f.metric, x).pair_lo)[0]
    fr = float(slope(rv))
    factor = fr ** 2 / (1.0 + fr ** 2)
    for a in range(1, n):
        for b in range(1, n):
            if a == b:
                continue
            intrinsic = 1.0 / rv ** 2  # R-hat_{abab} of the round sphere
            assert rm[a, b, a, b] == pytest.approx(factor * intrinsic,
                                                   rel=1e-8)


def test_contracted_gauss_identity_ellipsoid():
    # -(Ric-hat - R-hat/2 h) : A = 3 H_3 in the principal frame
    E = graphcase.Ellipsoid(np.array([2.0, 1.3, 1.0, 0.8, 1.1]))
    rng = np.random.default_rng(56)
    for _ in range(10):
        om = rng.normal(size=5)
        om /= np.linalg.norm(om)
        hd = graphcase.hypersurface_data(E, om)
        lam = hd.eigenvalues
        H1 = lam.sum()
        ric = lam * (H1 - lam)
        Rhat = hd.induced_scalar
        lhs = -np.sum((ric - 0.5 * Rhat) * lam)
        rhs = 3.0 * hd.mean_curvatures[2]
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_horizon_second_form_decays_with_gradient():
    # as |grad f| on the surface grows, the graph-metric second
    # fundamental form A / sqrt(1 + |grad f|^2) decays like 1/|grad f|
    sigma = graphcase.sphere_surface(5, 2.0)
    hd = graphcase.hypersurface_data(sigma, np.eye(5)[0])
    a_max = np.abs(hd.eigenvalues).max()
    prev = None
    for s in (1e2, 1e3, 1e4):
        tilde = a_max / math.sqrt(1.0 + s * s)
        assert tilde == pytest.approx(a_max / s, rel=1e-3)
        if prev is not None:
            assert tilde == pytest.approx(prev / 10.0, rel=1e-3)
        prev = tilde


def test_adm_graph_mass_alpha_zero_reduction():
    # rotationally symmetric slope keeps every angular level exact
    f = graphcase.radial_graph(
        5, metrics.RadialProfile("4/5*r/(1 + r**2)**(5/4)"), tau=3.0)
    rule = quadrature.sphere_rule(5, 3)
    a0 = graphcase.adm_graph_mass(f, rule=rule, alpha=0.0, radial_level=96)
    lin = graphcase.linear_graph(5, np.array([0.3, 0, 0, 0, 0]))
    assert abs(graphcase.adm_graph_mass(lin, rule=rule,
                                        radial_level=32)) < 1e-10
    # cross-check against the flux-limit ADM mass of the graph metric
    est = massmod.mass("adm", f.metric, radii=[20.0, 40.0, 80.0, 160.0],
                       rule=rule)
    assert a0 == pytest.approx(est.value, abs=5e-6)


def test_sum_graph_combines_derivatives():
    rng = np.random.default_rng(58)
    f1 = graphcase.gaussian_bump_graph(5, rng.normal(size=(1, 5)),
                                       [0.5], [1.5])
    f2 = graphcase.linear_graph(5, np.array([0.1, 0.2, 0, 0, 0]))
    s = graphcase.sum_graph(f1, f2)
    x = rng.normal(size=(3, 5))
    assert np.abs(s.grad(x) - f1.grad(x) - f2.grad(x)).max() < 1e-14
    assert np.abs(s.hess(x) - f1.hess(x) - f2.hess(x)).max() < 1e-14


def test_graph_slope_decay_rate():
    # slope f_r = O(r^{-tau/2}) sampled at three radii
    n, m, k = 5, 1.0, 2
    slope = graphcase.schwarzschild_slope_profile(k, n, m)
    tau = n / k - 2.0
    radii = np.array([1e3, 1e4, 1e5])
    vals = np.abs(slope(radii))
    rate = np.log(vals[0] / vals[2]) / np.log(radii[2] / radii[0])
    assert rate == pytest.approx(tau / 2.0, rel=0.25)


def test_principal_curvatures_drop_the_normal_direction():
    E = graphcase.Ellipsoid(np.array([2.0, 1.3, 1.0, 0.8, 1.1]))
    x = E.embed(quadrature.sphere_rule(5, 3).nodes)
    # reference: the per-row removal of the eigenvalue nearest zero, on
    # the shape operator contracted as the library does (planned einsum)
    a2 = E.semiaxes ** 2
    Dx = x / a2
    norm = np.linalg.norm(Dx, axis=-1)
    nu = Dx / norm[:, None]
    P = np.eye(5)[None] - nu[:, :, None] * nu[:, None, :]
    lam = np.linalg.eigvalsh(
        np.einsum('xab,b,xbc->xac', P, 1.0 / a2, P, optimize=True)
        / norm[:, None, None])
    drop = np.argmin(np.abs(lam), axis=-1)
    expected = np.array([np.delete(row, d) for row, d in zip(lam, drop)])
    got = E.principal_curvatures(x)
    assert got.shape == (len(x), 4)
    assert np.array_equal(got, expected)


def test_af_chain_is_the_quermassintegral_formulas_bit_for_bit():
    n = 5
    rule = quadrature.sphere_rule(n, 4)
    E = graphcase.Ellipsoid(np.array([2.0, 1.3, 1.0, 0.8, 1.1]))
    omega = quadrature.sphere_volume(n)
    q = {k: graphcase.quermassintegral(E, k, rule) for k in (1, 2, 3)}
    expected = [
        massmod.ck_constant(n, 2) * 3.0 * q[3],
        0.25 * (2.0 * q[2] / ((n - 1) * (n - 2) * omega)) ** ((n - 4) / (n - 3)),
        0.25 * (q[1] / ((n - 1) * omega)) ** ((n - 4) / (n - 2)),
        0.25 * (graphcase.surface_area(E, rule) / omega) ** ((n - 4) / (n - 1)),
    ]
    assert graphcase.af_chain_bounds(E, rule).tolist() == expected
    assert expected[0] == graphcase.horizon_boundary_term(None, E, rule)


@pytest.mark.parametrize("level", [3, 6])
def test_closed_form_quermass_matches_the_eigensolve(level):
    # e_k of the eigvalsh principal curvatures, integrated with the area
    # element, against the closed form: a sphere, two equal semiaxes and
    # random ellipsoids in every dimension the CLI takes
    rng = np.random.default_rng(level)
    for n in range(4, 9):
        rule = quadrature.sphere_rule(n, level)
        ks = tuple(range(n))
        for a in (np.full(n, 1.7),
                  np.r_[1.3, 1.3, rng.uniform(0.6, 2.0, n - 2)],
                  rng.uniform(0.6, 2.0, n)):
            E = graphcase.Ellipsoid(a)
            expected = np.zeros(n)
            # in chunks: (N, n, n) shape operators for all 559 872 nodes
            # of n = 8 at level 6 would take a gigabyte
            for part in np.array_split(np.arange(len(rule.nodes)),
                                       -(-len(rule.nodes) // 32768)):
                om = rule.nodes[part]
                lam = E.principal_curvatures(E.embed(om))
                wJ = rule.weights[part] * E.area_element(om)
                expected += [np.dot(wJ, graphcase.elementary_symmetric(lam, k))
                             for k in ks]
            got = graphcase._quermass_integrals(E, ks, rule)
            assert got == pytest.approx(expected, rel=1e-13, abs=0), (n, a)


def test_one_curvature_pass_per_report(monkeypatch):
    rule = quadrature.sphere_rule(5, 3)
    f = graphcase.schwarzschild_graph(5, 1.0)
    calls = []
    orig = graphcase.Ellipsoid.quermass_densities

    def counted(self, omega, ks):
        calls.append(len(np.atleast_2d(omega)))
        return orig(self, omega, ks)

    monkeypatch.setattr(graphcase.Ellipsoid, "quermass_densities", counted)
    rep = graphcase.penrose_report(f, f.horizon, rule=rule, radial_level=8)
    assert calls == [len(rule.nodes)]
    assert rep.boundary_term == graphcase.horizon_boundary_term(
        f, f.horizon, rule)
    E = graphcase.Ellipsoid(np.array([2.0, 1.3, 1.0, 0.8, 1.1]))
    rep = graphcase.penrose_report(None, E, rule=rule)
    assert rep.boundary_term == graphcase.horizon_boundary_term(None, E, rule)
    assert rep.mass == rep.boundary_term
    del calls[:]
    graphcase.af_chain_bounds(E, rule)
    assert len(calls) == 1
    del calls[:]
    graphcase.adm_graph_mass(f, rule=rule, alpha=0.1, radial_level=8)
    assert len(calls) == 1


def test_horizon_dimension_mismatch_is_typed():
    rule = quadrature.sphere_rule(5, 3)
    f = graphcase.schwarzschild_graph(5, 1.0)
    sigma = graphcase.sphere_surface(6, 4.0)
    with pytest.raises(ValueError, match=r"graph over R\^5 with a horizon "
                                         r"in R\^6"):
        graphcase.penrose_report(f, sigma, rule=rule)
    with pytest.raises(ValueError, match="horizon in R"):
        graphcase.horizon_boundary_term(f, sigma, rule)


def test_egb_graph_penrose_checks_its_horizon_first(monkeypatch):
    rule = quadrature.sphere_rule(5, 2)
    fe = graphcase.egb_graph(5, 0.05, 1.0)
    # sigma defaults to the graph's own horizon, as in adm_graph_mass
    assert graphcase.egb_graph_penrose(fe, None, 0.05, rule=rule,
                                       radial_level=8) == \
        graphcase.egb_graph_penrose(fe, fe.horizon, 0.05, rule=rule,
                                    radial_level=8)

    def no_bulk(*args, **kwargs):
        raise AssertionError("bulk integral before the horizon check")

    monkeypatch.setattr(quadrature, "ball_integral", no_bulk)
    lin = graphcase.linear_graph(5, np.array([0.3, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="horizon surface required"):
        graphcase.egb_graph_penrose(lin, None, 0.05, rule=rule)
    with pytest.raises(ValueError, match="horizon in R"):
        graphcase.egb_graph_penrose(fe, graphcase.sphere_surface(6, 4.0),
                                    0.05, rule=rule)
