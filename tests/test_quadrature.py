import math

import numpy as np
import pytest

from lovelock_mass import quadrature as quad


def test_sphere_volume_closed_forms():
    assert quad.sphere_volume(5) == pytest.approx(8 * math.pi ** 2 / 3,
                                                  rel=1e-14)
    assert quad.sphere_volume(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    assert quad.sphere_volume(6) == pytest.approx(math.pi ** 3, rel=1e-14)


@pytest.mark.parametrize("n,level", [(4, 3), (5, 3), (5, 6), (6, 4), (7, 3)])
def test_weights_sum_to_sphere_volume(n, level):
    rule = quad.sphere_rule(n, level)
    assert rule.weights.sum() == pytest.approx(quad.sphere_volume(n),
                                               rel=1e-12)
    assert rule.weights.min() > 0
    assert np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0).max() < 1e-12
    assert len(rule.nodes) == level ** (n - 2) * 2 * level


def test_even_monomial_moment():
    # int x_1^2 over the unit sphere = omega / n
    for n in (5, 6):
        rule = quad.sphere_rule(n, 3)
        val = float(np.dot(rule.weights, rule.nodes[:, 0] ** 2))
        assert val == pytest.approx(quad.sphere_volume(n) / n, rel=1e-12)


def test_odd_monomials_integrate_to_zero():
    rule = quad.sphere_rule(5, 4)
    for i in range(5):
        val = float(np.dot(rule.weights, rule.nodes[:, i] ** 3))
        assert abs(val) < 1e-12


def test_polynomial_exactness_degree():
    # exact on restrictions of polynomials of degree <= 2*level - 1
    n = 5
    rng = np.random.default_rng(40)
    coarse = quad.sphere_rule(n, 4)
    fine = quad.sphere_rule(n, 9)
    exps = rng.integers(0, 3, size=(10, n))
    exps = exps[exps.sum(axis=1) <= 2 * 4 - 1]
    for e in exps:
        def poly(x, e=e):
            return np.prod(x ** e, axis=-1)
        a = float(np.dot(coarse.weights, poly(coarse.nodes)))
        b = float(np.dot(fine.weights, poly(fine.nodes)))
        assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_level_doubling_self_consistency():
    # doubling the level moves a smooth integrand by a tiny amount
    n = 5
    F = lambda x: np.exp(x[:, 0] * 0.3 + 0.2 * x[:, 1] * x[:, 2])
    vals = [float(np.dot(r.weights, F(r.nodes)))
            for r in (quad.sphere_rule(n, 6), quad.sphere_rule(n, 12))]
    assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[1])


def test_rule_preconditions():
    with pytest.raises(ValueError):
        quad.sphere_rule(2, 4)
    with pytest.raises(ValueError):
        quad.sphere_rule(5, 1)


def test_surface_integral_scaling():
    n = 5
    rule = quad.sphere_rule(n, 3)
    r = 2.5
    one = quad.surface_integral(lambda p: np.ones(len(p)), r, rule)
    assert one == pytest.approx(quad.sphere_volume(n) * r ** (n - 1),
                                rel=1e-12)
    inv = quad.surface_integral(lambda p: np.linalg.norm(p, axis=1)
                                ** (1 - n), r, rule)
    assert inv == pytest.approx(quad.sphere_volume(n), rel=1e-12)
    with pytest.raises(ValueError):
        quad.surface_integral(lambda p: np.ones(len(p)), -1.0, rule)


@pytest.mark.parametrize("integrate", [
    lambda F, rule: quad.surface_integral(F, 1.0, rule),
    lambda F, rule: quad.ball_integral(F, 0.0, 1.0, rule),
], ids=["surface_integral", "ball_integral"])
def test_surface_integral_rejects_nonfinite(integrate):
    rule = quad.sphere_rule(5, 3)
    def bad(p):
        out = np.ones(len(p))
        out[0] = np.nan
        return out
    with pytest.raises(FloatingPointError, match="non-finite at node"):
        integrate(bad, rule)


def test_ball_integral_constant():
    n = 5
    rule = quad.sphere_rule(n, 3)
    vol = quad.ball_integral(lambda p: np.ones(len(p)), 0.0, 2.0, rule)
    assert vol == pytest.approx(quad.sphere_volume(n) * 2.0 ** n / n,
                                rel=1e-12)


def test_ball_integral_odd_integrand_vanishes():
    rule = quad.sphere_rule(5, 4)
    val = quad.ball_integral(lambda p: p[:, 0] * np.exp(-np.linalg.norm(
        p, axis=1)), 0.0, 3.0, rule)
    assert abs(val) < 1e-12


def test_ball_integral_infinite_tail():
    # int_{|x|>=1} |x|^{-n-1} dx = omega_{n-1}
    n = 5
    rule = quad.sphere_rule(n, 3)
    val = quad.ball_integral(
        lambda p: np.linalg.norm(p, axis=1) ** (-n - 1),
        1.0, float("inf"), rule, radial_level=64)
    assert val == pytest.approx(quad.sphere_volume(n), rel=1e-8)


def test_ball_integral_bounds_check():
    rule = quad.sphere_rule(5, 3)
    with pytest.raises(ValueError):
        quad.ball_integral(lambda p: np.ones(len(p)), 2.0, 1.0, rule)


def _jacobi_reference(mp, level, a):
    """Gauss-Jacobi nodes and weights for (1 - t^2)^a at the working
    precision: Newton on the classical recurrence of P_N^(a,a), started
    from the package's nodes, with w = c / ((1 - t^2) P_N'(t)^2)."""
    a = mp.mpf(a)

    def jacobi(n, b, x):
        # P_n^(b,b)(x)
        p0, p1 = mp.mpf(1), (b + 1) * x
        if n == 0:
            return p0
        for k in range(2, n + 1):
            c = 2 * k + 2 * b
            p0, p1 = p1, ((c - 1) * c * (c - 2) * x * p1
                          - 2 * (k + b - 1) ** 2 * c * p0) / (
                              2 * k * (k + 2 * b) * (c - 2))
        return p1

    def dP(x):
        return (level + 2 * a + 1) / 2 * jacobi(level - 1, a + 1, x)

    const = (2 ** (2 * a + 1) * mp.gamma(level + a + 1) ** 2
             / (mp.gamma(level + 2 * a + 1) * mp.factorial(level)))
    nodes, weights = [], []
    for t0 in quad._gauss_jacobi(level, float(a))[0]:
        x = mp.mpf(float(t0))
        for _ in range(3):
            x -= jacobi(level, a, x) / dP(x)
        nodes.append(x)
        weights.append(const / ((1 - x * x) * dP(x) ** 2))
    return nodes, weights


def test_gauss_jacobi_rule_matches_high_precision_reference():
    # every polar rule of the package: a = 0, 0.5, ..., 2.5 up to n = 8,
    # against a 50-digit reference
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for a in np.arange(6) / 2.0:
            for level in range(2, 25):
                t, w = quad._gauss_jacobi(level, a)
                nodes, weights = _jacobi_reference(mp, level, a)
                assert max(abs(mp.mpf(x) - y)
                           for x, y in zip(t, nodes)) <= 2.3e-16
                assert max(abs(mp.mpf(x) / y - 1)
                           for x, y in zip(w, weights)) <= 2e-14


def test_gauss_jacobi_rule_near_scipy_and_gamma():
    special = pytest.importorskip("scipy.special")
    for a in np.arange(6) / 2.0:
        for level in range(2, 25):
            t, w = quad._gauss_jacobi(level, a)
            tr, wr = special.roots_jacobi(level, a, a)
            assert np.abs(t - tr).max() <= 5e-13
            assert np.abs(w / wr - 1.0).max() <= 5e-13
    mp = pytest.importorskip("mpmath")
    for n in range(3, 13):
        # math.gamma stays within 2 ulp of the exact value; scipy's gamma
        # is 1.9 ulp off at n = 9, so the two formulas differ by 3 ulp there
        with mp.workdps(30):
            exact = float(2 * mp.pi ** (mp.mpf(n) / 2)
                          / mp.gamma(mp.mpf(n) / 2))
        ref = 2.0 * math.pi ** (n / 2.0) / special.gamma(n / 2.0)
        assert abs(quad.sphere_volume(n) - exact) <= 2 * math.ulp(exact)
        assert abs(quad.sphere_volume(n) - ref) <= 4 * math.ulp(ref)
