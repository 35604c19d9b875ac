"""Self-checks for the test-only oracle implementations.

The oracles are deliberately slow and independent of the library; these
tests pin them against closed-form values so that a broken oracle cannot
silently validate the fast paths.
"""

import math

import numpy as np
import pytest

import oracles
from lovelock_mass import metrics, quadrature


class _Surf:
    """Minimal embed/n wrapper matching the hypersurface interface."""

    def __init__(self, fn, n):
        self.embed = fn
        self.n = n


def test_brute_delta_small_cases():
    assert oracles.brute_delta([1, 2, 3], [2, 3, 1]) == 1
    assert oracles.brute_delta([1, 2, 3], [1, 3, 2]) == -1
    assert oracles.brute_delta([0, 1], [0, 1]) == 1
    assert oracles.brute_delta([0, 1], [0, 2]) == 0
    assert oracles.brute_delta([0, 0], [0, 1]) == 0


def test_brute_delta_guards():
    with pytest.raises(ValueError):
        oracles.brute_delta([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        oracles.brute_delta([0, 1], [0, 1, 2])


def test_fd_derivatives_euclidean_vanish():
    g = metrics.euclidean(4)
    x = np.array([1.0, -0.5, 2.0, 0.3])
    dg, d2g, d3g = oracles.fd_metric_derivatives(g, x)
    assert np.abs(dg).max() < 1e-10
    assert np.abs(d2g).max() < 1e-8
    assert np.abs(d3g).max() < 1e-5


def test_fd_derivatives_match_analytic():
    g, a, b = oracles.radial_profiles(metrics.schwarzschild_family, 2, 5, 1.0)
    x = np.array([6.0, 1.0, -2.0, 0.5, 3.0])
    dg, d2g, _ = oracles.fd_metric_derivatives(
        g, x, oracles.FDConfig(richardson=True))
    assert np.abs(dg - g.eval_dg(x[None])[0]).max() < 1e-9
    assert np.abs(d2g - oracles.radial_d2g(a, b, x[None])[0]).max() < 1e-6


def test_fd_config_guard():
    with pytest.raises(ValueError):
        oracles.FDConfig(step1=0.0)


def test_surface_area_round_sphere():
    def sphere(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    area = oracles.parametric_surface_integrals(_Surf(sphere, 5), "area", 16, 32)
    assert area == pytest.approx(quadrature.sphere_volume(5), rel=1e-5)


def test_surface_mean_curvature_scaled_sphere():
    rho = 1.7

    def sphere(x):
        return rho * x / np.linalg.norm(x, axis=-1, keepdims=True)

    om = quadrature.sphere_volume(5)
    # integral of 3 H_3 = C(4,3) sigma_3 dA = 4 rho^{-3} * rho^4 om * 3
    val = oracles.parametric_surface_integrals(_Surf(sphere, 5), "H3", 16, 32)
    assert 3.0 * val == pytest.approx(12.0 * rho * om, rel=1e-6)
    h1 = oracles.parametric_surface_integrals(_Surf(sphere, 5), "H1", 16, 32)
    assert h1 == pytest.approx(4.0 * rho ** 3 * om, rel=1e-6)


def test_intrinsic_scalar_matches_gauss():
    # induced scalar curvature of an ellipsoid equals 2 H_2 pointwise, so
    # the integrals agree
    semi = np.array([1.3, 1.0, 1.0, 0.9, 1.0])

    def ell(x):
        u = x / np.linalg.norm(x, axis=-1, keepdims=True)
        return semi * u

    a, b = oracles.parametric_surface_integrals(_Surf(ell, 5),
                                                ("inducedR", "H2"), 14, 28)
    assert a == pytest.approx(2.0 * b, rel=1e-5)


def test_degenerate_surface_rejected():
    def collapse(x):
        out = np.array(x, dtype=float, copy=True)
        out[..., 1:] = 0.0
        return out

    with pytest.raises(ValueError):
        oracles.parametric_surface_integrals(_Surf(collapse, 5), "area", 6, 12)


def test_direct_l2_flat_space():
    g = metrics.euclidean(5)
    x = np.array([1.0, 0.2, -0.4, 2.0, 0.1])
    assert abs(oracles.direct_L2(g, x)) < 1e-9


def test_unknown_functional_rejected():
    def sphere(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    with pytest.raises(ValueError):
        oracles.parametric_surface_integrals(_Surf(sphere, 5), "volume", 6, 12)
