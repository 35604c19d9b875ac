import numpy as np
import pytest

from lovelock_mass import curvature, mass as massmod, metrics, quadrature


def test_normalization_constants():
    import math
    n = 6
    om = quadrature.sphere_volume(n)
    assert massmod.ck_constant(n, 2) == pytest.approx(
        1.0 / (2 * (n - 1) * (n - 2) * (n - 3) * om), rel=1e-14)
    # c(n, k) = (n-2k)! / (2^{k-1} (n-1)! omega)
    for k in (1, 2):
        assert massmod.ck_constant(n, k) == pytest.approx(
            math.factorial(n - 2 * k)
            / (2 ** (k - 1) * math.factorial(n - 1) * om), rel=1e-14)
    # k=2 normalization must coincide with c2 up to the P.Rm pairing
    assert massmod.ck_constant(6, 2) > 0


def test_flux_series_validation():
    with pytest.raises(ValueError):
        massmod.FluxSeries(radii=np.array([1.0, 2.0, 1.5, 4.0]),
                           flux=np.zeros(4), integrand_id="x")
    with pytest.raises(ValueError):
        massmod.mass("adm", metrics.euclidean(5), radii=[10.0, 20.0, 40.0])
    # a non-finite flux value, fewer than 4 radii or a non-positive radius
    # is refused up front: a NaN once gave a NaN mass and an inf the last
    # value as model "constant", both with no warning
    radii = [20.0, 40.0, 80.0, 160.0]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="flux samples must be finite"):
            massmod.FluxSeries(radii=radii, flux=[1.0, bad, 1.2, 1.3],
                               integrand_id="x")
    for r in ([20.0, 40.0, 80.0], [0.0, 40.0, 80.0, 160.0],
              [-20.0, 40.0, 80.0, 160.0]):
        with pytest.raises(ValueError, match="at least 4 positive"):
            massmod.FluxSeries(radii=r, flux=np.ones(len(r)), integrand_id="x")


def test_mass_checks_radii_before_any_flux(monkeypatch):
    def no_flux(*args, **kwargs):
        raise AssertionError("flux computed for rejected radii")

    monkeypatch.setattr(massmod, "flux", no_flux)
    g = metrics.schwarzschild_family(2, 6, 1.0)
    with pytest.raises(ValueError, match="strictly increasing radii"):
        massmod.mass("gbc", g, [160.0, 80.0, 40.0, 20.0],
                     quadrature.sphere_rule(6, 2))


def test_power_law_basis_underflow_raises():
    # at radii 1e160 * 2^j the basis r^-s underflows at every start; the
    # least-squares fallback that once answered here returned 1.875 as a
    # constant with no warning
    radii = 1e160 * 2.0 ** np.arange(4)
    series = massmod.FluxSeries(radii=radii, flux=[1.0, 1.5, 1.75, 1.875],
                                integrand_id="huge")
    with pytest.raises(ValueError, match="no power-law fit"):
        massmod.extrapolate_limit(series)


def test_steep_power_law_with_large_residual_warns():
    # below unit radius the best fit has a ~ 3.4e-86 but a term a r^-s of
    # 3.9 at the first radius (s ~ 43), so the series is a power law, not
    # a constant; its residual of 0.1 must warn
    series = massmod.FluxSeries(radii=0.01 * 2.0 ** np.arange(4),
                                flux=[5.0, 1.0, 1.2, 1.1], integrand_id="x")
    est = massmod.extrapolate_limit(series)
    assert est.model == "power-law"
    assert est.residual > 0.09
    assert est.warning


def test_small_radius_power_law_is_not_a_constant():
    # 2 - 2e-12 / r at radii 1e-12 * 2^j: the coefficient a = -2e-12 is
    # tiny, but the term it weighs is of order one on the samples
    series = massmod.FluxSeries(radii=1e-12 * 2.0 ** np.arange(4),
                                flux=[0.0, 1.0, 1.5, 1.75], integrand_id="x")
    est = massmod.extrapolate_limit(series)
    assert est.model == "power-law"
    assert est.value == pytest.approx(2.0, rel=1e-12)
    assert est.fit_exponent == pytest.approx(1.0, rel=1e-9)
    assert not est.warning


def test_default_radii_schedule():
    assert np.array_equal(massmod.default_radii(),
                          [20.0, 40.0, 80.0, 160.0])
    assert np.array_equal(massmod.default_radii(10.0, 3.0, 5),
                          [10.0, 30.0, 90.0, 270.0, 810.0])
    for r0, ratio in ((20.0, 1.0), (20.0, 0.5), (0.0, 2.0), (-5.0, 2.0),
                      (20.0, float("nan"))):
        with pytest.raises(ValueError, match="r0 > 0 and ratio > 1"):
            massmod.default_radii(r0, ratio)


def test_exact_power_law_recovery():
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    series = massmod.FluxSeries(radii=radii, flux=2.0 + 5.0 * radii ** -3.0,
                                integrand_id="synthetic")
    est = massmod.extrapolate_limit(series)
    assert est.value == pytest.approx(2.0, abs=1e-9)
    assert est.fit_exponent == pytest.approx(3.0, rel=1e-6)
    assert est.residual <= 1e-9
    assert not est.warning


def test_constant_series_shortcut():
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    series = massmod.FluxSeries(radii=radii, flux=np.full(4, 3.25),
                                integrand_id="const")
    est = massmod.extrapolate_limit(series)
    assert est.value == 3.25
    assert est.model == "constant"


def test_nonmonotone_series_flags_warning():
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    flux = np.array([1.0, 1.5, 0.7, 1.2])
    est = massmod.extrapolate_limit(massmod.FluxSeries(
        radii=radii, flux=flux, integrand_id="noisy"))
    assert est.warning


def test_euclidean_masses_vanish():
    g = metrics.euclidean(5)
    rule = quadrature.sphere_rule(5, 3)
    assert abs(massmod.flux("adm", g, 10.0, rule)) < 1e-14
    assert abs(massmod.flux("gbc", g, 10.0, rule)) < 1e-14
    assert abs(massmod.flux("egb", g, 10.0, rule, alpha=0.3)) < 1e-14
    est = massmod.mass("adm", g, rule=rule)
    assert abs(est.value) < 1e-13


def test_gbc_mass_n4_degenerates():
    g = metrics.euclidean(4)
    with pytest.warns(UserWarning):
        est = massmod.mass("gbc", g, rule=quadrature.sphere_rule(4, 3))
    assert est.value == 0.0
    assert est.model == "degenerate"


def test_mk_mass_preconditions():
    g = metrics.euclidean(5)
    with pytest.raises(ValueError):
        massmod.mass("mk", g, k=3)  # 2k >= n


def test_adm_conformal_radial_closed_form():
    # flux_r for g = e^{-2u} delta equals the radial closed form
    # (n-1)/( (n-1) ) * e^{-2u} u_r * (correction): verified against the
    # direct surface integral at one radius
    n = 5
    prof = metrics.RadialProfile("1/2/r**2")
    g = metrics.conformal_radial(n, prof)
    rule = quadrature.sphere_rule(n, 3)
    rv = 15.0
    flux = massmod.flux("adm", g, rv, rule)
    # (1/(2(n-1)om)) int (g_ij,i - g_ii,j) nu_j dS for e^{-2u} delta
    # reduces to ((n-1)/( (n-1) )) e^{-2u} u_r r^{n-1} om / om:
    # direct: g_ij,k = -2 u_k e^{-2u} d_ij; integrand = 2(n-1) e^{-2u} u_r
    u, ur = float(prof(rv)), float(prof.d1(rv))
    expected = np.exp(-2 * u) * ur * rv ** (n - 1)
    assert flux == pytest.approx(expected, rel=1e-10)


def test_adm_schwarzschild_value():
    g = metrics.schwarzschild_family(1, 6, 1.0)
    est = massmod.mass("adm", g, rule=quadrature.sphere_rule(6, 3))
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_gbc_equals_mk2_flux_pointwise():
    g = metrics.schwarzschild_family(2, 5, 1.0)
    rule = quadrature.sphere_rule(5, 3)
    for r in (20.0, 40.0):
        a = massmod.flux("gbc", g, r, rule)
        b = massmod.flux("mk", g, r, rule, k=2)
        assert abs(a - b) < 1e-6


def test_adm_equals_mk1_flux_pointwise():
    # the P_(1)-based flux differs from the two-term ADM form by a pure
    # boundary artifact that decays; radii of 40 and up keep the
    # pointwise gap below 1e-6 for this family
    g = metrics.schwarzschild_family(1, 6, 1.0)
    rule = quadrature.sphere_rule(6, 3)
    for r in (40.0, 80.0):
        a = massmod.flux("adm", g, r, rule)
        b = massmod.flux("mk", g, r, rule, k=1)
        assert abs(a - b) < 1e-6


def test_monotone_flux_convergence_proxy():
    g = metrics.schwarzschild_family(2, 6, 1.0)
    rule = quadrature.sphere_rule(6, 3)
    radii = massmod.default_radii()
    flux = [massmod.flux("gbc", g, r, rule) for r in radii]
    diffs = np.abs(np.diff(flux))
    assert np.all(np.diff(diffs) < 0)


def test_spherically_symmetric_shortcut_zero_cases():
    n = 6
    zero = metrics.RadialProfile("0")
    assert massmod.spherically_symmetric_mass(zero, n).value == 0.0
    # u = r^{-tau} with tau > (n-4)/2: limit zero
    prof = metrics.RadialProfile("r**-2")
    est = massmod.spherically_symmetric_mass(prof, n)
    assert abs(est.value) < 1e-8


def test_invariance_identity_change():
    g = metrics.schwarzschild_family(2, 5, 1.0)
    rule = quadrature.sphere_rule(5, 2)
    est, est_hat, delta = massmod.invariance_check(
        g, metrics.identity_change(5), 2, radii=[20.0, 40.0, 80.0, 160.0],
        rule=rule)
    assert abs(delta) < 1e-12


def test_flux_series_csv_format():
    series = massmod.FluxSeries(radii=np.array([1.0, 2.0, 3.0, 4.0]),
                                flux=np.arange(4.0),
                                integrand_id="m2[n=5]")
    text = massmod.flux_series_csv(series)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# integrand=")
    assert lines[1] == "r,flux"
    assert len(lines) == 6


def test_mass_estimate_dict_roundtrip():
    import json
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    est = massmod.extrapolate_limit(massmod.FluxSeries(
        radii=radii, flux=1.0 + radii ** -2.0, integrand_id="t"))
    doc = massmod.mass_estimate_dict(est)
    text = json.dumps(doc)
    back = json.loads(text)
    # repr round-trip keeps all 17 significant digits
    assert back["value"] == doc["value"]
    assert len(back["samples"]) == 4


def _failing_first_start(monkeypatch, exc):
    # a fit search that raises exc on the first start of each fit (the
    # power-law fit searches one parameter, the saturating fit three)
    real = massmod._varpro_fit
    seen = set()

    def fake(basis, y, q0, **kw):
        if len(q0) not in seen:
            seen.add(len(q0))
            raise exc("injected")
        return real(basis, y, q0, **kw)

    monkeypatch.setattr(massmod, "_varpro_fit", fake)
    return seen


def test_fit_lets_unexpected_errors_through(monkeypatch):
    _failing_first_start(monkeypatch, RuntimeError)
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    series = massmod.FluxSeries(radii=radii, flux=2.0 + 5.0 * radii ** -3.0,
                                integrand_id="t")
    with pytest.raises(RuntimeError, match="injected"):
        massmod.extrapolate_limit(series)


def test_fit_skips_a_start_that_raises_value_error(monkeypatch):
    seen = _failing_first_start(monkeypatch, ValueError)
    radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    # needs the saturating model, so both fits lose their first start
    series = massmod.FluxSeries(
        radii=radii, flux=0.8 * (1.0 + 0.5 / radii) ** -2.0, integrand_id="t")
    est = massmod.extrapolate_limit(series)
    assert seen == {1, 3}
    assert est.model == "saturating"
    assert est.value == pytest.approx(0.8, rel=1e-8)


# flux of the mass-k2 benchmark's first op at seed 1 (schwarzschild, k=2,
# n=6, m=0.812253002945871, level 4): it needs the saturating model
_K2_RADII = np.array([20.0, 40.0, 80.0, 160.0])
_K2_FLUX = np.array([0.5288667735207524, 0.5903684564820064,
                     0.6240105882777174, 0.6416112838681003])


def test_saturating_fit_residual_call_count(monkeypatch):
    # the variable-projection fit makes a few hundred residual calls on
    # this series; a four-parameter fit with a finite-difference
    # Jacobian makes about 57 600, so the bound catches a return to it
    real = massmod._varpro_fit
    calls = []

    def counting(basis, y, q0, **kw):
        def counted(q):
            calls.append(1)
            return basis(q)
        return real(counted, y, q0, **kw)

    monkeypatch.setattr(massmod, "_varpro_fit", counting)
    massmod.extrapolate_limit(massmod.FluxSeries(
        radii=_K2_RADII, flux=_K2_FLUX, integrand_id="gbc[n=6]"))
    assert 0 < len(calls) <= 2000


def test_saturating_fit_recovers_schwarzschild_k2_mass():
    est = massmod.extrapolate_limit(massmod.FluxSeries(
        radii=_K2_RADII, flux=_K2_FLUX, integrand_id="gbc[n=6]"))
    assert est.model == "saturating"
    assert abs(est.value - 0.812253002945871 ** 2) <= 1e-10


def test_flux_path_reads_neither_raised_curvature_nor_ricci(monkeypatch):
    # the mass fluxes read P_(k)^{ijml} d_l g_jm off the pair matrix; a
    # rank-4 tensor (R_ijkl, R_ij^kl or the full P) or a read of the Ricci
    # tensor or R would raise
    def forbidden(*args):
        raise AssertionError("flux path read a curvature field it does not need")

    monkeypatch.setattr(curvature, "unpair", forbidden)
    for name in ("ricci_mix", "scalar"):
        monkeypatch.setattr(curvature.CurvatureBundle, name,
                            property(forbidden))
    rule6, rule7 = quadrature.sphere_rule(6, 2), quadrature.sphere_rule(7, 2)
    gbc = massmod.flux("gbc", metrics.schwarzschild_family(2, 6, 1.0), 20.0,
                       rule6)
    egb = massmod.flux("egb", metrics.egb_blackhole(6, 0.05, 1.0), 20.0,
                       rule6, alpha=0.05)
    mk3 = massmod.flux("mk", metrics.schwarzschild_family(3, 7, 1.0), 20.0,
                       rule7, k=3)
    assert np.isfinite([gbc, egb, mk3]).all() and gbc > 0 and mk3 > 0


def test_saturating_fit_matches_minpack_reference():
    # the numpy Levenberg-Marquardt search follows MINPACK's lmder, which
    # scipy wraps: from the first grid start both reach the same limit
    optimize = pytest.importorskip("scipy.optimize")
    r, f = _K2_RADII, _K2_FLUX
    m, s, res = massmod._fit_saturating(r, f, 0.89)

    def residual(q):
        c, s, pw = q
        phi = (1.0 + c * r ** -s) ** -pw
        return phi * (phi @ f) / (phi @ phi) - f

    sol = optimize.least_squares(residual, x0=[0.5, 0.89, 1.0], method="lm",
                                 max_nfev=4000)
    phi = (1.0 + sol.x[0] * r ** -sol.x[1]) ** -sol.x[2]
    assert res <= 1e-13
    assert m == pytest.approx(phi @ f / (phi @ phi), rel=1e-12)
    assert s == pytest.approx(sol.x[1], rel=1e-8)
