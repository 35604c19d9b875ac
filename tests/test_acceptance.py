"""End-to-end acceptance matrix.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with -s or in captured output on failure).
"""

import numpy as np

import oracles
from lovelock_mass.multiindex import unpair
from lovelock_mass import (curvature, graphcase, mass as massmod, metrics,
                           quadrature)

RADII = [20.0, 40.0, 80.0, 160.0]


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_schwarzschild_gbc_mass():
    rule6 = quadrature.sphere_rule(6, 6)
    rule5 = quadrature.sphere_rule(5, 6)
    a = massmod.mass("gbc", metrics.schwarzschild_family(2, 6, 1.0),
                     RADII, rule6).value
    b = massmod.mass("gbc", metrics.schwarzschild_family(2, 5, 1.0),
                     RADII, rule5).value
    c = massmod.mass("gbc", metrics.schwarzschild_family(2, 5, 2.0),
                     RADII, rule5).value
    ok = abs(a - 1.0) <= 1e-3 and abs(b - 1.0) <= 1e-3 and abs(c - 4.0) <= 4e-3
    _line(1, ok, f"n=6:{a:.6f} n=5:{b:.6f} m=2:{c:.6f}")


def test_criterion_02_first_order_metric_has_zero_gbc_mass():
    rule6 = quadrature.sphere_rule(6, 6)
    v = massmod.mass("gbc", metrics.schwarzschild_family(1, 6, 1.0),
                     RADII, rule6).value
    ok = abs(v) <= 1e-3
    _line(2, ok, f"gbc(k=1 metric)={v:.2e}")


def test_criterion_03_higher_lovelock_masses():
    a = massmod.mass("mk", metrics.schwarzschild_family(3, 7, 1.0),
                     RADII, quadrature.sphere_rule(7, 3), k=3).value
    b = massmod.mass("mk", metrics.schwarzschild_family(2, 6, -1.0),
                     RADII, quadrature.sphere_rule(6, 6), k=2).value
    ok = abs(a - 1.0) <= 5e-3 and abs(b - 1.0) <= 1e-2
    _line(3, ok, f"m3={a:.6f} m2(m=-1)={b:.6f}")


def test_criterion_04_adm_cross_checks():
    rule = quadrature.sphere_rule(6, 3)
    g1 = metrics.schwarzschild_family(1, 6, 1.0)
    a = massmod.mass("adm", g1, RADII, rule).value
    gaps = [abs(massmod.flux("mk", g1, r, rule, k=1)
                - massmod.flux("adm", g1, r, rule))
            for r in (40.0, 80.0, 160.0, 320.0)]
    ge = metrics.egb_blackhole(6, 0.1, 1.0)
    e = massmod.mass("egb", ge, RADII, rule, alpha=0.1).value
    egaps = [abs(massmod.flux("egb", ge, r, rule, alpha=0.1)
                 - massmod.flux("adm", ge, r, rule)) for r in RADII]
    ok = (abs(a - 1.0) <= 1e-3 and max(gaps) <= 1e-6
          and abs(e - 1.0) <= 1e-3 and max(egaps) <= 1e-6)
    _line(4, ok, f"adm={a:.6f} gap={max(gaps):.2e} "
                 f"egb={e:.6f} egap={max(egaps):.2e}")


def test_criterion_05_identity_suites():
    rng = np.random.default_rng(12345)
    n = 5
    gc = metrics.conformal_radial(n, metrics.RadialProfile("3/10/(1 + r**2)"))
    pts = rng.uniform(1.2, 4.0, size=(100, n)) * rng.choice(
        [-1.0, 1.0], size=(100, n))
    div_an = max(float(np.abs(curvature.divergence_of_P(k, gc, pts)).max())
                 for k in (1, 2))

    f = graphcase.gaussian_bump_graph(n, rng.normal(size=(2, n)),
                                      [0.5, -0.4], [1.4, 2.1])
    g = f.metric
    div_fd = float(np.abs(curvature.divergence_of_P(2, g, pts)).max())
    graph_id = float(np.max(
        graphcase.graph_divergence_identity_residual(f, pts)))

    L2 = curvature.lovelock_L(2, g, pts)
    scale = 1.0 + float(np.abs(L2).max())
    w2, s2 = curvature.weyl_sigma2_split(g, pts)
    split = float(np.abs(L2 - (w2 + 8 * (n - 2) * (n - 3) * s2)).max()) / scale

    h4 = np.array([graphcase.graph_hypersurface_data(f, p).mean_curvatures[3]
                   for p in pts])
    l2_h4 = float(np.abs(L2 - 24.0 * h4).max()) / scale

    direct = curvature.gauss_bonnet_L2_direct(g, pts)
    three = float(np.abs(L2 - direct).max()) / scale
    for p in pts[:3]:
        three = max(three, abs(float(oracles.direct_L2(g, p))
                               - float(curvature.lovelock_L(2, g, p))) / scale)

    bund = curvature.riemann(g, pts)
    rm = unpair(bund.pair_lo)
    rs = 1.0 + float(np.abs(rm).max())
    sym = max(
        float(np.abs(rm + rm.transpose(0, 2, 1, 3, 4)).max()),
        float(np.abs(rm + rm.transpose(0, 1, 2, 4, 3)).max()),
        float(np.abs(rm - rm.transpose(0, 3, 4, 1, 2)).max()),
        float(np.abs(rm + rm.transpose(0, 1, 3, 4, 2)
                     + rm.transpose(0, 1, 4, 2, 3)).max())) / rs

    ok = (div_an <= 1e-6 and div_fd <= 1e-4 and graph_id <= 1e-4
          and split <= 1e-9 and l2_h4 <= 1e-8 and three <= 1e-9
          and sym <= 1e-9)
    _line(5, ok, f"divP={div_an:.1e}/{div_fd:.1e} graph={graph_id:.1e} "
                 f"split={split:.1e} 24H4={l2_h4:.1e} L2x3={three:.1e} "
                 f"sym={sym:.1e}")


def test_criterion_06_divergence_theorem_consistency():
    n = 5
    rng = np.random.default_rng(7)
    tail = graphcase.radial_graph(
        n, metrics.RadialProfile("4/5*r/(1 + r**2)**(5/4)"), tau=3.0)
    center = rng.normal(size=(1, n))
    center *= 1.5 / np.linalg.norm(center)
    f = graphcase.sum_graph(tail, graphcase.gaussian_bump_graph(
        n, center, [0.5], [2.5]))
    rule = quadrature.sphere_rule(n, 5)
    worst = 0.0
    for rv in (20.0, 40.0, 80.0):
        flux = massmod.flux("gbc", f.metric, rv, rule)
        bulk = graphcase.bulk_mass(f, rule=rule, r_inner=0.0, r_outer=rv,
                                   radial_level=72)
        worst = max(worst, abs(flux - bulk) / (1.0 + abs(flux)))
    ok = worst <= 1e-3
    _line(6, ok, f"max scaled gap={worst:.2e}")


def test_criterion_07_coordinate_invariance():
    g = metrics.schwarzschild_family(2, 6, 1.0)
    c = metrics.perturbation_change(
        6, metrics.radial_decay_profile(0.1, 1.0), decay=1.0)
    _, _, delta = massmod.invariance_check(
        g, c, 2, radii=RADII, rule=quadrature.sphere_rule(6, 3))
    ok = abs(delta) <= 5e-3
    _line(7, ok, f"|delta m2|={abs(delta):.2e}")


def test_criterion_08_spherically_symmetric_shortcuts():
    u = metrics.schwarzschild_conformal_profile(2, 6, 1.0)
    a = massmod.spherically_symmetric_mass(u, 6, radii=RADII).value
    b = massmod.mass("gbc", metrics.schwarzschild_family(2, 6, 1.0),
                     RADII, quadrature.sphere_rule(6, 3)).value
    slope = graphcase.schwarzschild_slope_profile(2, 6, 1.0)
    _, density = graphcase.radial_graph_formulas(slope, 1.0e4, 6)
    ok = abs(a - b) <= 1e-4 and abs(float(density) - 1.0) <= 1e-3
    _line(8, ok, f"|shortcut-gbc|={abs(a - b):.2e} "
                 f"density(1e4)={float(density):.6f}")


def test_criterion_09_penrose_equality_cases():
    f = graphcase.schwarzschild_graph(5, 1.0)
    rule = quadrature.sphere_rule(5, 3)
    rep = graphcase.penrose_report(f, f.horizon, rule=rule, radial_level=96)
    slack = float(np.abs(rep.slack).max())
    ok = (abs(rep.bulk_term) <= 1e-4
          and abs(rep.boundary_term - 1.0) <= 1e-3 and slack <= 2e-3)
    fe = graphcase.egb_graph(5, 0.05, 0.65)
    d = graphcase.egb_graph_penrose(fe, fe.horizon, 0.05, rule=rule,
                                    radial_level=96)
    ok = ok and abs(d["slack"]) <= 2e-3
    _line(9, ok, f"bulk={rep.bulk_term:.2e} bdy={rep.boundary_term:.6f} "
                 f"slack={slack:.2e} egb_slack={abs(d['slack']):.2e}")


def test_criterion_10_aleksandrov_fenchel_chain():
    E = graphcase.Ellipsoid(np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
    n = 5
    rule = quadrature.sphere_rule(n, 16)
    chain = graphcase.af_chain_bounds(E, rule)
    gaps = -np.diff(chain)
    omega = quadrature.sphere_volume(n)
    # same closed forms, but every surface integral comes from the
    # independent parametric oracle
    h3, h2, int_h1, area = oracles.parametric_surface_integrals(
        E, ("H3", "H2", "H1", "area"), 20, 40)
    int_3h3, int_2h2 = 3.0 * h3, 2.0 * h2
    oc = np.array([
        massmod.ck_constant(n, 2) * int_3h3,
        0.25 * (int_2h2 / ((n - 1) * (n - 2) * omega)) ** ((n - 4) / (n - 3)),
        0.25 * (int_h1 / ((n - 1) * omega)) ** ((n - 4) / (n - 2)),
        0.25 * (area / omega) ** ((n - 4) / (n - 1)),
    ])
    rel = float(np.abs(chain - oc).max() / np.abs(chain).max())
    ok = bool(np.all(gaps > 1e-3)) and rel <= 1e-5
    _line(10, ok, f"chain={np.array2string(chain, precision=5)} "
                  f"min gap={gaps.min():.2e} oracle rel={rel:.2e}")
