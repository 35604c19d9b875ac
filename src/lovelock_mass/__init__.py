"""Numerical flux-integral masses of asymptotically flat metrics.

The package evaluates curvature tensors of analytically specified
metrics on R^n, integrates normalized flux expressions over large
coordinate spheres, and extrapolates the radius-to-infinity limit.
It covers the first-order (ADM) mass, the second-order mass built from
the Gauss-Bonnet curvature, its higher-order analogues, and the
Gauss-Bonnet-corrected mass, together with graph-hypersurface bulk and
horizon-boundary formulas.
"""

from .curvature import (
    divergence_of_P,
    gauss_bonnet_L2_direct,
    lovelock_L,
    lovelock_einstein,
    p_tensor,
    p_tensor_general,
    riemann,
    weyl_sigma2_split,
)
from .graphcase import (
    Ellipsoid,
    GraphFunction,
    bulk_mass,
    egb_graph,
    gaussian_bump_graph,
    penrose_report,
    radial_graph,
    schwarzschild_graph,
    sphere_surface,
)
from .mass import (
    MassEstimate,
    default_radii,
    extrapolate_limit,
    invariance_check,
)
from .metrics import (
    DomainError,
    MetricField,
    RadialProfile,
    conformal_radial,
    egb_blackhole,
    euclidean,
    pushforward,
    schwarzschild_family,
)
from .quadrature import ball_integral, sphere_rule, sphere_volume, surface_integral

__version__ = "0.1.0"

__all__ = [
    "DomainError", "Ellipsoid", "GraphFunction", "MassEstimate",
    "MetricField", "RadialProfile", "ball_integral",
    "bulk_mass", "conformal_radial", "default_radii", "divergence_of_P",
    "egb_blackhole", "egb_graph", "euclidean",
    "extrapolate_limit", "gauss_bonnet_L2_direct", "gaussian_bump_graph",
    "invariance_check", "lovelock_L", "lovelock_einstein",
    "p_tensor", "p_tensor_general", "penrose_report",
    "pushforward", "radial_graph", "riemann", "schwarzschild_family",
    "schwarzschild_graph", "sphere_rule", "sphere_surface",
    "sphere_volume", "surface_integral", "weyl_sigma2_split",
]
