"""Shadows of the 4-cube: geometry, closed forms, constants, verification."""

from .functionals import (
    OctagonCoeffs,
    ShadowFunctionals,
    octagon_area_branch,
    octagon_coefficients,
    octagon_perimeter,
    segment_mw_coeff,
    shadow_area,
    shadow_functionals,
    shadow_mean_width,
    shadow_volume,
)
from .geometry import (
    build_frame,
    build_rank2_pair,
    cube_vertices,
    project_vertices,
    sample_unit_vector,
    spherical_density,
    spherical_to_cartesian4,
    stream,
)
from .hull import (
    MeshMeasures,
    PolyMesh,
    Polygon2D,
    convex_hull_2d,
    convex_hull_3d,
    mesh_measures,
    polygon_measures,
    to_off,
)
from .moments import (
    McResult,
    MomentTable,
    VerifyReport,
    closed_form_table,
    extremes_table,
    joint_table,
    mc_estimate,
    mc_octagon,
    verify_report,
)
from .quad import (
    QuadResult,
    integrate_1d,
    moment_integral_suite,
    pi_over_128_suite,
    zeta3_quadrature,
    zeta4_quadrature,
    zeta5_reduction_check,
)
from .specfun import (
    EllipticPair,
    catalan_const,
    elliptic_e,
    elliptic_imag,
    elliptic_real,
    gamma_fn,
    hyp3f2_unit,
)

__version__ = "0.1.0"
