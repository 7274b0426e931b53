"""Steepest-descent curves for nested convex families.

Computational toolkit for V-polytope convex geometry: support functions,
projections and Hausdorff distance; polyhedral normal/tangent cones
and cap bodies; exact planar and quadrature mean widths with their first
variation; self-expanding path validation with sharp length bounds;
quasi-convex family completion; and descent-curve synthesis by successive
projection, with stability and annulus-length certificates.
"""

from .errors import (
    Degenerate,
    DescentGeomError,
    DimensionMismatch,
    InvalidInput,
    NotAChain,
    NumericalFailure,
    PreconditionViolated,
)
from .geom_core import (
    ConvexBody,
    body_from_dict,
    contains,
    hausdorff,
    hull,
    includes,
    project,
    support,
    unit_directions,
)
from .cones import (
    CircularCone,
    PolyCone,
    cap_body,
    cap_support,
    in_normal_cone,
    normal_cone,
    normal_cone_limit_report,
    sector_integral_exact,
    sector_integral_lower_bound,
    sphere_measure,
    tangent_cone,
)
from .mean_width import (
    SphereGrid,
    first_variation,
    lipschitz_constant,
    mean_width,
    mean_width_quadrature,
    mean_width_ratio,
    width_distance_bounds,
    width_gap_constant,
)
from .sep import (
    Polyline,
    hull_width,
    is_sep,
    length_bound_check,
    lipschitz_ratio,
    meanwidth_param,
    polyline_from_csv,
    polyline_from_dict,
)
from .family import (
    Family,
    Stratification,
    complete,
    family_distance,
    family_from_dict,
    interpolate,
    is_connected,
    outer_parallel,
    stratification_from_dict,
    validate_stratification,
)
from .descent import (
    ExpandingCouple,
    FamilyPass,
    annulus_length_check,
    construct_descent,
    curve_uniform_distance,
    is_expanding_couple,
    is_viable_sdc,
    joint_parametrization,
    make_expanding_couple,
    stability_check,
)

__version__ = "0.1.0"
