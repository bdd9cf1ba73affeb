"""Equilibrium solver for rigid four-legged tables on irregular ground."""

from .balance import (
    BalanceAngles,
    CapFitReport,
    HeightScan,
    RestCandidate,
    ScalingStudy,
    SphericalCapGround,
    approximate_equilibrium,
    concyclicity_defect,
    distortion_scaling_study,
    find_balance_angles,
    height_scan,
    integral_equality_residual,
    sphere_cap_fit_scan,
)
from .contact import (
    ContactState,
    DropRotation,
    FootSet,
    TableSpec,
    complete_fourth_feet,
    drop_rotate,
    settle_three_feet,
    signed_heights,
)
from .errors import (
    BlockedMotion,
    ConditionViolation,
    CoplanarPoints,
    DomainError,
    GeometryViolation,
    NumericalFailure,
    ParseError,
    ValidationError,
    WobbleError,
)
from .geometry import (
    SlopeThresholds,
    Sphere,
    diagonal_intersection_ratios,
    inclination,
    orthotriple_inclination_residual,
    rotate_about_axis,
    sphere_through,
)
from .motion import (
    EquilibriumResult,
    MotionTrace,
    find_equilibrium,
    run_march,
    run_pivot_slide,
    verify_equilibrium,
)
from .ring import (
    GroundRing,
    chord_advance,
    circle_surface_intersection,
    ring_point,
    trace_ring,
)
from .terrain import (
    BumpTerrain,
    Extent,
    GridTerrain,
    SlopeSearch,
    estimate_slope_bound,
    flat_terrain,
    generate_terrain,
    parse_terrain,
    serialize_terrain,
)

__version__ = "0.1.0"
