"""Numerical laboratory for a centro-affine hypersurface flow.

The flow evolves a star-shaped convex hypersurface through its support
function; the package provides the spatial discretizations (circle, cubed
sphere), the full invariant stack of the induced centro-affine geometry, an
explicit time stepper with positivity/convexity guards, closed-form oracles
for exactly solvable data, and diagnostics that check every conservation or
monotonicity law the flow is supposed to satisfy.
"""

__version__ = "0.1.0"

from .errors import (
    CentroflowError,
    ConfigError,
    ConvexityLost,
    GridError,
    NumericalBlowup,
    OriginCrossed,
    TransversalityLost,
)
from .grids import CircleGrid, CubedSphereGrid, make_grid
from .support import SupportField
from .invariants import compute_invariants
from .flow import FlowState, StepControl, Trajectory, evolve
from .oracles import (
    EllipsoidSpec,
    best_fit_ellipsoid,
    exact_ellipsoid_factor,
    exact_sphere_radius,
    self_similar_residual,
)
from .diagnostics import SeriesBundle, classify, run_report

__all__ = [
    "CentroflowError",
    "CircleGrid",
    "ConfigError",
    "ConvexityLost",
    "CubedSphereGrid",
    "EllipsoidSpec",
    "FlowState",
    "GridError",
    "NumericalBlowup",
    "OriginCrossed",
    "SeriesBundle",
    "StepControl",
    "SupportField",
    "Trajectory",
    "TransversalityLost",
    "__version__",
    "best_fit_ellipsoid",
    "classify",
    "compute_invariants",
    "evolve",
    "exact_ellipsoid_factor",
    "exact_sphere_radius",
    "make_grid",
    "run_report",
    "self_similar_residual",
]
