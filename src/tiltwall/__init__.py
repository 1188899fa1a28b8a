"""Exact wall-and-chamber computations for tilt stability on polarized surfaces."""

from .exactnum import QuadPoly, QuadraticIrrational, quad_eval
from .hntree import (
    PiecewiseQuadratic,
    TreeLeaf,
    TreeNode,
    assemble_chd0,
    assemble_chd1,
    classify_breakpoints,
    hn_factors_at,
    tree_from_json,
    tree_to_json,
    trivial_chd,
    validate_tree,
)
from .lattice import (
    ChernClass,
    SurfaceConfig,
    central_charge,
    chd_polynomial,
    discriminant,
    mu_slope,
    p_intercept,
    tilt_slope,
    twist,
)
from .walls import (
    Semicircle,
    VerticalWall,
    enumerate_candidates,
    nesting,
    wall_between,
)

__version__ = "0.1.0"

__all__ = [
    "ChernClass",
    "PiecewiseQuadratic",
    "QuadPoly",
    "QuadraticIrrational",
    "Semicircle",
    "SurfaceConfig",
    "TreeLeaf",
    "TreeNode",
    "VerticalWall",
    "assemble_chd0",
    "assemble_chd1",
    "central_charge",
    "chd_polynomial",
    "classify_breakpoints",
    "discriminant",
    "enumerate_candidates",
    "hn_factors_at",
    "mu_slope",
    "nesting",
    "p_intercept",
    "quad_eval",
    "tilt_slope",
    "tree_from_json",
    "tree_to_json",
    "trivial_chd",
    "twist",
    "validate_tree",
    "wall_between",
]
