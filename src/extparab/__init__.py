"""Exact deformed-product towers over a parabola arc, plus an active-set runner.

The package builds, in pure rational arithmetic, convex polytopes with few
facets whose orthogonal 2D shadow is a fine polygonal approximation of
y = x^2 - x with every vertex preserved, and provides the active-set method,
pivot rules, and the verification/experiment harness that demonstrates runs
visiting the entire (exponentially large) vertex set.
"""

from .activeset import (
    Adversarial,
    FirstIndex,
    LastIndex,
    PivotRule,
    QuadraticObjective,
    SeededRandom,
    Trace,
    active_set_run,
    improving_edges,
    line_search,
    make_rule,
    pullback_objective,
)
from .deformed import Functional, dp_hrep, dp_verify, dp_vrep
from .extension import (
    ConstructionParams,
    ExtendedParabola,
    build,
    decompose_t,
    verify_construction,
    vertex_for_t,
)
from .lowerbound import chord_scan, iteration_experiment, monotone_path_check
from .polygons import ParabolaVertexList, build_family, check_normally_equivalent, h, polygon_hrep
from .polytope import (
    HPolytope,
    contains,
    edge_directions,
    hrep_from_ine,
    hrep_to_ine,
    is_simple_vertex,
    ratio_test,
    tight_set,
    vrep_to_ext,
)

__version__ = "0.1.0"
