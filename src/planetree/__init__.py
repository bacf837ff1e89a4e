"""Plane spanning trees in geometric graphs.

A geometric graph on points in general position is guaranteed to
contain a crossing-free spanning tree as soon as the number of its
empty triangles inducing at most one edge stays below the point count
minus two.  This package makes that guarantee executable: exact integer
predicates, the rotating-line sweep that produces balanced split lines,
a recursive builder with a certifying checker, an exhaustive oracle, an
O(n^3) decision for points in convex position, and generators for the
tight instance families on either side of the threshold.
"""

from .geometry import (
    BOUNDARY,
    COORD_LIMIT,
    GeneralPositionError,
    INTERIOR,
    OUTSIDE,
    Point,
    PointSet,
    hull_order,
    in_convex_position,
    in_general_position,
    orient,
    point_in_triangle,
    segments_properly_cross,
)
from .graphs import (
    GeometricGraph,
    PlaneTree,
    Rejection,
    canonical_edge,
    certify_plane_spanning_tree,
    complete_graph,
    induced_subgraph,
    is_crossing_free,
    triple_connected,
)
from .triangles import (
    DisconnectedTriangles,
    disconnected_empty_triangles,
    enumerate_empty_triangles,
)
from .rotation import (
    EVENT,
    INTERMEDIATE,
    OrientedLine,
    RotationSequence,
    SidePartition,
    full_rotation,
    initial_halving_line,
    side_partition,
    sweep_states,
)
from .builder import (
    BuildReport,
    SplitLine,
    build_plane_tree,
    case2_walk,
    find_valid_split,
    merge_side_trees,
)
from .convex import convex_tree_edges
from .oracle import (
    ABSENT,
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FOUND,
    OracleResult,
    has_plane_spanning_tree,
)
from .generators import (
    GenerationError,
    Instance,
    convex_position_points,
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from .instance_io import (
    InstanceFormatError,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
)
from .svg import render_svg, write_svg

__version__ = "0.1.0"
