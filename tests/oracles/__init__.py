"""Reference oracles for the parity tests and the seed perf floors.

The production code has one fast path per concern; the slower reference
implementations it is checked against live here, as small subclasses or
functions that tests (and ``benchmarks/perfbench.py``) import:

* :mod:`.world` — dense-scan answers to every neighbour query of the
  unit-disk model (:class:`BruteRadio`), the all-pairs union-find behind
  :func:`double_loop_components`, and a world whose queries bypass the
  neighbour cache and the incremental coverage tracker;
* :mod:`.entry` — the straight-move kernel judged in ``Fraction``
  arithmetic: a slab clip for rectangles, exact edge crossings with a
  dense scan for other polygons; ``Polygon.first_entry_xy`` and
  ``Field.max_free_travel`` must agree to within 1e-9 m;
* :mod:`.field` — the float field queries (free point, blocked and
  free-travel moves, nearest-free spiral, visible boundary pieces,
  obstacle force) walking every obstacle on every probe, with no
  obstacle table or per-move prefilter;
* :mod:`.floor` — an exhaustive floor-registry scan, the ``Vec2``
  expansion planner with no memo (:class:`ReferenceExpansionPlanner`)
  and FLOOR on it with no round reuse (:class:`ReferenceFloorScheme`);
* :mod:`.geometry` — the polygon point and segment predicates, the
  boundary distance and closest point on ``Segment`` objects without the
  bounding-box reject, the obstacle force with no cutoff, the ``Vec2``
  nearest-free spiral, the
  :class:`Circle` (production keeps circles as floats) with the
  ``Circle``/``Segment`` circle clips and intersections and the
  visible-boundary query built on them, the ``Segment`` closest point,
  distance and intersection predicate (with its :func:`orientation`
  test), the
  per-point grid mask (:func:`predicate_mask`) and the one-disk grid
  block (:func:`reference_disk_block`);
* :mod:`.mobility` — BUG2 path length and arc-length interpolation
  re-measuring every segment on each call, the all-obstacle leg scan
  (:class:`AllObstacleBug2Planner`) and the ``Segment`` nearest-edge
  search;
* :mod:`.seed` — the paper's literal step ladder, the seed CPVF dynamics
  (:class:`SeedCPVF`) with its scalar force terms and ``Vec2`` move
  tail, the subtree lock depth walk, and the seed neighbour-table / coverage
  algorithms (their timers live in ``benchmarks/perfbench.py``);
* :mod:`.vd` — VOR with full-information Voronoi cells
  (:class:`InformedVorScheme`).
"""

from .entry import (
    DEPTH_SLACK,
    entry_error,
    free_travel_error,
    is_axis_aligned_rectangle,
    segment_entry_error,
)
from .field import (
    all_obstacle_boundary_pieces,
    all_obstacle_force,
    all_obstacle_is_free,
    all_obstacle_max_free_travel,
    all_obstacle_nearest_free,
    all_obstacle_segment_blocked,
)
from .floor import (
    ExhaustiveFloorRegistry,
    ReferenceExpansionPlanner,
    ReferenceFloorScheme,
    RoundPlanner,
    reference_floor_line_segment,
)
from .geometry import (
    Circle,
    midpoint,
    orientation,
    predicate_mask,
    reference_boundary_distance,
    reference_boundary_segments_within,
    reference_circle_circle_intersections,
    reference_clip_segment,
    reference_closest_boundary_point,
    reference_contains,
    reference_disk_block,
    reference_nearest_free,
    reference_obstacle_force,
    reference_on_boundary,
    reference_segment_intersections,
    segment_closest_point,
    segment_distance_to_point,
    segments_intersect,
)
from .mobility import (
    AllObstacleBug2Planner,
    reference_nearest_edge,
    reference_path_length,
    reference_point_at_distance,
)
from .seed import (
    NeighborMotion,
    SeedCPVF,
    force_direction,
    resultant_force,
    sensor_force,
    max_valid_step_reference,
    reference_subtree_lock_depth,
    seed_coverage_fraction,
    seed_neighbor_table,
    step_is_valid,
)
from .vd import InformedVorScheme
from .world import BruteRadio, UncachedWorld, double_loop_components, uncached

__all__ = [
    "DEPTH_SLACK",
    "entry_error",
    "free_travel_error",
    "is_axis_aligned_rectangle",
    "segment_entry_error",
    "all_obstacle_boundary_pieces",
    "all_obstacle_force",
    "all_obstacle_is_free",
    "all_obstacle_max_free_travel",
    "all_obstacle_nearest_free",
    "all_obstacle_segment_blocked",
    "BruteRadio",
    "UncachedWorld",
    "uncached",
    "double_loop_components",
    "ExhaustiveFloorRegistry",
    "ReferenceExpansionPlanner",
    "ReferenceFloorScheme",
    "RoundPlanner",
    "reference_floor_line_segment",
    "Circle",
    "midpoint",
    "orientation",
    "segments_intersect",
    "segment_closest_point",
    "segment_distance_to_point",
    "predicate_mask",
    "reference_boundary_distance",
    "reference_boundary_segments_within",
    "reference_circle_circle_intersections",
    "reference_clip_segment",
    "reference_closest_boundary_point",
    "reference_contains",
    "reference_disk_block",
    "reference_nearest_free",
    "reference_obstacle_force",
    "reference_on_boundary",
    "reference_segment_intersections",
    "AllObstacleBug2Planner",
    "reference_nearest_edge",
    "reference_path_length",
    "reference_point_at_distance",
    "NeighborMotion",
    "SeedCPVF",
    "force_direction",
    "resultant_force",
    "sensor_force",
    "step_is_valid",
    "max_valid_step_reference",
    "reference_subtree_lock_depth",
    "seed_neighbor_table",
    "seed_coverage_fraction",
    "InformedVorScheme",
]
