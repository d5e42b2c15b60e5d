"""Geometric substrate: vectors, segments, circles, polygons, grids.

These primitives are deliberately dependency-light (only numpy for the
coverage grid) so that every higher layer — field model, Voronoi diagrams,
BUG2 path planning, the deployment schemes themselves — can build on a
single consistent set of predicates and tolerances.
"""

from .vec import EPS, Vec2
from .segment import Segment, on_segment, orientation
from .circle import (
    Circle,
    circle_intersections_xy,
    clip_segment_xy,
    disk_overlap_area,
    segment_crossings_xy,
)
from .polygon import Polygon
from .halfplane import HalfPlane, bisector_halfplane, clip_polygon, clip_polygon_to_cell
from .grid import CoverageGrid

__all__ = [
    "EPS",
    "Vec2",
    "Segment",
    "on_segment",
    "orientation",
    "Circle",
    "circle_intersections_xy",
    "clip_segment_xy",
    "disk_overlap_area",
    "segment_crossings_xy",
    "Polygon",
    "HalfPlane",
    "bisector_halfplane",
    "clip_polygon",
    "clip_polygon_to_cell",
    "CoverageGrid",
]
