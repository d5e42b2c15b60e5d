"""Geometric substrate: vectors, segments, circle kernels, polygons, grids.

These primitives are deliberately dependency-light (only numpy for the
coverage grid) so that every higher layer — field model, Voronoi diagrams,
BUG2 path planning, the deployment schemes themselves — can build on a
single consistent set of predicates and tolerances.  Circles have no
object of their own: the ``*_xy`` kernels take ``(cx, cy, r)`` floats.
Half-plane clipping is the Sutherland–Hodgman step that
:func:`repro.voronoi.compute_cell` applies once per competing site.
"""

from .vec import EPS, Vec2
from .segment import Segment, on_segment
from .circle import circle_intersections_xy, clip_segment_xy, segment_crossings_xy
from .polygon import Polygon
from .halfplane import HalfPlane, bisector_halfplane, clip_polygon
from .grid import CoverageGrid

__all__ = [
    "EPS",
    "Vec2",
    "Segment",
    "on_segment",
    "circle_intersections_xy",
    "clip_segment_xy",
    "segment_crossings_xy",
    "Polygon",
    "HalfPlane",
    "bisector_halfplane",
    "clip_polygon",
    "CoverageGrid",
]
