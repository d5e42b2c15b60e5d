"""Geometry references: polygon predicates and a per-point grid mask.

``Polygon.contains`` and ``Polygon.segment_crosses_interior`` evaluated
the long way, every edge and every sample visited for every query; the
production predicates, which return early outside the polygon's padded
bounding box, must agree with them on every input.

:func:`predicate_mask` classifies a coverage grid one sample point at a
time; the field's vectorised obstacle rasterisation must match it.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.geometry import CoverageGrid, Polygon, Segment, Vec2


def predicate_mask(
    grid: CoverageGrid, predicate: Callable[[Vec2], bool]
) -> np.ndarray:
    """Boolean mask of the grid's sample points for which ``predicate`` holds."""
    px, py = grid.point_arrays()
    return np.fromiter(
        (predicate(Vec2(float(x), float(y))) for x, y in zip(px, py)),
        dtype=bool,
        count=grid.num_points,
    )


def reference_edges(polygon: Polygon) -> List[Segment]:
    """The boundary edges, rebuilt from the vertices."""
    vertices = polygon.vertices
    n = len(vertices)
    return [Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n)]


def reference_on_boundary(polygon: Polygon, p: Vec2, eps: float = 1e-7) -> bool:
    return any(edge.distance_to_point(p) <= eps for edge in reference_edges(polygon))


def reference_contains(
    polygon: Polygon, p: Vec2, include_boundary: bool = True
) -> bool:
    """Point-in-polygon by ray casting, every edge visited."""
    if reference_on_boundary(polygon, p):
        return include_boundary
    inside = False
    vertices = polygon.vertices
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


def reference_segment_crosses_interior(
    polygon: Polygon, seg: Segment, samples: int = 8
) -> bool:
    """Sampled interior-crossing test, every sample and edge visited."""
    for i in range(1, samples):
        p = seg.point_at(i / samples)
        if reference_contains(polygon, p, include_boundary=False):
            return True
    crossings = [edge for edge in reference_edges(polygon) if edge.intersects(seg)]
    if len(crossings) >= 2:
        if reference_contains(polygon, seg.midpoint(), include_boundary=False):
            return True
    return False
