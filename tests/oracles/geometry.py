"""Geometry references: polygon and field queries on ``Vec2``/``Segment``.

``Polygon.contains``, the boundary distance and the closest boundary
point evaluated the long way, through ``Segment`` objects, every edge
visited for every query.  On top of them, the obstacle term of the virtual force with no
perception cutoff (:func:`reference_obstacle_force`) and the ``Vec2``
spiral search of ``Field.nearest_free`` (:func:`reference_nearest_free`).  The production queries run on
plain floats and return early outside a polygon's padded bounding box;
they must give the same answers bit for bit.

The circle queries of FLOOR's expansion search on :class:`Circle`/``Segment``
(:func:`reference_clip_segment`, :func:`reference_segment_intersections`,
:func:`reference_circle_circle_intersections`) and the field's visible
boundary pieces built from them
(:func:`reference_boundary_segments_within`): the production float
kernels (``clip_segment_xy``, ``segment_crossings_xy``,
``circle_intersections_xy``, ``Field.boundary_pieces_within``) keep their
operation order and must return the same coordinates.

:func:`predicate_mask` classifies a coverage grid one sample point at a
time; the field's vectorised obstacle rasterisation must match it.
:func:`reference_disk_block` rasterises one sensing disk over its own
bounding box; the batched ``CoverageGrid.disk_hits`` must hit exactly the
same sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.geometry import EPS, CoverageGrid, Polygon, Segment, Vec2, on_segment
from repro.geometry.segment import DEGENERATE_NORM_SQ


@dataclass(frozen=True)
class Circle:
    """A circle (and, when used as a range, the closed disk it bounds).

    Production works on ``(cx, cy, r)`` floats (``repro.geometry.circle``);
    the circle references below take this object instead.
    """

    center: Vec2
    radius: float

    def contains(self, p: Vec2, eps: float = EPS) -> bool:
        """Return ``True`` when ``p`` lies inside or on the circle."""
        dx = self.center.x - p.x
        dy = self.center.y - p.y
        return dx * dx + dy * dy <= (self.radius + eps) ** 2

    def area(self) -> float:
        """Area of the disk."""
        return math.pi * self.radius * self.radius


def orientation(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``1`` for counter-clockwise, ``-1`` for clockwise and ``0`` for
    collinear points (within ``EPS``).
    """
    cross = (b - a).cross(c - a)
    if cross > EPS:
        return 1
    if cross < -EPS:
        return -1
    return 0


def segments_intersect(s: Segment, t: Segment) -> bool:
    """Whether two closed segments share at least one point."""
    o1 = orientation(s.a, s.b, t.a)
    o2 = orientation(s.a, s.b, t.b)
    o3 = orientation(t.a, t.b, s.a)
    o4 = orientation(t.a, t.b, s.b)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(t.a, s.a, s.b):
        return True
    if o2 == 0 and on_segment(t.b, s.a, s.b):
        return True
    if o3 == 0 and on_segment(s.a, t.a, t.b):
        return True
    if o4 == 0 and on_segment(s.b, t.a, t.b):
        return True
    return False


def midpoint(seg: Segment) -> Vec2:
    """The midpoint of a segment."""
    return seg.a.lerp(seg.b, 0.5)


def segment_closest_point(seg: Segment, p: Vec2) -> Vec2:
    """The point of the closed segment closest to ``p``."""
    d = seg.b - seg.a
    denom = d.norm_sq()
    if denom <= DEGENERATE_NORM_SQ:
        # Degenerate segment: return the endpoint closer to ``p``.
        if p.distance_to(seg.a) <= p.distance_to(seg.b):
            return seg.a
        return seg.b
    t = min(1.0, max(0.0, (p - seg.a).dot(d) / denom))
    return seg.point_at(t)


def segment_distance_to_point(seg: Segment, p: Vec2) -> float:
    """Distance from ``p`` to the closed segment."""
    return p.distance_to(segment_closest_point(seg, p))


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


def reference_disk_block(
    grid: CoverageGrid, cx: float, cy: float, radius: float
) -> "Tuple[slice, slice, np.ndarray] | None":
    """The grid sub-block one disk touches, with its in-disk mask.

    Returns ``(i_slice, j_slice, hit)`` where ``hit`` is the boolean mask
    ``dx*dx + dy*dy <= radius*radius`` over the sub-block of the
    ``'ij'``-shaped grid inside the disk's bounding box, or ``None`` when
    the disk misses the grid entirely.
    """
    xs, ys = grid.axes
    i0 = int(np.searchsorted(xs, cx - radius, side="left"))
    i1 = int(np.searchsorted(xs, cx + radius, side="right"))
    j0 = int(np.searchsorted(ys, cy - radius, side="left"))
    j1 = int(np.searchsorted(ys, cy + radius, side="right"))
    if i0 >= i1 or j0 >= j1:
        return None
    dx = xs[i0:i1, None] - cx
    dy = ys[None, j0:j1] - cy
    hit = dx * dx + dy * dy <= radius * radius
    return slice(i0, i1), slice(j0, j1), hit


def reference_edges(polygon: Polygon) -> List[Segment]:
    """The boundary edges, rebuilt from the vertices."""
    vertices = polygon.vertices
    n = len(vertices)
    return [Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n)]


def reference_polygon_intersections(polygon: Polygon, seg: Segment) -> List[Vec2]:
    """``Polygon.segment_intersections`` with ``Segment.intersection`` on
    every edge."""
    points: List[Vec2] = []
    for edge in reference_edges(polygon):
        p = edge.intersection(seg)
        if p is not None and not any(p.almost_equals(q) for q in points):
            points.append(p)
    points.sort(key=seg.a.distance_to)
    return points


def reference_on_boundary(polygon: Polygon, p: Vec2, eps: float = 1e-7) -> bool:
    return any(
        segment_distance_to_point(edge, p) <= eps for edge in reference_edges(polygon)
    )


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


def reference_boundary_distance(polygon: Polygon, p: Vec2) -> float:
    """Distance from ``p`` to the boundary, one ``Segment`` per edge."""
    return min(segment_distance_to_point(edge, p) for edge in reference_edges(polygon))


def reference_closest_boundary_point(polygon: Polygon, p: Vec2) -> Vec2:
    """The first edge's closest point at the smallest distance to ``p``."""
    best = None
    best_dist = math.inf
    for edge in reference_edges(polygon):
        candidate = segment_closest_point(edge, p)
        dist = candidate.distance_to(p)
        if dist < best_dist:
            best = candidate
            best_dist = dist
    assert best is not None
    return best


def reference_obstacle_force(model, position: Vec2, field) -> Vec2:
    """``VirtualForceModel.force_from_obstacles`` with no cutoff.

    Every obstacle's boundary distance is measured, however far away it
    is, and the terms are summed as ``Vec2``.
    """
    total = Vec2.zero()
    for obstacle in field.obstacles:
        polygon = obstacle.polygon
        dist = reference_boundary_distance(polygon, position)
        if reference_contains(polygon, position, include_boundary=False):
            escape = reference_closest_boundary_point(polygon, position)
            total = total + position.towards(escape) * (-model.obstacle_gain)
            continue
        if dist >= model.obstacle_distance or dist <= 1e-9:
            continue
        closest = reference_closest_boundary_point(polygon, position)
        direction = (position - closest).normalized()
        magnitude = (
            model.obstacle_gain
            * (model.obstacle_distance - dist)
            / model.obstacle_distance
        )
        total = total + direction * magnitude
    return total + Vec2(
        *model.boundary_force_xy(position.x, position.y, field.width, field.height)
    )


def reference_nearest_free(
    field, p: Vec2, step: float = 1.0, max_radius: float = 200.0
) -> Vec2:
    """``Field.nearest_free`` on ``Vec2``: the spiral search built from
    ``clamp``, ``Vec2.from_polar`` and ``is_free``."""
    candidate = field.clamp(p)
    if field.is_free(candidate):
        return candidate
    radius = step
    while radius <= max_radius:
        for k in range(16):
            angle = 2.0 * math.pi * k / 16
            q = field.clamp(candidate + Vec2.from_polar(radius, angle))
            if field.is_free(q):
                return q
        radius += step
    return candidate


def reference_segment_intersections(circle: Circle, seg: Segment) -> List[Vec2]:
    """Intersection points of the circle *boundary* with a segment.

    Zero, one or two points sorted along the segment direction.
    """
    d = seg.b - seg.a
    f = seg.a - circle.center
    a = d.norm_sq()
    if a <= EPS:
        return []
    b = 2.0 * f.dot(d)
    c = f.norm_sq() - circle.radius * circle.radius
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    sqrt_disc = math.sqrt(max(0.0, disc))
    points: List[Vec2] = []
    for t in ((-b - sqrt_disc) / (2.0 * a), (-b + sqrt_disc) / (2.0 * a)):
        if -EPS <= t <= 1 + EPS:
            p = seg.point_at(min(1.0, max(0.0, t)))
            if not any(p.almost_equals(q) for q in points):
                points.append(p)
    return points


def reference_clip_segment(circle: Circle, seg: Segment) -> Optional[Segment]:
    """The portion of ``seg`` inside the closed disk (``None`` if none)."""
    inside_a = circle.contains(seg.a)
    inside_b = circle.contains(seg.b)
    if inside_a and inside_b:
        return seg
    crossings = reference_segment_intersections(circle, seg)
    if inside_a:
        if not crossings:
            return None
        # The exit point is the crossing farthest from a.
        exit_point = max(crossings, key=seg.a.distance_to)
        return Segment(seg.a, exit_point)
    if inside_b:
        if not crossings:
            return None
        entry_point = max(crossings, key=seg.b.distance_to)
        return Segment(entry_point, seg.b)
    if len(crossings) >= 2:
        crossings.sort(key=seg.a.distance_to)
        return Segment(crossings[0], crossings[-1])
    if len(crossings) == 1:
        return Segment(crossings[0], crossings[0])
    return None


def reference_circle_circle_intersections(c1: Circle, c2: Circle) -> List[Vec2]:
    """Intersection points of two circle boundaries (zero, one or two)."""
    d = c1.center.distance_to(c2.center)
    if d <= EPS:
        return []
    if d > c1.radius + c2.radius + EPS:
        return []
    if d < abs(c1.radius - c2.radius) - EPS:
        return []
    a = (c1.radius**2 - c2.radius**2 + d * d) / (2.0 * d)
    h_sq = c1.radius**2 - a * a
    h = math.sqrt(max(0.0, h_sq))
    base = c1.center + (c2.center - c1.center) * (a / d)
    if h <= EPS:
        return [base]
    offset = (c2.center - c1.center).perpendicular() * (h / d)
    return [base + offset, base - offset]


def reference_boundary_segments_within(field, circle: Circle) -> List[Segment]:
    """Field and obstacle boundary pieces clipped to a sensing disk."""
    segments: List[Segment] = []
    candidate_edges: List[Segment] = list(field.boundary_polygon().edges())
    for ob in field.obstacles:
        candidate_edges.extend(ob.boundary_edges())
    for edge in candidate_edges:
        clipped = reference_clip_segment(circle, edge)
        if clipped is not None and clipped.length() > 1e-9:
            segments.append(clipped)
    return segments
