"""Simple-polygon primitives.

Polygons represent obstacles, the sensing field boundary and Voronoi cells.
Only simple (non self-intersecting) polygons are supported, which covers all
shapes used in the paper (rectangles, convex cells, irregular obstacles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .segment import DEGENERATE_NORM_SQ, Segment
from .vec import EPS, Vec2

__all__ = ["Polygon"]

#: Distance within which a point counts as on the boundary.
_BOUNDARY_EPS = 1e-7
#: Rounding allowance of the bbox reject, relative to the coordinates'
#: magnitude (and at least absolute): a point or segment this far outside
#: the eps-padded bbox gets the same answer from the full test.
_BBOX_SLACK = 1e-9
#: Depth inside a rectangle beyond which a point is inside without the
#: edge tests: far above the boundary eps and the coordinates' rounding.
_INNER_MARGIN = 1e-6


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given by its vertices in order (either winding).

    The edges, their float records and the bounding box are computed once
    at construction.  The point and segment queries run on plain floats,
    with the operations of the closest-point projection
    (``tests.oracles.segment_closest_point``), ``Vec2.lerp`` and
    ``Vec2.distance_to`` in the same order, so they answer bit for bit
    what the ``Vec2``/``Segment`` evaluation would.  They first reject
    anything outside the bbox padded by the boundary eps (plus a rounding
    allowance): such a query gets the same answer from the full test.
    ``tests/oracles`` keeps the ``Segment``-based references.
    """

    vertices: Tuple[Vec2, ...]

    def __init__(self, vertices: Sequence[Vec2]):
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        vertices = tuple(vertices)
        n = len(vertices)
        xs = [v.x for v in vertices]
        ys = [v.y for v in vertices]
        bbox = (min(xs), min(ys), max(xs), max(ys))
        pad = _BOUNDARY_EPS + _BBOX_SLACK * max(1.0, *(abs(c) for c in bbox))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(
            self,
            "_edges",
            tuple(Segment(vertices[i], vertices[(i + 1) % n]) for i in range(n)),
        )
        # One flat float record per edge for the scalar point and segment
        # queries: (ax, ay, bx, by, dx, dy, dx*dx + dy*dy).
        edge_data = []
        for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
            dx, dy = bx - ax, by - ay
            edge_data.append((ax, ay, bx, by, dx, dy, dx * dx + dy * dy))
        object.__setattr__(self, "_edge_data", tuple(edge_data))
        object.__setattr__(self, "_bbox", bbox)
        object.__setattr__(
            self,
            "_reject_box",
            (bbox[0] - pad, bbox[1] - pad, bbox[2] + pad, bbox[3] + pad),
        )
        # An axis-aligned rectangle (its four bbox corners, joined by
        # axis-aligned edges) holds every point deeper than _INNER_MARGIN
        # inside its bbox, at more than the boundary eps from each edge:
        # the ray-cast parity of its two vertical edges is exact there, so
        # contains_xy answers True without the edge loops.
        xmin, ymin, xmax, ymax = bbox
        rectangle = (
            n == 4
            and set(zip(xs, ys))
            == {(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)}
            and all(dx == 0.0 or dy == 0.0 for _, _, _, _, dx, dy, _ in edge_data)
        )
        m = _INNER_MARGIN
        object.__setattr__(
            self,
            "_inner_box",
            (xmin + m, ymin + m, xmax - m, ymax - m)
            if rectangle
            else (math.inf, math.inf, -math.inf, -math.inf),
        )
        # Its interior is then the open box shrunk by the boundary eps,
        # which first_entry_xy clips a segment against.
        object.__setattr__(self, "_slab", bbox if rectangle else None)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> "Polygon":
        """Axis-aligned rectangle with counter-clockwise winding."""
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("rectangle must have positive width and height")
        return Polygon(
            [Vec2(xmin, ymin), Vec2(xmax, ymin), Vec2(xmax, ymax), Vec2(xmin, ymax)]
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    def signed_area(self) -> float:
        """Signed area (positive for counter-clockwise winding), computed
        on first use."""
        area = self.__dict__.get("_signed_area")
        if area is None:
            total = 0.0
            n = len(self.vertices)
            for i in range(n):
                a = self.vertices[i]
                b = self.vertices[(i + 1) % n]
                total += a.cross(b)
            area = total / 2.0
            object.__setattr__(self, "_signed_area", area)
        return area

    def area(self) -> float:
        """Absolute area."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(edge.length() for edge in self._edges)

    def centroid(self) -> Vec2:
        """Area centroid of the polygon, computed on first use (BUG2
        pushes every boundary point away from it)."""
        centroid = self.__dict__.get("_centroid")
        if centroid is None:
            centroid = self._area_centroid()
            object.__setattr__(self, "_centroid", centroid)
        return centroid

    def _area_centroid(self) -> Vec2:
        signed = self.signed_area()
        if abs(signed) <= EPS:
            # Degenerate polygon: fall back to the vertex mean.
            sx = sum(v.x for v in self.vertices)
            sy = sum(v.y for v in self.vertices)
            return Vec2(sx / len(self.vertices), sy / len(self.vertices))
        cx = cy = 0.0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            cross = a.cross(b)
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Vec2(cx * factor, cy * factor)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the polygon."""
        return self._bbox

    def axis_aligned_box(self) -> Optional[Tuple[float, float, float, float]]:
        """:meth:`bounding_box` when the polygon is an axis-aligned
        rectangle (every generated and canonical obstacle), else ``None``."""
        return self._slab

    def reject_box(self) -> Tuple[float, float, float, float]:
        """The bounding box padded by the boundary eps and rounding slack.

        No point outside it is inside the polygon or on its boundary.
        """
        return self._reject_box

    def edges(self) -> Tuple[Segment, ...]:
        """The boundary edges in vertex order."""
        return self._edges

    def counter_clockwise(self) -> "Polygon":
        """The polygon with guaranteed counter-clockwise winding."""
        if self.signed_area() >= 0:
            return self
        return Polygon(tuple(reversed(self.vertices)))

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def contains(self, p: Vec2, include_boundary: bool = True) -> bool:
        """Point-in-polygon test (ray casting with boundary handling)."""
        return self.contains_xy(p.x, p.y, include_boundary)

    def contains_xy(
        self, px: float, py: float, include_boundary: bool = True
    ) -> bool:
        """:meth:`contains` for the point ``(px, py)``.

        The answer is ``include_boundary`` within :data:`_BOUNDARY_EPS`
        of the boundary (:meth:`nearest_boundary_xy`) and the ray-cast
        parity elsewhere, so the boundary test runs only when the two
        disagree.
        """
        xmin, ymin, xmax, ymax = self._reject_box
        if px < xmin or px > xmax or py < ymin or py > ymax:
            return False
        xmin, ymin, xmax, ymax = self._inner_box
        if xmin < px < xmax and ymin < py < ymax:
            return True
        inside = False
        for ax, ay, bx, by, dx, dy, _ in self._edge_data:
            if (ay > py) != (by > py):
                if px < ax + (py - ay) * dx / dy:
                    inside = not inside
        if inside == include_boundary:
            return inside
        if self.nearest_boundary_xy(px, py)[0] <= _BOUNDARY_EPS:
            return include_boundary
        return inside

    def distance_to_point(self, p: Vec2) -> float:
        """Distance from ``p`` to the polygon (zero when inside)."""
        if self.contains(p):
            return 0.0
        return self.nearest_boundary_xy(p.x, p.y)[0]

    def closest_boundary_point(self, p: Vec2) -> Vec2:
        """Closest point of the polygon boundary to ``p``."""
        _, x, y = self.nearest_boundary_xy(p.x, p.y)
        return Vec2(x, y)

    def nearest_boundary_xy(
        self, px: float, py: float
    ) -> Tuple[float, float, float]:
        """``(distance, x, y)`` of the boundary point closest to ``(px, py)``.

        Per edge, the operations of ``segment_closest_point`` (the
        parameter clamped like ``min(1.0, max(0.0, t))``, NaN included)
        and of ``Vec2.distance_to``; the first edge at the smallest
        distance wins.
        """
        best = math.inf
        best_x = best_y = 0.0
        for ax, ay, bx, by, dx, dy, dd in self._edge_data:
            if dd <= DEGENERATE_NORM_SQ:
                # Degenerate edge: the closer endpoint.
                if math.hypot(px - ax, py - ay) <= math.hypot(px - bx, py - by):
                    cx, cy = ax, ay
                else:
                    cx, cy = bx, by
            else:
                t = ((px - ax) * dx + (py - ay) * dy) / dd
                if not t > 0.0:
                    t = 0.0
                elif not t < 1.0:
                    t = 1.0
                cx, cy = ax + dx * t, ay + dy * t
            dist = math.hypot(px - cx, py - cy)
            if dist < best:
                best, best_x, best_y = dist, cx, cy
        return best, best_x, best_y

    # ------------------------------------------------------------------
    # Segment queries
    # ------------------------------------------------------------------
    def segment_crosses_interior(self, seg: Segment) -> bool:
        """Whether the closed segment has a point in the polygon's
        interior (:meth:`first_entry_xy`); running along the boundary,
        within the eps, does not count."""
        a, b = seg.a, seg.b
        return self.crosses_interior_xy(a.x, a.y, b.x, b.y)

    def crosses_interior_xy(
        self, ax: float, ay: float, bx: float, by: float
    ) -> bool:
        """:meth:`segment_crosses_interior` for ``(ax, ay)``-``(bx, by)``."""
        return self.first_entry_xy(ax, ay, bx, by) is not None

    def first_entry_xy(
        self, ax: float, ay: float, bx: float, by: float
    ) -> Optional[float]:
        """The parameter ``t`` in ``[0, 1)`` at which the segment
        ``(ax, ay) + t * (bx - ax, by - ay)`` enters the interior (the
        points :meth:`contains_xy` holds with ``include_boundary=False``),
        or ``None`` when no point of it is interior.

        A rectangle's interior is its box shrunk by :data:`_BOUNDARY_EPS`,
        so a slab clip gives the entry.  Any other polygon cuts the
        segment where it runs within the eps of an edge; the first gap
        between those cuts that lies inside enters at its start.
        """
        xmin, ymin, xmax, ymax = self._reject_box
        if (
            max(ax, bx) < xmin
            or min(ax, bx) > xmax
            or max(ay, by) < ymin
            or min(ay, by) > ymax
        ):
            return None
        dx, dy = bx - ax, by - ay
        slab = self._slab
        if slab is not None:
            xmin, ymin, xmax, ymax = slab
            e = _BOUNDARY_EPS
            # The open interval (t0, t1) of the line inside the box; a
            # constant coordinate is measured as contains_xy measures it.
            t0, t1 = -math.inf, math.inf
            if dx > 0.0:
                t0, t1 = (xmin + e - ax) / dx, (xmax - e - ax) / dx
            elif dx < 0.0:
                t0, t1 = (xmax - e - ax) / dx, (xmin + e - ax) / dx
            elif not (ax - xmin > e and xmax - ax > e):
                return None
            if dy > 0.0:
                t0, t1 = max(t0, (ymin + e - ay) / dy), min(t1, (ymax - e - ay) / dy)
            elif dy < 0.0:
                t0, t1 = max(t0, (ymax - e - ay) / dy), min(t1, (ymin + e - ay) / dy)
            elif not (ay - ymin > e and ymax - ay > e):
                return None
            if t0 < t1 and t0 < 1.0 and t1 > 0.0:
                return max(t0, 0.0)
            return None
        # Within the eps of an edge the line runs for one interval (it
        # meets the edge's eps-capsule, a convex set).  Between those
        # intervals it crosses no edge, so the ray-cast parity of one
        # point per gap tells inside from outside.
        edge_data = self._edge_data
        spans = sorted(
            span
            for edge in edge_data
            if (span := _capsule_span(ax, ay, dx, dy, edge)) is not None
        )
        start = 0.0
        for t0, t1 in spans + [(1.0, 1.0)]:
            if t0 > start:
                t = (start + min(t0, 1.0)) / 2.0
                px, py = ax + dx * t, ay + dy * t
                inside = False
                for x0, y0, _, y1, fx, fy, _ in edge_data:
                    if (y0 > py) != (y1 > py) and px < x0 + (py - y0) * fx / fy:
                        inside = not inside
                if inside:
                    return start
            start = max(start, t1)
            if start >= 1.0:
                break
        return None

    def segment_intersections(self, seg: Segment) -> List[Vec2]:
        """All boundary intersection points with a segment, ordered along it.

        Each edge meets the segment where :meth:`Segment.intersection`
        finds, computed on the edge records' floats in its operation
        order; an edge parallel to the segment takes that method itself
        (the all-``Segment`` form is
        ``tests.oracles.reference_polygon_intersections``).
        """
        start = seg.a
        sx, sy = start.x, start.y
        ex, ey = seg.b.x - sx, seg.b.y - sy
        points: List[Vec2] = []
        for edge, (ax, ay, _, _, dx, dy, _) in zip(self._edges, self._edge_data):
            denom = dx * ey - dy * ex
            if abs(denom) <= EPS:
                p = edge.intersection(seg)
                if p is None:
                    continue
            else:
                wx, wy = sx - ax, sy - ay
                t = (wx * ey - wy * ex) / denom
                u = (wx * dy - wy * dx) / denom
                if not (-EPS <= t <= 1 + EPS and -EPS <= u <= 1 + EPS):
                    continue
                t = min(1.0, max(0.0, t))
                p = Vec2(ax + dx * t, ay + dy * t)
            if not any(p.almost_equals(q) for q in points):
                points.append(p)
        points.sort(key=start.distance_to)
        return points

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polygon({len(self.vertices)} vertices, area={self.area():.3g})"


def _linear_span(c0: float, c1: float, lo: float, hi: float):
    """``(t0, t1)`` where ``lo <= c0 + c1 * t <= hi``, or ``None``."""
    if c1 == 0.0:
        return (-math.inf, math.inf) if lo <= c0 <= hi else None
    t0, t1 = (lo - c0) / c1, (hi - c0) / c1
    return (t0, t1) if t0 <= t1 else (t1, t0)


def _capsule_span(ax, ay, dx, dy, edge):
    """``(t0, t1)``: where the line ``(ax, ay) + t * (dx, dy)`` is within
    :data:`_BOUNDARY_EPS` of the edge record ``edge``, or ``None``.

    The union of the band beside the edge and the disks at its ends.
    """
    ex, ey, bx, by, fx, fy, ff = edge
    e = _BOUNDARY_EPS
    lo, hi = math.inf, -math.inf
    if ff > 0.0:
        wx, wy = ax - ex, ay - ey
        n = math.sqrt(ff)
        side = _linear_span(fx * wy - fy * wx, fx * dy - fy * dx, -e * n, e * n)
        along = _linear_span(fx * wx + fy * wy, fx * dx + fy * dy, 0.0, ff)
        if side is not None and along is not None:
            lo, hi = max(side[0], along[0]), min(side[1], along[1])
            if lo > hi:
                lo, hi = math.inf, -math.inf
    dd = dx * dx + dy * dy
    for cx, cy in ((ex, ey), (bx, by)):
        t = 0.0 if dd == 0.0 else ((cx - ax) * dx + (cy - ay) * dy) / dd
        h = math.hypot(ax + dx * t - cx, ay + dy * t - cy)
        if h <= e:
            w = math.inf if dd == 0.0 else math.sqrt(e * e - h * h) / math.sqrt(dd)
            lo, hi = min(lo, t - w), max(hi, t + w)
    return (lo, hi) if lo <= hi else None
