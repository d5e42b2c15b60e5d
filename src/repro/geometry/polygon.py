"""Simple-polygon primitives.

Polygons represent obstacles, the sensing field boundary and Voronoi cells.
Only simple (non self-intersecting) polygons are supported, which covers all
shapes used in the paper (rectangles, convex cells, irregular obstacles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
#: ``segment_crosses_interior`` tests the segment at ``t = i / 8`` for
#: ``i = 1..7``.
_CROSSING_SAMPLES = 8


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
        """Signed area (positive for counter-clockwise winding)."""
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            total += a.cross(b)
        return total / 2.0

    def area(self) -> float:
        """Absolute area."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(edge.length() for edge in self._edges)

    def centroid(self) -> Vec2:
        """Area centroid of the polygon."""
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
        of the boundary and the ray-cast parity elsewhere, so the
        boundary test runs only when the two disagree.  It stops at the
        first edge within the eps, each edge measured with the float
        operations of :meth:`nearest_boundary_xy`, so it agrees with
        that method's minimum compared against the eps.
        """
        xmin, ymin, xmax, ymax = self._reject_box
        if px < xmin or px > xmax or py < ymin or py > ymax:
            return False
        xmin, ymin, xmax, ymax = self._inner_box
        if xmin < px < xmax and ymin < py < ymax:
            return True
        edge_data = self._edge_data
        inside = False
        for ax, ay, bx, by, dx, dy, _ in edge_data:
            if (ay > py) != (by > py):
                if px < ax + (py - ay) * dx / dy:
                    inside = not inside
        if inside == include_boundary:
            return inside
        # nearest_boundary_xy's per-edge operations, inlined: this loop
        # runs for every probe inside an obstacle (``is_free``).
        for ax, ay, bx, by, dx, dy, dd in edge_data:
            if dd <= DEGENERATE_NORM_SQ:
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
            if math.hypot(px - cx, py - cy) <= _BOUNDARY_EPS:
                return include_boundary
        return inside

    def contains_points(
        self, px, py, include_boundary: bool = True, eps: float = _BOUNDARY_EPS
    ):
        """Vectorised :meth:`contains` over arrays of point coordinates.

        Returns a boolean array of the same shape as ``px``/``py``.  The
        arithmetic mirrors the scalar test operation by operation — the
        same ray-casting parity and the same clamped-projection boundary
        distance — so rasterising a polygon over a grid produces the same
        mask as calling :meth:`contains` per point.
        """
        import numpy as np

        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        inside = np.zeros(px.shape, dtype=bool)
        boundary = np.zeros(px.shape, dtype=bool)
        for edge in self._edges:
            a, b = edge.a, edge.b
            dx, dy = b.x - a.x, b.y - a.y
            denom = dx * dx + dy * dy
            if denom <= DEGENERATE_NORM_SQ:
                # Degenerate edge: distance to the closer endpoint
                # (mirrors segment_closest_point's degenerate branch).
                dist = np.minimum(
                    np.hypot(px - a.x, py - a.y), np.hypot(px - b.x, py - b.y)
                )
            else:
                t = ((px - a.x) * dx + (py - a.y) * dy) / denom
                t = np.minimum(1.0, np.maximum(0.0, t))
                dist = np.hypot(px - (a.x + dx * t), py - (a.y + dy * t))
            boundary |= dist <= eps
            if a.y != b.y:
                crosses = (a.y > py) != (b.y > py)
                x_cross = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
                inside ^= crosses & (px < x_cross)
        if include_boundary:
            return inside | boundary
        return inside & ~boundary

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
        """Whether the open segment passes through the polygon's interior.

        Boundary grazing does not count.  Implemented by testing the
        :data:`_CROSSING_SAMPLES` - 1 evenly spaced interior points of the
        segment (its midpoint among them), which is robust enough for the
        rectangular and mildly irregular obstacles used in the experiments.
        """
        a, b = seg.a, seg.b
        return self.crosses_interior_xy(a.x, a.y, b.x, b.y)

    def crosses_interior_xy(
        self, ax: float, ay: float, bx: float, by: float
    ) -> bool:
        """:meth:`segment_crosses_interior` for ``(ax, ay)``-``(bx, by)``."""
        xmin, ymin, xmax, ymax = self._reject_box
        if (
            max(ax, bx) < xmin
            or min(ax, bx) > xmax
            or max(ay, by) < ymin
            or min(ay, by) > ymax
        ):
            return False
        dx, dy = bx - ax, by - ay
        for i in range(1, _CROSSING_SAMPLES):
            t = i / _CROSSING_SAMPLES
            if self.contains_xy(ax + dx * t, ay + dy * t, include_boundary=False):
                return True
        return False

    def segment_intersections(self, seg: Segment) -> List[Vec2]:
        """All boundary intersection points with a segment, ordered along it."""
        points: List[Vec2] = []
        for edge in self._edges:
            p = edge.intersection(seg)
            if p is not None and not any(p.almost_equals(q) for q in points):
                points.append(p)
        points.sort(key=seg.a.distance_to)
        return points

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polygon({len(self.vertices)} vertices, area={self.area():.3g})"
