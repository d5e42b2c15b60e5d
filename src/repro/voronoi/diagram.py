"""Bounded Voronoi diagrams built from scratch via half-plane clipping.

The VOR and Minimax baselines (Wang et al., INFOCOM'04) move every sensor
according to its Voronoi cell.  A sensor in a real network can only see the
neighbours within its communication range, so the cell it computes may be
incorrect (Fig 1 of the paper); :mod:`repro.voronoi.local` quantifies that.
Here we compute cells by intersecting perpendicular-bisector half-planes
with the field rectangle, which is exact for bounded diagrams and requires
no external computational-geometry dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..geometry import Polygon, Vec2, bisector_halfplane, clip_polygon

__all__ = ["VoronoiCell", "compute_cell", "minimum_enclosing_circle"]


@dataclass(frozen=True)
class VoronoiCell:
    """The bounded Voronoi cell of a single site."""

    site: Vec2
    polygon: Optional[Polygon]

    def vertices(self) -> List[Vec2]:
        """Cell vertices (empty list for an empty cell)."""
        if self.polygon is None:
            return []
        return list(self.polygon.vertices)

    def farthest_vertex(self) -> Optional[Vec2]:
        """The cell vertex farthest from the site (VOR's move target)."""
        verts = self.vertices()
        if not verts:
            return None
        return max(verts, key=self.site.distance_to)

    def minimax_point(self, samples: int = 48) -> Optional[Vec2]:
        """The point of the cell minimising the maximum vertex distance.

        This is Minimax's move target.  For a convex cell the optimum is the
        centre of the minimum enclosing circle of the vertices, which we
        compute exactly with Welzl's algorithm restricted to the vertex set;
        if that centre falls outside the cell we fall back to the closest
        boundary point.
        """
        verts = self.vertices()
        if not verts:
            return None
        center, _ = minimum_enclosing_circle(verts)
        if self.polygon is not None and not self.polygon.contains(center):
            center = self.polygon.closest_boundary_point(center)
        return center

    def contains(self, p: Vec2) -> bool:
        """Whether ``p`` lies in the cell."""
        return self.polygon is not None and self.polygon.contains(p)


def minimum_enclosing_circle(points: Sequence[Vec2]) -> tuple[Vec2, float]:
    """Smallest circle containing all ``points`` (Welzl's algorithm).

    Returns ``(center, radius)``.  Deterministic (no shuffling) because the
    vertex counts involved are tiny.
    """
    pts = list(points)
    if not pts:
        return Vec2.zero(), 0.0

    def circle_from_two(a: Vec2, b: Vec2) -> tuple[Vec2, float]:
        center = a.lerp(b, 0.5)
        return center, center.distance_to(a)

    def circle_from_three(a: Vec2, b: Vec2, c: Vec2) -> Optional[tuple[Vec2, float]]:
        d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
        if abs(d) < 1e-12:
            return None
        ux = (
            a.norm_sq() * (b.y - c.y)
            + b.norm_sq() * (c.y - a.y)
            + c.norm_sq() * (a.y - b.y)
        ) / d
        uy = (
            a.norm_sq() * (c.x - b.x)
            + b.norm_sq() * (a.x - c.x)
            + c.norm_sq() * (b.x - a.x)
        ) / d
        center = Vec2(ux, uy)
        return center, center.distance_to(a)

    def in_circle(p: Vec2, circle: tuple[Vec2, float]) -> bool:
        center, radius = circle
        return p.distance_to(center) <= radius + 1e-7

    # Incremental construction (Welzl without randomisation).
    circle = (pts[0], 0.0)
    for i, p in enumerate(pts):
        if in_circle(p, circle):
            continue
        circle = (p, 0.0)
        for j in range(i):
            q = pts[j]
            if in_circle(q, circle):
                continue
            circle = circle_from_two(p, q)
            for k in range(j):
                r = pts[k]
                if in_circle(r, circle):
                    continue
                candidate = circle_from_three(p, q, r)
                if candidate is not None:
                    circle = candidate
    return circle


def compute_cell(
    site: Vec2, others: Sequence[Vec2], bounding: Polygon
) -> VoronoiCell:
    """Voronoi cell of ``site`` against ``others``, clipped to ``bounding``."""
    vertices: List[Vec2] = list(bounding.counter_clockwise().vertices)
    for other in others:
        if other.almost_equals(site):
            continue
        vertices = clip_polygon(vertices, bisector_halfplane(site, other))
        if len(vertices) < 3:
            return VoronoiCell(site, None)
    if len(vertices) < 3:
        return VoronoiCell(site, None)
    return VoronoiCell(site, Polygon(vertices))

