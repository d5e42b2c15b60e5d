"""Obstacle models.

The paper allows "any number of obstacles of arbitrary shape, as long as the
field is connected".  We represent every obstacle as a simple polygon; a
convenience constructor is provided for the axis-aligned rectangles used in
the evaluation (Figures 3(c), 8(c), 13 and Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..geometry import Polygon, Segment, Vec2

__all__ = ["Obstacle"]


@dataclass(frozen=True)
class Obstacle:
    """A solid (impassable, opaque-to-sensing) polygonal region."""

    polygon: Polygon
    name: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def rectangle(
        xmin: float, ymin: float, xmax: float, ymax: float, name: str = ""
    ) -> "Obstacle":
        """Axis-aligned rectangular obstacle."""
        return Obstacle(Polygon.rectangle(xmin, ymin, xmax, ymax), name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, p: Vec2, include_boundary: bool = False) -> bool:
        """Whether ``p`` lies inside the obstacle.

        By default the boundary is *not* part of the obstacle, so sensors may
        travel along it (the BUG2 planner follows obstacle boundaries).
        """
        return self.polygon.contains(p, include_boundary=include_boundary)

    def blocks_segment(self, seg: Segment) -> bool:
        """Whether a straight move along ``seg`` would enter the obstacle."""
        return self.polygon.segment_crosses_interior(seg)

    def boundary_edges(self) -> Tuple[Segment, ...]:
        """The obstacle boundary edges in vertex order."""
        return self.polygon.edges()

    def area(self) -> float:
        """Area removed from the field by this obstacle."""
        return self.polygon.area()

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box of the obstacle."""
        return self.polygon.bounding_box()

    def distance_to(self, p: Vec2) -> float:
        """Distance from ``p`` to the obstacle (zero when inside)."""
        return self.polygon.distance_to_point(p)

    def closest_boundary_point(self, p: Vec2) -> Vec2:
        """Closest point of the obstacle boundary to ``p``."""
        return self.polygon.closest_boundary_point(p)

    def first_hit(self, seg: Segment) -> Optional[Vec2]:
        """First point where ``seg`` (traversed a->b) meets the boundary.

        Returns ``None`` if the segment never touches the obstacle.
        """
        hits = self.polygon.segment_intersections(seg)
        if not hits:
            return None
        return hits[0]
