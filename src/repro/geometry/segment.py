"""Line-segment primitives: points along a segment and intersections.

Segments are used for obstacle edges, floor lines clipped to the field,
BUG2 reference lines and Voronoi cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .vec import EPS, Vec2

__all__ = ["Segment", "on_segment"]

#: Squared length at or below which the closest-point projections (of
#: ``Polygon`` and the BUG2 edge search) treat a segment as a point.  Such
#: a segment is at most ``EPS`` long, so either endpoint lies within
#: ``EPS`` of every point on it.
DEGENERATE_NORM_SQ = EPS * EPS


def on_segment(p: Vec2, a: Vec2, b: Vec2, eps: float = EPS) -> bool:
    """Return ``True`` when ``p`` lies on the closed segment ``[a, b]``."""
    if abs((b - a).cross(p - a)) > eps * max(1.0, a.distance_to(b)):
        return False
    return (
        min(a.x, b.x) - eps <= p.x <= max(a.x, b.x) + eps
        and min(a.y, b.y) - eps <= p.y <= max(a.y, b.y) + eps
    )


@dataclass(frozen=True)
class Segment:
    """A closed line segment between two points."""

    a: Vec2
    b: Vec2

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.a.distance_to(self.b)

    def point_at(self, t: float) -> Vec2:
        """Point at parameter ``t`` where ``t=0`` is ``a`` and ``t=1`` is ``b``."""
        return self.a.lerp(self.b, t)

    # ------------------------------------------------------------------
    # Intersections
    # ------------------------------------------------------------------
    def intersection(self, other: "Segment") -> Optional[Vec2]:
        """Single intersection point of two segments, if one exists.

        Returns ``None`` when the segments do not intersect or when they are
        collinear and overlap in more than a point (no unique answer).
        """
        d1 = self.b - self.a
        d2 = other.b - other.a
        denom = d1.cross(d2)
        if abs(denom) <= EPS:
            # Parallel or collinear.  Report a shared endpoint when they only
            # touch at one, otherwise give up (ambiguous overlap).
            touches = [
                p
                for p in (self.a, self.b)
                if on_segment(p, other.a, other.b)
            ] + [
                p
                for p in (other.a, other.b)
                if on_segment(p, self.a, self.b)
            ]
            unique: List[Vec2] = []
            for p in touches:
                if not any(p.almost_equals(q) for q in unique):
                    unique.append(p)
            if len(unique) == 1:
                return unique[0]
            return None
        t = (other.a - self.a).cross(d2) / denom
        u = (other.a - self.a).cross(d1) / denom
        if -EPS <= t <= 1 + EPS and -EPS <= u <= 1 + EPS:
            return self.point_at(min(1.0, max(0.0, t)))
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segment({self.a!r} -> {self.b!r})"

