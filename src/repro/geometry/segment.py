"""Line-segment primitives: intersection tests, distances and projections.

Segments are used for obstacle edges, floor lines clipped to the field,
BUG2 reference lines and Voronoi cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .vec import EPS, Vec2

__all__ = ["Segment", "orientation", "on_segment"]

#: Squared length at or below which ``Segment.closest_point`` treats a
#: segment as a point.  Such a segment is at most ``EPS`` long, so either
#: endpoint lies within ``EPS`` of every point on it.
DEGENERATE_NORM_SQ = EPS * EPS


def orientation(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``1`` for counter-clockwise, ``-1`` for clockwise and ``0`` for
    collinear points (within :data:`~repro.geometry.vec.EPS`).
    """
    cross = (b - a).cross(c - a)
    if cross > EPS:
        return 1
    if cross < -EPS:
        return -1
    return 0


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

    def midpoint(self) -> Vec2:
        """The midpoint of the segment."""
        return self.a.lerp(self.b, 0.5)

    def point_at(self, t: float) -> Vec2:
        """Point at parameter ``t`` where ``t=0`` is ``a`` and ``t=1`` is ``b``."""
        return self.a.lerp(self.b, t)

    # ------------------------------------------------------------------
    # Distances and projections
    # ------------------------------------------------------------------
    def project_parameter(self, p: Vec2) -> float:
        """Parameter ``t`` of the orthogonal projection of ``p`` onto the line.

        The result is *not* clamped to ``[0, 1]``.
        """
        d = self.b - self.a
        denom = d.norm_sq()
        if denom <= EPS:
            return 0.0
        return (p - self.a).dot(d) / denom

    def closest_point(self, p: Vec2) -> Vec2:
        """The point of the closed segment closest to ``p``."""
        d = self.b - self.a
        denom = d.norm_sq()
        if denom <= DEGENERATE_NORM_SQ:
            # Degenerate segment: return the endpoint closer to ``p``.
            if p.distance_to(self.a) <= p.distance_to(self.b):
                return self.a
            return self.b
        # Projected here rather than via project_parameter, whose cut-off
        # compares the *squared* length with EPS and so would collapse
        # segments up to ~3e-5 long onto an endpoint.
        t = min(1.0, max(0.0, (p - self.a).dot(d) / denom))
        return self.point_at(t)

    def distance_to_point(self, p: Vec2) -> float:
        """Distance from ``p`` to the closed segment."""
        return p.distance_to(self.closest_point(p))

    # ------------------------------------------------------------------
    # Intersections
    # ------------------------------------------------------------------
    def intersects(self, other: "Segment") -> bool:
        """Whether the two closed segments share at least one point."""
        o1 = orientation(self.a, self.b, other.a)
        o2 = orientation(self.a, self.b, other.b)
        o3 = orientation(other.a, other.b, self.a)
        o4 = orientation(other.a, other.b, self.b)

        if o1 != o2 and o3 != o4:
            return True
        if o1 == 0 and on_segment(other.a, self.a, self.b):
            return True
        if o2 == 0 and on_segment(other.b, self.a, self.b):
            return True
        if o3 == 0 and on_segment(self.a, other.a, other.b):
            return True
        if o4 == 0 and on_segment(self.b, other.a, other.b):
            return True
        return False

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


def _self_test() -> None:  # pragma: no cover - manual sanity helper
    s1 = Segment(Vec2(0, 0), Vec2(10, 0))
    s2 = Segment(Vec2(5, -5), Vec2(5, 5))
    assert s1.intersects(s2)
    assert s1.intersection(s2).almost_equals(Vec2(5, 0))


if __name__ == "__main__":  # pragma: no cover
    _self_test()
