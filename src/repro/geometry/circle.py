"""Circle / disk primitives.

Sensing and communication ranges in the paper are isotropic unit disks; the
FLOOR scheme additionally reasons about the *expansion circle* of radius
``min(rc, rs)`` around a fixed sensor and intersects it with floor lines and
obstacle boundaries to locate expansion points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .segment import Segment
from .vec import EPS, Vec2

__all__ = ["Circle", "circle_circle_intersections", "disk_overlap_area"]


@dataclass(frozen=True)
class Circle:
    """A circle (and, when used as a range, the closed disk it bounds)."""

    center: Vec2
    radius: float

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def contains(self, p: Vec2, eps: float = EPS) -> bool:
        """Return ``True`` when ``p`` lies inside or on the circle."""
        return self.center.distance_sq_to(p) <= (self.radius + eps) ** 2

    def area(self) -> float:
        """Area of the disk."""
        return math.pi * self.radius * self.radius

    # ------------------------------------------------------------------
    # Intersections
    # ------------------------------------------------------------------
    def segment_intersections(self, seg: Segment) -> List[Vec2]:
        """Intersection points of the circle *boundary* with a segment.

        Returns zero, one or two points sorted along the segment direction.
        """
        d = seg.b - seg.a
        f = seg.a - self.center
        a = d.norm_sq()
        if a <= EPS:
            return []
        b = 2.0 * f.dot(d)
        c = f.norm_sq() - self.radius * self.radius
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

    def clip_segment(self, seg: Segment) -> Optional[Segment]:
        """The portion of ``seg`` that lies inside the closed disk.

        Returns ``None`` when the segment does not enter the disk, and may
        return a degenerate (zero-length) segment when it is tangent.
        """
        inside_a = self.contains(seg.a)
        inside_b = self.contains(seg.b)
        if inside_a and inside_b:
            return seg
        crossings = self.segment_intersections(seg)
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


def circle_circle_intersections(c1: Circle, c2: Circle) -> List[Vec2]:
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


def disk_overlap_area(c1: Circle, c2: Circle) -> float:
    """Area of the intersection of two disks (lens area).

    Used to estimate how much of a sensor's coverage is redundant with a
    neighbour's when deciding whether it is *movable* in the FLOOR scheme.
    """
    d = c1.center.distance_to(c2.center)
    r1, r2 = c1.radius, c2.radius
    if d >= r1 + r2:
        return 0.0
    # Containment, or centres so close (a subnormal d) that the lens
    # formula's denominators underflow to zero: the smaller disk.
    if d <= abs(r1 - r2) or d * min(r1, r2) == 0.0:
        smaller = min(r1, r2)
        return math.pi * smaller * smaller
    alpha = math.acos(min(1.0, max(-1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    beta = math.acos(min(1.0, max(-1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    return (
        r1 * r1 * (alpha - math.sin(2.0 * alpha) / 2.0)
        + r2 * r2 * (beta - math.sin(2.0 * beta) / 2.0)
    )
