"""Circle / disk primitives.

Sensing and communication ranges in the paper are isotropic unit disks; the
FLOOR scheme additionally reasons about the *expansion circle* of radius
``min(rc, rs)`` around a fixed sensor and intersects it with floor lines and
obstacle boundaries to locate expansion points.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .vec import EPS

__all__ = [
    "circle_intersections_xy",
    "clip_segment_xy",
    "segment_crossings_xy",
]


def segment_crossings_xy(
    cx: float, cy: float, r: float, ax: float, ay: float, bx: float, by: float
) -> List[Tuple[float, float]]:
    """Points where the circle ``(cx, cy, r)`` meets segment ``a -> b``.

    Zero, one or two points, sorted along the segment direction; two
    crossings closer than 1e-6 in both coordinates count once.
    """
    dx = bx - ax
    dy = by - ay
    fx = ax - cx
    fy = ay - cy
    a = dx * dx + dy * dy
    if a <= EPS:
        return []
    b = 2.0 * (fx * dx + fy * dy)
    c = (fx * fx + fy * fy) - r * r
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    sqrt_disc = math.sqrt(max(0.0, disc))
    points: List[Tuple[float, float]] = []
    for t in ((-b - sqrt_disc) / (2.0 * a), (-b + sqrt_disc) / (2.0 * a)):
        if -EPS <= t <= 1 + EPS:
            t = min(1.0, max(0.0, t))
            x = ax + (bx - ax) * t
            y = ay + (by - ay) * t
            if not any(
                abs(x - qx) <= 1e-6 and abs(y - qy) <= 1e-6 for qx, qy in points
            ):
                points.append((x, y))
    return points


def clip_segment_xy(
    cx: float, cy: float, r: float, ax: float, ay: float, bx: float, by: float
) -> Optional[Tuple[float, float, float, float]]:
    """The part ``(x0, y0, x1, y1)`` of segment ``a -> b`` inside the disk.

    The disk is closed (boundary tolerance :data:`EPS`).  Returns ``None``
    when the segment does not enter it, and may return a zero-length
    piece when it is tangent.
    """
    reach_sq = (r + EPS) ** 2
    dx = cx - ax
    dy = cy - ay
    inside_a = dx * dx + dy * dy <= reach_sq
    dx = cx - bx
    dy = cy - by
    inside_b = dx * dx + dy * dy <= reach_sq
    if inside_a and inside_b:
        return (ax, ay, bx, by)
    crossings = segment_crossings_xy(cx, cy, r, ax, ay, bx, by)

    def from_a(p: Tuple[float, float]) -> float:
        return math.hypot(ax - p[0], ay - p[1])

    if inside_a:
        if not crossings:
            return None
        # The exit point is the crossing farthest from a.
        ex, ey = max(crossings, key=from_a)
        return (ax, ay, ex, ey)
    if inside_b:
        if not crossings:
            return None
        ex, ey = max(crossings, key=lambda p: math.hypot(bx - p[0], by - p[1]))
        return (ex, ey, bx, by)
    if len(crossings) >= 2:
        crossings.sort(key=from_a)
        return crossings[0] + crossings[-1]
    if len(crossings) == 1:
        return crossings[0] + crossings[0]
    return None


def circle_intersections_xy(
    x1: float, y1: float, r1: float, x2: float, y2: float, r2: float
) -> List[Tuple[float, float]]:
    """Intersection points of two circle boundaries (zero, one or two)."""
    d = math.hypot(x1 - x2, y1 - y2)
    if d <= EPS:
        return []
    if d > r1 + r2 + EPS:
        return []
    if d < abs(r1 - r2) - EPS:
        return []
    a = (r1**2 - r2**2 + d * d) / (2.0 * d)
    h_sq = r1**2 - a * a
    h = math.sqrt(max(0.0, h_sq))
    ex = x2 - x1
    ey = y2 - y1
    scale = a / d
    base_x = x1 + ex * scale
    base_y = y1 + ey * scale
    if h <= EPS:
        return [(base_x, base_y)]
    scale = h / d
    # The centre-to-centre vector turned 90 degrees counter-clockwise.
    off_x = -ey * scale
    off_y = ex * scale
    return [(base_x + off_x, base_y + off_y), (base_x - off_x, base_y - off_y)]

