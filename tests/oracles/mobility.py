"""Path references: BUG2 polyline arc length measured on every call.

``Bug2Path`` measures its segment lengths once, at construction, and
``length``/``point_xy_at_distance`` reuse them.  These are the formulas that
re-measure every segment on each call; the cached path must give the
same floats (same segment lengths, same summation and subtraction
order).
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry import EPS, Vec2


def reference_path_length(waypoints: Sequence[Vec2]) -> float:
    """Total polyline length, summed segment by segment."""
    return sum(
        waypoints[i].distance_to(waypoints[i + 1])
        for i in range(len(waypoints) - 1)
    )


def reference_point_at_distance(waypoints: Sequence[Vec2], distance: float) -> Vec2:
    """Point at arc-length ``distance`` from the start (clamped to the end)."""
    if distance <= 0 or len(waypoints) == 1:
        return waypoints[0]
    remaining = distance
    for i in range(len(waypoints) - 1):
        a, b = waypoints[i], waypoints[i + 1]
        seg_len = a.distance_to(b)
        if remaining <= seg_len:
            if seg_len <= EPS:
                return b
            return a.lerp(b, remaining / seg_len)
        remaining -= seg_len
    return waypoints[-1]
