"""BUG2 references: arc length measured on every call, and the planner's
obstacle scans without the reject boxes or the float edge distance.

``Bug2Path`` measures its segment lengths once, at construction, and
``length``/``point_xy_at_distance`` reuse them.  These are the formulas that
re-measure every segment on each call; the cached path must give the
same floats (same segment lengths, same summation and subtraction
order).  :class:`AllObstacleBug2Planner` asks every obstacle whether it
blocks a leg, and :func:`reference_nearest_edge` measures edges through
:func:`~.geometry.segment_distance_to_point`; the planner must plan the
same paths.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry import EPS, Segment, Vec2
from repro.mobility import Bug2Planner

from .geometry import segment_distance_to_point


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


def reference_nearest_edge(edges: Sequence[Segment], p: Vec2) -> int:
    """Index of the edge nearest ``p``; ``min`` keeps the first on a tie."""
    return min(
        range(len(edges)), key=lambda i: segment_distance_to_point(edges[i], p)
    )


class AllObstacleBug2Planner(Bug2Planner):
    """BUG2 whose leg scan asks every obstacle, box or no box."""

    def _first_blocking_obstacle(self, leg):
        best = None
        best_dist = math.inf
        for ob in self._field.obstacles:
            if not ob.blocks_segment(leg):
                continue
            hit = ob.first_hit(leg)
            if hit is None:
                hit = ob.closest_boundary_point(leg.a)
            dist = leg.a.distance_to(hit)
            if dist < best_dist:
                best = (ob, hit)
                best_dist = dist
        return best
