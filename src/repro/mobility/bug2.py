"""The BUG2 path-planning algorithm (Lumelsky & Stepanov, 1987).

Both CPVF's connectivity phase and FLOOR's three-leg trajectory (Algorithm 1
in the paper) move sensors with BUG2: walk the straight *reference line*
from start to target; on hitting an obstacle, follow its boundary (right- or
left-hand rule) until returning to the reference line at a point closer to
the target from which progress can be made; then resume the straight walk.

The planner operates on polygonal obstacles and produces a polyline path.
Sensors then traverse that polyline step by step under the motion model
(:mod:`repro.mobility.motion`), which is where periods, speed limits and the
lazy-movement strategy come in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..field import Field, Obstacle
from ..geometry import EPS, Segment, Vec2
from ..geometry.segment import DEGENERATE_NORM_SQ

__all__ = ["Handedness", "Bug2Path", "Bug2Planner"]

#: How far outside an obstacle boundary the planned path is kept, in metres.
#: A small clearance keeps waypoints in free space despite floating point
#: error; it is negligible relative to the 30-60 m sensing ranges.
_CLEARANCE = 0.5

#: Maximum number of obstacle encounters resolved along one reference line.
#: The evaluation uses at most four obstacles, so this is a safety valve
#: against pathological layouts rather than a practical limit.
_MAX_ENCOUNTERS = 64


class Handedness(Enum):
    """Which hand stays in contact with the obstacle while circumnavigating.

    The paper uses the right-hand rule while establishing connectivity and
    the left-hand rule while dispersing (footnote 1 in Section 5.5.1),
    because the latter "helps sensors disperse into unexplored areas more
    quickly".
    """

    RIGHT = "right"
    LEFT = "left"


@dataclass
class Bug2Path:
    """A planned path: a polyline of waypoints from start to target.

    A path is never mutated once planned, so its segments are measured
    once, at construction.
    """

    waypoints: List[Vec2]
    reached_target: bool
    encounters: int = 0
    #: Per segment ``a -> b``: ``(a.distance_to(b), a.x, a.y, b.x - a.x,
    #: b.y - a.y, b.x, b.y)``.
    _segments: List[Tuple[float, float, float, float, float, float, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        waypoints = self.waypoints
        self._segments = [
            (a.distance_to(b), a.x, a.y, b.x - a.x, b.y - a.y, b.x, b.y)
            for a, b in zip(waypoints, waypoints[1:])
        ]

    def length(self) -> float:
        """Total polyline length."""
        return sum(segment[0] for segment in self._segments)

    def end(self) -> Vec2:
        """Last waypoint."""
        return self.waypoints[-1]

    def point_xy_at_distance(self, distance: float) -> Tuple[float, float]:
        """``(x, y)`` of the point at arc-length ``distance`` from the start
        (clamped to the end), interpolated as :meth:`Vec2.lerp` does."""
        waypoints = self.waypoints
        if distance <= 0 or len(waypoints) == 1:
            point = waypoints[0]
            return point.x, point.y
        remaining = distance
        for seg_len, ax, ay, dx, dy, bx, by in self._segments:
            if remaining <= seg_len:
                if seg_len <= EPS:
                    return bx, by
                t = remaining / seg_len
                return ax + dx * t, ay + dy * t
            remaining -= seg_len
        point = waypoints[-1]
        return point.x, point.y


class Bug2Planner:
    """Plans BUG2 paths within a :class:`~repro.field.Field`."""

    def __init__(self, field: Field, handedness: Handedness = Handedness.RIGHT):
        self._field = field
        self._handedness = handedness

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(self, start: Vec2, target: Vec2) -> Bug2Path:
        """Plan a path from ``start`` to ``target``.

        Both endpoints are first projected into free space.  The returned
        path always begins at (the free projection of) ``start``; it ends at
        the target when one was reachable, otherwise at the closest point
        the planner managed to reach (``reached_target`` is then ``False``).
        """
        start = self._field.nearest_free(start)
        target = self._field.nearest_free(target)
        waypoints: List[Vec2] = [start]
        current = start
        encounters = 0

        while current.distance_to(target) > EPS and encounters < _MAX_ENCOUNTERS:
            leg = Segment(current, target)
            blocking = self._first_blocking_obstacle(leg)
            if blocking is None:
                waypoints.append(target)
                return Bug2Path(waypoints, True, encounters)

            obstacle, hit = blocking
            encounters += 1
            hit = self._push_out(hit, obstacle)
            if hit.distance_to(current) > EPS:
                waypoints.append(hit)

            leave = self._leave_point(obstacle, hit, start, target)
            if leave is None:
                # The reference line never re-emerges closer to the target:
                # the target is unreachable around this obstacle (should not
                # happen in a connected field).  Stop at the hit point.
                return Bug2Path(waypoints, False, encounters)

            boundary = self._boundary_walk(obstacle, hit, leave)
            for p in boundary:
                if p.distance_to(waypoints[-1]) > EPS:
                    waypoints.append(p)
            current = waypoints[-1]

        reached = current.distance_to(target) <= 1e-6
        if reached and not waypoints[-1].almost_equals(target):
            waypoints.append(target)
        return Bug2Path(waypoints, reached, encounters)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _first_blocking_obstacle(
        self, leg: Segment
    ) -> Optional[Tuple[Obstacle, Vec2]]:
        """First obstacle whose interior the leg would cross, with hit point.

        An obstacle whose reject box (``Field.obstacle_table``) misses the
        leg's bounding box cannot be crossed, as ``blocks_segment``'s own
        reject would answer; only the others are tested.
        """
        best: Optional[Tuple[Obstacle, Vec2]] = None
        best_dist = math.inf
        field = self._field
        ax, ay, bx, by = leg.a.x, leg.a.y, leg.b.x, leg.b.y
        lo_x, hi_x = min(ax, bx), max(ax, bx)
        lo_y, hi_y = min(ay, by), max(ay, by)
        for ob, (xmin, ymin, xmax, ymax, _) in zip(
            field.obstacles, field.obstacle_table()
        ):
            if hi_x < xmin or lo_x > xmax or hi_y < ymin or lo_y > ymax:
                continue
            if not ob.blocks_segment(leg):
                continue
            hit = ob.first_hit(leg)
            if hit is None:
                # The segment starts inside the obstacle (after projection
                # this should not happen); use the closest boundary point.
                hit = ob.closest_boundary_point(leg.a)
            dist = leg.a.distance_to(hit)
            if dist < best_dist:
                best = (ob, hit)
                best_dist = dist
        return best

    def _push_out(self, p: Vec2, obstacle: Obstacle) -> Vec2:
        """Move a boundary point slightly away from the obstacle interior."""
        centroid = obstacle.polygon.centroid()
        direction = (p - centroid).normalized()
        if direction.norm() == 0.0:
            direction = Vec2(1.0, 0.0)
        candidate = p + direction * _CLEARANCE
        return self._field.clamp(candidate)

    def _leave_point(
        self, obstacle: Obstacle, hit: Vec2, start: Vec2, target: Vec2
    ) -> Optional[Vec2]:
        """Where BUG2 leaves the obstacle and resumes the reference line.

        BUG2 leaves at a reference-line point that is closer to the target
        than the hit point and from which progress can be made.  For the
        polygons used here that is the reference-line/boundary intersection
        closest to the target; the target itself is used when it sits on the
        boundary region beyond all intersections.
        """
        reference = Segment(start, target)
        crossings = obstacle.polygon.segment_intersections(reference)
        hit_dist = hit.distance_to(target)
        candidates = [
            p for p in crossings if p.distance_to(target) < hit_dist - 1e-9
        ]
        if not candidates:
            return None
        leave = min(candidates, key=lambda p: p.distance_to(target))
        return self._push_out(leave, obstacle)

    def _boundary_walk(
        self, obstacle: Obstacle, start_point: Vec2, leave_point: Vec2
    ) -> List[Vec2]:
        """Waypoints following the obstacle boundary from start to leave.

        The walk direction follows the planner's handedness: with counter-
        clockwise vertex order, traversing vertices in order keeps the
        obstacle on the walker's left (left-hand rule); traversing them in
        reverse keeps it on the right (right-hand rule).
        """
        polygon = obstacle.polygon.counter_clockwise()
        vertices = list(polygon.vertices)
        n = len(vertices)
        start_edge = _nearest_edge(polygon.edges(), start_point)
        leave_edge = _nearest_edge(polygon.edges(), leave_point)

        waypoints: List[Vec2] = []
        if self._handedness is Handedness.LEFT:
            # Walk the boundary in CCW vertex order.
            idx = (start_edge + 1) % n
            guard = 0
            while guard <= n:
                if leave_edge == (idx - 1) % n and guard > 0:
                    break
                waypoints.append(self._push_out(vertices[idx % n], obstacle))
                if (idx - 1) % n == leave_edge:
                    break
                idx = (idx + 1) % n
                guard += 1
        else:
            # Walk the boundary in CW order (reverse vertex order).
            idx = start_edge
            guard = 0
            while guard <= n:
                waypoints.append(self._push_out(vertices[idx % n], obstacle))
                if idx % n == leave_edge:
                    break
                idx = (idx - 1) % n
                guard += 1

        waypoints.append(leave_point)
        return self._prune(waypoints, start_point, leave_point)

    def _prune(
        self, waypoints: List[Vec2], start_point: Vec2, leave_point: Vec2
    ) -> List[Vec2]:
        """Drop boundary waypoints that are not needed to reach the leave point.

        A waypoint is unnecessary when the direct segment from the previous
        retained point to the leave point is already unblocked; this keeps
        the walked distance close to the theoretical BUG2 path for convex
        obstacles.
        """
        pruned: List[Vec2] = []
        previous = start_point
        for i, p in enumerate(waypoints):
            if p.almost_equals(leave_point):
                pruned.append(p)
                break
            direct = Segment(previous, leave_point)
            if not self._field.segment_blocked(direct):
                pruned.append(leave_point)
                break
            pruned.append(p)
            previous = p
        else:
            if not pruned or not pruned[-1].almost_equals(leave_point):
                pruned.append(leave_point)
        return pruned


def _nearest_edge(edges: Sequence[Segment], p: Vec2) -> int:
    """Index of the edge nearest ``p``, the first one on a tie.

    The closest-point projection of each edge on floats: clamp the
    projection parameter to the segment (an endpoint for a degenerate
    one), then ``hypot``, as ``Vec2.distance_to`` does.  The ``Segment``
    form is ``tests.oracles.reference_nearest_edge``.
    """
    px, py = p.x, p.y
    best = 0
    best_dist = math.inf
    for index, edge in enumerate(edges):
        a, b = edge.a, edge.b
        ax, ay = a.x, a.y
        dx, dy = b.x - ax, b.y - ay
        denom = dx * dx + dy * dy
        if denom <= DEGENERATE_NORM_SQ:
            # The endpoint nearer ``p``, ``a`` on a tie.
            dist = math.hypot(px - ax, py - ay)
            dist_b = math.hypot(px - b.x, py - b.y)
            if dist_b < dist:
                dist = dist_b
        else:
            t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / denom))
            dist = math.hypot(px - (ax + (b.x - ax) * t), py - (ay + (b.y - ay) * t))
        if dist < best_dist:
            best = index
            best_dist = dist
    return best
