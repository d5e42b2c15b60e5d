"""Expansion-point discovery for FLOOR (Section 5.5.1).

A fixed sensor expands coverage by locating *expansion points* (EPs) on its
*expansion circle* — the circle of radius ``min(rc, rs)`` centred at its
position — and inviting movable sensors to relocate there.  Three kinds of
expansion are defined, in decreasing priority:

* **FLG** (floor-line-guided): the sensor finds the portion of its floor
  line inside its sensing range, takes the endpoint farthest from the y axis
  as the *frontier point*, and (if that point is not already covered) places
  the EP where its expansion circle crosses the segment toward the frontier.
* **BLG** (boundary-line-guided): the same construction applied to the
  field/obstacle boundary pieces visible in the sensing range, with frontier
  points obtained by walking the boundary with the left-hand rule.
* **IFLG** (inter-floor-line-guided): fills coverage holes between two
  neighbouring fixed sensors of the same floor and the inter-floor line,
  using the intersection points of their expansion circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from ..field import Field
from ..geometry import Circle, Segment, Vec2, circle_circle_intersections
from .floors import FloorGeometry
from .headers import FloorRegistry

__all__ = ["ExpansionKind", "ExpansionPoint", "ExpansionPlanner"]


class ExpansionKind(IntEnum):
    """Expansion types, ordered so that a smaller value means higher priority."""

    FLG = 0
    BLG = 1
    IFLG = 2


@dataclass(frozen=True)
class ExpansionPoint:
    """A candidate location for a movable sensor, owned by a fixed sensor."""

    position: Vec2
    kind: ExpansionKind
    owner_id: int

    def priority_key(self) -> tuple:
        """Sort key: priority first, then x (frontier-most last to break ties)."""
        return (int(self.kind), self.position.x, self.position.y)


@dataclass
class ExpansionPlanner:
    """Finds expansion points for fixed sensors of the FLOOR scheme."""

    field: Field
    floors: FloorGeometry
    registry: FloorRegistry
    sensing_range: float
    expansion_radius: float
    #: Memo hits so far (answers reused without a recomputation).
    reused: int = dataclass_field(default=0, init=False, compare=False)
    #: ``owner_id -> (key, points)``: the owner's last answer and its inputs.
    _memo: Dict[int, Tuple[tuple, List[ExpansionPoint]]] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def expansion_points(
        self, owner_id: int, position: Vec2
    ) -> List[ExpansionPoint]:
        """All currently uncovered expansion points of one fixed sensor.

        The answer depends only on the owner, its position, the registry
        records and the field's obstacles, so each owner's last answer is
        reused (as a fresh list) until one of them changes.  The caller is
        responsible for accounting the coverage-query message cost; the
        planner only asks the registry.
        """
        key = (position.x, position.y, self.registry.version, self.field.version)
        memo = self._memo.get(owner_id)
        if memo is not None and memo[0] == key:
            self.reused += 1
            return list(memo[1])
        points: List[ExpansionPoint] = []
        points.extend(self._flg_points(owner_id, position))
        points.extend(self._blg_points(owner_id, position))
        points.extend(self._iflg_points(owner_id, position))
        points.sort(key=lambda ep: ep.priority_key())
        self._memo[owner_id] = (key, points)
        return list(points)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _ep_toward(self, position: Vec2, frontier: Vec2) -> Optional[Vec2]:
        """The EP on the expansion circle toward a frontier point."""
        direction = position.towards(frontier)
        if direction.norm() == 0.0:
            return None
        distance = min(self.expansion_radius, position.distance_to(frontier))
        candidate = position + direction * distance
        candidate = self.field.clamp(candidate)
        if not self.field.is_free(candidate):
            candidate = self.field.nearest_free(candidate)
        if candidate.distance_to(position) < 1e-6:
            return None
        return candidate

    def _is_uncovered(self, point: Vec2, exclude: Sequence[int]) -> bool:
        """Whether the registry reports ``point`` as uncovered."""
        covered, _ = self.registry.is_point_covered(
            point, self.sensing_range, exclude=exclude
        )
        return not covered

    # ------------------------------------------------------------------
    # FLG expansion
    # ------------------------------------------------------------------
    def _flg_points(self, owner_id: int, position: Vec2) -> List[ExpansionPoint]:
        sensing_disk = Circle(position, self.sensing_range)
        floor_index = self.floors.floor_index(position.y)
        floor_segment = self.floors.floor_line_segment(floor_index)
        covered_piece = sensing_disk.clip_segment(floor_segment)
        if covered_piece is None or covered_piece.length() <= 1e-9:
            return []
        # Frontier points: the endpoints of the covered floor-line piece.  The
        # paper prefers the endpoint farthest from the y axis (largest x); the
        # other endpoint is also examined so that floors seeded in the middle
        # of the field (a clustered start) can grow toward the y axis and
        # reach the boundary, where BLG expansion takes over.
        endpoints = [covered_piece.a, covered_piece.b]
        endpoints.sort(key=lambda p: p.x, reverse=True)
        points: List[ExpansionPoint] = []
        for frontier in endpoints:
            if not self.field.is_free(frontier):
                continue
            if not self._is_uncovered(frontier, exclude=[owner_id]):
                continue
            ep = self._ep_toward(position, frontier)
            if ep is not None and self._is_uncovered(ep, exclude=[owner_id]):
                points.append(ExpansionPoint(ep, ExpansionKind.FLG, owner_id))
        return points

    # ------------------------------------------------------------------
    # BLG expansion
    # ------------------------------------------------------------------
    def _blg_points(self, owner_id: int, position: Vec2) -> List[ExpansionPoint]:
        sensing_disk = Circle(position, self.sensing_range)
        visible = self.field.boundary_segments_within(sensing_disk)
        points: List[ExpansionPoint] = []
        for segment in visible:
            for frontier in self._boundary_frontier_points(segment, sensing_disk):
                if not self.field.is_free(frontier):
                    frontier = self.field.nearest_free(frontier)
                if not self._is_uncovered(frontier, exclude=[owner_id]):
                    continue
                ep = self._ep_toward(position, frontier)
                if ep is not None and self._is_uncovered(ep, exclude=[owner_id]):
                    points.append(ExpansionPoint(ep, ExpansionKind.BLG, owner_id))
        return points

    @staticmethod
    def _boundary_frontier_points(
        segment: Segment, sensing_disk: Circle
    ) -> List[Vec2]:
        """Frontier candidates on a visible boundary piece.

        Walking the boundary with the left-hand rule until leaving the
        sensing circle ends at one of the clipped piece's endpoints, so both
        endpoints are returned (the uncovered one(s) become frontiers).
        """
        return [segment.a, segment.b]

    # ------------------------------------------------------------------
    # IFLG expansion
    # ------------------------------------------------------------------
    def _iflg_points(self, owner_id: int, position: Vec2) -> List[ExpansionPoint]:
        neighbors = self.registry.neighbors_on_floor(
            owner_id, 2.0 * self.expansion_radius
        )
        if not neighbors:
            return []
        floor_index = self.floors.floor_index(position.y)
        inter_lines = [
            line
            for line in (
                self.floors.inter_floor_line_above(floor_index),
                self.floors.inter_floor_line_below(floor_index),
            )
            if line is not None
        ]
        if not inter_lines:
            return []
        my_circle = Circle(position, self.expansion_radius)
        points: List[ExpansionPoint] = []
        for record in neighbors:
            other_circle = Circle(record.position, self.expansion_radius)
            crossings = circle_circle_intersections(my_circle, other_circle)
            midpoint_x = (position.x + record.position.x) / 2.0
            for crossing in crossings:
                # Keep only the intersection lying toward an inter-floor line
                # (the side where a hole between the two sensors and that
                # line could exist).
                hole_lines = [
                    line
                    for line in inter_lines
                    if abs(crossing.y - position.y) > 1e-9
                    and (crossing.y - position.y) * (line - position.y) > 0
                ]
                if not hole_lines:
                    continue
                if not self.field.is_free(crossing):
                    continue
                # There is a hole only if the point of the inter-floor line
                # midway between the two sensors is not covered by anyone.
                hole_probe = Vec2(midpoint_x, hole_lines[0])
                if not self.field.is_free(hole_probe):
                    continue
                if not self._is_uncovered(hole_probe, exclude=[]):
                    continue
                # The EP itself must not already host (or be promised to)
                # another node.
                if self._is_uncovered(
                    crossing, exclude=[owner_id, record.node_id]
                ):
                    points.append(
                        ExpansionPoint(crossing, ExpansionKind.IFLG, owner_id)
                    )
        return points
