"""FLOOR references: an exhaustive floor-registry scan, the ``Vec2`` planner
and a FLOOR scheme that searches every round in full.

:class:`ExhaustiveFloorRegistry` answers the registry queries by scanning
every record of the floors a distributed implementation would ask.
:class:`ReferenceExpansionPlanner` finds expansion points on ``Vec2``,
``Segment`` and ``Circle`` objects through the circle references of
:mod:`.geometry`, with no memo: every call recomputes.  The production
``ExpansionPlanner`` (float kernel plus dependency-scoped memo) must
return ``==`` answers.  :class:`ReferenceFloorScheme` runs FLOOR on that
planner and never reuses an expansion round, so every period searches
every part of every searcher; the production scheme must advertise the
same points and send the same messages in every period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import FloorScheme
from repro.core.expansion import ExpansionKind, ExpansionPoint
from repro.core.floors import FloorGeometry
from repro.core.headers import FloorRecord, FloorRegistry
from repro.field import Field
from repro.geometry import Segment, Vec2

from .geometry import (
    Circle,
    reference_boundary_segments_within,
    reference_circle_circle_intersections,
    reference_clip_segment,
)


class ExhaustiveFloorRegistry(FloorRegistry):
    """A floor registry that answers its queries by scanning every record."""

    def records_on_floor(self, floor_index: int) -> List[FloorRecord]:
        """All records registered on a floor."""
        return list(self._records.get(floor_index, {}).values())

    def is_point_covered(
        self,
        x: float,
        y: float,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> bool:
        excluded = set(exclude)
        point = Vec2(x, y)
        for floor_index in self.floors.floors_possibly_covering(point, sensing_range):
            for record in self.records_on_floor(floor_index):
                if record.node_id in excluded:
                    continue
                if record.position.distance_to(point) <= sensing_range + 1e-9:
                    return True
        return False

    def neighbors_on_floor(self, node_id: int, radius: float) -> List[FloorRecord]:
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        records = self.records_on_floor(floor_index)
        me = next((r for r in records if r.node_id == node_id), None)
        if me is None:
            return []
        return [
            r
            for r in records
            if r.node_id != node_id
            and r.position.distance_to(me.position) <= radius + 1e-9
        ]


def reference_floor_line_segment(floors: FloorGeometry, index: int) -> Segment:
    """The ``index``-th floor line clipped to the field width."""
    y = floors.floor_line_y(index)
    return Segment(Vec2(0.0, y), Vec2(floors.field_width, y))


@dataclass
class ReferenceExpansionPlanner:
    """FLG / BLG / IFLG expansion points on ``Vec2`` objects, no memo."""

    field: Field
    floors: FloorGeometry
    registry: FloorRegistry
    sensing_range: float
    expansion_radius: float

    def expansion_points(
        self, owner_id: int, position: Vec2
    ) -> List[ExpansionPoint]:
        points: List[ExpansionPoint] = []
        points.extend(self._flg_points(owner_id, position))
        points.extend(self._blg_points(owner_id, position))
        points.extend(self._iflg_points(owner_id, position))
        points.sort(key=lambda ep: ep.priority_key())
        return points

    def _ep_toward(self, position: Vec2, frontier: Vec2) -> Optional[Vec2]:
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
        return not self.registry.is_point_covered(
            point.x, point.y, self.sensing_range, exclude=exclude
        )

    def _flg_points(self, owner_id: int, position: Vec2) -> List[ExpansionPoint]:
        sensing_disk = Circle(position, self.sensing_range)
        floor_index = self.floors.floor_index(position.y)
        floor_segment = reference_floor_line_segment(self.floors, floor_index)
        covered_piece = reference_clip_segment(sensing_disk, floor_segment)
        if covered_piece is None or covered_piece.length() <= 1e-9:
            return []
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

    def _blg_points(self, owner_id: int, position: Vec2) -> List[ExpansionPoint]:
        sensing_disk = Circle(position, self.sensing_range)
        visible = reference_boundary_segments_within(self.field, sensing_disk)
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
        """Both endpoints of a visible boundary piece (left-hand-rule walk)."""
        return [segment.a, segment.b]

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
            crossings = reference_circle_circle_intersections(my_circle, other_circle)
            midpoint_x = (position.x + record.position.x) / 2.0
            for crossing in crossings:
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
                hole_probe = Vec2(midpoint_x, hole_lines[0])
                if not self.field.is_free(hole_probe):
                    continue
                if not self._is_uncovered(hole_probe, exclude=[]):
                    continue
                if self._is_uncovered(
                    crossing, exclude=[owner_id, record.node_id]
                ):
                    points.append(
                        ExpansionPoint(crossing, ExpansionKind.IFLG, owner_id)
                    )
        return points


@dataclass
class RoundPlanner(ReferenceExpansionPlanner):
    """:class:`ReferenceExpansionPlanner` behind the interface the FLOOR
    scheme asks of its planner: every searcher is searched in full in
    every round, and nothing is reused, forgotten or handed over.
    :attr:`answers` holds the last round's answers that have points."""

    reused: int = 0
    recomputed: int = 0
    coverage_queries: int = 0
    iflg_neighbors_reused: int = 0
    iflg_neighbors_computed: int = 0
    recomputed_field: int = 0
    checked: int = 0

    def __post_init__(self) -> None:
        self.recomputed_parts = [0, 0, 0]
        self.answers: Dict[int, List[ExpansionPoint]] = {}

    def advertise(
        self, ids: Sequence[int], positions: Sequence[Optional[Vec2]]
    ) -> Tuple[List[ExpansionPoint], int, List[int], bool]:
        """The round: the points of the highest-priority kind found, the
        floor headers the coverage-status query of each answer's first
        point asks, the searchers with no position or no points, and
        whether any searcher was searched."""
        self.answers = {}
        exhausted = []
        for owner_id, position in zip(ids, positions):
            points = (
                [] if position is None else self.expansion_points(owner_id, position)
            )
            if points:
                self.answers[owner_id] = points
            else:
                exhausted.append(owner_id)
        answers = self.answers.values()
        best = min((points[0].kind for points in answers), default=None)
        advertised = [
            point
            for points in answers
            if points[0].kind is best
            for point in points
            if point.kind is best
        ]
        floors_asked = sum(
            len(
                self.floors.floors_possibly_covering(
                    points[0].position, self.sensing_range
                )
            )
            for points in answers
        )
        searched = any(position is not None for position in positions)
        return advertised, floors_asked, exhausted, searched

    def forget(self, owner_id: int) -> None:
        pass

    def hand_over(self, owner_id: int, successor_id: int) -> None:
        pass


class ReferenceFloorScheme(FloorScheme):
    """FLOOR on :class:`RoundPlanner` that asks every searcher in every
    round."""

    def initialize(self, world) -> None:
        super().initialize(world)
        planner = self._expansion
        self._expansion = RoundPlanner(
            field=planner.field,
            floors=planner.floors,
            registry=planner.registry,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )
