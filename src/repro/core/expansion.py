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
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..field import Field
from ..geometry import EPS, Vec2, circle_intersections_xy, clip_segment_xy
from .floors import FloorGeometry
from .headers import FloorRegistry

__all__ = ["ExpansionKind", "ExpansionPoint", "ExpansionPlanner"]

#: Added to every reach of the memo's dependency test, far above the
#: rounding of the registry's own distance tests (which allow 1e-9).
_MEMO_SLACK = 1e-6


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
class _Answer:
    """One owner's last answer and what it was derived from."""

    x: float
    y: float
    field_version: int
    #: The registry version the answer is known to be valid at.
    registry_version: int
    #: ``(xmin, ymin, xmax, ymax)`` of the coverage probes padded by the
    #: sensing range (``None`` when nothing was probed).
    probe_box: Optional[Tuple[float, float, float, float]]
    #: The owner's registry record position (``None`` when unregistered).
    record_xy: Optional[Tuple[float, float]]
    points: List[ExpansionPoint]


@dataclass
class ExpansionPlanner:
    """Finds expansion points for fixed sensors of the FLOOR scheme."""

    field: Field
    floors: FloorGeometry
    registry: FloorRegistry
    sensing_range: float
    expansion_radius: float
    #: Calls answered from the memo (no registry change within reach).
    reused: int = dataclass_field(default=0, init=False, compare=False)
    #: Calls that recomputed their answer.
    recomputed: int = dataclass_field(default=0, init=False, compare=False)
    #: Registry coverage probes made by those recomputations.
    coverage_queries: int = dataclass_field(default=0, init=False, compare=False)
    #: ``owner_id -> _Answer``: the owner's last answer and its inputs.
    _memo: Dict[int, _Answer] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Points probed by the running recomputation.
    _probes: List[Tuple[float, float]] = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def expansion_points(
        self, owner_id: int, position: Vec2
    ) -> List[ExpansionPoint]:
        """All currently uncovered expansion points of one fixed sensor.

        The answer depends on the owner's position, the field's obstacles
        and three kinds of registry reads: coverage probes, each answered
        by the records within ``rs`` of the probed point; the owner's
        same-floor neighbours within ``2 * expansion_radius`` of its
        record; and that record itself.  So each owner's last answer is
        reused (as a fresh list) while the position and the field are
        unchanged and no registry change since then lies near a probe
        (inside the probes' bounding box padded by ``rs``), near the
        owner's record, or is the owner's own.  A probe the last answer
        skipped because an earlier one found its point covered could only
        be reached after a change near that earlier probe, so the rule is
        exact.  The caller is responsible for accounting the
        coverage-query message cost; the planner only asks the registry.
        """
        x, y = position.x, position.y
        registry = self.registry
        memo = self._memo.get(owner_id)
        if (
            memo is not None
            and memo.x == x
            and memo.y == y
            and memo.field_version == self.field.version
            and not self._changed_within_reach(memo, owner_id)
        ):
            memo.registry_version = registry.version
            self.reused += 1
            return list(memo.points)
        self.recomputed += 1
        probes = self._probes
        probes.clear()
        points: List[ExpansionPoint] = []
        points.extend(self._flg_points(owner_id, x, y))
        points.extend(self._blg_points(owner_id, x, y))
        points.extend(self._iflg_points(owner_id, x, y))
        points.sort(key=lambda ep: ep.priority_key())
        self.coverage_queries += len(probes)
        probe_box = None
        if probes:
            pad = self.sensing_range + _MEMO_SLACK
            xs = [p[0] for p in probes]
            ys = [p[1] for p in probes]
            probe_box = (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
        record = registry.record(owner_id)
        self._memo[owner_id] = _Answer(
            x=x,
            y=y,
            field_version=self.field.version,
            registry_version=registry.version,
            probe_box=probe_box,
            record_xy=(
                None if record is None else (record.position.x, record.position.y)
            ),
            points=points,
        )
        return list(points)

    def _changed_within_reach(self, memo: _Answer, owner_id: int) -> bool:
        """Whether a registry change since ``memo`` may alter its answer."""
        box = memo.probe_box
        record_xy = memo.record_xy
        reach = 2.0 * self.expansion_radius + _MEMO_SLACK
        reach_sq = reach * reach
        for cx, cy, node_id in self.registry.changes_since(memo.registry_version):
            if node_id == owner_id:
                return True
            if box is not None and box[0] <= cx <= box[2] and box[1] <= cy <= box[3]:
                return True
            if record_xy is not None:
                dx = cx - record_xy[0]
                dy = cy - record_xy[1]
                if dx * dx + dy * dy <= reach_sq:
                    return True
        return False

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _ep_toward(
        self, px: float, py: float, fx: float, fy: float
    ) -> Optional[Tuple[float, float]]:
        """The EP on the expansion circle from ``p`` toward frontier ``f``."""
        vx = fx - px
        vy = fy - py
        norm = math.hypot(vx, vy)
        if norm <= EPS:
            return None
        distance = min(self.expansion_radius, math.hypot(px - fx, py - fy))
        cx = px + vx / norm * distance
        cy = py + vy / norm * distance
        field = self.field
        cx = min(field.width, max(0.0, cx))
        cy = min(field.height, max(0.0, cy))
        if not field.is_free_xy(cx, cy):
            free = field.nearest_free(Vec2(cx, cy))
            cx, cy = free.x, free.y
        if math.hypot(cx - px, cy - py) < 1e-6:
            return None
        return cx, cy

    def _is_uncovered(self, x: float, y: float, exclude: Sequence[int]) -> bool:
        """Whether the registry reports ``(x, y)`` as uncovered."""
        self._probes.append((x, y))
        return not self.registry.is_point_covered(
            x, y, self.sensing_range, exclude=exclude
        )

    # ------------------------------------------------------------------
    # FLG expansion
    # ------------------------------------------------------------------
    def _flg_points(self, owner_id: int, px: float, py: float) -> List[ExpansionPoint]:
        floors = self.floors
        line_y = floors.floor_line_y(floors.floor_index(py))
        piece = clip_segment_xy(
            px, py, self.sensing_range, 0.0, line_y, floors.field_width, line_y
        )
        if piece is None:
            return []
        ax, ay, bx, by = piece
        if math.hypot(ax - bx, ay - by) <= 1e-9:
            return []
        # Frontier points: the endpoints of the covered floor-line piece.  The
        # paper prefers the endpoint farthest from the y axis (largest x); the
        # other endpoint is also examined so that floors seeded in the middle
        # of the field (a clustered start) can grow toward the y axis and
        # reach the boundary, where BLG expansion takes over.
        endpoints = [(ax, ay), (bx, by)]
        endpoints.sort(key=itemgetter(0), reverse=True)
        exclude = (owner_id,)
        points: List[ExpansionPoint] = []
        for fx, fy in endpoints:
            if not self.field.is_free_xy(fx, fy):
                continue
            if not self._is_uncovered(fx, fy, exclude):
                continue
            ep = self._ep_toward(px, py, fx, fy)
            if ep is not None and self._is_uncovered(ep[0], ep[1], exclude):
                points.append(ExpansionPoint(Vec2(*ep), ExpansionKind.FLG, owner_id))
        return points

    # ------------------------------------------------------------------
    # BLG expansion
    # ------------------------------------------------------------------
    def _blg_points(self, owner_id: int, px: float, py: float) -> List[ExpansionPoint]:
        field = self.field
        exclude = (owner_id,)
        points: List[ExpansionPoint] = []
        for ax, ay, bx, by in field.boundary_pieces_within(px, py, self.sensing_range):
            # Walking the boundary with the left-hand rule until leaving the
            # sensing circle ends at one of the visible piece's endpoints, so
            # both are frontier candidates (the uncovered one(s) become
            # frontiers).
            for fx, fy in ((ax, ay), (bx, by)):
                if not field.is_free_xy(fx, fy):
                    free = field.nearest_free(Vec2(fx, fy))
                    fx, fy = free.x, free.y
                if not self._is_uncovered(fx, fy, exclude):
                    continue
                ep = self._ep_toward(px, py, fx, fy)
                if ep is not None and self._is_uncovered(ep[0], ep[1], exclude):
                    points.append(
                        ExpansionPoint(Vec2(*ep), ExpansionKind.BLG, owner_id)
                    )
        return points

    # ------------------------------------------------------------------
    # IFLG expansion
    # ------------------------------------------------------------------
    def _iflg_points(self, owner_id: int, px: float, py: float) -> List[ExpansionPoint]:
        radius = self.expansion_radius
        neighbors = self.registry.neighbors_on_floor(owner_id, 2.0 * radius)
        if not neighbors:
            return []
        floor_index = self.floors.floor_index(py)
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
        is_free_xy = self.field.is_free_xy
        points: List[ExpansionPoint] = []
        for record in neighbors:
            qx, qy = record.position.x, record.position.y
            crossings = circle_intersections_xy(px, py, radius, qx, qy, radius)
            midpoint_x = (px + qx) / 2.0
            for cx, cy in crossings:
                # Keep only the intersection lying toward an inter-floor line
                # (the side where a hole between the two sensors and that
                # line could exist).
                hole_lines = [
                    line
                    for line in inter_lines
                    if abs(cy - py) > 1e-9 and (cy - py) * (line - py) > 0
                ]
                if not hole_lines:
                    continue
                if not is_free_xy(cx, cy):
                    continue
                # There is a hole only if the point of the inter-floor line
                # midway between the two sensors is not covered by anyone.
                hole_y = hole_lines[0]
                if not is_free_xy(midpoint_x, hole_y):
                    continue
                if not self._is_uncovered(midpoint_x, hole_y, ()):
                    continue
                # The EP itself must not already host (or be promised to)
                # another node.
                if self._is_uncovered(cx, cy, (owner_id, record.node_id)):
                    points.append(
                        ExpansionPoint(Vec2(cx, cy), ExpansionKind.IFLG, owner_id)
                    )
        return points
