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


def _flips(
    probes: List[Tuple[float, float, bool]],
    changes: List[Tuple[float, float, int, bool]],
    reach_sq: float,
) -> bool:
    """Whether one of the registry ``changes`` could flip one of the
    coverage ``probes``: an added record within reach of an uncovered
    probe, or a removed one within reach of a covered probe."""
    for cx, cy, _, added in changes:
        for px, py, covered in probes:
            if covered != added:
                dx = cx - px
                dy = cy - py
                if dx * dx + dy * dy <= reach_sq:
                    return True
    return False


def _net(
    changes: List[Tuple[float, float, int, bool]]
) -> List[Tuple[float, float, int, bool]]:
    """``changes`` less those that cancel at their point: per point, the
    records added and removed there are kept only on the side that
    outnumbers the other.  The count of records at each point then moves
    as the kept changes say, so a probe whose query excludes none of
    their ids answers after them as after the kept ones alone (a record
    replaced by another at the same point leaves it as it was)."""
    if len(changes) < 2:
        return changes
    balance: Dict[Tuple[float, float], int] = {}
    for cx, cy, _, added in changes:
        key = (cx, cy)
        balance[key] = balance.get(key, 0) + (1 if added else -1)
    kept = []
    for change in changes:
        net = balance[change[0], change[1]]
        if net > 0 if change[3] else net < 0:
            kept.append(change)
    return kept


def _touches(
    reach: Optional[List[float]],
    changes: List[Tuple[float, float, float, float, bool]],
    box: Optional[Tuple[float, float, float, float]] = None,
) -> bool:
    """Whether one of the field ``changes`` (the boxes of obstacles added
    or removed, see :meth:`Field.changes_since`) meets a search's field
    reach: a point of ``reach`` (flat ``x, y`` pairs; ``None``:
    unbounded) or ``box``, within :data:`_MEMO_SLACK`."""
    if reach is None:
        return bool(changes)
    for xmin, ymin, xmax, ymax, _ in changes:
        xmin -= _MEMO_SLACK
        ymin -= _MEMO_SLACK
        xmax += _MEMO_SLACK
        ymax += _MEMO_SLACK
        if box is not None and (
            xmin <= box[2] and box[0] <= xmax and ymin <= box[3] and box[1] <= ymax
        ):
            return True
        points = iter(reach)
        for x, y in zip(points, points):
            if xmin <= x <= xmax and ymin <= y <= ymax:
                return True
    return False


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


@dataclass(slots=True)
class _Part:
    """Points and the coverage probes and field reach they were derived
    from: one kind's (in priority order) or one IFLG neighbour's."""

    #: The points (a kind's in priority order).
    points: List[ExpansionPoint]
    #: ``(x, y, covered)`` of every coverage probe, in the order made.
    probes: List[Tuple[float, float, bool]]
    #: ``x, y`` of every point the search tested for obstacles, flat.
    #: With BLG's boundary-piece query (:meth:`Field.boundary_pieces_reach`
    #: around the owner) they are all the field reads of the search, so
    #: an obstacle change whose box misses them leaves every read as it
    #: was.  ``None`` once a ``nearest_free`` spiral read the field
    #: beyond them.
    reach: Optional[List[float]]


@dataclass(slots=True)
class _Answer:
    """One owner's last answer and what it was derived from."""

    x: float
    y: float
    field_version: int
    #: The registry version the answer is known to be valid at.
    registry_version: int
    #: ``(x, y, floor_index)`` of the owner's registry record when the
    #: IFLG part was computed (``None`` when unregistered).
    record: Optional[Tuple[float, float, int]]
    #: The FLG, BLG and IFLG parts, indexed by :class:`ExpansionKind`.
    parts: List[_Part]
    #: The IFLG part per same-floor neighbour, keyed by its
    #: ``(node_id, x, y)``; the part is their concatenation.
    neighbors: Dict[Tuple[int, float, float], _Part]
    #: The parts' points concatenated (already in priority order).
    points: List[ExpansionPoint]
    #: Floor headers the answer's coverage-status query asks.
    floors_asked: int
    #: Squared distance from ``(x, y)`` beyond which no change is within
    #: reach of any probe (``-1.0`` when nothing was probed).
    probe_reach_sq: float
    #: Owners the answer was handed over from (see
    #: :meth:`ExpansionPlanner.hand_over`) since ``registry_version``.
    former: Tuple[int, ...] = ()


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
    #: Calls that recomputed at least one part of their answer.
    recomputed: int = dataclass_field(default=0, init=False, compare=False)
    #: Part recomputations by kind (FLG, BLG, IFLG).
    recomputed_parts: List[int] = dataclass_field(
        default_factory=lambda: [0, 0, 0], init=False, compare=False
    )
    #: Memoised parts whose field reach an obstacle change since met
    #: (each is recomputed).
    recomputed_field: int = dataclass_field(default=0, init=False, compare=False)
    #: Registry coverage probes made (reused IFLG neighbours make none).
    coverage_queries: int = dataclass_field(default=0, init=False, compare=False)
    #: IFLG neighbours whose points and probes were taken from the memo.
    iflg_neighbors_reused: int = dataclass_field(default=0, init=False, compare=False)
    #: IFLG neighbours searched (new, moved, or with a probe a change
    #: could flip).
    iflg_neighbors_computed: int = dataclass_field(
        default=0, init=False, compare=False
    )
    #: ``owner_id -> _Answer``: the owner's last answer and its inputs.
    _memo: Dict[int, _Answer] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Probes made by the running part search.
    _probes: List[Tuple[float, float, bool]] = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Field reach of the running part search (see :attr:`_Part.reach`).
    _reach: Optional[List[float]] = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def expansion_points(
        self, owner_id: int, position: Vec2
    ) -> List[ExpansionPoint]:
        """All currently uncovered expansion points of one fixed sensor.

        The answer is three parts, FLG, BLG and IFLG, each searched on its
        own and kept with the coverage probes it made and its field reach
        (:attr:`_Part.reach`).  A part reads the owner's position and the
        field's obstacles, and the registry only through its probes, each
        answered by the records within ``rs`` of the probed point; IFLG
        also reads the owner's record and its same-floor neighbours within
        ``2 * expansion_radius`` of it.  A new position recomputes all
        three parts.  Otherwise a part is recomputed only when a change
        since the last call could alter what it read: an obstacle added
        or removed whose box meets the part's field reach, or a registry
        change that could flip one of its probes, an added record within
        reach of an uncovered probe or a removed one within reach of a
        covered probe.  FLG and BLG probes exclude the owner alone, so the
        owner's own changes cannot flip them, and a record added and one
        removed at the same point cancel for them; for IFLG probes, which
        exclude at most the owner and a neighbour, the owner's own changes
        cancel so.  IFLG is also recomputed on
        a change of the owner's record or of a record on the same floor
        within ``2 * expansion_radius`` of it; it then searches again only
        the neighbours that are new, moved, have a probe such a change
        could flip or a field reach an obstacle change met, and reuses the
        others' points, probes and reach.  With every field read and
        probe answer unchanged a search makes the same reads and probes in
        the same order (one it skipped can only be reached after an
        earlier answer changed), so the rule is exact.  :meth:`floors_asked`
        gives the answer's coverage-query message cost; the planner only
        asks the registry.
        """
        x, y = position.x, position.y
        registry = self.registry
        field = self.field
        memo = self._memo.get(owner_id)
        if memo is None or memo.x != x or memo.y != y:
            stale = [True, True, True]
            known: Dict[Tuple[int, float, float], _Part] = {}
            near: List[Tuple[float, float, int, bool]] = []
            moved: List[Tuple[float, float, float, float, bool]] = []
        else:
            same_field = memo.field_version == field.version
            if memo.registry_version == registry.version:
                if same_field:
                    # Nothing changed since: nothing can be stale.
                    self.reused += 1
                    return list(memo.points)
                stale, near = [False, False, False], []
            else:
                stale, near = self._stale_parts(memo, owner_id)
            moved = [] if same_field else field.changes_since(memo.field_version)
            if moved:
                pieces = field.boundary_pieces_reach(x, y, self.sensing_range)
                for kind, part in zip(ExpansionKind, memo.parts):
                    box = pieces if kind is ExpansionKind.BLG else None
                    if _touches(part.reach, moved, box):
                        stale[kind] = True
                        self.recomputed_field += 1
            if not (stale[0] or stale[1] or stale[2]):
                memo.registry_version = registry.version
                memo.field_version = field.version
                memo.former = ()
                self.reused += 1
                return list(memo.points)
            known = memo.neighbors
        self.recomputed += 1
        if stale[ExpansionKind.IFLG]:
            found = registry.record(owner_id)
            record = (
                None
                if found is None
                else (found.position.x, found.position.y, registry.floor_of(owner_id))
            )
            neighbors: Dict[Tuple[int, float, float], _Part] = {}
        else:
            record = memo.record
            neighbors = memo.neighbors
        parts: List[_Part] = []
        for kind in ExpansionKind:
            if not stale[kind]:
                parts.append(memo.parts[kind])
                continue
            probes: List[Tuple[float, float, bool]] = []
            self._probes = probes
            self._reach = []
            if kind is ExpansionKind.FLG:
                found_points = self._flg_points(owner_id, x, y)
            elif kind is ExpansionKind.BLG:
                found_points = self._blg_points(owner_id, x, y)
            else:
                found_points = self._iflg_points(
                    owner_id, x, y, known, near, moved, neighbors
                )
            found_points.sort(key=ExpansionPoint.priority_key)
            self.recomputed_parts[kind] += 1
            parts.append(_Part(found_points, probes, self._reach))
        points = parts[0].points + parts[1].points + parts[2].points
        floors_asked = (
            len(
                self.floors.floors_possibly_covering(
                    points[0].position, self.sensing_range
                )
            )
            if points
            else 0
        )
        self._memo[owner_id] = _Answer(
            x=x,
            y=y,
            field_version=field.version,
            registry_version=registry.version,
            record=record,
            parts=parts,
            neighbors=neighbors,
            points=points,
            floors_asked=floors_asked,
            probe_reach_sq=self._probe_reach_sq(x, y, parts),
        )
        return list(points)

    def forget(self, owner_id: int) -> None:
        """Drop the owner's memoised answer (it stopped searching)."""
        self._memo.pop(owner_id, None)

    def hand_over(self, owner_id: int, successor_id: int) -> None:
        """Give the owner's memoised answer to ``successor_id``, which now
        stands where the owner stood and is registered there in its place
        (a sensor arriving at its virtual place-holder's point).

        Every probe excluded the owner and will exclude the successor, so
        for FLG and BLG the changes of both are out of sight, and for
        IFLG they cancel at the point, as the owner's own changes do.
        That holds only if the successor was not registered when the
        answer was made: otherwise the answer is dropped.
        """
        memo = self._memo.pop(owner_id, None)
        if memo is None or any(
            node_id == successor_id and not added
            for _, _, node_id, added in self.registry.changes_since(
                memo.registry_version
            )
        ):
            return

        def owned(points: List[ExpansionPoint]) -> List[ExpansionPoint]:
            return [ExpansionPoint(p.position, p.kind, successor_id) for p in points]

        for part in memo.parts:
            part.points = owned(part.points)
        for entry in memo.neighbors.values():
            entry.points = owned(entry.points)
        memo.points = [point for part in memo.parts for point in part.points]
        memo.former = (*memo.former, owner_id)
        self._memo[successor_id] = memo

    def floors_asked(self, owner_id: int) -> int:
        """Floor headers asked by the coverage-status query of the owner's
        last answer: those that could hold a sensor covering its first
        point (zero when it has none)."""
        return self._memo[owner_id].floors_asked

    def _probe_reach_sq(self, x: float, y: float, parts: List[_Part]) -> float:
        """:attr:`_Answer.probe_reach_sq` of probes made from ``(x, y)``."""
        farthest = max(
            (math.hypot(px - x, py - y) for part in parts for px, py, _ in part.probes),
            default=None,
        )
        if farthest is None:
            return -1.0
        reach = farthest + self.sensing_range + 2.0 * _MEMO_SLACK
        return reach * reach

    def _stale_parts(
        self, memo: _Answer, owner_id: int
    ) -> Tuple[List[bool], List[Tuple[float, float, int, bool]]]:
        """Which parts of ``memo`` a registry change since it may alter,
        and the changes within reach of one of its probes."""
        x, y = memo.x, memo.y
        probe_reach_sq = memo.probe_reach_sq
        record = memo.record
        neighbor_reach = 2.0 * self.expansion_radius + _MEMO_SLACK
        neighbor_reach_sq = neighbor_reach * neighbor_reach
        floor_index = self.registry.floors.floor_index
        iflg_stale = False
        near = []
        for change in self.registry.changes_since(memo.registry_version):
            cx, cy, node_id, _ = change
            if not iflg_stale:
                if node_id == owner_id:
                    iflg_stale = True
                elif record is not None:
                    dx = cx - record[0]
                    dy = cy - record[1]
                    iflg_stale = (
                        dx * dx + dy * dy <= neighbor_reach_sq
                        and floor_index(cy) == record[2]
                    )
            dx = cx - x
            dy = cy - y
            if dx * dx + dy * dy <= probe_reach_sq:
                near.append(change)
        if not near:
            return [False, False, iflg_stale], near
        # FLG and BLG probes exclude the owner alone; IFLG probes exclude
        # nothing or the owner and a neighbour, so the owner's changes
        # cancel at their points, as do those of the owners the answer
        # was handed over from.
        owners = (owner_id, *memo.former)
        own = [change for change in near if change[2] in owners]
        others = _net([change for change in near if change[2] not in owners])
        if own:
            near = _net(own) + [
                change for change in near if change[2] not in owners
            ]
        reach = self.sensing_range + _MEMO_SLACK
        reach_sq = reach * reach
        flg, blg, iflg = memo.parts
        return [
            _flips(flg.probes, others, reach_sq),
            _flips(blg.probes, others, reach_sq),
            iflg_stale or _flips(iflg.probes, near, reach_sq),
        ], near

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _free(self, x: float, y: float) -> bool:
        """``field.is_free_xy``, the point added to the running search's
        field reach."""
        reach = self._reach
        if reach is not None:
            reach.append(x)
            reach.append(y)
        return self.field.is_free_xy(x, y)

    def _nearest_free(self, x: float, y: float) -> Tuple[float, float]:
        """``field.nearest_free`` of ``(x, y)``, known to be blocked: its
        spiral leaves the running search's field reach unbounded."""
        self._reach = None
        free = self.field.nearest_free(Vec2(x, y))
        return free.x, free.y

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
        if not self._free(cx, cy):
            cx, cy = self._nearest_free(cx, cy)
        if math.hypot(cx - px, cy - py) < 1e-6:
            return None
        return cx, cy

    def _is_uncovered(self, x: float, y: float, exclude: Sequence[int]) -> bool:
        """Whether the registry reports ``(x, y)`` as uncovered."""
        covered = self.registry.is_point_covered(
            x, y, self.sensing_range, exclude=exclude
        )
        self._probes.append((x, y, covered))
        self.coverage_queries += 1
        return not covered

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
            if not self._free(fx, fy):
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
                if not self._free(fx, fy):
                    fx, fy = self._nearest_free(fx, fy)
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
    def _iflg_points(
        self,
        owner_id: int,
        px: float,
        py: float,
        known: Dict[Tuple[int, float, float], _Part],
        changes: List[Tuple[float, float, int, bool]],
        moved: List[Tuple[float, float, float, float, bool]],
        entries: Dict[Tuple[int, float, float], _Part],
    ) -> List[ExpansionPoint]:
        """IFLG points, searched per same-floor neighbour.

        A neighbour found in ``known`` (the last answer's, from the same
        position) under its ``(node_id, x, y)`` is reused when none of the
        registry ``changes`` since could flip one of its probes and none
        of the obstacle changes ``moved`` meets its field reach; every
        neighbour's part goes into ``entries``.
        """
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
        reach = self.sensing_range + _MEMO_SLACK
        reach_sq = reach * reach
        is_free_xy = self._free
        probes = self._probes
        part_reach = self._reach
        points: List[ExpansionPoint] = []
        for record in neighbors:
            qx, qy = record.position.x, record.position.y
            key = (record.node_id, qx, qy)
            entry = known.get(key)
            if (
                entry is not None
                and not _flips(entry.probes, changes, reach_sq)
                and not _touches(entry.reach, moved)
            ):
                self.iflg_neighbors_reused += 1
            else:
                self.iflg_neighbors_computed += 1
                entry = _Part([], [], [])
                self._probes = entry.probes
                self._reach = entry.reach
                crossings = circle_intersections_xy(px, py, radius, qx, qy, radius)
                midpoint_x = (px + qx) / 2.0
                for cx, cy in crossings:
                    # Keep only the intersection lying toward an inter-floor
                    # line (the side where a hole between the two sensors
                    # and that line could exist).
                    hole_lines = [
                        line
                        for line in inter_lines
                        if abs(cy - py) > 1e-9 and (cy - py) * (line - py) > 0
                    ]
                    if not hole_lines:
                        continue
                    if not is_free_xy(cx, cy):
                        continue
                    # There is a hole only if the point of the inter-floor
                    # line midway between the two sensors is not covered by
                    # anyone.
                    hole_y = hole_lines[0]
                    if not is_free_xy(midpoint_x, hole_y):
                        continue
                    if not self._is_uncovered(midpoint_x, hole_y, ()):
                        continue
                    # The EP itself must not already host (or be promised
                    # to) another node.
                    if self._is_uncovered(cx, cy, (owner_id, record.node_id)):
                        entry.points.append(
                            ExpansionPoint(Vec2(cx, cy), ExpansionKind.IFLG, owner_id)
                        )
            entries[key] = entry
            points.extend(entry.points)
            probes.extend(entry.probes)
            # IFLG reads the field at points only: every reach is bounded.
            part_reach.extend(entry.reach)
        self._probes = probes
        self._reach = part_reach
        return points
