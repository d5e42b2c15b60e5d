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
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


def _farthest(probes: List[Tuple[float, float, bool]], x: float, y: float) -> float:
    """Distance from ``(x, y)`` to the farthest of ``probes`` (``-1.0``:
    none)."""
    farthest = -1.0
    for px, py, _ in probes:
        distance = math.hypot(px - x, py - y)
        if distance > farthest:
            farthest = distance
    return farthest


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


#: The kinds as plain indices into an answer's parts.
_FLG, _BLG, _IFLG = (int(kind) for kind in ExpansionKind)
#: ``stale`` of a search from a new point: every part.
_ALL_STALE = (True, True, True)


@dataclass(frozen=True)
class ExpansionPoint:
    """A candidate location for a movable sensor, owned by a fixed sensor."""

    position: Vec2
    kind: ExpansionKind
    owner_id: int

    def priority_key(self) -> tuple:
        """Sort key: priority first, then x (frontier-most last to break ties)."""
        return (int(self.kind), self.position.x, self.position.y)


def _xy(point: ExpansionPoint) -> Tuple[float, float]:
    """Sort key of the points of one kind in priority order."""
    position = point.position
    return position.x, position.y


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
    #: Distance from the owner to the farthest probe (``-1.0``: none).
    farthest: float = -1.0
    #: Floor headers the coverage-status query of the first point asks
    #: (``-1``: not counted yet).
    asked: int = -1


@dataclass(slots=True)
class _Answer:
    """One owner's last answer, what it was derived from, and the changes
    routed to it since it was made or last asked."""

    x: float
    y: float
    #: The registry version when the answer was made or last asked.
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
    #: ``(ix0, iy0, ix1, iy1)``: the grid cells the answer is filed under.
    cells: Tuple[int, int, int, int] = (0, 0, -1, -1)
    #: Owners the answer was handed over from (see
    #: :meth:`ExpansionPlanner.hand_over`) since it was last asked.
    former: Tuple[int, ...] = ()
    #: Routed since: an owner change or a same-floor record within
    #: ``2 * expansion_radius`` of :attr:`record` (IFLG is stale).
    iflg_stale: bool = False
    #: Routed since: the registry changes within reach of a probe ...
    near: List[Tuple[float, float, int, bool]] = dataclass_field(
        default_factory=list
    )
    #: ... the same-floor ones within ``2 * expansion_radius`` of
    #: :attr:`record` ...
    neighbor_changes: List[Tuple[float, float, int, bool]] = dataclass_field(
        default_factory=list
    )
    #: ... and the obstacle changes since, when one of them meets the
    #: field reach of a part.
    moved: List[Tuple[float, float, float, float, bool]] = dataclass_field(
        default_factory=list
    )


_NO_OWNERS: Tuple[int, ...] = ()


@dataclass
class ExpansionPlanner:
    """Finds expansion points for fixed sensors of the FLOOR scheme."""

    field: Field
    floors: FloorGeometry
    registry: FloorRegistry
    sensing_range: float
    expansion_radius: float
    #: Answers served from the memo: by :meth:`advertise` to a searcher
    #: no change reached, or by a call no change since could alter.
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
    #: Memo entries the routing of registry and obstacle changes examined.
    checked: int = dataclass_field(default=0, init=False, compare=False)
    #: ``owner_id -> _Answer``: the owner's last answer and its inputs.
    _memo: Dict[int, _Answer] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``(ix, iy) -> owners`` whose reach box meets the cell.
    _grid: Dict[Tuple[int, int], Set[int]] = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Owners routed a change since their answer was made or last asked.
    _reached: Set[int] = dataclass_field(
        default_factory=set, init=False, repr=False, compare=False
    )
    #: The registry and field versions routed so far.
    _registry_seen: int = dataclass_field(default=0, init=False, repr=False, compare=False)
    _field_seen: int = dataclass_field(default=0, init=False, repr=False, compare=False)
    #: Probes made by the running part search.
    _probes: List[Tuple[float, float, bool]] = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Field reach of the running part search (see :attr:`_Part.reach`).
    _reach: Optional[List[float]] = dataclass_field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Nothing is memoised yet: every earlier change is out of sight.
        self._registry_seen = self.registry.version
        self._field_seen = self.field.version
        #: Side of a grid cell: about one answer's probe reach.
        self._cell = 2.0 * self.sensing_range
        #: Reach of the same-floor neighbour test around a record.
        self._neighbor_reach = 2.0 * self.expansion_radius + _MEMO_SLACK
        #: ``floor_index -> [inter-floor lines above and below]``.
        self._inter_lines: Dict[int, List[float]] = {}

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
        removed at the same point cancel for them.  IFLG probes exclude at
        most the owner and a neighbour: the owner's own changes cancel so
        among themselves, and the others' among themselves too, because a
        neighbour whose record changed is dropped, searched again or, when
        another record takes its point, kept with that record excluded
        instead.  IFLG is also recomputed on
        a change of the owner's record or of a record on the same floor
        within ``2 * expansion_radius`` of it; it then applies those
        changes to its neighbour entries (re-reading the neighbours only
        when the owner's record moved), and searches again only the
        neighbours that are new, moved, have a probe such a change
        could flip or a field reach an obstacle change met, and reuses the
        others' points, probes and reach.  With every field read and
        probe answer unchanged a search makes the same reads and probes in
        the same order (one it skipped can only be reached after an
        earlier answer changed), so the rule is exact.

        The changes are pushed, not pulled: :meth:`reached` routes each
        one once, through a grid of the answers' reach boxes, to the
        answers it may alter, so an answer no change reached has no stale
        part, and :meth:`advertise` serves it without a call.  The planner
        only asks the registry; :meth:`advertise` returns the message cost
        of the coverage-status queries for the scheme to charge.
        """
        reached = self.reached()
        x, y = position.x, position.y
        registry = self.registry
        memo = self._memo.get(owner_id)
        if memo is not None and memo.x == x and memo.y == y:
            reached.discard(owner_id)
            stale, near = self._stale_parts(memo, owner_id)
            moved = memo.moved
            if moved:
                pieces = self.field.boundary_pieces_reach(x, y, self.sensing_range)
                for kind, part in enumerate(memo.parts):
                    box = pieces if kind == _BLG else None
                    if _touches(part.reach, moved, box):
                        stale[kind] = True
                        self.recomputed_field += 1
            updates: Optional[List[Tuple[float, float, int, bool]]] = (
                memo.neighbor_changes
            )
            memo.registry_version = registry.version
            memo.iflg_stale = False
            memo.near, memo.neighbor_changes, memo.moved = [], [], []
            if not (stale[0] or stale[1] or stale[2]):
                memo.former = ()
                self.reused += 1
                return list(memo.points)
            known = memo.neighbors
        else:
            stale = _ALL_STALE
            known = {}
            near = []
            moved = []
            updates = None
        self.recomputed += 1
        if stale[_IFLG]:
            found = registry.record(owner_id)
            record = (
                None
                if found is None
                else (found.position.x, found.position.y, registry.floor_of(owner_id))
            )
            if updates is not None and record != memo.record:
                updates = None
            neighbors: Dict[Tuple[int, float, float], _Part] = {}
        else:
            record = memo.record
            neighbors = memo.neighbors
        parts: List[_Part] = []
        recomputed_parts = self.recomputed_parts
        for kind in (_FLG, _BLG, _IFLG):
            if not stale[kind]:
                parts.append(memo.parts[kind])
                continue
            probes: List[Tuple[float, float, bool]] = []
            self._probes = probes
            self._reach = []
            if kind == _FLG:
                found_points = self._flg_points(owner_id, x, y)
                farthest = _farthest(probes, x, y)
            elif kind == _BLG:
                found_points = self._blg_points(owner_id, x, y)
                farthest = _farthest(probes, x, y)
            else:
                found_points = self._iflg_points(
                    owner_id, x, y, record, known, updates, near, moved, neighbors
                )
                farthest = -1.0
                for entry in neighbors.values():
                    if entry.farthest > farthest:
                        farthest = entry.farthest
            # A part's points are all of its kind: its priority order is
            # their (x, y) order.
            if len(found_points) > 1:
                found_points.sort(key=_xy)
            recomputed_parts[kind] += 1
            parts.append(_Part(found_points, probes, self._reach, farthest))
        points = parts[0].points + parts[1].points + parts[2].points
        farthest = max(parts[0].farthest, parts[1].farthest, parts[2].farthest)
        if farthest < 0.0:
            probe_reach_sq = -1.0
        else:
            reach = farthest + self.sensing_range + 2.0 * _MEMO_SLACK
            probe_reach_sq = reach * reach
        if memo is None or stale is _ALL_STALE:
            memo = _Answer(
                x=x,
                y=y,
                registry_version=registry.version,
                record=record,
                parts=parts,
                neighbors=neighbors,
                points=points,
                floors_asked=self._floors_asked(parts),
                probe_reach_sq=probe_reach_sq,
            )
        else:
            # The same owner at the same point: the answer is updated in
            # place (its pending changes were taken above), and filed
            # again only if its reach box may have grown.
            grown = probe_reach_sq > memo.probe_reach_sq or record != memo.record
            memo.record = record
            memo.parts = parts
            memo.neighbors = neighbors
            memo.points = points
            memo.floors_asked = self._floors_asked(parts)
            memo.probe_reach_sq = probe_reach_sq
            memo.former = ()
            if not grown:
                return list(points)
        self._file(owner_id, memo)
        return list(points)

    def advertise(
        self, ids: Sequence[int], positions: Sequence[Optional[Vec2]]
    ) -> Tuple[List[ExpansionPoint], int, List[int], bool]:
        """One expansion round of the searchers ``ids`` standing at
        ``positions`` (``None``: one that no longer searches).

        A searcher whose memoised answer is from the point it stands at,
        and that no change reached since (:meth:`reached`), is served that
        answer; the others, new, moved or reached, are asked through
        :meth:`expansion_points`.  Returns the points of the
        highest-priority kind found, in searcher order: the leading points
        of each answer that starts with that kind (an answer lists its
        points in priority order).  Then the floor headers asked by the
        coverage-status queries of every searcher with points, the
        searchers with no position or no points, and whether any searcher
        was asked.
        """
        reached = self.reached()
        memo = self._memo
        best = len(ExpansionKind)
        heads: List[List[ExpansionPoint]] = []
        exhausted: List[int] = []
        floors_asked = 0
        served = 0
        searched = False
        for owner_id, position in zip(ids, positions):
            if position is None:
                exhausted.append(owner_id)
                continue
            answer = memo.get(owner_id)
            if (
                answer is not None
                and owner_id not in reached
                and answer.x == position.x
                and answer.y == position.y
            ):
                served += 1
            else:
                searched = True
                self.expansion_points(owner_id, position)
                answer = memo[owner_id]
            if not answer.points:
                exhausted.append(owner_id)
                continue
            kind = int(answer.points[0].kind)
            floors_asked += answer.floors_asked
            if kind < best:
                best = kind
                heads = [answer.parts[kind].points]
            elif kind == best:
                heads.append(answer.parts[kind].points)
        self.reused += served
        points = [point for head in heads for point in head]
        return points, floors_asked, exhausted, searched

    def reached(self) -> Set[int]:
        """The owners whose answer a registry or obstacle change may have
        altered since it was made or last asked, after routing every
        change made since the last call (the set is the planner's own)."""
        registry = self.registry
        if self._registry_seen != registry.version:
            changes = registry.changes_since(self._registry_seen)
            self._registry_seen = registry.version
            if self._memo:
                self._route_records(changes)
        field = self.field
        if self._field_seen != field.version:
            changes = field.changes_since(self._field_seen)
            self._field_seen = field.version
            if self._memo:
                self._route_obstacles(changes)
        return self._reached

    def forget(self, owner_id: int) -> None:
        """Drop the owner's memoised answer (it stopped searching)."""
        memo = self._memo.pop(owner_id, None)
        if memo is not None:
            self._unfile(owner_id, memo)

    def hand_over(self, owner_id: int, successor_id: int) -> None:
        """Give the owner's memoised answer to ``successor_id``, which now
        stands where the owner stood and is registered there in its place
        (a sensor arriving at its virtual place-holder's point).

        Every probe excluded the owner and will exclude the successor, so
        for FLG and BLG the changes of both are out of sight, and for
        IFLG they cancel at the point, as the owner's own changes do.
        That holds only if the successor was not registered when the
        answer was made: otherwise the answer is dropped.  A change of
        the successor's record since makes IFLG stale, as the owner's own
        would.  The IFLG neighbour entries carry over: the successor's
        record replaces the owner's at the same point, and neither is
        among them.
        """
        memo = self._memo.pop(owner_id, None)
        if memo is None:
            return
        self._unfile(owner_id, memo)
        added, removed = self.registry.last_changes(successor_id)
        if removed >= memo.registry_version:
            return

        def owned(points: List[ExpansionPoint]) -> List[ExpansionPoint]:
            return [ExpansionPoint(p.position, p.kind, successor_id) for p in points]

        for part in memo.parts:
            part.points = owned(part.points)
        for entry in memo.neighbors.values():
            entry.points = owned(entry.points)
        memo.points = [point for part in memo.parts for point in part.points]
        memo.former = (*memo.former, owner_id)
        if added >= memo.registry_version:
            memo.iflg_stale = True
        self.forget(successor_id)
        self._file(successor_id, memo)
        if memo.iflg_stale or memo.near or memo.moved:
            self._reached.add(successor_id)

    # ------------------------------------------------------------------
    # The memo: filing answers and routing changes to them
    # ------------------------------------------------------------------
    def _floors_asked(self, parts: List[_Part]) -> int:
        """Floor headers the coverage-status query of the first point of
        ``parts`` asks (zero without points), counted once per part."""
        for part in parts:
            if part.points:
                if part.asked < 0:
                    part.asked = len(
                        self.floors.floors_possibly_covering(
                            part.points[0].position, self.sensing_range
                        )
                    )
                return part.asked
        return 0

    def _file(self, owner_id: int, answer: _Answer) -> None:
        """Make ``answer`` the owner's and file it under the grid cells
        its reach box meets: its probes' reach and its record's
        neighbour reach."""
        old = self._memo.get(owner_id)
        old_cells = None if old is None else old.cells
        self._memo[owner_id] = answer
        self._reached.discard(owner_id)
        xmin = ymin = math.inf
        xmax = ymax = -math.inf
        if answer.probe_reach_sq >= 0.0:
            reach = math.sqrt(answer.probe_reach_sq)
            xmin = answer.x - reach
            ymin = answer.y - reach
            xmax = answer.x + reach
            ymax = answer.y + reach
        record = answer.record
        if record is not None:
            reach = self._neighbor_reach
            xmin = min(xmin, record[0] - reach)
            ymin = min(ymin, record[1] - reach)
            xmax = max(xmax, record[0] + reach)
            ymax = max(ymax, record[1] + reach)
        if xmin <= xmax:
            cell = self._cell
            answer.cells = (
                math.floor(xmin / cell),
                math.floor(ymin / cell),
                math.floor(xmax / cell),
                math.floor(ymax / cell),
            )
        if old_cells is not None:
            # Cells that cover more than the reach box only route more
            # changes to the exact tests: keep the old ones if they do.
            ix0, iy0, ix1, iy1 = old_cells
            jx0, jy0, jx1, jy1 = answer.cells
            if ix0 <= jx0 and iy0 <= jy0 and jx1 <= ix1 and jy1 <= iy1:
                answer.cells = old_cells
                return
            self._unfile_cells(owner_id, old_cells)
        grid = self._grid
        ix0, iy0, ix1, iy1 = answer.cells
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                owners = grid.get((ix, iy))
                if owners is None:
                    grid[ix, iy] = {owner_id}
                else:
                    owners.add(owner_id)

    def _unfile(self, owner_id: int, answer: _Answer) -> None:
        """Take the owner's ``answer`` (no longer in the memo) off the grid."""
        self._unfile_cells(owner_id, answer.cells)
        self._reached.discard(owner_id)

    def _unfile_cells(self, owner_id: int, cells: Tuple[int, int, int, int]) -> None:
        grid = self._grid
        ix0, iy0, ix1, iy1 = cells
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                owners = grid[ix, iy]
                owners.discard(owner_id)
                if not owners:
                    del grid[ix, iy]

    def _route_records(self, changes: List[Tuple[float, float, int, bool]]) -> None:
        """Route each registry change to the answers it may alter: the
        owner's own, and those filed under its cell whose record it is a
        same-floor neighbour of or whose probes it is within reach of."""
        memo = self._memo
        grid = self._grid
        reached = self._reached
        cell = self._cell
        neighbor_reach_sq = self._neighbor_reach * self._neighbor_reach
        floor_index = self.floors.floor_index
        floor = math.floor
        checked = 0
        for change in changes:
            cx, cy, node_id, _ = change
            owners = grid.get((floor(cx / cell), floor(cy / cell)), _NO_OWNERS)
            if node_id in memo and node_id not in owners:
                owners = (*owners, node_id)
            checked += len(owners)
            change_floor = None
            for owner_id in owners:
                answer = memo[owner_id]
                dx = cx - answer.x
                dy = cy - answer.y
                if dx * dx + dy * dy <= answer.probe_reach_sq:
                    answer.near.append(change)
                    reached.add(owner_id)
                if node_id == owner_id:
                    answer.iflg_stale = True
                    reached.add(owner_id)
                    continue
                record = answer.record
                if record is None:
                    continue
                dx = cx - record[0]
                dy = cy - record[1]
                if dx * dx + dy * dy <= neighbor_reach_sq:
                    if change_floor is None:
                        change_floor = floor_index(cy)
                    if change_floor == record[2]:
                        answer.iflg_stale = True
                        answer.neighbor_changes.append(change)
                        reached.add(owner_id)
        self.checked += checked

    def _route_obstacles(
        self, changes: List[Tuple[float, float, float, float, bool]]
    ) -> None:
        """Route the obstacle changes to the answers one of them may
        alter: those with a part whose field reach one meets.  Obstacle
        changes are lifecycle events, a few a run, so every answer is
        examined."""
        reached = self._reached
        pieces_reach = self.field.boundary_pieces_reach
        rs = self.sensing_range
        self.checked += len(self._memo)
        for owner_id, answer in self._memo.items():
            flg, blg, iflg = answer.parts
            if (
                _touches(flg.reach, changes)
                or _touches(blg.reach, changes, pieces_reach(answer.x, answer.y, rs))
                or _touches(iflg.reach, changes)
            ):
                answer.moved.extend(changes)
                reached.add(owner_id)

    def _stale_parts(
        self, memo: _Answer, owner_id: int
    ) -> Tuple[List[bool], List[Tuple[float, float, int, bool]]]:
        """Which parts of ``memo`` the registry changes routed to it may
        alter, and those within reach of one of its probes."""
        near = memo.near
        iflg_stale = memo.iflg_stale
        if not near:
            return [False, False, iflg_stale], near
        # FLG and BLG probes exclude the owner alone; IFLG probes exclude
        # nothing or the owner and a neighbour.  The owner's changes
        # cancel at their points among themselves, as do those of the
        # owners the answer was handed over from, and so do the others'
        # among themselves: a neighbour whose record changed is dropped,
        # searched again or, replaced by another record at its point,
        # excludes that record instead (:meth:`_iflg_points`).
        owners = (owner_id, *memo.former)
        own = [change for change in near if change[2] in owners]
        others = _net([change for change in near if change[2] not in owners])
        near = _net(own) + others if own else others
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
        covered = self.registry.is_point_covered(x, y, self.sensing_range, exclude)
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
        record: Optional[Tuple[float, float, int]],
        known: Dict[Tuple[int, float, float], _Part],
        updates: Optional[List[Tuple[float, float, int, bool]]],
        changes: List[Tuple[float, float, int, bool]],
        moved: List[Tuple[float, float, float, float, bool]],
        entries: Dict[Tuple[int, float, float], _Part],
    ) -> List[ExpansionPoint]:
        """IFLG points, searched per same-floor neighbour of ``record``.

        ``known`` holds the last answer's neighbour entries (from the same
        position) under their ``(node_id, x, y)``.  With ``updates`` (the
        registry changes routed to the answer as same-floor neighbours
        of the same record since) the neighbours are ``known``'s keys
        with those changes applied in order; otherwise they are read from
        the registry.  A neighbour found in ``known`` is reused when none
        of the registry ``changes`` since could flip one of its probes
        and none of the obstacle changes ``moved`` meets its field reach;
        every neighbour's part goes into ``entries``.
        """
        if record is None:
            return []
        floor_index = self.floors.floor_index(py)
        inter_lines = self._inter_lines.get(floor_index)
        if inter_lines is None:
            inter_lines = self._inter_lines[floor_index] = [
                line
                for line in (
                    self.floors.inter_floor_line_above(floor_index),
                    self.floors.inter_floor_line_below(floor_index),
                )
                if line is not None
            ]
        if not inter_lines:
            return []
        radius = self.expansion_radius
        if updates is None:
            neighbors: Dict[Tuple[int, float, float], Optional[_Part]] = {
                (other.node_id, other.position.x, other.position.y): known.get(
                    (other.node_id, other.position.x, other.position.y)
                )
                for other in self.registry.neighbors_on_floor(owner_id, 2.0 * radius)
            }
        else:
            # The registry's neighbour test, on the changes alone.
            neighbors = dict(known)
            dropped: Dict[Tuple[int, float, float], _Part] = {}
            reach = 2.0 * radius + 1e-9
            reach_sq = reach * reach
            mx, my, _ = record
            for cx, cy, node_id, added in updates:
                dx = cx - mx
                dy = cy - my
                if node_id == owner_id or dx * dx + dy * dy > reach_sq:
                    continue
                key = (node_id, cx, cy)
                if added:
                    neighbors[key] = dropped.pop(key, None)
                else:
                    entry = neighbors.pop(key, None)
                    if entry is not None:
                        dropped[key] = entry
            if dropped:
                # A new neighbour at a dropped one's point (a sensor that
                # arrived at its place-holder's) takes over its entry:
                # the search reads the neighbour's point only, and its
                # probes exclude the new record where they excluded the
                # old one, which is gone.
                at = {(key[1], key[2]): entry for key, entry in dropped.items()}
                for key, entry in neighbors.items():
                    if entry is None:
                        neighbors[key] = at.pop((key[1], key[2]), None)
        rs = self.sensing_range
        reach = rs + _MEMO_SLACK
        reach_sq = reach * reach
        is_free_xy = self.field.is_free_xy
        is_point_covered = self.registry.is_point_covered
        probes = self._probes
        part_reach = self._reach
        points: List[ExpansionPoint] = []
        reused = 0
        queries = 0
        for key, entry in neighbors.items():
            if (
                entry is not None
                and not (
                    changes and entry.probes and _flips(entry.probes, changes, reach_sq)
                )
                and not (moved and _touches(entry.reach, moved))
            ):
                reused += 1
            else:
                self.iflg_neighbors_computed += 1
                node_id, qx, qy = key
                # :meth:`_free` and :meth:`_is_uncovered`, inline.
                entry_probes: List[Tuple[float, float, bool]] = []
                entry_reach: List[float] = []
                entry = _Part([], entry_probes, entry_reach)
                crossings = circle_intersections_xy(px, py, radius, qx, qy, radius)
                midpoint_x = (px + qx) / 2.0
                for cx, cy in crossings:
                    # Keep only the intersection lying toward an inter-floor
                    # line (the side where a hole between the two sensors
                    # and that line could exist); the first such line is
                    # the hole's.
                    rise = cy - py
                    if abs(rise) <= 1e-9:
                        continue
                    for hole_y in inter_lines:
                        if rise * (hole_y - py) > 0:
                            break
                    else:
                        continue
                    entry_reach += (cx, cy)
                    if not is_free_xy(cx, cy):
                        continue
                    # There is a hole only if the point of the inter-floor
                    # line midway between the two sensors is not covered by
                    # anyone.
                    entry_reach += (midpoint_x, hole_y)
                    if not is_free_xy(midpoint_x, hole_y):
                        continue
                    covered = is_point_covered(midpoint_x, hole_y, rs, ())
                    entry_probes.append((midpoint_x, hole_y, covered))
                    queries += 1
                    if covered:
                        continue
                    # The EP itself must not already host (or be promised
                    # to) another node.
                    covered = is_point_covered(cx, cy, rs, (owner_id, node_id))
                    entry_probes.append((cx, cy, covered))
                    queries += 1
                    if not covered:
                        entry.points.append(
                            ExpansionPoint(Vec2(cx, cy), ExpansionKind.IFLG, owner_id)
                        )
                entry.farthest = _farthest(entry_probes, px, py)
            entries[key] = entry
            points.extend(entry.points)
            probes.extend(entry.probes)
            # IFLG reads the field at points only: every reach is bounded.
            part_reach.extend(entry.reach)
        self.iflg_neighbors_reused += reused
        self.coverage_queries += queries
        return points
