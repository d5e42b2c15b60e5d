"""Floor-header registry and coverage-status queries (Section 5.4).

Each floor has a *header node* — the fixed node with the smallest
x coordinate on that floor — which records the locations of the fixed nodes
on its floor in a compact run-length form.  When a sensor needs to know
whether a point beyond its own sensing range is already covered, it first
asks its direct neighbours and otherwise sends a query to the header nodes
of the floors that could contain a covering sensor.

The registry below is the centralised bookkeeping equivalent: it stores the
fixed (and virtual, i.e. place-holding) node positions per floor, answers
point-coverage queries, and reports which floor a node belongs to so the
scheme can account the query / response message costs on the tree.

The coverage and same-floor-neighbour queries are the hot loop of FLOOR's
phase-3 expansion search (every active searcher probes several candidate
points per period), so they run as scalar loops over per-floor lists of
``(x, y, node_id)`` tuples with the squared-distance test of
:meth:`~repro.spatial.index.SpatialIndex.query_radius`: a coverage query
scans only the floors its floor filter admits, and on each only the rows
within reach in x of an x-sorted list kept up to date on every change,
and the neighbour query scans the same list on its own floor.
:attr:`FloorRegistry.version` counts record changes, and
:meth:`FloorRegistry.changes_since` lists where each change happened and
whether it added or removed a record, so
that callers can tell whether an answer derived from the registry could
have moved (the expansion planner routes each change once to the answers
it can reach).  Randomized parity tests pin the scans against an exhaustive
per-floor scan (``tests/oracles``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Vec2
from .floors import FloorGeometry

__all__ = ["FloorRegistry", "FloorRecord"]


@dataclass(frozen=True)
class FloorRecord:
    """One fixed (or virtual place-holding) node registered on a floor."""

    node_id: int
    position: Vec2
    virtual: bool = False


@dataclass
class FloorRegistry:
    """Per-floor record of fixed and virtual fixed nodes."""

    floors: FloorGeometry
    _records: Dict[int, Dict[int, FloorRecord]] = field(default_factory=dict)
    #: Bumped each time a record is added or removed.
    version: int = field(default=0, init=False, compare=False)
    #: ``(x, y, node_id, added)`` of the record added (``added`` true) or
    #: removed by each version bump: entry ``v`` is the change that took
    #: the version from ``v`` to ``v + 1``.
    _journal: List[Tuple[float, float, int, bool]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: ``node_id -> [added, removed]``: the journal index of the node's
    #: last record addition and removal (``-1``: none).
    _last_changes: Dict[int, List[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``node_id -> floor_index`` of every record: a node is on one floor.
    _floor_of: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``floor_index -> (xs, rows)``: each floor's ``(x, y, node_id)``
    #: rows sorted by x, and their x, kept up to date on every change.
    _by_x: Dict[int, Tuple[List[float], List[Tuple[float, float, int]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._floor_of = {
            node_id: floor_index
            for floor_index, floor_records in self._records.items()
            for node_id in floor_records
        }
        for floor_index, floor_records in self._records.items():
            for record in floor_records.values():
                self._insert_row(floor_index, record)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, position: Vec2, virtual: bool = False) -> int:
        """Register a fixed node (or a virtual place-holder) at ``position``.

        Returns the floor index the node was filed under.  Re-registering an
        id overwrites its previous record (e.g. a virtual place-holder being
        replaced by the real sensor on arrival), even when the new position
        lies on a different floor.
        """
        self.unregister(node_id)
        floor_index = self.floors.floor_index(position.y)
        record = FloorRecord(node_id=node_id, position=position, virtual=virtual)
        self._records.setdefault(floor_index, {})[node_id] = record
        self._floor_of[node_id] = floor_index
        self._insert_row(floor_index, record)
        self._changed(position, node_id, True)
        return floor_index

    def unregister(self, node_id: int) -> None:
        """Remove a node from whatever floor it was registered on."""
        floor_index = self._floor_of.pop(node_id, None)
        if floor_index is not None:
            record = self._records[floor_index].pop(node_id)
            xs, rows = self._by_x[floor_index]
            k = bisect_left(xs, record.position.x)
            while rows[k][2] != node_id:
                k += 1
            del xs[k], rows[k]
            self._changed(record.position, node_id, False)

    def _insert_row(self, floor_index: int, record: FloorRecord) -> None:
        x = record.position.x
        xs, rows = self._by_x.setdefault(floor_index, ([], []))
        k = bisect_right(xs, x)
        xs.insert(k, x)
        rows.insert(k, (x, record.position.y, record.node_id))

    def promote_virtual(self, node_id: int, position: Vec2) -> None:
        """Replace a virtual place-holder by the real arrived sensor."""
        self.unregister(node_id)
        self.register(node_id, position, virtual=False)

    def _changed(self, position: Vec2, node_id: int, added: bool) -> None:
        self._journal.append((position.x, position.y, node_id, added))
        last = self._last_changes.get(node_id)
        if last is None:
            last = self._last_changes[node_id] = [-1, -1]
        last[0 if added else 1] = self.version
        self.version += 1

    def changes_since(self, version: int) -> List[Tuple[float, float, int, bool]]:
        """``(x, y, node_id, added)`` of every record added or removed since
        ``version``, in order.

        A re-registration appears twice: the old record's removal, then
        the new record.
        """
        return self._journal[version:]

    def last_changes(self, node_id: int) -> Tuple[int, int]:
        """The versions at which a record of ``node_id`` was last added
        and last removed (``-1`` when never): a change is among
        :meth:`changes_since` ``(v)`` when its version is at least ``v``."""
        added, removed = self._last_changes.get(node_id, (-1, -1))
        return added, removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_records(self) -> List[FloorRecord]:
        """All records across all floors."""
        result: List[FloorRecord] = []
        for floor_records in self._records.values():
            result.extend(floor_records.values())
        return result

    def floor_of(self, node_id: int) -> Optional[int]:
        """Floor index a node is registered on (``None`` when absent)."""
        return self._floor_of.get(node_id)

    def record(self, node_id: int) -> Optional[FloorRecord]:
        """A node's record (``None`` when it is not registered)."""
        floor_index = self._floor_of.get(node_id)
        if floor_index is None:
            return None
        return self._records[floor_index][node_id]

    def is_point_covered(
        self,
        x: float,
        y: float,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> bool:
        """Whether the point ``(x, y)`` is covered by any registered node.

        Only nodes on the floors a distributed implementation would ask
        (:meth:`FloorGeometry.floors_possibly_covering`) count; nodes in
        ``exclude`` (typically the asking sensor itself) are ignored.
        """
        reach = sensing_range + 1e-9
        reach_sq = reach * reach
        # Rows beyond ``reach`` in x fail the distance test; the window
        # is wider by far more than rounding.
        low = x - reach - 1e-6
        high = x + reach + 1e-6
        floor_line_ys = self.floors.floor_line_ys
        for floor_index, (xs, rows) in self._by_x.items():
            if abs(floor_line_ys[floor_index] - y) > reach:
                continue
            for k in range(bisect_left(xs, low), bisect_right(xs, high)):
                rx, ry, node_id = rows[k]
                dx = rx - x
                dy = ry - y
                if dx * dx + dy * dy <= reach_sq and node_id not in exclude:
                    return True
        return False

    def neighbors_on_floor(
        self, node_id: int, radius: float
    ) -> List[FloorRecord]:
        """Registered nodes on the same floor within ``radius`` of a node,
        in ascending x."""
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        floor_records = self._records[floor_index]
        me = floor_records[node_id].position
        mx, my = me.x, me.y
        reach = radius + 1e-9
        reach_sq = reach * reach
        xs, rows = self._by_x[floor_index]
        # As in :meth:`is_point_covered`: rows beyond ``reach`` in x fail
        # the distance test.
        low = bisect_left(xs, mx - reach - 1e-6)
        high = bisect_right(xs, mx + reach + 1e-6)
        result: List[FloorRecord] = []
        for k in range(low, high):
            rx, ry, other_id = rows[k]
            if other_id == node_id:
                continue
            dx = rx - mx
            dy = ry - my
            if dx * dx + dy * dy <= reach_sq:
                result.append(floor_records[other_id])
        return result

    def count(self, include_virtual: bool = True) -> int:
        """Number of registered nodes."""
        return sum(
            1
            for r in self.all_records()
            if include_virtual or not r.virtual
        )
