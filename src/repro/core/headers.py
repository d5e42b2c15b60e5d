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
points per period, each probe scanning the records of every floor in
range), so they are served from a :class:`~repro.spatial.index.
SpatialIndex` rebuilt lazily whenever the records change.  Randomized
parity tests pin the indexed queries against an exhaustive per-floor scan
(``tests/oracles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Vec2
from ..spatial import SpatialIndex
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
    _index: Optional[SpatialIndex] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(floor_index, record)`` in index order, parallel to the index store.
    _index_records: List[Tuple[int, FloorRecord]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _index_dirty: bool = field(default=True, init=False, repr=False, compare=False)

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
        self._records.setdefault(floor_index, {})[node_id] = FloorRecord(
            node_id=node_id, position=position, virtual=virtual
        )
        self._index_dirty = True
        return floor_index

    def unregister(self, node_id: int) -> None:
        """Remove a node from whatever floor it was registered on."""
        for floor_records in self._records.values():
            if floor_records.pop(node_id, None) is not None:
                self._index_dirty = True

    def promote_virtual(self, node_id: int, position: Vec2) -> None:
        """Replace a virtual place-holder by the real arrived sensor."""
        self.unregister(node_id)
        self.register(node_id, position, virtual=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records_on_floor(self, floor_index: int) -> List[FloorRecord]:
        """All records registered on a floor."""
        return list(self._records.get(floor_index, {}).values())

    def all_records(self) -> List[FloorRecord]:
        """All records across all floors."""
        result: List[FloorRecord] = []
        for floor_records in self._records.values():
            result.extend(floor_records.values())
        return result

    def floor_of(self, node_id: int) -> Optional[int]:
        """Floor index a node is registered on (``None`` when absent)."""
        for floor_index, floor_records in self._records.items():
            if node_id in floor_records:
                return floor_index
        return None

    def header_of_floor(self, floor_index: int) -> Optional[FloorRecord]:
        """The floor header: the registered node with the smallest x.

        Ties are broken by node id, as in the paper.
        """
        records = self.records_on_floor(floor_index)
        if not records:
            return None
        return min(records, key=lambda r: (r.position.x, r.node_id))

    def _ensure_index(self) -> SpatialIndex:
        """The spatial index over all records, rebuilt when records changed.

        The store is laid out floor by floor in registration order, so
        ascending index order restricted to one floor equals that floor's
        dict iteration order — the indexed queries therefore return records
        in exactly the order the exhaustive scan visits them.
        """
        if self._index is not None and not self._index_dirty:
            return self._index
        self._index_records = [
            (floor_index, record)
            for floor_index, floor_records in self._records.items()
            for record in floor_records.values()
        ]
        index = SpatialIndex(cell_size=max(self.floors.floor_height, 1e-9))
        index.build([(r.position.x, r.position.y) for _, r in self._index_records])
        self._index = index
        self._index_dirty = False
        return index

    def is_point_covered(
        self,
        point: Vec2,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> Tuple[bool, List[int]]:
        """Whether ``point`` is covered by any registered node.

        Returns ``(covered, floors_queried)`` where ``floors_queried`` lists
        the floor indices a distributed implementation would have had to ask
        (used by the scheme to account query/response messages).  Nodes in
        ``exclude`` (typically the asking sensor itself) are ignored.
        """
        excluded = set(exclude)
        floors_to_ask = self.floors.floors_possibly_covering(point, sensing_range)
        index = self._ensure_index()
        askable = set(floors_to_ask)
        for i in index.query_radius(point, sensing_range + 1e-9):
            floor_index, record = self._index_records[i]
            if record.node_id in excluded or floor_index not in askable:
                continue
            return True, floors_to_ask
        return False, floors_to_ask

    def neighbors_on_floor(
        self, node_id: int, radius: float
    ) -> List[FloorRecord]:
        """Registered nodes on the same floor within ``radius`` of a node."""
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        records = self._records.get(floor_index, {})
        me = records.get(node_id)
        if me is None:
            return []
        index = self._ensure_index()
        result: List[FloorRecord] = []
        for i in index.query_radius(me.position, radius + 1e-9):
            hit_floor, record = self._index_records[i]
            if hit_floor == floor_index and record.node_id != node_id:
                result.append(record)
        return result

    def count(self, include_virtual: bool = True) -> int:
        """Number of registered nodes."""
        return sum(
            1
            for r in self.all_records()
            if include_virtual or not r.virtual
        )

    def compact_summary(self, floor_index: int) -> List[Tuple[float, float]]:
        """Run-length summary of x-intervals occupied on a floor.

        Mirrors the paper's observation that a floor header only needs to
        record the first and last x coordinates of each contiguous run of
        regularly spaced nodes.  Two consecutive nodes belong to the same
        run when their spacing does not exceed twice the sensing range.
        """
        records = sorted(
            self.records_on_floor(floor_index), key=lambda r: r.position.x
        )
        if not records:
            return []
        max_gap = 2.0 * self.floors.sensing_range
        runs: List[Tuple[float, float]] = []
        run_start = records[0].position.x
        previous = records[0].position.x
        for record in records[1:]:
            x = record.position.x
            if x - previous > max_gap:
                runs.append((run_start, previous))
                run_start = x
            previous = x
        runs.append((run_start, previous))
        return runs
